"""Tests for the benchmark's own code: statistics, tracer, workloads, checks."""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import Ledger, Pass, run_pass, until  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(range(100)) == (90.0, 89, 10)
    assert stats.tail(range(99)) == (89.0, 88, 10)


def test_tail_ladder_stops_at_p99():
    assert stats.tail(range(2000)) == (99, 1979, 20)


def test_tail_counts_only_samples_strictly_beyond():
    # From p77 up the percentile sits on the top run of equal values,
    # with nothing above it.
    assert stats.tail([1] * 50 + [2] * 15) == (76.0, 1, 15)


def test_tail_is_none_without_support():
    assert stats.tail(range(19)) is None
    assert stats.tail([5.0]) is None


def test_quartile_spread():
    assert stats.quartile_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    assert stats.quartile_spread([3.0] * 10) == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_tracer_self_time_excludes_wrapped_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    calls = {}

    def inner():
        clock.now += 3

    def outer():
        clock.now += 5
        calls["inner"]()
        clock.now += 2
        calls["inner"]()

    calls["inner"] = tr.wrap(inner, "x.inner", "x")
    tr.wrap(outer, "x.outer", "x")()

    assert tr.stats["x.outer"].calls == 1
    assert tr.stats["x.outer"].total_ns == 13
    assert tr.stats["x.outer"].self_ns == 7
    assert tr.stats["x.inner"].calls == 2
    assert tr.stats["x.inner"].self_ns == tr.stats["x.inner"].total_ns == 6


def test_tracer_counts_an_error_once_per_module():
    tr = tracer.Tracer()

    def fail():
        raise ValueError("boom")

    inner = tr.wrap(fail, "x.fail", "x")
    outer = tr.wrap(lambda: inner(), "x.outer", "x")
    with pytest.raises(ValueError):
        outer()
    assert tr.stats["x.fail"].calls == tr.stats["x.outer"].calls == 1
    assert tr.module_errors["x"] == 1


def test_tracer_patches_every_binding_site_and_restores_them():
    import padicount
    from padicount import cli, oracles, profiles

    originals = (profiles.qp_profile, cli.qp_profile, oracles.AbelianGroup.order_histogram)
    tr = tracer.Tracer()
    tr.install(padicount)
    try:
        assert cli.qp_profile is profiles.qp_profile is not originals[0]
        assert cli.main(["count", "iso-ef", "--qp", "3", "--e", "3", "--f", "1"]) == 0
        oracles.AbelianGroup((2, 2)).order_histogram()
    finally:
        tr.uninstall()
    assert (profiles.qp_profile, cli.qp_profile, oracles.AbelianGroup.order_histogram) == originals
    assert tr.stats["profiles.qp_profile"].calls == 1
    assert tr.stats["cli.main"].calls == 1
    assert tr.stats["oracles.AbelianGroup.order_histogram"].calls == 1


def test_tracer_snapshots_add_up():
    clock = FakeClock()
    first, second, total = tracer.Tracer(clock=clock), tracer.Tracer(clock=clock), tracer.Tracer()

    def step(bits):
        clock.now += 4
        return 1 << bits

    first.wrap(step, "counting.guarded_power", "counting")(3)
    second.wrap(step, "counting.guarded_power", "counting")(9)
    total.absorb(first.snapshot())
    total.absorb(second.snapshot())
    st = total.stats["counting.guarded_power"]
    assert (st.calls, st.self_ns, st.max_bits) == (2, 8, 10)


@pytest.mark.parametrize("name", ["queries", "table", "hard"])
def test_workloads_are_deterministic_per_seed_and_pass(name, tmp_path):
    def argvs(seed, pass_index=0):
        return [op.argv for g in workloads.build(name, seed, tmp_path, pass_index) for op in g.ops]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)
    assert argvs(7, 1) == argvs(7, 1)
    assert argvs(7, 1) != argvs(7)


@pytest.mark.parametrize("name", ["queries", "table", "hard"])
def test_no_invocation_repeats_within_a_pass(name, tmp_path):
    for pass_index in range(20):
        ops = [op.argv for g in workloads.build(name, 5, tmp_path, pass_index) for op in g.ops]
        assert len(set(ops)) == len(ops)


def test_tame_reference():
    assert workloads.tame_classes(5, 1, 2, 1) == 2
    assert workloads.tame_classes(3, 1, 2, 12) == 2
    assert workloads.tame_classes(3, 1, 1_000_003, 1) == 1


def test_checks_reject_wrong_answers():
    op = workloads.Op(("count", "iso-total", "--qp", "2", "--n", "4"), 59)
    assert workloads.check_output(op, "59\n") == 59
    with pytest.raises(workloads.Mismatch):
        workloads.check_output(op, "58\n")
    with pytest.raises(workloads.Mismatch):
        workloads.check_output(workloads.Op(op.argv + ("--json",)), '{"query": {"kind": "iso-total"}, "value": 59}')
    with pytest.raises(workloads.Mismatch):
        workloads.check_output(workloads.Op(op.argv + ("--json",)), "not json")
    with pytest.raises(workloads.Mismatch):
        workloads.check_output(workloads.Op(("table", "--qp", "2", "--n-max", "2")), "e,f\n1\n")
    group = workloads.Group((op, op, op), "sum")
    with pytest.raises(workloads.Mismatch):
        workloads.check_group(group, [59, 30, 30])


def test_ledger_fails_changed_output_bad_exit_and_disagreement():
    op = workloads.Op(("count", "iso-total", "--qp", "2", "--n", "4"), 59)
    single = workloads.Group((op,))
    ledger = Ledger()
    ledger.record(single, [(0, "59\n", 0.001, 0.001)])
    ledger.record(single, [(0, "59 \n", 0.001, 0.001)])
    ledger.record(single, [("2 error: bad", "", 0.001, 0.001)])
    cell = workloads.Op(("count", "iso-ef", "--qp", "2", "--e", "1", "--f", "4"))
    ledger.record(workloads.Group((op, cell), "sum"), [(0, "59\n", 0.001, 0.001), (0, "58\n", 0.001, 0.001)])
    assert ledger.attempted == 5
    assert ledger.failed == 4


def test_run_pass_in_a_worker_returns_answers_and_trace():
    results, rss_kb, snapshot = run_pass([("count", "iso-ef", "--qp", "3", "--e", "3", "--f", "1")], trace=True)
    assert [(code, out) for code, out, *_ in results] == [(0, "9\n")]
    assert all(value > 0 for value in results[0][2:])
    assert rss_kb > 0
    assert snapshot["stats"]["cli.main"]["calls"] == 1


def test_pass_keeps_each_ops_best_scaled_time_in_op_order(monkeypatch):
    ops = [
        workloads.Op(("count", "iso-ef", "--qp", "3", "--e", "3", "--f", "1"), 9),
        workloads.Op(("count", "iso-total", "--qp", "2", "--n", "4"), 59),
        workloads.Op(("count", "krasner", "--qp", "2", "--e", "2", "--f", "1"), 6),
    ]
    answers = {op.argv: f"{op.expect}\n" for op in ops}
    # Wall seconds of each op's first, second and third run, on a host
    # running at half the reference speed in the second run; each CPU
    # time is the wall time plus one.
    times = {ops[0].argv: [5.0, 2.0, 4.0], ops[1].argv: [1.0, 3.0, 0.5], ops[2].argv: [7.0, 7.0, 6.0]}
    slowdown = [1, 2, 1]
    orders = []

    def fake_run_pass(argvs, trace=False):
        orders.append([argvs.index(op.argv) for op in ops])
        reference = calibration.REFERENCE_QUIET_S * slowdown[len(orders) - 1]
        results = [(0, answers[a], times[a][0], times[a].pop(0) + 1, reference) for a in argvs]
        return results, 100 + len(orders), None

    monkeypatch.setattr(run, "run_pass", fake_run_pass)
    one_pass, ledger = Pass([workloads.Group((op,)) for op in ops]), Ledger()
    for _ in range(3):
        assert one_pass.run(ledger) == calibration.REFERENCE_QUIET_S * slowdown[one_pass.runs - 1]
    assert (ledger.attempted, ledger.failed) == (9, 0)
    # Each run starts a third of the list further on.
    assert orders == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert one_pass.best_wall == [1.0, 0.5, 3.5]
    assert one_pass.best_cpu == [1.5, 1.5, 4.0]
    assert one_pass.peak_kb == 103


def test_until_stops_before_a_step_would_end_half_a_step_past_the_budget():
    costs = []

    def step(index):
        costs.append(index)
        return 4.0

    assert until(10, step) == 3
    assert costs == [0, 1, 2]
    assert until(9, step) == 2
    assert until(1, step) == 1


def test_worker_gives_each_op_the_mean_reference_time_around_its_stretch(monkeypatch):
    references = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(calibration, "reference_s", lambda: next(references))
    monkeypatch.setattr(worker, "CALIBRATE_EVERY_S", 0.05)
    cpu = {"a": 0.03, "b": 0.03, "c": 0.01}
    monkeypatch.setattr(worker, "execute", lambda cli, argv: (0, "", cpu[argv], cpu[argv]))
    results = worker.run_calibrated(None, ["a", "b", "c"])
    # a and b make one stretch of 0.06 s, measured between 1.0 and 3.0;
    # c runs after the second reference time and before the third.
    assert [result[4] for result in results] == [2.0, 2.0, 4.0]


def test_calibration_scales_to_the_quiet_reference():
    assert calibration.scale(calibration.REFERENCE_QUIET_S * 2) == 0.5
    assert calibration.reference_s() > 0
