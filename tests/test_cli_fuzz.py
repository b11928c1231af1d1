"""Random `count` and `table` invocations, over Q_p and over random profile
files: every run ends in a documented exit code, no other exception
escapes, and nothing reaches stdout unless the run succeeds.  Random
command lines parse as the whole parser, build_parser(), parses them."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicount.cli import COMMANDS, KINDS, build_parser, main, parse_args

RARELY = st.integers(0, 5).map(lambda k: k == 5)


def _mostly(common, rare):
    return RARELY.flatmap(lambda odd: rare if odd else common)


VALUE = _mostly(st.integers(1, 9).map(str), st.sampled_from(["0", "-2", "x", "", "1.5", "--e"]))
PRIMES = _mostly(st.sampled_from([2, 3, 5, 7]), st.integers(-3, 10))

# towers that some field has, to be mixed with random ones
VALID_TOWERS = [
    (2, 1, 1, [(1, 1), (2, 1), (4, 1)]),
    (2, 1, 2, [(1, 1), (2, 1), (4, 1)]),
    (3, 2, 1, [(1, 2), (3, 2)]),
    (3, 2, 1, [(1, 1), (3, 1)]),
    (5, 1, 1, [(4, 1), (20, 1)]),
]
JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def profiles(draw):
    """A profile that is valid, nearly valid, or not a profile at all."""
    shape = draw(st.sampled_from(["valid", "random", "junk"]))
    if shape == "junk":
        return draw(JSON_JUNK)
    if shape == "valid":
        p, e0, f0, tower = draw(st.sampled_from(VALID_TOWERS))
        tower = tower[:draw(st.integers(0, len(tower)))]
    else:
        p, e0, f0 = draw(PRIMES), draw(st.integers(-1, 4)), draw(st.integers(-1, 3))
        tower = draw(st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 4)), max_size=3))
    levels = [{"i": i, "e": e, "f": f} for i, (e, f) in enumerate(tower, 1)]
    if draw(RARELY):
        levels.append(draw(JSON_JUNK))
    return {"p": p, "e0": e0, "f0": f0, "cyclotomic": levels}


@st.composite
def invocations(draw):
    """(argv, profile JSON text or None) for one run."""
    command = draw(st.sampled_from(["count", "table"]))
    argv = [command]
    if command == "count":
        kind = draw(st.sampled_from([*KINDS, "iso"]))  # "iso" is no kind
        argv.append(kind)
        params = [f"--{name}" for name in KINDS[kind].params] if kind in KINDS else []
        flags = ["--e", "--f", "--n", "--d"]
        switches = ["--breakdown", "--json"]
    else:
        params = draw(st.sampled_from([["--n-max"], ["--e-max", "--f-max"]]))
        flags = ["--n-max", "--e-max", "--f-max"]
        switches = ["--format=json", "--format=csv"]
    profile = None
    if draw(st.booleans()):
        argv += ["--qp", str(draw(PRIMES))]
    else:
        profile = json.dumps(draw(profiles()))
        argv += ["--profile", "PROFILE"]
    if draw(RARELY):  # a parameter missing or one too many
        params = draw(st.lists(st.sampled_from(flags), max_size=3, unique=True))
    for flag in params:
        argv += [flag, draw(VALUE)]
    argv += draw(st.lists(st.sampled_from(switches), max_size=2, unique=True))
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--qp", "-x", "7"])))
    return argv, profile


@settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=invocations())
def test_every_invocation_exits_0_to_4_and_prints_only_on_success(tmp_path, case):
    argv, profile = case
    if profile is not None:
        path = tmp_path / "profile.json"
        path.write_text(profile, encoding="utf-8")
        argv = [str(path) if arg == "PROFILE" else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in range(5), argv
    if code:
        assert out.getvalue() == "", argv


WORDS = st.sampled_from([
    *COMMANDS, *KINDS, "--qp", "--e", "--f", "--n", "--n-max", "--grid", "--br", "-h", "--",
    "--qp=2", "--e=4", "2", "3", "0", "-1", "small", "x", "--x", "extra",
])
COMMAND_LINES = st.tuples(
    st.sampled_from([[], *([name] for name in COMMANDS)]), st.lists(WORDS, max_size=7)
).map(lambda parts: parts[0] + parts[1])


def _parse(parse, argv):
    """The namespace argv parses to, or argparse's exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=COMMAND_LINES)
def test_a_command_line_parses_as_with_every_commands_arguments(argv):
    # parse_args builds only the parser of the command argv starts with
    assert _parse(parse_args, argv) == _parse(build_parser().parse_args, argv)
