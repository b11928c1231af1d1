"""Byte goldens for the command line, under pytest.

The cases, invoke and load_goldens live in tests/cli_goldens.py, which
needs no pytest, so `python tests/cli_goldens.py --check` replays the
same goldens under any installed interpreter and
`python tests/cli_goldens.py` re-records them.
"""

import argparse
import json

import pytest

import cli_goldens
from cli_goldens import CASES, HERE, invoke, load_goldens


def test_every_case_has_a_golden():
    assert sorted(load_goldens()) == sorted(CASES)


def test_goldens_cover_every_exit_code_but_failures():
    assert {g["exit"] for g in load_goldens().values()} == {0, 2, 3}


@pytest.mark.parametrize("case", CASES)
def test_cli_golden(case, monkeypatch):
    monkeypatch.chdir(HERE)
    monkeypatch.delenv("PADICOUNT_MAX_BITS", raising=False)
    assert invoke(case) == load_goldens()[case]


def test_the_check_replay_exits_1_on_a_moved_byte(tmp_path, monkeypatch, capsys):
    goldens = load_goldens()
    goldens["count"]["stderr"] += " "
    moved = tmp_path / "cli_goldens.json"
    moved.write_text(json.dumps(goldens), encoding="utf-8")
    monkeypatch.chdir(HERE)  # replay changes directory; monkeypatch restores it
    monkeypatch.delenv("PADICOUNT_MAX_BITS", raising=False)
    monkeypatch.setattr(cli_goldens, "GOLDENS", moved)
    assert cli_goldens.replay(check=True) == 1
    out = capsys.readouterr().out
    assert out.startswith("mismatch: 'count'\n")
    assert f"{len(CASES) - 1} of {len(CASES)} cases match" in out


def _unquoted_check_value(self, action, value):
    """argparse's invalid-choice refusal in CPython 3.13.13's wording: each choice unquoted."""
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def test_the_check_replay_reads_invalid_choices_in_the_running_wording(monkeypatch, capsys):
    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", _unquoted_check_value)
    monkeypatch.chdir(HERE)
    monkeypatch.delenv("PADICOUNT_MAX_BITS", raising=False)
    assert invoke("foo") != load_goldens()["foo"]  # the recorded line quotes each choice
    assert cli_goldens.replay(check=True) == 0
    assert f"{len(CASES)} of {len(CASES)} cases match" in capsys.readouterr().out
