"""The oracles share no code with what they check: oracles.py never
imports or names the closed forms (counting, theorems), the suites that
replay them (selfcheck) or the front end (cli)."""

from test_checked_division import ROOT, uses_of

ORACLES = ROOT / "src" / "padicount" / "oracles.py"
CHECKED = {"counting", "theorems", "selfcheck", "cli"}


def test_the_oracles_use_no_checked_module():
    stray = [f"oracles.py:{line}" for _, line in uses_of(ORACLES, CHECKED)]
    assert stray == [], f"oracles.py uses a module it checks at {stray}"


def test_the_guard_sees_each_form_of_use(tmp_path):
    planted = tmp_path / "oracles.py"
    forms = [
        "from . import counting",
        "from .theorems import iso_count_ef",
        "import padicount.selfcheck",
        "from padicount import cli as front",
        "x = counting",
        "x = padicount.theorems.iso_count_ef",
    ]
    for form in forms:
        planted.write_text(ORACLES.read_text(encoding="utf-8") + form + "\n", encoding="utf-8")
        assert len(uses_of(planted, CHECKED)) == 1, form
