"""The demo scripts run against the current API.

Each demo's main() runs in-process, loaded through runpy so that nothing
under demos/ needs to be importable; census runs to order 3 only.
"""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _main(name):
    return runpy.run_path(str(DEMOS / name))["main"]


def test_tour(capsys):
    _main("tour.py")()
    out = capsys.readouterr().out
    assert "paper-example-16" in out
    assert "reductive only at 4" in out
    # dihedral(4)'s orbit tree: the orbit {1,3} one split below the root
    assert "\n     {1,3} size 2\n" in out


def test_census(capsys):
    _main("census.py")(max_order=3)
    out = capsys.readouterr().out
    assert "(1 class of order 1)" in out
    assert "(3 classes of order 3)" in out


def test_verify_corpus(capsys):
    assert _main("verify_corpus.py")() == 0
    out = capsys.readouterr().out
    assert "all facts hold" in out
    assert "FAIL" not in out
