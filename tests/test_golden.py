"""Byte-identical ``analyze --json`` reports for the recorded golden cases.

Each file in ``golden/inputs`` is analyzed and its output compared with the
report of the same name in ``golden/reports``, recorded by
``golden/record.py``.
"""

import os

import pytest

from coabelian.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CASES = sorted(name[:-5] for name in os.listdir(os.path.join(GOLDEN, "inputs")))


def test_golden_set_is_complete():
    assert len(CASES) >= 60
    assert sorted(os.listdir(os.path.join(GOLDEN, "reports"))) == sorted(
        c + ".json" for c in CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_report(case, capsys):
    code = main(["analyze", os.path.join(GOLDEN, "inputs", case + ".json"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    with open(os.path.join(GOLDEN, "reports", case + ".json"), encoding="utf-8") as fh:
        assert out == fh.read()
