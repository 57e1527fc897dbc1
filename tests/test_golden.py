"""Byte-identical ``analyze --json`` reports for the recorded golden cases.

Each file in ``golden/inputs`` is analyzed and its output compared with the
report of the same name in ``golden/reports``, recorded by
``golden/record.py``. The family inputs are also regenerated and must match
their recorded bytes, which pins the generators' output.
"""

import importlib.util
import os

import pytest

from coabelian.analyzer import analyze, kahler_verdict
from coabelian.cli import main
from coabelian.model import build_hom_from_family, serialize_family

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CASES = sorted(name[:-5] for name in os.listdir(os.path.join(GOLDEN, "inputs")))
_spec = importlib.util.spec_from_file_location("golden_record",
                                               os.path.join(GOLDEN, "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


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


def test_generated_families_match_recorded_inputs():
    names = []
    for name, spec in record.family_cases():
        names.append(name)
        with open(os.path.join(GOLDEN, "inputs", name + ".json"), encoding="utf-8") as fh:
            assert serialize_family(spec) == fh.read(), name
    assert len(names) == len(set(names)) >= 20


def test_kahler_verdict_alone_matches_analyze_on_families():
    for name, spec in record.family_cases():
        h = build_hom_from_family(spec)
        verdict, cert = kahler_verdict(h, spec)
        report = analyze(h, spec)
        assert report.kahler == verdict and cert in report.certificates, name
