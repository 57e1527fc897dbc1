import json
import subprocess
import sys
from itertools import combinations

import pytest

from coabelian import analyzer, cli, forge, oracle
from coabelian.cli import main
from coabelian.model import SchemaError, parse_document, parse_family, parse_hom


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_analyze_round_trip(tmp_path, capsys):
    path = tmp_path / "fam.json"
    code, _, _ = run(capsys, "generate", "generic", "-k", "2", "-r", "4",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["finiteness"] == {"kind": "ExactType", "m": 2}
    assert doc["kahler"] == {"kind": "Kahler"}


def test_json_output_byte_stable(tmp_path, capsys):
    path = tmp_path / "fam.json"
    run(capsys, "generate", "extended", "-m", "1", "-r", "4", "--out", str(path))
    _, out1, _ = run(capsys, "analyze", str(path), "--json")
    _, out2, _ = run(capsys, "analyze", str(path), "--json")
    assert out1 == out2


def test_analyze_oracle_agrees(tmp_path, capsys):
    path = tmp_path / "fam.json"
    run(capsys, "generate", "generic", "-k", "1", "-r", "3", "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--oracle")
    assert code == 0
    assert "agreed on all tuples" in out


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_analyze_oracle_disagreement_exits_2(tmp_path, capsys, monkeypatch, fmt):
    # the image has index 4 in Z^2, so the check reads a rewritten normal form
    path = tmp_path / "hom.json"
    path.write_text(json.dumps({"genera": [2, 2, 2], "target_rank": 2, "blocks": [
        [2, 0, 1, 0, 0, 0, 2, 0], [0, 2, 0, 0, 0, 0, 0, 0], [4, 0, 0, 1, 0, 0, 0, 2]]}))
    real, seen = oracle.vsp_by_preimage, []

    def flipped(h, t):
        seen.append(h)
        return None if real(h, t) is not None else 1

    monkeypatch.setattr(oracle, "vsp_by_preimage", flipped)
    code, out, err = run(capsys, "analyze", str(path), "--oracle", *fmt)
    assert code == 2 and out == ""
    tuples = [t for size in (1, 2, 3) for t in combinations((1, 2, 3), size)]
    assert [line.split(": shortcut says ")[0] for line in err.splitlines()] == [
        f"oracle disagreement: tuple {t}" for t in tuples]
    raw = parse_hom(path.read_text())
    assert raw.normal_form != raw and len(seen) == len(tuples)
    assert all(h == raw.normal_form for h in seen)


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.json")
    assert code == 1
    assert "error:" in err


def test_analyze_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"genera": [2]}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "missing field" in err


def test_generate_bad_ranges(capsys):
    code, _, err = run(capsys, "generate", "generic", "-k", "3", "-r", "4")
    assert code == 1
    code, _, err = run(capsys, "generate", "extended", "-m", "2", "-r", "4")
    assert code == 1
    # the document lists every cover coefficient, so a huge genus is refused
    code, out, err = run(capsys, "generate", "generic", "-k", "2", "-r", "4",
                         "--genera", "1000000000,2,2,2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "genus in 2..1000" in err and len(err) < 200
    # each kind names the parameter it cannot do without
    for argv, missing in [(("generic", "-r", "4"), "-k"),
                          (("extended", "-r", "5"), "-m"),
                          (("degenerate", "-k", "2", "-r", "5"), "--profile"),
                          (("degenerate", "-r", "5", "--profile", "3,1,1"), "-k")]:
        code, out, err = run(capsys, "generate", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {argv[0]} family requires {missing}\n"  # one short line


def test_analyze_text_names_the_split(tmp_path, capsys):
    # factor 1 maps onto the first coordinate, factors 2 and 3 onto the second
    path = tmp_path / "hom.json"
    path.write_text(json.dumps({"genera": [2, 2, 2], "target_rank": 2, "blocks": [
        [1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]]}))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "irreducibility: Reducible across 1|2,3" in out.splitlines()


@pytest.mark.parametrize("option,value", [("--genera", "9" * 5000 + ",2,2,2"),
                                          ("--profile", "x" * 3000)],
                         ids=["genera", "profile"])
def test_generate_clips_a_rejected_option_value(capsys, option, value):
    code, out, err = run(capsys, "generate", "degenerate", "-k", "2", "-r", "4",
                         option, value)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "comma-separated integers" in err
    assert len(err.encode()) < 200


def test_generate_degenerate(capsys):
    code, out, _ = run(capsys, "generate", "degenerate", "-k", "2", "-r", "5",
                       "--profile", "3,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "degenerate"
    assert doc["vectors"][:3] == [[1, 0]] * 3


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-r", "4")
    assert code == 0
    assert "FAIL" not in out
    assert "verification succeeded" in out


@pytest.mark.parametrize("max_r", ["3", "9"])
def test_verify_max_r_outside_the_cap_is_an_input_error(capsys, max_r):
    code, out, err = run(capsys, "verify", "--max-r", max_r)
    assert code == 1 and out == ""
    assert err == "error: --max-r must be in 4..8\n"


def test_consecutive_calls_match_fresh_processes(tmp_path, capsys):
    path = tmp_path / "fam.json"
    run(capsys, "generate", "extended", "-m", "1", "-r", "4", "--out", str(path))
    commands = [["analyze", str(path), "--json"],
                ["generate", "generic", "-k", "1", "-r", "3"],
                ["analyze", str(path), "--bogus"],
                ["verify", "--max-r", "4"],
                ["analyze", str(path)]]
    in_process = [run(capsys, *argv) for argv in commands]
    fresh = [subprocess.run([sys.executable, "-m", "coabelian.cli", *argv],
                            capture_output=True, text=True) for argv in commands]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert cli._build_parser() is cli._build_parser()


def test_catalog(tmp_path, capsys):
    out_dir = tmp_path / "cat"
    code, out, _ = run(capsys, "catalog", "--max-r", "4", "--out-dir", str(out_dir))
    assert code == 0
    index = json.loads((out_dir / "index.json").read_text())
    # r=3: k=1; r=4: k in {1,2}; extended m=1 r=4
    assert index["reports"] == sorted(["generic_k1_r3.json", "generic_k1_r4.json",
                                       "generic_k2_r4.json", "extended_m1_r4.json"])
    for name in index["reports"]:
        doc = json.loads((out_dir / name).read_text())
        assert set(doc) == {"family", "report"}
    # deterministic re-run
    before = {name: (out_dir / name).read_bytes() for name in index["reports"]}
    run(capsys, "catalog", "--max-r", "4", "--out-dir", str(out_dir))
    after = {name: (out_dir / name).read_bytes() for name in index["reports"]}
    assert before == after


def test_unknown_command_is_input_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_oracle_refuses_many_factors_before_analyzing(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"genera": [2] * 9, "target_rank": 1,
                                "blocks": [[1, 0, 0, 0]] * 9}))

    def must_not_run(*args):
        raise AssertionError("analyze ran before the factor count was checked")

    monkeypatch.setattr(analyzer, "analyze", must_not_run)
    code, _, err = run(capsys, "analyze", str(path), "--oracle")
    assert code == 1
    assert "at most 8 factors" in err


_DIGITS = "1" * 5000
_HOM = '{"genera": [2], "target_rank": 1, "blocks": [[%s, 0, 0, 0]]}'
_FAMILY = ('{"kind": "generic", "k": %s, "r": 1, "vectors": [[1]], '
           '"covers": [{"genus": 2, "block": [1, 0, 1, 0, 0, 1, 0, 1]}]}')


@pytest.mark.parametrize("hom, family, cause", [
    ("[" * 200000, "[" * 200000, "nested too deeply"),
    (_HOM % _DIGITS, _FAMILY % _DIGITS, "too many digits"),
    (_HOM % f'"{_DIGITS}"', _FAMILY % f'"{_DIGITS}"', "too many digits"),
], ids=["deep-nesting", "long-integer", "long-quoted-integer"])
def test_hostile_json_is_an_input_error(tmp_path, capsys, hom, family, cause):
    for parse, text in ((parse_hom, hom), (parse_document, hom), (parse_family, family)):
        with pytest.raises(SchemaError, match=cause) as info:
            parse(text)
        assert "1" * 21 not in str(info.value) and "[" * 21 not in str(info.value)
    path = tmp_path / "doc.json"
    path.write_text(hom)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert cause in err and len(err) < 200


@pytest.mark.parametrize("kind", ["x" * 5000, list(range(3000))],
                         ids=["long-string", "long-list"])
def test_unknown_family_kind_is_echoed_clipped(tmp_path, capsys, kind):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"kind": kind, "k": 1, "r": 1, "vectors": [[1]],
                                "covers": []}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "kind: expected one of" in err and len(err) < 200


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_report_integer_beyond_the_digit_cap_is_an_input_error(tmp_path, capsys, flags):
    big = str(10 ** 4000)  # factor 1 then has index big**2, 8001 digits
    path = tmp_path / "hom.json"
    path.write_text(json.dumps({"genera": [2, 2, 2], "target_rank": 2, "blocks": [
        [1, 0, 0, 0, 0, 1, 0, 0], [big, 0, 0, 0, 0, big, 0, 0],
        [big, 0, 0, 0, 0, big, 0, 0]]}))
    code, out, err = run(capsys, "analyze", str(path), *flags)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "digits" in err and len(err) < 200


def test_generate_past_the_norm_bound_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr(forge, "_NORM_BOUND", 1)
    code, out, err = run(capsys, "generate", "generic", "-k", "2", "-r", "5")
    assert code == 1 and out == ""
    assert "max-norm at most 1" in err


@pytest.mark.parametrize("command", [
    ["generate", "generic", "-k", "1", "-r", "3", "--out", "{file}/x.json"],
    ["catalog", "--max-r", "3", "--out-dir", "{file}"],
], ids=["generate-out-under-a-file", "catalog-out-dir-is-a-file"])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, command):
    existing = tmp_path / "plain-file"
    existing.write_text("")
    code, out, err = run(capsys, *(arg.format(file=existing) for arg in command))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(existing) in err and existing.read_text() == ""


def test_non_utf8_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "not UTF-8" in err and len(err) < 200
