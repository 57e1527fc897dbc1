import copy
import json
import subprocess
import sys
from itertools import combinations

import pytest

from coabelian import analyzer, cli, forge, oracle
from coabelian.cli import main
from coabelian.model import (SchemaError, family_to_dict, parse_document, parse_family,
                             parse_hom)


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


_DROP = object()
_HOM_DOC = {"genera": [2, 2], "target_rank": 1, "blocks": [[1, 0, 0, 0], [0, 1, 0, 0]]}
_GENERIC = family_to_dict(forge.make_generic_family(2, 4))  # flags T, T, F, F
_EXTENDED = family_to_dict(forge.make_extended_family(2, 5))  # flags F, T, T, F, F
_DEGENERATE = family_to_dict(forge.make_degenerate_family(2, 5, (3, 1, 1)))
_KINDS = "('generic', 'extended', 'dps', 'degenerate')"

# (id, valid document, path to one field, its broken value, the whole message)
_BROKEN = [
    ("hom-not-an-object", _HOM_DOC, (), [], "hom document must be a JSON object"),
    ("genera-not-a-list", _HOM_DOC, ("genera",), 2, "genera: expected a list"),
    ("genus-not-an-integer", _HOM_DOC, ("genera", 1), 2.5,
     "genera[1]: expected an integer, got float"),
    ("genus-not-decimal", _HOM_DOC, ("genera", 1), "two",
     "genera[1]: not a decimal integer: 'two'"),
    ("target-rank-negative", _HOM_DOC, ("target_rank",), -1,
     "target_rank: must be nonnegative"),
    ("blocks-not-a-list", _HOM_DOC, ("blocks",), {}, "blocks: expected a list"),
    ("block-missing", _HOM_DOC, ("blocks",), [[1, 0, 0, 0]],
     "blocks: need exactly one block per genus"),
    ("block-extra", _HOM_DOC, ("blocks",), [[1, 0, 0, 0]] * 3,
     "blocks: need exactly one block per genus"),
    ("no-factors", _HOM_DOC, (), {"genera": [], "target_rank": 1, "blocks": []},
     "genera: need at least one factor"),
    ("genus-below-2", _HOM_DOC, ("genera", 0), 1, "genera[0]: genus must be at least 2"),
    ("block-entry-count", _HOM_DOC, ("blocks", 0), [1, 0, 0],
     "blocks[0]: expected 4 entries, got 3"),
    ("family-missing-field", _GENERIC, ("covers",), _DROP, "missing field 'covers'"),
    ("kind-unknown", _GENERIC, ("kind",), "weird",
     f"kind: expected one of {_KINDS}, got 'weird'"),
    ("k-not-decimal", _GENERIC, ("k",), "2.0", "k: not a decimal integer: '2.0'"),
    ("vectors-not-a-list", _GENERIC, ("vectors",), {}, "vectors: expected a list"),
    ("vector-length", _GENERIC, ("vectors", 3), [1],
     "vector length does not match dimension"),
    ("vector-count", _GENERIC, ("r",), 5,
     "vectors: expected a list with one vector per factor"),
    ("covers-not-a-list", _GENERIC, ("covers",), "none", "covers: expected a list"),
    ("cover-count", _GENERIC, ("covers",), _GENERIC["covers"][:3],
     "covers: expected a list with one cover per factor"),
    ("cover-not-an-object", _GENERIC, ("covers", 0), 1, "covers[0]: expected an object"),
    ("cover-genus", _GENERIC, ("covers", 0, "genus"), 1,
     "covers[0].genus: must be at least 2"),
    ("cover-entry-count", _GENERIC, ("covers", 0, "block"), [1, 0],
     "covers[0].block: expected 8 entries"),
    ("cover-flag-type", _GENERIC, ("covers", 0, "pi1_surjective"), "yes",
     "covers[0].pi1_surjective: expected a boolean"),
    ("cover-rank", _GENERIC, ("covers", 2, "block"), [0] * 8,
     "covers[2]: cover block must have rank 2 (finite-index homology image)"),
    ("cover-flag-on-a-sublattice", _GENERIC, ("covers", 0, "block"), [2, 0, 0, 0, 0, 2, 0, 0],
     "covers[0]: pi1-surjectivity asserted but the homology image is a proper sublattice"),
    ("generic-property-P-prime", _GENERIC, ("vectors", 3), [1, 1],
     "generic family requires the vector set to satisfy property P' "
     "(standard-basis prefix, every k-subset independent)"),
    ("generic-cover-flag", _GENERIC, ("covers", 1, "pi1_surjective"), False,
     "generic family requires cover 2 to be asserted surjective on fundamental groups"),
    ("extended-without-m", _EXTENDED, ("m",), _DROP, "extended family requires m"),
    ("extended-m-range", _EXTENDED, ("m",), 3,
     "extended family needs k=2, r>=4, m>=1, r-m>=3"),
    ("extended-first-vectors-differ", _EXTENDED, ("vectors", 1), [2, 0],
     "extended family requires the first m vectors to coincide"),
    ("extended-independence", _EXTENDED, ("vectors", 3), [0, 2],
     "extended family requires vectors 2..5 to be pairwise linearly independent; "
     "vector 4 depends on an earlier one"),
    ("extended-cover-flag", _EXTENDED, ("covers", 2, "pi1_surjective"), False,
     "extended family requires cover 3 to be asserted surjective on fundamental groups"),
    ("degenerate-zero-vector", _DEGENERATE, ("vectors", 4), [0, 0], "vector 5 is zero"),
]


@pytest.mark.parametrize("base, field, value, message",
                         [case[1:] for case in _BROKEN], ids=[case[0] for case in _BROKEN])
def test_document_with_one_broken_field_is_an_input_error(tmp_path, capsys,
                                                          base, field, value, message):
    doc = copy.deepcopy(base)
    if not field:
        doc = value
    else:
        *parents, last = field
        target = doc
        for key in parents:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: {message}\n" and len(err.encode()) < 200


def test_analyze_refuses_a_generic_family_cut_below_r_k_plus_2(tmp_path, capsys):
    # cut to r = 2 it reads NotFinitelyGenerated, to r = 3 ExactType(1): no
    # Kaehler group is either, so the document must not reach the analyzer
    path = tmp_path / "d.json"
    for r in (2, 3):
        path.write_text(json.dumps(dict(_GENERIC, r=r, vectors=_GENERIC["vectors"][:r],
                                        covers=_GENERIC["covers"][:r])))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: need 1 <= k <= r-2\n" and len(err.encode()) < 200


@pytest.mark.parametrize("max_r", ["2", "9"])
def test_catalog_max_r_outside_the_cap_is_an_input_error(tmp_path, capsys, max_r):
    code, out, err = run(capsys, "catalog", "--max-r", max_r, "--out-dir", str(tmp_path / "c"))
    assert code == 1 and out == ""
    assert err == "error: --max-r must be in 3..8\n"
    assert not (tmp_path / "c").exists()


def _withhold_kahler_from_dps(monkeypatch):
    real = analyzer._family_provenance
    monkeypatch.setattr(analyzer, "_family_provenance",
                        lambda h, family: family is not None and family.kind != "dps"
                        and real(h, family))


def _withhold_irreducible_from_dps(monkeypatch):
    real = analyzer.irreducibility
    # the dps families are the only ones of effective rank 2
    monkeypatch.setattr(analyzer, "irreducibility",
                        lambda h: (analyzer.Irreducibility("Unknown"), None)
                        if analyzer.normalize(h)[1] == 2 else real(h))


@pytest.mark.parametrize("withhold", [_withhold_kahler_from_dps,
                                      _withhold_irreducible_from_dps],
                         ids=["kahler-certificate", "irreducibility"])
def test_verify_fails_when_the_dps_families_lose_a_verdict(capsys, monkeypatch, withhold):
    # dps (generic k = 1) gives the only families of type F_(r-1), so each
    # per-r row must fail, and every other row still pass
    withhold(monkeypatch)
    code, out, _ = run(capsys, "verify", "--max-r", "4")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  r={r}: every exact type in 2..{r - 1} realized by a family certified "
        "Kaehler and Irreducible" for r in (3, 4)]
