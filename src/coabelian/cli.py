"""Command-line interface: analyze documents, generate families, and re-run
the reproduction grid. Exit codes: 0 success, 1 input error, 2 verification
or internal failure."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from itertools import combinations

from . import analyzer, forge, oracle
from .intmatrix import IntMatrix, hstack, rank
from .model import (FamilySpec, ProductHom, build_hom_from_family, family_to_dict,
                    parse_document, serialize_family)


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise CliInputError(message)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@contextmanager
def _file_errors(path: str):
    """Report a file that cannot be read or written as an input error."""
    try:
        yield
    except OSError as exc:  # its message names the path
        raise CliInputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load(path: str) -> tuple[ProductHom, FamilySpec | None]:
    with _file_errors(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:  # model.SchemaError is a ValueError
        doc = parse_document(text)
        if isinstance(doc, FamilySpec):
            return build_hom_from_family(doc), doc
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from None
    return doc, None


def _report_lines(report: analyzer.AnalysisReport):
    yield f"effective rank: {report.effective_rank}"
    yield f"fullness: {report.fullness.claim}"
    for s in report.subdirectness:
        extra = f" (index {s.index})" if s.status == analyzer.FINITE_INDEX else ""
        yield f"factor {s.factor}: {s.status}{extra}"
    yield f"max deficient size: {report.max_deficient_size}"
    fin = report.finiteness
    yield "finiteness: " + (f"ExactType({fin.m})" if fin.kind == "ExactType" else fin.kind)
    betti = report.betti
    yield ("first Betti number of kernel: "
           + (str(betti.value) if betti.kind == "Value" else "undetermined by criteria"))
    kahler = report.kahler
    yield "Kaehler: " + kahler.kind + (f" ({kahler.reason})" if kahler.reason else "")
    irr = report.irreducibility
    line = "irreducibility: " + irr.kind
    if irr.partition:
        line += " across " + "|".join(",".join(map(str, p)) for p in irr.partition)
    yield line
    for cert in report.certificates:
        yield f"  [{cert.claim}] {cert.justification}"


def _oracle_check(h: ProductHom) -> list[str]:
    """Cross-check the rank-shortcut tuple classification against the
    independent preimage oracle; returns disagreement descriptions."""
    hn, n_prime = analyzer.normalize(h)
    r = hn.num_factors
    problems = []
    for size in range(1, r + 1):
        for t in combinations(range(1, r + 1), size):
            comp = [hn.blocks[i] for i in range(r) if i + 1 not in t]
            shortcut = rank(hstack(comp, rows=n_prime)) == n_prime
            slow = oracle.vsp_by_preimage(hn, t) is not None
            if shortcut != slow:
                problems.append(
                    f"tuple {t}: shortcut says {'finite' if shortcut else 'infinite'}, "
                    f"oracle says {'finite' if slow else 'infinite'}")
    return problems


def cmd_analyze(args) -> int:
    h, family = _load(args.path)
    if args.oracle and h.num_factors > 8:  # the oracle checks all 2^r - 1 tuples
        raise CliInputError("--oracle supports at most 8 factors")
    report = analyzer.analyze(h, family)
    if args.oracle:
        problems = _oracle_check(h)
        if problems:
            for p in problems:
                print(f"oracle disagreement: {p}", file=sys.stderr)
            return 2
    try:  # str() of an int is capped at the interpreter's digit limit
        text = (_dumps(report.to_json_dict()) if args.json
                else "".join(f"{line}\n" for line in _report_lines(report)))
    except ValueError:
        raise CliInputError(f"{args.path}: the report has an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits") from None
    sys.stdout.write(text)
    if args.oracle and not args.json:
        print("oracle cross-check: agreed on all tuples")
    return 0


def cmd_generate(args) -> int:
    try:
        if args.kind == "generic":
            if args.k is None:
                raise CliInputError("generic family requires -k")
            spec = forge.make_generic_family(args.k, args.r, args.genera,
                                            subdirect_variant=args.subdirect)
        elif args.kind == "extended":
            if args.m is None:
                raise CliInputError("extended family requires -m")
            spec = forge.make_extended_family(args.m, args.r, args.genera,
                                             subdirect_variant=args.subdirect)
        else:  # degenerate
            if not args.profile:
                raise CliInputError("degenerate family requires --profile")
            if args.k is None:
                raise CliInputError("degenerate family requires -k")
            spec = forge.make_degenerate_family(args.k, args.r, args.profile,
                                               args.genera)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    text = serialize_family(spec)
    if args.out:
        with _file_errors(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _dps_shaped_hom(genera: tuple[int, ...]) -> ProductHom:
    """Surjection onto Z with every block the all-(1,0) pattern: subdirect,
    effective rank 1."""
    blocks = tuple(IntMatrix.from_rows([[1, 0] * g], cols=2 * g) for g in genera)
    return ProductHom(genera, 1, blocks)


def _family_grid(max_r: int):
    """The paper's families up to max_r factors, in a fixed order: yields
    (kind, (parameter name, value), r, spec, expected exact finiteness type)."""
    for r in range(3, max_r + 1):
        for k in range(1, r - 1):
            yield "generic", ("k", k), r, forge.make_generic_family(k, r), r - k
    for r in range(4, max_r + 1):
        for m in range(1, r - 2):
            yield "extended", ("m", m), r, forge.make_extended_family(m, r), r - m - 1


def _verification_rows(max_r: int):
    achieved: dict[int, set[int]] = {r: set() for r in range(3, max_r + 1)}
    for kind, (p, v), r, spec, expected in _family_grid(max_r):
        report = analyzer.analyze(build_hom_from_family(spec), spec)
        ok = report.finiteness == analyzer.Finiteness("ExactType", expected)
        if ok and (report.kahler.kind, report.irreducibility.kind) == ("Kahler", "Irreducible"):
            achieved[r].add(expected)
        yield (f"{kind} {p}={v} r={r}: exact type F_{expected}", ok)
    for r in range(3, max_r + 1):
        yield (f"r={r}: every exact type in 2..{r - 1} realized by a family certified "
               "Kaehler and Irreducible", set(range(2, r)) <= achieved[r])
    for n_odd in (1, 3):
        genera = (2,) * (n_odd + 2)
        blocks = tuple(IntMatrix.from_rows(
            [[1 if row == i % n_odd and col == 0 else 0 for col in range(4)]
             for row in range(n_odd)], cols=4)
            for i in range(len(genera)))
        report = analyzer.analyze(ProductHom(genera, n_odd, blocks))
        yield (f"odd effective rank {n_odd}: NotKahler(OddRank)",
               report.kahler.kind == "NotKahler"
               and report.kahler.reason == "OddRank")
    for genera in ((2, 2, 2), (2, 3, 2), (3, 3, 2, 2)):
        report = analyzer.analyze(_dps_shaped_hom(genera))
        expected = sum(2 * g for g in genera) - 1
        yield (f"rank-one subdirect hom, genera {genera}: b1={expected}, parity obstruction",
               report.betti == analyzer.Betti("Value", expected)
               and report.kahler.kind == "NotKahler"
               and "OddBetti" in report.kahler.reasons)
    spec = forge.make_generic_family(2, 4)
    report = analyzer.analyze(build_hom_from_family(spec), spec)
    yield ("generic k=2 r=4: Kaehler construction certified",
           report.kahler.kind == "Kahler")
    yield ("generic k=2 r=4: irreducible",
           report.irreducibility.kind == "Irreducible")


def cmd_verify(args) -> int:
    if args.max_r < 4 or args.max_r > 8:
        raise CliInputError("--max-r must be in 4..8")
    all_ok = True
    for name, ok in _verification_rows(args.max_r):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        all_ok = all_ok and ok
    print("verification " + ("succeeded" if all_ok else "FAILED"))
    return 0 if all_ok else 2


def _replace_file(path: str, text: str) -> None:
    """Write through a temporary file, so no reader sees half a file."""
    tmp = path + ".tmp"
    with _file_errors(path):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)


def cmd_catalog(args) -> int:
    if args.max_r < 3 or args.max_r > 8:
        raise CliInputError("--max-r must be in 3..8")
    with _file_errors(args.out_dir):
        os.makedirs(args.out_dir, exist_ok=True)
    entries = []
    for kind, (p, v), r, spec, _ in _family_grid(args.max_r):
        name = f"{kind}_{p}{v}_r{r}.json"
        report = analyzer.analyze(build_hom_from_family(spec), spec)
        doc = {"family": family_to_dict(spec), "report": report.to_json_dict()}
        _replace_file(os.path.join(args.out_dir, name), _dumps(doc))
        entries.append(name)
    _replace_file(os.path.join(args.out_dir, "index.json"),
                  _dumps({"reports": sorted(entries)}))
    print(f"wrote {len(entries)} reports to {args.out_dir}")
    return 0


def _int_tuple(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a rejected value is echoed clipped."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text[:20]!r}") from None


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="coabelian",
                     description="Invariants of coabelian kernels in products "
                                 "of surface groups, with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a hom or family JSON document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check tuple classifications with the slow oracle")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="generate a family specification")
    p.add_argument("kind", choices=["generic", "extended", "degenerate"])
    p.add_argument("-k", type=int, help="target parameter (generic/degenerate)")
    p.add_argument("-m", type=int, help="multiplicity (extended)")
    p.add_argument("-r", type=int, required=True, help="number of factors")
    p.add_argument("--genera", type=_int_tuple,
                   help="comma-separated genera, default all 2")
    p.add_argument("--profile", type=_int_tuple,
                   help="duplicate multiplicities (degenerate)")
    p.add_argument("--subdirect", action="store_true",
                   help="use the fully subdirect variant")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify",
                       help="re-run the reproduction grid and print a table")
    p.add_argument("--max-r", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="batch-analyze a parameter grid")
    p.add_argument("--max-r", type=int, default=5)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
