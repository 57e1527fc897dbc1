"""Independent check of every verdict an operation reports.

Nothing here calls the analyzer. Ranks come from the oracle's fraction-free
elimination, projected-kernel indices from the oracle's own echelon code,
and family answers from the paper. A report is also compared with the
verdict kinds recorded in ``expected/`` when the benchmark was defined;
certificate text is never compared.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

from coabelian import oracle
from coabelian.intmatrix import IntMatrix, hstack
from coabelian.model import ProductHom, VectorSet, check_property_P_prime

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# vsp_by_preimage's echelon grows its coefficients quickly: it is applied to
# homs with small entries and few columns only.
VSP_MAX_ENTRY = 10
VSP_MAX_COLS = 48


def verdicts(report: dict) -> dict:
    """The four verdicts of a report, as compact strings."""
    fin = report["finiteness"]
    return {
        "finiteness": (f"ExactType({fin['m']})" if fin["kind"] == "ExactType"
                       else fin["kind"]),
        "betti": report["betti"]["kind"],
        "kahler": report["kahler"]["kind"],
        "irreducibility": report["irreducibility"]["kind"],
    }


def decided_count(report: dict) -> int:
    """How many of the four verdicts are decided (not Unknown)."""
    return sum(1 for v in verdicts(report).values()
               if v not in ("Unknown", "UnknownByCriteria"))


def hom_from_doc(doc: dict) -> ProductHom:
    n = doc["target_rank"]
    blocks = []
    for g, flat in zip(doc["genera"], doc["blocks"]):
        w = 2 * g
        blocks.append(IntMatrix.from_rows([flat[i * w:(i + 1) * w] for i in range(n)],
                                          cols=w))
    return ProductHom(tuple(doc["genera"]), n, tuple(blocks))


def hom_from_family_doc(doc: dict) -> ProductHom:
    """Block i is vector i tensored with cover i's 2 x 2g homology block."""
    blocks = []
    for v, cover in zip(doc["vectors"], doc["covers"]):
        w = 2 * cover["genus"]
        rows = [cover["block"][:w], cover["block"][w:]]
        blocks.append(IntMatrix.from_rows([[c * x for x in row] for c in v for row in rows],
                                          cols=w))
    return ProductHom(tuple(c["genus"] for c in doc["covers"]), 2 * doc["k"], tuple(blocks))


def paper_finiteness(family: dict) -> str:
    """Exact type F_(r-k) for generic, F_(r-m-1) for extended families. A
    degenerate family repeats the vectors of a P' set, so a factor set is
    deficient exactly when it uses at most k-1 distinct vectors, and D is the
    sum of the k-1 largest multiplicities."""
    r = family["r"]
    if family["family"] == "generic":
        m = r - family["k"]
    elif family["family"] == "extended":
        m = r - family["m"] - 1
    else:
        d = sum(sorted(family["profile"], reverse=True)[:family["k"] - 1])
        m = r - d - 1
    return f"ExactType({m})" if m >= 1 else "NotFinitelyGenerated"


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expectation(op, report: dict, family: dict | None) -> dict:
    """What ``expected/`` records for one operation."""
    out = {"verdicts": verdicts(report)}
    if "doc_hash" in op.meta:
        out["doc_hash"] = op.meta["doc_hash"]
    if family is not None:
        out["vectors"] = family["vectors"]
    return out


class Checker:
    """``expected`` maps operation keys to ``expectation`` records; None
    skips that comparison (used while recording them)."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.vsp_checked = 0
        self.vsp_skipped = 0

    def check_results(self, results) -> tuple[int, int, list[str]]:
        """(failed operations, decided verdicts of the passing ones, problem
        lines) for a list of ``run.OpResult``. Identical outputs of one
        operation are checked once."""
        seen: dict[tuple, list[str]] = {}
        failed = decided = 0
        lines = []
        for res in results:
            if res.error is not None:
                problems = [res.error]
            else:
                key = (res.op.key, res.report, res.family)
                if key not in seen:
                    try:
                        seen[key] = self.check_op(res.op, res.report, res.family)
                    except (ValueError, KeyError, TypeError) as exc:
                        seen[key] = [f"unreadable output: {type(exc).__name__}: {exc}"]
                problems = seen[key]
                if not problems:
                    decided += decided_count(json.loads(res.report))
            if problems:
                failed += 1
                lines.append(f"FAILED {res.op.key}: " + "; ".join(problems))
        return failed, decided, lines

    def check_op(self, op, report_text: str, family_text: str | None) -> list[str]:
        """Problems with one operation's output; empty when it is right."""
        report = json.loads(report_text)
        if family_text is None:
            with open(op.argvs[-1][1], encoding="utf-8") as fh:
                h = hom_from_doc(json.load(fh))
            family = None
        else:
            family = json.loads(family_text)
            h = hom_from_family_doc(family)
        problems = self.check_hom(h, report, family)
        if family is not None:
            problems += self._check_family(op.meta, family, report)
        if self.expected is not None:
            problems += self._check_expected(op, report, family)
        return problems

    # -- the hom itself ------------------------------------------------------

    def check_hom(self, h: ProductHom, report: dict, family: dict | None) -> list[str]:
        r, n = h.num_factors, h.target_rank
        ranks: dict[int, int] = {}

        def rank(mask: int) -> int:
            if mask not in ranks:
                ranks[mask] = oracle.rank_by_elimination(
                    hstack([h.blocks[i] for i in range(r) if mask >> i & 1], rows=n))
            return ranks[mask]

        full = (1 << r) - 1
        n_prime = rank(full)
        problems = []
        if report["effective_rank"] != n_prime:
            problems.append(f"effective rank {report['effective_rank']} != {n_prime}")
        got = verdicts(report)

        # finiteness: brute-force deficiency search, largest sets first
        if n_prime == 0:
            want, d = "F_infinity", None
        else:
            d = next(size for size in range(r - 1, -1, -1)
                     if any(rank(sum(1 << i for i in s)) < n_prime
                            for s in combinations(range(r), size)))
            m = r - d - 1
            want = f"ExactType({m})" if m >= 1 else "NotFinitelyGenerated"
        if got["finiteness"] != want:
            problems.append(f"finiteness {got['finiteness']} != {want}")
        if report["max_deficient_size"] != d:
            problems.append(f"max deficient size {report['max_deficient_size']} != {d}")
        for w in report["witnesses"]:
            mask = sum(1 << (i - 1) for i in w["subset"])
            if (len(w["subset"]) != d or rank(mask) >= n_prime
                    or w["rank_of_blocks"] != rank(mask)):
                problems.append(f"witness {w} is not a deficient set of size {d}")

        # irreducibility: a split partition must satisfy
        # rank(A_L) + rank(A_R) = n'; "Irreducible" needs no partition to
        irr = report["irreducibility"]
        if irr["kind"] == "Reducible":
            left, right = irr["partition"]
            if (not left or not right or sorted(left + right) != list(range(1, r + 1))
                    or rank(sum(1 << (i - 1) for i in left))
                    + rank(sum(1 << (i - 1) for i in right)) != n_prime):
                problems.append(f"partition {irr['partition']} does not split")
        elif irr["kind"] == "Irreducible":
            for mask in range(1, 1 << (r - 1)):  # factor r always on the right
                if rank(mask) + rank(full ^ mask) == n_prime:
                    problems.append(f"Irreducible but factors {mask:b} split off")
                    break

        # subdirectness, where the oracle's bounds allow
        cols = sum(b.cols for b in h.blocks)
        biggest = max((abs(x) for b in h.blocks for row in b.data for x in row), default=0)
        if biggest <= VSP_MAX_ENTRY and cols <= VSP_MAX_COLS:
            self.vsp_checked += 1
            for i, s in enumerate(report["subdirectness"], start=1):
                idx = oracle.vsp_by_preimage(h, (i,))
                want_s = ("InfiniteIndex" if idx is None
                          else "Exact" if idx == 1 else "FiniteIndex")
                if s["status"] != want_s or (want_s == "FiniteIndex" and s["index"] != idx):
                    problems.append(f"factor {i}: {s} but oracle index {idx}")
        else:
            self.vsp_skipped += 1

        # Betti value and the parity obstructions it implies
        total = sum(2 * g for g in h.genera)
        betti = report["betti"]
        if betti["kind"] == "Value" and betti["value"] != total - n_prime:
            problems.append(f"b1 {betti['value']} != {total} - {n_prime}")
        reasons = []
        if n_prime % 2:
            reasons.append("OddRank")
        if betti["kind"] == "Value" and betti["value"] % 2:
            reasons.append("OddBetti")
        kahler = report["kahler"]
        if reasons:
            if kahler["kind"] != "NotKahler" or sorted(kahler["reasons"]) != sorted(reasons):
                problems.append(f"kahler {kahler} but obstructions {reasons}")
        elif kahler["kind"] == "NotKahler" or (
                kahler["kind"] == "Kahler"
                and (family is None or family["kind"] == "degenerate")):
            problems.append(f"kahler {kahler} without grounds")
        return problems

    # -- family answers and recorded expectations ----------------------------

    def _check_family(self, meta: dict, family: dict, report: dict) -> list[str]:
        problems = []
        want = paper_finiteness(meta)
        got = verdicts(report)["finiteness"]
        if got != want:
            problems.append(f"paper: {want}, reported {got}")
        if meta["family"] == "generic":
            vs = VectorSet(family["k"], tuple(tuple(v) for v in family["vectors"]))
            if not check_property_P_prime(vs):
                problems.append("generated vectors violate property P'")
        return problems

    def _check_expected(self, op, report: dict, family: dict | None) -> list[str]:
        exp = self.expected.get(op.key)
        if exp is None:
            return [f"no recorded expectation for {op.key}"]
        problems = []
        if "doc_hash" in exp and exp["doc_hash"] != op.meta.get("doc_hash"):
            return [f"input of {op.key} differs from the recorded one"]
        if verdicts(report) != exp["verdicts"]:
            problems.append(f"verdicts {verdicts(report)} != recorded {exp['verdicts']}")
        if family is not None and family["vectors"] != exp["vectors"]:
            problems.append("generated vectors differ from the recorded ones")
        return problems
