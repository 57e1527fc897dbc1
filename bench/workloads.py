"""Seeded inputs for the three benchmark workloads.

Every workload is a list of strata. A stratum fixes the shape of its
operations (factor count, genus, target rank, entry size, structure) and how
many of them one pass runs. Its documents come from a pool of
``POOL_FACTOR * count`` candidates, candidate ``j`` being generated from its
own ``random.Random`` keyed by workload, stratum and ``j``. The run seed picks
which candidates a pass uses and in which order. Fixing the per-stratum
counts keeps the work of a pass nearly the same from seed to seed, and the
finite pool lets ``expected/`` hold recorded verdicts for every document a
seed can pick.

The benchmark generates every document itself; the program under test only
ever reads them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

POOL_FACTOR = 16


@dataclass(frozen=True)
class Stratum:
    name: str
    shape: str
    count: int  # operations of this stratum in one pass
    params: dict


@dataclass(frozen=True)
class Op:
    """One operation of a pass: ``argvs`` are the CLI calls it makes, in
    order; the last one prints the JSON report."""

    key: str  # pool member, e.g. "hom_corpus/dense-r8-n4/13"
    argvs: tuple[tuple[str, ...], ...]
    meta: dict  # what the checker needs to know about the input


def _s(name, shape, count, **params):
    return Stratum(name, shape, count, params)


# Factor count r, target rank n, genus g, entry bound e. Costs grow as 2^r;
# the r >= 10 homs are the latency tail. The counts put a pass's median
# inside dense-r6-n4 and its tail percentile inside the 220-280 ms group,
# away from a jump in cost between strata.
HOM_CORPUS = (
    _s("dense-r6-n2", "dense", 6, r=6, n=2),
    _s("dense-r6-n4", "dense", 6, r=6, n=4),
    _s("dense-r7-n3", "dense", 4, r=7, n=3),
    _s("dense-r7-n6", "dense", 2, r=7, n=6),
    _s("dense-r8-n4", "dense", 2, r=8, n=4),
    _s("dense-r9-n2", "dense", 2, r=9, n=2),
    _s("dense-r10-n4", "dense", 1, r=10, n=4),
    _s("split-r6-n4", "split", 8, r=6, n=4, left=2),
    _s("split-r8-n5", "split", 4, r=8, n=5, left=3),
    _s("split-r10-n6", "split", 2, r=10, n=6, left=3),
    _s("split-r12-n4", "split", 2, r=12, n=4, left=2),
    _s("repeated-r6-n2", "repeated", 6, r=6, n=2),
    _s("repeated-r8-n3", "repeated", 4, r=8, n=3),
    _s("repeated-r10-n4", "repeated", 1, r=10, n=4),
    _s("finite-index-r6-n3", "finite_index", 6, r=6, n=3),
    _s("finite-index-r8-n4", "finite_index", 2, r=8, n=4),
    _s("rank-one-r6", "dense", 6, r=6, n=1),
    _s("rank-one-r9", "dense", 2, r=9, n=1),
    _s("odd-rank-r7-n5", "dense", 4, r=7, n=5),
    _s("odd-rank-r9-n3", "dense", 2, r=9, n=3),
)

# Few factors, wide blocks, large entries: a handful of big normal forms per
# operation and a trivial subset search.
WIDE_BLOCKS = (
    _s("r3-n6-g4-e1000", "dense", 6, r=3, n=6, g=4, e=1000),
    _s("r3-n7-g5-e100", "dense", 6, r=3, n=7, g=5, e=100),
    _s("r4-n6-g3-e1000", "dense", 6, r=4, n=6, g=3, e=1000),
    _s("r4-n7-g4-e300", "dense", 6, r=4, n=7, g=4, e=300),
    _s("r4-n8-g4-e100", "dense", 3, r=4, n=8, g=4, e=100),
    _s("r5-n6-g6-e100", "dense", 3, r=5, n=6, g=6, e=100),
    _s("r3-n8-g4-e300", "dense", 2, r=3, n=8, g=4, e=300),
    _s("r3-n6-g5-e1000-index", "finite_index", 4, r=3, n=6, g=5, e=1000),
    _s("r4-n7-g4-e100-index", "finite_index", 3, r=4, n=7, g=4, e=100),
)

# (k, r) for generic and (m, r) for extended families, every pair up to R_MAX.
R_MAX = 7
DEGENERATE_PROFILES = (
    (2, 5, (3, 1, 1)),
    (2, 6, (2, 2, 2)),
    (2, 7, (6, 1)),
    (3, 7, (3, 2, 1, 1)),
    (3, 8, (2, 2, 2, 2)),
)


def family_grid_strata():
    out = []
    for r in range(3, R_MAX + 1):
        for k in range(1, r - 1):
            out.append(_s(f"generic-k{k}-r{r}", "generic", 1, k=k, r=r))
    for r in range(4, R_MAX + 1):
        for m in range(1, r - 2):
            out.append(_s(f"extended-m{m}-r{r}", "extended", 1, m=m, r=r))
    for k, r, profile in DEGENERATE_PROFILES:
        name = f"degenerate-k{k}-r{r}-p{''.join(map(str, profile))}"
        out.append(_s(name, "degenerate", 1, k=k, r=r, profile=profile))
    return tuple(out)


WORKLOADS = {
    "hom_corpus": HOM_CORPUS,
    "wide_blocks": WIDE_BLOCKS,
    "family_grid": family_grid_strata(),
}


# --- random homs --------------------------------------------------------------

def _rand_block(rng, n, g, e, rows_zero=()):
    return [[0 if i in rows_zero else rng.randint(-e, e) for _ in range(2 * g)]
            for i in range(n)]


def _finite_index_block(rng, n, g, e, w, p):
    """Columns with entries in [-e, e] and w . col = 0 (mod p)."""
    cols = []
    while len(cols) < 2 * g:
        col = [rng.randint(-e, e) for _ in range(n)]
        if sum(a * b for a, b in zip(w, col)) % p == 0:
            cols.append(col)
    return [[c[i] for c in cols] for i in range(n)]


def make_hom(shape: str, rng: random.Random, r: int, n: int, g: int = 2,
             e: int = 3, left: int = 2) -> dict:
    """One hom document as a dict. ``shape`` picks the structure:

    dense        independent uniform entries in [-e, e]
    split        ``left`` factors map into one coordinate subspace and the
                 rest into its complement, so the kernel splits (Reducible)
    repeated     r-1, r-2 or r-3 copies of one block with a zero row, so a
                 large deficient set lowers the type or kills finite
                 generation
    finite_index every column satisfies w . col = 0 mod p for a random
                 w in {0,1}^n and p in {2,3}: the image is a proper
                 finite-index sublattice and normalize rewrites coordinates
    """
    genera = [g] * r
    if shape == "dense":
        blocks = [_rand_block(rng, n, g, e) for _ in range(r)]
    elif shape == "split":
        n_left = rng.randint(1, n - 1)
        left = set(rng.sample(range(r), left))
        top = set(range(n_left))
        bottom = set(range(n_left, n))
        blocks = [_rand_block(rng, n, g, e, rows_zero=bottom if i in left else top)
                  for i in range(r)]
    elif shape == "repeated":
        copies = r - rng.randint(1, 3)
        zero_row = rng.randrange(n)
        base = _rand_block(rng, n, g, e, rows_zero=(zero_row,))
        slots = set(rng.sample(range(r), copies))
        blocks = [base if i in slots else _rand_block(rng, n, g, e) for i in range(r)]
    elif shape == "finite_index":
        w = [0] * n
        while not any(w):
            w = [rng.randint(0, 1) for _ in range(n)]
        p = rng.choice((2, 3))
        blocks = [_finite_index_block(rng, n, g, e, w, p) for _ in range(r)]
    else:
        raise ValueError(f"unknown hom shape {shape!r}")
    return {"genera": genera, "target_rank": n,
            "blocks": [[x for row in b for x in row] for b in blocks]}


# --- passes -------------------------------------------------------------------

def _pool_rng(workload: str, stratum: str, j: int) -> random.Random:
    return random.Random(f"{workload}/{stratum}/{j}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def doc_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pool_doc(workload: str, st: Stratum, j: int) -> str:
    """The serialized hom document of pool member j of a hom stratum."""
    return dumps(make_hom(st.shape, _pool_rng(workload, st.name, j), **st.params))


def _family_argv(st: Stratum, genera: list[int], out: str) -> tuple[str, ...]:
    p = st.params
    if st.shape == "generic":
        head = ("generate", "generic", "-k", str(p["k"]))
    elif st.shape == "extended":
        head = ("generate", "extended", "-m", str(p["m"]))
    else:
        head = ("generate", "degenerate", "-k", str(p["k"]),
                "--profile", ",".join(map(str, p["profile"])))
    return head + ("-r", str(p["r"]), "--genera", ",".join(map(str, genera)),
                   "--out", out)


def _hom_op(workload: str, st: Stratum, j: int, work_dir: str) -> Op:
    text = pool_doc(workload, st, j)
    path = os.path.join(work_dir, f"{st.name}-{j}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Op(key=f"{workload}/{st.name}/{j}",
              argvs=(("analyze", path, "--json"),), meta={"doc_hash": doc_hash(text)})


def _family_op(workload: str, st: Stratum, genera: list[int], work_dir: str) -> Op:
    path = os.path.join(work_dir, f"{st.name}.json")
    return Op(key=f"{workload}/{st.name}",
              argvs=(_family_argv(st, genera, path), ("analyze", path, "--json")),
              meta={"family": st.shape, "genera": genera, **st.params})


def build_pass(workload: str, seed: int, work_dir: str) -> list[Op]:
    """Generate and write the inputs of one pass, plus a manifest listing its
    operations; return the operations in run order. The same seed gives
    byte-identical files."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(work_dir, exist_ok=True)
    ops = []
    for st in WORKLOADS[workload]:
        if workload == "family_grid":
            # the seed picks which half of the factors have genus 3, which
            # keeps the total block width, and so the cost, fixed
            r = st.params["r"]
            wide = set(rng.sample(range(r), r // 2))
            genera = [3 if i in wide else 2 for i in range(r)]
            ops.append(_family_op(workload, st, genera, work_dir))
        else:
            for j in rng.sample(range(POOL_FACTOR * st.count), st.count):
                ops.append(_hom_op(workload, st, j, work_dir))
    rng.shuffle(ops)
    prefix = os.path.join(work_dir, "")

    def rel(arg: str) -> str:  # keeps the manifest independent of work_dir
        return arg[len(prefix):] if arg.startswith(prefix) else arg

    manifest = [{"key": op.key, "argvs": [[rel(a) for a in argv] for argv in op.argvs]}
                for op in ops]
    with open(os.path.join(work_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps({"workload": workload, "seed": seed, "ops": manifest}))
    return ops


def pool_ops(workload: str, work_dir: str) -> list[Op]:
    """One operation for every document a seed can pick (genus 2 throughout
    for family_grid, whose verdict kinds do not depend on the genera)."""
    os.makedirs(work_dir, exist_ok=True)
    if workload == "family_grid":
        return [_family_op(workload, st, [2] * st.params["r"], work_dir)
                for st in WORKLOADS[workload]]
    return [_hom_op(workload, st, j, work_dir)
            for st in WORKLOADS[workload] for j in range(POOL_FACTOR * st.count)]
