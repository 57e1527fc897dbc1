"""Record the golden ``analyze --json`` reports in this directory.

    PYTHONPATH=src python tests/golden/record.py

Writes one input document per case to ``inputs/`` and the exact standard
output of ``coabelian analyze <input> --json`` to ``reports/`` under the
same name. The inputs are the family grid up to r = 6 and a fixed set of
seeded random homs with r <= 8. ``test_golden.py`` re-runs every case and
requires byte-identical reports, so re-record only when a report is meant
to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from coabelian import forge
from coabelian.cli import main
from coabelian.model import serialize_family

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
REPORTS = os.path.join(HERE, "reports")


def family_cases():
    for r in range(3, 7):
        for k in range(1, r - 1):
            yield f"generic-k{k}-r{r}", forge.make_generic_family(k, r)
        yield (f"generic-k1-r{r}-subdirect",
               forge.make_generic_family(1, r, subdirect_variant=True))
    for r in range(4, 7):
        for m in range(1, r - 2):
            yield f"extended-m{m}-r{r}", forge.make_extended_family(m, r)
    yield ("extended-m1-r5-genera",
           forge.make_extended_family(1, 5, (3, 2, 3, 2, 2)))
    yield ("generic-k2-r5-genera",
           forge.make_generic_family(2, 5, (2, 3, 2, 3, 2)))
    yield "degenerate-k2-r5-p311", forge.make_degenerate_family(2, 5, (3, 1, 1))
    yield "degenerate-k2-r6-p222", forge.make_degenerate_family(2, 6, (2, 2, 2))


def _block(rng, n, g, e, zero_rows=()):
    return [[0 if i in zero_rows else rng.randint(-e, e) for _ in range(2 * g)]
            for i in range(n)]


def _finite_index_block(rng, n, g, e, w, p):
    """Random columns adjusted so that w . col = 0 (mod p); w[0] == 1."""
    cols = []
    for _ in range(2 * g):
        col = [rng.randint(-e, e) for _ in range(n)]
        col[0] -= sum(a * b for a, b in zip(w, col)) % p
        cols.append(col)
    return [[c[i] for c in cols] for i in range(n)]


def random_hom(shape, rng, r, n, g=2, e=3):
    if shape == "dense":
        blocks = [_block(rng, n, g, e) for _ in range(r)]
    elif shape == "split":
        cut = rng.randint(1, n - 1)
        left = set(rng.sample(range(r), rng.randint(1, r // 2)))
        blocks = [_block(rng, n, g, e,
                         range(cut, n) if i in left else range(cut))
                  for i in range(r)]
    elif shape == "repeated":
        base = _block(rng, n, g, e, (rng.randrange(n),))
        slots = set(rng.sample(range(r), r - rng.randint(1, 3)))
        blocks = [base if i in slots else _block(rng, n, g, e) for i in range(r)]
    elif shape == "finite_index":
        p = rng.choice((2, 3))
        w = [1] + [rng.randint(0, p - 1) for _ in range(n - 1)]
        blocks = [_finite_index_block(rng, n, g, e, w, p) for _ in range(r)]
    elif shape == "rank_one":
        u = [rng.randint(-e, e) or 1 for _ in range(n)]
        blocks = []
        for _ in range(r):
            v = [rng.randint(-e, e) for _ in range(2 * g)]
            blocks.append([[a * b for b in v] for a in u])
    elif shape == "zero":
        blocks = [_block(rng, n, g, 0) for _ in range(r)]
        if r > 2:
            blocks[0] = _block(rng, n, g, e)
    else:
        raise ValueError(shape)
    return {"genera": [g] * r, "target_rank": n,
            "blocks": [[x for row in b for x in row] for b in blocks]}


# (shape, r, n, g, e), one seeded hom each
HOM_SHAPES = (
    [("dense", r, n, 2, 3) for r, n in ((3, 2), (4, 2), (5, 3), (6, 4),
                                        (6, 2), (7, 4), (8, 2), (8, 4))]
    + [("split", r, n, 2, 3) for r, n in ((4, 2), (5, 4), (6, 4), (7, 5),
                                          (8, 4), (8, 6))]
    + [("repeated", r, n, 2, 3) for r, n in ((5, 2), (6, 2), (6, 3), (7, 3),
                                             (8, 4))]
    + [("finite_index", r, n, 2, 3) for r, n in ((3, 2), (4, 3), (5, 3), (6, 3),
                                                 (6, 4), (8, 4))]
    + [("rank_one", r, n, 2, 3) for r, n in ((3, 1), (5, 1), (6, 1), (4, 3),
                                             (7, 2))]
    + [("dense", r, n, 2, 3) for r, n in ((5, 3), (6, 5), (7, 3), (7, 5))]
    + [("dense", 3, 6, 4, 1000), ("dense", 4, 6, 3, 1000),
       ("finite_index", 3, 6, 5, 1000), ("dense", 4, 7, 4, 300)]
    + [("zero", 1, 2, 2, 3), ("zero", 4, 3, 2, 3)]
)


def hom_cases():
    for i, (shape, r, n, g, e) in enumerate(HOM_SHAPES):
        rng = random.Random(f"golden/{i}")
        doc = random_hom(shape, rng, r, n, g, e)
        yield f"hom-{i:02d}-{shape}-r{r}-n{n}", json.dumps(doc) + "\n"


def analyze_json(path: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", path, "--json"])
    if code != 0:
        raise RuntimeError(f"analyze {path} exited {code}")
    return buf.getvalue()


def cases():
    for name, spec in family_cases():
        yield name, serialize_family(spec)
    yield from hom_cases()


def main_record() -> None:
    os.makedirs(INPUTS, exist_ok=True)
    os.makedirs(REPORTS, exist_ok=True)
    for name, text in cases():
        path = os.path.join(INPUTS, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(REPORTS, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(analyze_json(path))
        print(name)


if __name__ == "__main__":
    main_record()
