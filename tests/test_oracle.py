import random
from itertools import combinations

import pytest

from coabelian import oracle
from coabelian.analyzer import normalize, projection_of_kernel, subdirectness
from coabelian.forge import make_extended_family, make_generic_family
from coabelian.intmatrix import IntMatrix, rank
from coabelian.lattice import Lattice, image_lattice, lattice_index
from coabelian.model import ProductHom, build_hom_from_family


def M(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]))


def test_rank_by_elimination_basics():
    assert oracle.rank_by_elimination(IntMatrix.identity(4)) == 4
    assert oracle.rank_by_elimination(IntMatrix.zeros(3, 2)) == 0
    assert oracle.rank_by_elimination(M([[1, 2], [2, 4]])) == 1


def test_rank_agreement_random():
    rng = random.Random(17)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 6)
        a = M([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        assert oracle.rank_by_elimination(a) == rank(a)


def test_index_by_residue_count_examples():
    assert oracle.index_by_residue_count(Lattice.full(2)) == 1
    assert oracle.index_by_residue_count(image_lattice(M([[2, 0], [0, 3]]))) == 6
    assert oracle.index_by_residue_count(image_lattice(M([[2, 0], [1, 2]]))) == 4


def test_index_agreement_random():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        a = M([[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n)])
        lat = image_lattice(a)
        idx = lattice_index(lat)
        if idx is None or idx > oracle.INDEX_BOUND:
            continue
        assert oracle.index_by_residue_count(lat) == idx
        checked += 1


def test_index_oracle_bounds():
    with pytest.raises(oracle.OracleBoundExceeded):
        oracle.index_by_residue_count(Lattice.full(5))
    with pytest.raises(ValueError):
        oracle.index_by_residue_count(image_lattice(M([[1, 2], [2, 4]])))


def test_vsp_agreement_on_families():
    for spec in (make_generic_family(2, 4), make_generic_family(1, 4),
                 make_extended_family(1, 5)):
        h, n = normalize(build_hom_from_family(spec))
        r = h.num_factors
        for size in range(1, r + 1):
            for t in combinations(range(1, r + 1), size):
                slow = oracle.vsp_by_preimage(h, t)
                fast = projection_of_kernel(h, t).index
                assert slow == fast, (spec.kind, t)


def test_vsp_trivial_target():
    h = ProductHom((2, 2), 0, (IntMatrix.zeros(0, 4), IntMatrix.zeros(0, 4)))
    assert oracle.vsp_by_preimage(h, (1,)) == 1


def _wide_hom(rng, shape):
    """A hom shaped like the wide_blocks benchmark: r 3-5, n 6-8, genus 3-6
    and entries up to 10^3. Under "index" every column satisfies
    w . col = 0 (mod p), so the image is a proper finite-index sublattice;
    under "mixed" every block but the first does, so factor 1's projection
    usually has finite index p; under "flat" every block but the first has
    a zero last row, so factor 1's projection has infinite index."""
    r, n, e = rng.randint(3, 5), rng.randint(6, 8), rng.choice((100, 300, 1000))
    w, p = [1] + [rng.randint(0, 1) for _ in range(n - 1)], rng.choice((2, 3))
    blocks = []
    for i in range(r):
        free = shape in ("dense", "flat") or (shape == "mixed" and i == 0)
        cols, width = [], 2 * rng.randint(3, 6)
        while len(cols) < width:
            col = [rng.randint(-e, e) for _ in range(n)]
            if shape == "flat" and i > 0:
                col[-1] = 0
            if free or sum(a * b for a, b in zip(w, col)) % p == 0:
                cols.append(col)
        blocks.append(M([[c[k] for c in cols] for k in range(n)]))
    return ProductHom(tuple(b.cols // 2 for b in blocks), n, tuple(blocks))


def test_vsp_matches_subdirectness_on_wide_homs(monkeypatch):
    """Every factor of sixteen seeded wide homs against the oracle, whose
    echelon must keep every entry it returns within 128 bits. The homs
    reach each way ``subdirectness`` decides: no onto block of the normal
    form, one whose own factor has finite or infinite index, and two or
    more."""
    echelon, peak = oracle._column_echelon, [0]

    def recording(a):
        cols = echelon(a)
        peak[0] = max([peak[0]] + [abs(x).bit_length() for c in cols for x in c])
        return cols

    monkeypatch.setattr(oracle, "_column_echelon", recording)
    rng = random.Random(1706)
    seen, branches, proper_images = set(), set(), 0
    for shape in ("dense", "index", "mixed") * 4 + ("flat",) * 4:
        h = _wide_hom(rng, shape)
        proper_images += h.normal_form is not h
        statuses = subdirectness(h)
        for s in statuses:
            idx = oracle.vsp_by_preimage(h, (s.factor,))
            want = ("InfiniteIndex" if idx is None
                    else "Exact" if idx == 1 else "FiniteIndex")
            assert (s.status, s.index) == (want, idx if want == "FiniteIndex" else None)
            seen.add(s.status)
        onto = h.normal_form.onto_blocks
        branches.add(f"one onto, {statuses[onto[0]].status}" if len(onto) == 1
                     else "two or more onto" if onto else "none onto")
    assert seen == {"Exact", "FiniteIndex", "InfiniteIndex"} and proper_images >= 4
    assert branches >= {"none onto", "one onto, FiniteIndex",
                        "one onto, InfiniteIndex", "two or more onto"}
    assert peak[0] <= 128


def test_normal_form_certificate_on_wide_homs():
    """A seeded wide hom is its own normal form exactly when the columns of
    all its blocks span Z^n; otherwise the image basis maps each rewritten
    block back to the raw one."""
    rng = random.Random(1806)
    proper_images = 0
    for shape in ("dense", "index", "mixed", "flat") * 3:
        h = _wide_hom(rng, shape)
        image, hn = image_lattice(h.concatenated()), h.normal_form
        assert (hn is h) == image.is_full
        if hn is not h:
            proper_images += 1
            assert hn.target_rank == image.rank
            assert [image.basis @ b for b in hn.blocks] == list(h.blocks)
    assert proper_images >= 3
