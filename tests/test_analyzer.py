"""Analyzer behaviour on the worked examples plus structural invariants."""

import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coabelian.analyzer import (_first_split, analyze, betti_kernel,
                                deficiency_profile, finiteness_type, fullness,
                                irreducibility, kahler_verdict, normalize,
                                projection_of_kernel, splitting_search,
                                subdirectness)
from coabelian.intmatrix import IntMatrix, hnf_basis, hstack, rank
from coabelian.lattice import (Lattice, image_lattice, kernel_lattice,
                               lattice_intersection)
from coabelian.forge import (make_degenerate_family, make_extended_family,
                             make_generic_family)
from coabelian import analyzer, model, oracle
from coabelian.model import ProductHom, build_hom_from_family


def M(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]))


def rank_one_hom(genera):
    """Surjection onto Z, every block [1 0 1 0 ...]: subdirect, n' = 1."""
    return ProductHom(tuple(genera), 1,
                      tuple(M([[1, 0] * g]) for g in genera))


GENERIC24 = make_generic_family(2, 4)


def test_normalize_surjective_is_identity():
    h = build_hom_from_family(GENERIC24)
    hn, n = normalize(h)
    assert hn == h and n == 4


def test_normalize_drops_zero_rows():
    blocks = (M([[1, 0, 1, 0], [0, 0, 0, 0]]),)
    hn, n = normalize(ProductHom((2,), 2, blocks))
    assert n == 1
    assert hn.blocks[0] == M([[1, 0, 1, 0]])


def test_normalize_finite_index_image_preserves_kernel():
    # image = span{2e1, e1+2e2}, index 4 in Z^2
    blocks = (M([[2, 0, 1, 0], [0, 0, 2, 0]]),)
    h = ProductHom((2,), 2, blocks)
    hn, n = normalize(h)
    assert n == 2
    assert kernel_lattice(hn.concatenated()) == kernel_lattice(h.concatenated())
    # idempotent
    assert normalize(hn)[0] == hn


FINITE_INDEX_HOM = ProductHom((2, 2, 2), 2, (M([[2, 0, 1, 0], [0, 0, 2, 0]]),
                                             M([[0, 2, 0, 0], [0, 0, 0, 0]]),
                                             M([[4, 0, 0, 1], [0, 0, 0, 2]])))


def test_normal_form_is_cached_and_leaves_equality_alone(monkeypatch):
    g, n, blocks = FINITE_INDEX_HOM.genera, FINITE_INDEX_HOM.target_rank, FINITE_INDEX_HOM.blocks
    h, twin = ProductHom(g, n, blocks), ProductHom(g, n, blocks)
    before = hash(h)
    hn, n = normalize(h)
    assert n == 2 and hn != h
    assert h.normal_form is hn and normalize(h)[0] is hn
    hn_twin = ProductHom(hn.genera, hn.target_rank, hn.blocks)
    assert hn.block_bases == tuple(hnf_basis(b) for b in hn.blocks)
    assert h.block_bases == tuple(hnf_basis(b) for b in blocks)
    assert h == twin and hash(h) == before == hash(twin) and repr(h) == repr(twin)
    assert hn == hn_twin and hash(hn) == hash(hn_twin) and repr(hn) == repr(hn_twin)
    calls = _count_reductions(monkeypatch)
    assert normalize(hn)[0] is hn and calls == []
    surjective = build_hom_from_family(GENERIC24)
    assert normalize(surjective)[0] is surjective


@pytest.mark.parametrize("h", [FINITE_INDEX_HOM, build_hom_from_family(GENERIC24)],
                         ids=["finite-index", "surjective"])
def test_cached_normal_form_and_bases_make_no_reference_cycle(h):
    # a cycle would keep every analyzed hom alive until the collector runs
    h = ProductHom(h.genera, h.target_rank, h.blocks)
    hn, _ = normalize(h)
    assert h.block_bases and hn.block_bases and normalize(hn)[0] is hn
    refs = weakref.ref(h), weakref.ref(hn)
    gc.disable()
    try:
        del h, hn
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _count_reductions(monkeypatch):
    """Record every image lattice the model computes; during ``analyze``
    these are exactly the normal-form reductions of the stacked block bases."""
    calls = []

    def counting(a):
        calls.append(a)
        return image_lattice(a)

    monkeypatch.setattr(model, "image_lattice", counting)
    return calls


def test_analyze_normalizes_a_surjective_hom_once(monkeypatch):
    # an onto block shows surjectivity with no reduction; with none, the
    # stacked block bases are reduced once
    spec = make_generic_family(1, 3)
    onto, h = build_hom_from_family(spec), build_hom_from_family(GENERIC24)
    calls = _count_reductions(monkeypatch)
    analyze(onto, spec)
    assert calls == [] and onto.onto_blocks == (0, 1, 2)
    analyze(h, GENERIC24)
    assert calls == [hstack(h.block_bases, rows=4)] and h.onto_blocks == ()
    assert h.normal_form is h and onto.normal_form is onto


@pytest.mark.parametrize("h", [
    FINITE_INDEX_HOM,
    ProductHom((2, 2), 2, (M([[1, 0, 1, 0], [0, 0, 0, 0]]), M([[0, 1, 0, 0], [0, 0, 0, 0]]))),
    ProductHom((2, 2), 1, (M([[0, 0, 0, 0]]), M([[0, 0, 0, 0]]))),
], ids=["finite-index", "zero-row", "zero-map"])
def test_analyze_normalizes_a_non_surjective_hom_once(monkeypatch, h):
    h = ProductHom(h.genera, h.target_rank, h.blocks)  # a fresh object, nothing cached
    calls = _count_reductions(monkeypatch)
    analyze(h)
    assert calls == [hstack(h.block_bases, rows=h.target_rank)]
    assert h.onto_blocks == () and h.normal_form is not h


@pytest.mark.parametrize("h", [FINITE_INDEX_HOM, build_hom_from_family(GENERIC24),
                               build_hom_from_family(make_generic_family(1, 3))],
                         ids=["finite-index", "surjective", "onto"])
def test_analyze_reduces_each_block_once(monkeypatch, h):
    h = ProductHom(h.genera, h.target_rank, h.blocks)  # a fresh object, nothing cached
    calls = []

    def counting(a):
        calls.append(a)
        return hnf_basis(a)

    monkeypatch.setattr(model, "hnf_basis", counting)
    analyze(h)
    hn = h.normal_form
    assert calls == list(h.blocks) + (list(hn.blocks) if hn is not h else [])


def test_analyze_decides_subdirectness_once_on_a_rank_one_target(monkeypatch):
    # the Betti phase reads analyze's statuses instead of deciding them again
    calls, real = [], analyzer.subdirectness
    monkeypatch.setattr(analyzer, "subdirectness", lambda h: calls.append(h) or real(h))
    report = analyze(rank_one_hom((2, 2, 2)))
    assert len(calls) == 1 and (report.betti.kind, report.betti.value) == ("Value", 11)


def test_fullness_always():
    assert fullness(build_hom_from_family(GENERIC24)).claim == "Full"


def test_projection_full_set_is_kernel():
    h = build_hom_from_family(GENERIC24)
    proj = projection_of_kernel(h, (1, 2, 3, 4))
    assert proj.lattice == kernel_lattice(h.concatenated())
    assert proj.index is None  # n' >= 1 makes the kernel infinite index


def test_projection_rejects_bad_input():
    h = build_hom_from_family(GENERIC24)
    with pytest.raises(ValueError):
        projection_of_kernel(h, ())
    with pytest.raises(ValueError):
        projection_of_kernel(h, (0,))


def test_subdirectness_rank_one_hom():
    statuses = subdirectness(rank_one_hom((2, 2, 2)))
    assert all(s.status == "Exact" for s in statuses)


def test_subdirectness_single_factor():
    h = build_hom_from_family(make_generic_family(1, 3))
    # restrict to one factor: projection of kernel has infinite-index image
    single = ProductHom(h.genera[:1], h.target_rank, h.blocks[:1])
    assert subdirectness(single)[0].status == "InfiniteIndex"


@st.composite
def subdirectness_homs(draw):
    """Random homs with r <= 5 and n <= 4. Each block is zero, rank one or
    dense, times 1, 2 or 3, so the other factors' image often has finite
    index in the whole image; a lower-triangular change of coordinates with
    diagonal entries in {1, 2, 3} makes many whole images of finite index."""
    r, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    t = [[draw(st.integers(1, 3)) if i == j else draw(st.integers(-2, 2)) if j < i
          else 0 for j in range(n)] for i in range(n)]
    blocks = []
    for _ in range(r):
        shape = draw(st.sampled_from(["zero", "rank_one", "dense"]))
        scale = draw(st.integers(1, 3))
        if shape == "zero":
            b = [[0] * 4 for _ in range(n)]
        elif shape == "rank_one":
            u = [draw(st.integers(-2, 2)) for _ in range(n)]
            v = [draw(st.integers(-2, 2)) for _ in range(4)]
            b = [[scale * x * y for y in v] for x in u]
        else:
            b = [[scale * draw(st.integers(-2, 2)) for _ in range(4)] for _ in range(n)]
        blocks.append(M(t) @ M(b))
    return ProductHom((2,) * r, n, tuple(blocks))


@st.composite
def wide_homs(draw):
    """Homs shaped like the wide_blocks benchmark: r <= 5, n <= 6, genus 2
    to 4 and entries up to 10^3, drawn from a seeded generator (drawing each
    entry through hypothesis costs more than the checks). Lower-triangular
    changes of coordinates with diagonal entries in {1, 2, 3} mix every
    block (so many images have finite index) and push some blocks into one
    sublattice (so the other factors' image often has finite index > 1 in
    the whole image)."""
    r, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    t, sub = (M([[rng.randint(1, 3) if i == j else rng.randint(-2, 2) if j < i
                  else 0 for j in range(n)] for i in range(n)]) for _ in range(2))
    blocks = []
    for _ in range(r):
        g = rng.randint(2, 4)
        b = M([[rng.randint(-1000, 1000) for _ in range(2 * g)] for _ in range(n)])
        blocks.append(t @ (sub @ b if rng.random() < 0.5 else b))
    return ProductHom(tuple(b.cols // 2 for b in blocks), n, tuple(blocks))


@settings(max_examples=200, deadline=None)
@given(st.one_of(subdirectness_homs(), wide_homs()))
def test_subdirectness_matches_projection_of_kernel(h):
    expected = []
    for i in range(1, h.num_factors + 1):
        proj = projection_of_kernel(h, (i,))
        if proj.lattice.is_full:
            expected.append(("Exact", None))
        elif proj.index is not None:
            expected.append(("FiniteIndex", proj.index))
        else:
            expected.append(("InfiniteIndex", None))
    assert [(s.status, s.index) for s in subdirectness(h)] == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(subdirectness_homs(), wide_homs()))
def test_finite_type_rules_out_infinite_index(h):
    # irreducibility skips the subdirectness check on the strength of this:
    # factor i has infinite index exactly when its complement, an (r-1)-set,
    # is deficient, which makes D = r - 1 and m = 0
    fin, _ = finiteness_type(h)
    infinite = [s for s in subdirectness(h) if s.status == "InfiniteIndex"]
    if fin.kind == "ExactType":
        assert fin.m >= 1 and not infinite
    assert bool(infinite) == (fin.kind == "NotFinitelyGenerated")


def test_deficiency_generic_24():
    h = build_hom_from_family(GENERIC24)
    d, witnesses = deficiency_profile(h)
    assert d == 1
    assert witnesses[0].subset == (1,)  # lex-smallest maximal witness
    assert witnesses[0].rank_of_blocks == 2


def test_deficiency_extended():
    h = build_hom_from_family(make_extended_family(2, 5))
    d, witnesses = deficiency_profile(h)
    assert d == 2
    assert witnesses[0].subset == (1, 2)


def test_deficiency_downward_closed():
    for spec in (GENERIC24, make_extended_family(2, 5),
                 make_degenerate_family(2, 5, (3, 1, 1))):
        h, n = normalize(build_hom_from_family(spec))
        _, witnesses = deficiency_profile(h)
        for w in witnesses:
            for size in range(len(w.subset)):
                for sub in combinations(w.subset, size):
                    idx = tuple(i - 1 for i in sub)
                    assert rank(hstack([h.blocks[i] for i in idx],
                                       rows=h.target_rank)) < n


def test_deficiency_trivial_map():
    h = ProductHom((2, 2), 0, (IntMatrix.zeros(0, 4), IntMatrix.zeros(0, 4)))
    assert deficiency_profile(h) == (None, ())
    fin, _ = finiteness_type(h)
    assert fin.kind == "F_infinity"


def test_finiteness_generic_and_extended():
    fin, certs = finiteness_type(build_hom_from_family(GENERIC24))
    assert (fin.kind, fin.m) == ("ExactType", 2)
    claims = {c.claim for c in certs}
    assert "of type F_2" in claims and "not of type F_3" in claims

    fin, _ = finiteness_type(build_hom_from_family(make_extended_family(1, 4)))
    assert (fin.kind, fin.m) == ("ExactType", 2)


def test_finiteness_edge_m1_certified_as_finitely_generated():
    fin, certs = finiteness_type(
        build_hom_from_family(make_degenerate_family(2, 5, (3, 1, 1))))
    assert (fin.kind, fin.m) == ("ExactType", 1)
    assert any(c.claim == "finitely generated" for c in certs)


def test_not_finitely_generated():
    # single factor onto Z: the empty set is deficient, D = r-1 = 0, m = 0
    fin, _ = finiteness_type(rank_one_hom((2,)))
    assert fin.kind == "NotFinitelyGenerated"


def test_betti_rank_one_subdirect():
    betti, cert = betti_kernel(rank_one_hom((2, 2, 2)))
    assert (betti.kind, betti.value) == ("Value", 11)
    assert cert is not None and cert.data["condition"] == "rank-one subdirect"


def test_betti_unknown_for_generic24():
    # blocks have rank 2 < 4: neither criterion applies
    betti, _ = betti_kernel(build_hom_from_family(GENERIC24))
    assert betti.kind == "UnknownByCriteria"


def test_betti_three_surjecting_factors():
    blocks = tuple(M([[1, 0, 0, 0], [0, 0, 1, 0]]) for _ in range(3))
    betti, cert = betti_kernel(ProductHom((2, 2, 2), 2, blocks))
    assert (betti.kind, betti.value) == ("Value", 10)
    assert cert is not None and cert.data["condition"] == "three surjecting factors"


def test_betti_trivial_map():
    h = ProductHom((2, 3), 0, (IntMatrix.zeros(0, 4), IntMatrix.zeros(0, 6)))
    betti, _ = betti_kernel(h)
    assert betti.value == 10


def test_kahler_odd_rank():
    h = ProductHom((2, 2, 2), 3,
                   tuple(M([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
                         for _ in range(3)))
    verdict, _ = kahler_verdict(h)
    assert (verdict.kind, verdict.reason) == ("NotKahler", "OddRank")


def test_kahler_odd_betti_both_reasons_for_rank_one():
    verdict, cert = kahler_verdict(rank_one_hom((2, 2, 2)))
    assert verdict.kind == "NotKahler"
    assert verdict.reason == "OddRank"  # odd-rank rule fires first
    assert "OddBetti" in verdict.reasons
    assert cert.data["betti"] == 11


def test_kahler_from_family_provenance():
    h = build_hom_from_family(GENERIC24)
    assert kahler_verdict(h, GENERIC24)[0].kind == "Kahler"
    assert kahler_verdict(h)[0].kind == "Unknown"  # no provenance, no verdict
    # degenerate families never certify Kaehlerness
    deg = make_degenerate_family(2, 6, (3, 1, 1, 1))
    hd = build_hom_from_family(deg)
    assert kahler_verdict(hd, deg)[0].kind == "Unknown"


@settings(max_examples=60, deadline=None)
@given(st.one_of(subdirectness_homs(), wide_homs()))
def test_kahler_verdict_alone_matches_analyze(h):
    # analyze hands its Betti verdict to kahler_verdict; alone, it computes it
    verdict, cert = kahler_verdict(h)
    report = analyze(h)
    assert report.kahler == verdict and cert in report.certificates


@settings(max_examples=60, deadline=None)
@given(st.one_of(subdirectness_homs(), wide_homs()))
def test_subdirectness_and_betti_alone_match_analyze(h):
    # analyze shares the normal form and block bases cached on its hom;
    # alone, each phase computes them on an object of its own
    def fresh():
        return ProductHom(h.genera, h.target_rank, h.blocks)

    betti, cert = betti_kernel(fresh())
    report = analyze(fresh())
    assert report.subdirectness == subdirectness(fresh()) and report.betti == betti
    assert cert is None or cert in report.certificates


def block_diagonal_hom():
    up = M([[1, 0, 0, 0], [0, 0, 0, 0]])
    down = M([[0, 0, 0, 0], [1, 0, 0, 0]])
    return ProductHom((2, 2, 2, 2), 2, (up, up, down, down))


def test_splitting_block_diagonal():
    verdict, _ = splitting_search(block_diagonal_hom())
    assert verdict.kind == "Reducible"
    assert verdict.partition == ((1, 2), (3, 4))


def test_splitting_joins_groups_through_a_bridging_factor():
    # factor 3 has a column in factor 1's component and one in factor 2's,
    # so all three factors form one group and nothing splits
    up, down = M([[1, 1, 0, 0], [0, 0, 0, 0]]), M([[0, 0, 0, 0], [1, 1, 0, 0]])
    h = ProductHom((2, 2, 2), 2, (down, up, M([[0, 1, 0, 0], [1, 0, 0, 0]])))
    assert splitting_search(h)[0].kind == "Unknown"


def test_splitting_trivial_map():
    h = ProductHom((2, 2), 0, (IntMatrix.zeros(0, 4), IntMatrix.zeros(0, 4)))
    verdict, _ = splitting_search(h)
    assert verdict.kind == "Reducible"


def test_no_split_for_generic():
    verdict, _ = splitting_search(build_hom_from_family(GENERIC24))
    assert verdict.kind == "Unknown"


@st.composite
def split_prone_homs(draw):
    """Random homs with r <= 7 whose factors sit on one side of a coordinate
    cut, mixed by a lower-triangular change of coordinates whose diagonal
    entries in {1, 2, 3} make the image of finite index."""
    r, n = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    cut = draw(st.integers(0, n))
    t = [[draw(st.integers(1, 3)) if i == j else draw(st.integers(-2, 2)) if j < i
          else 0 for j in range(n)] for i in range(n)]
    blocks = []
    for _ in range(r):
        side = draw(st.booleans())
        b = [[draw(st.integers(-2, 2)) if (i < cut) == side else 0 for _ in range(4)]
             for i in range(n)]
        blocks.append(M(t) @ M(b))
    return ProductHom((2,) * r, n, tuple(blocks))


@st.composite
def splitting_homs(draw):
    """Random homs with r <= 9 and n <= 4, genus 2 or 3. Each block takes a
    shape from a per-hom subset of: zero, a copy of an earlier block, dense,
    nonzero only on the rows of one of two coordinate groups, or each column
    on the rows of its own group (such a factor can join two components). A
    lower-triangular change of coordinates with diagonal entries in
    {1, 2, 3} makes many images of finite index; n = 0 gives the zero map."""
    r, n = draw(st.integers(1, 9)), draw(st.sampled_from((2, 3, 4, 1, 0)))
    genera = tuple(draw(st.integers(2, 3)) for _ in range(r))
    row_group = [draw(st.integers(0, 1)) for _ in range(n)]
    t = M([[draw(st.integers(1, 3)) if i == j else draw(st.integers(-2, 2)) if j < i
            else 0 for j in range(n)] for i in range(n)]) if n else IntMatrix(0, 0, ())
    shapes = draw(st.lists(st.sampled_from(["group", "mixed", "dense", "copy", "zero"]),
                           min_size=1, max_size=5, unique=True))
    blocks = []
    for g in genera:
        shape = draw(st.sampled_from(shapes))
        copies = [b for b in blocks if b.cols == 2 * g]
        if shape == "copy" and copies:
            blocks.append(draw(st.sampled_from(copies)))
            continue
        side = draw(st.sampled_from(row_group)) if n else 0
        sides = [draw(st.sampled_from(row_group)) if n and shape == "mixed" else side
                 for _ in range(2 * g)]
        b = [[draw(st.sampled_from((1, -1, 2, 0, -2))) if shape == "dense"
              or shape in ("group", "mixed") and row_group[i] == sides[j] else 0
              for j in range(2 * g)] for i in range(n)]
        blocks.append(t @ IntMatrix(n, 2 * g, tuple(map(tuple, b))))
    return ProductHom(genera, n, tuple(blocks))


def _lattice_split(h):
    """The first bipartition, in the search's order, whose image lattices
    intersect trivially and sum to the whole target."""
    h, n = normalize(h)
    for left, right in oracle.bipartitions(h.num_factors):
        im_l, im_r = (image_lattice(hstack([h.blocks[i] for i in side], rows=n))
                      for side in (left, right))
        # the two images sum to the whole target, by normalization
        assert image_lattice(hstack([im_l.basis, im_r.basis])) == Lattice.full(n)
        if lattice_intersection(im_l, im_r).rank == 0:
            return tuple(i + 1 for i in left), tuple(i + 1 for i in right)
    return None


def _assert_split_matches_oracle(h):
    verdict, cert = splitting_search(h)
    expected = oracle.split_by_rank_additivity(h)
    assert verdict.partition == expected
    assert verdict.kind == ("Unknown" if expected is None else "Reducible")
    assert (cert is None) == (expected is None)


@settings(max_examples=150, deadline=None)
@given(st.one_of(split_prone_homs(), splitting_homs()))
def test_splitting_matches_lattice_definition(h):
    _assert_split_matches_oracle(h)
    assert oracle.split_by_rank_additivity(h) == _lattice_split(h)


def _seeded_wide_hom(rng, r, kind):
    """A seeded hom with r factors of genus 2 and n <= 6: dense, split
    across a random coordinate cut, or r - 1 copies of one block."""
    n = rng.randint(1, 6)
    cut = rng.randint(1, n)
    copy = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(n)]
    blocks = []
    for i in range(r):
        side = rng.random() < 0.5
        b = [[rng.randint(-3, 3) if kind == "dense" or (row < cut) == side else 0
              for _ in range(4)] for row in range(n)]
        blocks.append(M(copy if kind == "repeated" and i else b))
    return ProductHom((2,) * r, n, tuple(blocks))


@pytest.mark.parametrize("kind", ["dense", "split", "repeated"])
@pytest.mark.parametrize("r", [10, 11, 12])
def test_splitting_matches_rank_additivity_oracle_on_wide_homs(r, kind):
    # rank pairs only: the lattice definition on all 2047 bipartitions of a
    # 12-factor hom takes about a second per hom
    _assert_split_matches_oracle(_seeded_wide_hom(random.Random(100 * r), r, kind))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_first_split_matches_the_bipartition_walk(group):
    walk = next((left for left, right in oracle.bipartitions(len(group))
                 if {group[i] for i in left}.isdisjoint(group[i] for i in right)), None)
    assert _first_split(group) == walk


def test_splitting_interleaved_groups_of_twelve_factors():
    # the odd factors map into the first coordinate and the even ones into
    # the second, so the first split is the balanced one holding factor 1
    up, down = M([[1, 2, 0, 0], [0, 0, 0, 0]]), M([[0, 0, 0, 0], [3, 1, 0, 0]])
    h = ProductHom((2,) * 12, 2, tuple(up if i % 2 else down for i in range(1, 13)))
    verdict, _ = splitting_search(h)
    assert verdict.partition == (tuple(range(1, 13, 2)), tuple(range(2, 13, 2)))
    _assert_split_matches_oracle(h)


def test_irreducibility_generic():
    verdict, cert = irreducibility(build_hom_from_family(GENERIC24))
    assert verdict.kind == "Irreducible"
    assert cert is not None and cert.data["m"] == 2


def test_irreducibility_unknown_when_tuple_check_passes():
    # triple-repeated basis vector: m = 2 but some 4-tuple has full-rank
    # complement, so the sufficient criterion stays silent
    h = build_hom_from_family(make_degenerate_family(2, 6, (3, 1, 1, 1)))
    verdict, _ = irreducibility(h)
    assert verdict.kind == "Unknown"


def test_report_json_shape():
    report = analyze(build_hom_from_family(GENERIC24), GENERIC24)
    doc = report.to_json_dict()
    assert list(doc) == ["effective_rank", "fullness", "subdirectness",
                         "max_deficient_size", "witnesses", "finiteness",
                         "betti", "kahler", "irreducibility", "certificates"]
    assert doc["finiteness"] == {"kind": "ExactType", "m": 2}
    assert doc["kahler"] == {"kind": "Kahler"}
    assert all(set(c) == {"claim", "justification", "data"}
               for c in doc["certificates"])


def test_subdirect_variant_makes_all_factors_exact():
    spec = make_generic_family(2, 5, subdirect_variant=True)
    statuses = subdirectness(build_hom_from_family(spec))
    assert all(s.status == "Exact" for s in statuses)
