import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coabelian import intmatrix, oracle
from coabelian.intmatrix import (IntMatrix, column_components, det,
                                 hermite_normal_form, hnf_basis, hstack,
                                 is_unimodular, rank, smith_normal_form)


def M(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def test_hnf_known_example():
    a = M([[2, 4], [6, 8]])
    h, u = hermite_normal_form(a)
    assert a @ u == h
    assert is_unimodular(u)
    # canonical: positive pivots, off-pivot entries reduced
    assert h.data == ((2, 0), (2, 4))


def test_snf_known_example():
    assert smith_normal_form(M([[2, 4], [6, 8]])).diag == (2, 4)
    assert smith_normal_form(M([[1, 0], [0, 1]])).diag == (1, 1)
    assert smith_normal_form(M([[0, 0], [0, 0]])).diag == ()


def test_rank_and_det():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.identity(4)) == 4
    assert rank(IntMatrix.zeros(3, 5)) == 0
    assert det(M([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix.identity(3)) == 1


def test_hstack_shapes():
    a = hstack([IntMatrix.identity(2), M([[5], [6]])])
    assert (a.rows, a.cols) == (2, 3)
    assert a.column(2) == (5, 6)
    # empty stack needs explicit row count
    z = hstack([], rows=3)
    assert (z.rows, z.cols) == (3, 0)
    with pytest.raises(ValueError):
        hstack([])


def test_matmul_and_neg():
    a = M([[1, 2], [3, 4]])
    assert a @ IntMatrix.identity(2) == a
    assert (-a).data == ((-1, -2), (-3, -4))


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_hnf_properties(rows):
    a = M(rows)
    h, u = hermite_normal_form(a)
    assert a @ u == h
    assert is_unimodular(u)
    # trailing columns beyond the rank are zero
    r = rank(a)
    for j in range(r, h.cols):
        assert all(h.data[i][j] == 0 for i in range(h.rows))


def _matrix(r, c, entries):
    return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
                    ).map(lambda rows: IntMatrix(r, c, tuple(map(tuple, rows))))


# every shape down to 0 rows or 0 columns, entries up to 10^3, plus products
# of thin factors so that rank deficiency is common
any_shape = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 7).flatmap(
        lambda c: _matrix(r, c, st.integers(-1000, 1000))))
low_rank = st.tuples(st.integers(0, 6), st.integers(1, 3), st.integers(0, 7)).flatmap(
    lambda s: st.tuples(_matrix(s[0], s[1], st.integers(-30, 30)),
                        _matrix(s[1], s[2], st.integers(-30, 30)))
).map(lambda f: f[0] @ f[1])


# tall shapes, and entries far past any machine word
tall = st.integers(0, 12).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: _matrix(r, c, st.integers(-1000, 1000))))
huge = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 7).flatmap(
        lambda c: _matrix(r, c, st.integers(-10**40, 10**40))))


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_shape, low_rank, tall, huge))
def test_transform_free_basis_and_rank(a):
    # rank and the oracle both eliminate fraction-free; the column count of
    # the Hermite form is the check that does not
    h, _ = hermite_normal_form(a)
    nonzero = [j for j in range(h.cols) if any(h[i, j] for i in range(h.rows))]
    assert hnf_basis(a) == h.select_columns(nonzero)
    assert rank(a) == oracle.rank_by_elimination(a) == len(nonzero)


def _minor_gcd(a, k):
    """gcd of the k x k minors of A (1 for k = 0)."""
    return math.gcd(*(det(IntMatrix(k, k, tuple(tuple(a[i, j] for j in cols) for i in rows)))
                      for rows in itertools.combinations(range(a.rows), k)
                      for cols in itertools.combinations(range(a.cols), k)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(any_shape, low_rank, huge))
def test_hnf_basis_is_the_reduced_echelon_basis_of_the_column_span(a):
    # checked from the definition, not against hermite_normal_form, which
    # runs the same echelon routine
    b = hnf_basis(a)
    k = rank(a)
    assert (b.rows, b.cols) == (a.rows, k)
    pivots = [next(i for i in range(b.rows) if b[i, j]) for j in range(k)]
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for j, p in enumerate(pivots):
        assert b[p, j] > 0 and all(0 <= b[p, t] < b[p, j] for t in range(j))
    for c in range(a.cols):  # back-substitution along the pivots
        residual = list(a.column(c))
        for j, p in enumerate(pivots):
            q, rem = divmod(residual[p], b[p, j])
            assert rem == 0
            residual = [x - q * y for x, y in zip(residual, b.column(j))]
        assert not any(residual)
    # A = B X with X integral; the columns of X span Z^k, so the spans of A
    # and B agree, exactly when the gcds of their maximal minors agree
    assert _minor_gcd(a, k) == _minor_gcd(b, k)


# sparse supports give several components, zero columns, parallel columns
# and rank 0; a dense left factor with entries up to 10^3 or 10^40 hides them
sparse = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 8).flatmap(
        lambda c: _matrix(r, c, st.sampled_from((0, 0, 0, 1, -1, 2)))))
hidden = st.tuples(sparse, st.sampled_from((10**3, 10**40))).flatmap(
    lambda s: st.tuples(_matrix(s[0].rows, s[0].rows, st.integers(-s[1], s[1])),
                        st.just(s[0]))
).map(lambda f: f[0] @ f[1])


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse, hidden, low_rank, huge))
@example(IntMatrix(0, 0, ()))
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(2, 4))
def test_column_components_are_the_separators(a):
    labels = column_components(a)
    cols = range(a.cols)
    assert len(labels) == a.cols
    assert all(labels[j] == min(k for k in cols if labels[k] == labels[j]) for j in cols)
    ranks = [oracle.rank_by_elimination(a.select_columns(
        j for j in cols if mask >> j & 1)) for mask in range(1 << a.cols)]
    full = (1 << a.cols) - 1
    for mask in range(1 << a.cols):
        inside = {labels[j] for j in cols if mask >> j & 1}
        outside = {labels[j] for j in cols if not mask >> j & 1}
        assert inside.isdisjoint(outside) == (ranks[mask] + ranks[full ^ mask]
                                              == ranks[full])


def _leibniz_det(a):
    total = 0
    for perm in itertools.permutations(range(a.rows)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


# square matrices up to 5 x 5: dense, singular products of thin factors, and
# a repeated last row
square = st.integers(0, 5).flatmap(lambda n: _matrix(n, n, st.integers(-10**6, 10**6)))
square_low_rank = st.integers(1, 5).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(
        lambda k: st.tuples(_matrix(n, k, st.integers(-30, 30)),
                            _matrix(k, n, st.integers(-30, 30))))
).map(lambda f: f[0] @ f[1])
square_repeated = st.integers(1, 5).flatmap(
    lambda n: _matrix(n, n, st.integers(-3, 3))
).map(lambda a: IntMatrix(a.rows, a.cols, a.data[:-1] + a.data[:1]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(square, square_low_rank, square_repeated))
def test_det_matches_leibniz_expansion(a):
    d = det(a)
    assert d == _leibniz_det(a)
    assert (d != 0) == (rank(a) == a.rows)


def test_rank_and_det_do_not_use_the_hermite_routine(monkeypatch):
    def refuse(*args):
        raise AssertionError("rank and det must not run the Hermite routine")
    monkeypatch.setattr(intmatrix, "_echelon", refuse)
    assert rank(M([[2, 4, 6], [3, 6, 9], [1, 0, 1]])) == 2
    assert rank(IntMatrix.zeros(2, 0)) == 0
    assert det(M([[2, 1, 0], [1, 3, 1], [0, 1, 4]])) == 18
    assert det(M([[1, 2], [2, 4]])) == 0
    assert det(M([[0, 1], [1, 0]])) == -1
    with pytest.raises(ValueError):
        det(M([[1, 2, 3]]))


def _assert_smith_certificate(a, s):
    assert is_unimodular(s.left) and is_unimodular(s.right)
    d = s.left @ a @ s.right
    for i in range(d.rows):
        for j in range(d.cols):
            expected = s.diag[i] if i == j and i < len(s.diag) else 0
            assert d.data[i][j] == expected
    for x, y in zip(s.diag, s.diag[1:]):
        assert x > 0 and y % x == 0
    assert s.rank == len(s.diag) == rank(a)


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_shape, low_rank))
def test_snf_properties(a):
    _assert_smith_certificate(a, smith_normal_form(a))


def _elementary_product(n, rng):
    """A product of 4n elementary operations with multipliers in [-3, 3]."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return M(u)


def _invariant_factors(ds):
    """Invariant factors of diag(ds): the i-th smallest exponent of every
    prime, multiplied over the primes."""
    out = [1] * len(ds)
    for p in (2, 3, 5, 7):
        exps = []
        for d in ds:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            exps.append(e)
        for i, e in enumerate(sorted(exps)):
            out[i] *= p ** e
    return tuple(out)


def test_snf_structured_matrices_keep_transforms_small():
    # A = U1 D U2 with unimodular U1, U2 hides D's invariant factors behind
    # entries that make naive pivoting blow up the transforms
    rng = random.Random(2026)
    for sample in range(120):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        k = rng.randint(max(0, min(m, n) - 2), min(m, n))
        ds = [rng.choice((1, 2, 3, 4, 6, 7, 10, 15, 30, 49)) for _ in range(k)]
        d = M([[ds[i] if i == j and i < k else 0 for j in range(n)] for i in range(m)])
        a = _elementary_product(m, rng) @ d @ _elementary_product(n, rng)
        s = smith_normal_form(a)
        assert s.diag == _invariant_factors(ds), sample
        _assert_smith_certificate(a, s)
        bits = max(abs(x).bit_length() for t in (s.left, s.right)
                   for x in t.entries_row_major())
        assert bits <= 256, (sample, bits)


def _random_unimodular(n, rng):
    u = IntMatrix.identity(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = rng.randint(-3, 3)
        u = u @ M(e)
    return u


def test_hnf_canonical_under_column_action():
    # column HNF is a complete invariant of the column span
    rng = random.Random(11)
    for _ in range(50):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = M([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
        h1, _ = hermite_normal_form(a)
        h2, _ = hermite_normal_form(a @ _random_unimodular(c, rng))
        assert h1 == h2
