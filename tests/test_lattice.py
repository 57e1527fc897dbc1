import random

import pytest

from coabelian.intmatrix import IntMatrix, hstack, rank, smith_normal_form
from coabelian.lattice import (AmbientMismatchError, Lattice, image_lattice,
                               kernel_lattice, lattice_index,
                               lattice_intersection, preimage_lattice,
                               solve_in_basis)


def M(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def test_index_examples():
    assert lattice_index(image_lattice(M([[2, 0], [0, 3]]))) == 6
    assert lattice_index(image_lattice(M([[2, 0], [1, 2]]))) == 4
    assert lattice_index(Lattice.full(3)) == 1
    assert lattice_index(image_lattice(M([[1, 2], [2, 4]]))) is None  # rank 1


def test_canonical_equality():
    # different generating sets of the same lattice compare equal
    l1 = image_lattice(M([[2, 0], [0, 3]]))
    l2 = image_lattice(M([[2, 0, 2], [0, 3, 3]]))
    assert l1 == l2


def test_kernel_is_saturated():
    a = M([[2, 4]])
    k = kernel_lattice(a)
    # kernel of (2 4) is spanned by (2,-1), primitive
    assert k.rank == 1
    assert solve_in_basis(k, (2, -1)) is not None
    assert solve_in_basis(k, (1, 0)) is None


def test_preimage_of_image_is_everything():
    rng = random.Random(3)
    for _ in range(30):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = M([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        assert preimage_lattice(a, image_lattice(a)) == Lattice.full(c)


def test_sum_intersection_index_multiplicativity():
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        a = M([[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
        b = M([[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
        la, lb = image_lattice(a), image_lattice(b)
        ia, ib = lattice_index(la), lattice_index(lb)
        if ia is None or ib is None:
            continue
        imeet = lattice_index(lattice_intersection(la, lb))
        ijoin = lattice_index(image_lattice(hstack([la.basis, lb.basis])))
        assert imeet is not None and ijoin is not None
        assert ia * ib == imeet * ijoin
        checked += 1


def test_solve_in_basis():
    lat = image_lattice(M([[2, 0], [0, 3]]))
    assert solve_in_basis(lat, (4, 3)) is not None
    assert solve_in_basis(lat, (1, 0)) is None
    coeffs = solve_in_basis(lat, (2, 3))
    assert coeffs is not None
    # reconstruct
    v = [sum(lat.basis.data[i][j] * coeffs[j] for j in range(lat.rank))
         for i in range(2)]
    assert tuple(v) == (2, 3)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        lattice_intersection(Lattice.full(2), Lattice.full(3))


def test_zero_and_full():
    z = image_lattice(IntMatrix.zeros(3, 0))
    assert z.rank == 0 and lattice_index(z) is None
    assert image_lattice(hstack([z.basis, Lattice.full(3).basis])) == Lattice.full(3)
    assert lattice_intersection(z, Lattice.full(3)) == z


def _finite_index_block(rng, n, c, p):
    """Columns adjusted so that w . x = 0 (mod p) for a random w with w[0] = 1:
    the image lies in a sublattice of index p."""
    w = [1] + [rng.randrange(p) for _ in range(n - 1)]
    cols = []
    for _ in range(c):
        x = [rng.randint(-9, 9) for _ in range(n)]
        x[0] -= sum(a * b for a, b in zip(w, x)) % p
        cols.append(x)
    return IntMatrix(n, c, tuple(tuple(x[i] for x in cols) for i in range(n)))


def test_is_full_matches_smith_criterion():
    rng = random.Random(11)
    seen = set()
    for trial in range(300):
        n, c = rng.randint(0, 4), rng.randint(0, 8)
        if trial % 3 == 0 and n:
            b = _finite_index_block(rng, n, c, rng.choice((2, 3)))
        else:
            e = rng.choice((1, 3, 50))
            b = IntMatrix(n, c, tuple(tuple(rng.randint(-e, e) for _ in range(c))
                                      for _ in range(n)))
        full_rank = rank(b) == n
        smith = full_rank and all(d == 1 for d in smith_normal_form(b).diag)
        assert image_lattice(b).is_full == smith
        seen.add((full_rank, smith))
    # full images, finite-index images and rank-deficient images all occur
    assert seen == {(True, True), (True, False), (False, False)}
