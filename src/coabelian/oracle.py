"""Slow, independent re-implementations used to cross-check the main code.

These deliberately avoid the canonical-form machinery: rank is recomputed by
plain fraction-free elimination, projected-kernel indices by a column
echelon with nearest-integer reduction coded from scratch, lattice indices
by literally counting residue classes, and splittings by the rank pair of
every bipartition where the analyzer reads matroid components. Shared
surface with the rest of the package is limited to the IntMatrix container
and big-integer arithmetic. The main ``rank`` uses fraction-free
elimination too, so the tests also check both against the column count of
the Hermite normal form, which does not.
"""

from __future__ import annotations

from itertools import combinations

from .intmatrix import IntMatrix, hstack
from .lattice import Lattice
from .model import ProductHom

INDEX_BOUND = 10**4
AMBIENT_BOUND = 4


class OracleBoundExceeded(ValueError):
    pass


def rank_by_elimination(a: IntMatrix) -> int:
    """Rank via Bareiss-style fraction-free row elimination, no normal forms."""
    m = [list(row) for row in a.data]
    rows, cols = a.rows, a.cols
    prev = 1
    r = 0
    for col in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, rows):
            for j in range(col + 1, cols):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == rows:
            break
    return r


def bipartitions(r: int):
    """Every bipartition (L, R) of range(r) in the splitting search's order:
    by |L| <= r/2, then lexicographically, each balanced one once (L holds
    factor 0)."""
    for size in range(1, r // 2 + 1):
        for left in combinations(range(r), size):
            if 0 not in left and size == r - size:
                continue
            yield left, tuple(i for i in range(r) if i not in left)


def split_by_rank_additivity(h: ProductHom
                             ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first bipartition L|R of the factors (1-based) with
    rank(A_L) + rank(A_R) = rank(A), trying every bipartition in order.
    Ranks are rational, so the raw blocks answer as the normal form would.
    None when no bipartition splits. Unlike the analyzer it has no factor
    cap."""
    def rank_of(indices):
        return rank_by_elimination(hstack([h.blocks[i] for i in indices],
                                          rows=h.target_rank))

    total = rank_of(range(h.num_factors))
    for left, right in bipartitions(h.num_factors):
        if rank_of(left) + rank_of(right) == total:
            return tuple(i + 1 for i in left), tuple(i + 1 for i in right)
    return None


def _column_echelon(a: IntMatrix) -> list[list[int]]:
    """Column echelon form over Z by unimodular column operations; returns
    the nonzero columns, ordered by strictly increasing leading row. In each
    row the column of least |entry| is subtracted, by the nearest-integer
    multiple, from the others until one nonzero is left. Remainders are at
    most half that entry, so a row takes few rounds and the entries of the
    other rows grow slowly. Not canonical, not reduced."""
    cols = [c for j in range(a.cols)
            if any(c := [a.data[i][j] for i in range(a.rows)])]
    done = []
    for row in range(a.rows):
        live = [c for c in cols if c[row]]
        while len(live) > 1:
            p = min(live, key=lambda c: abs(c[row]))
            d = p[row]
            for c in live:
                if c is not p:
                    q = (2 * c[row] + d) // (2 * d)  # nearest integer to c[row] / d
                    c[:] = [x - q * y for x, y in zip(c, p)]
            live = [c for c in live if c[row]]
        if live:
            done.append(live[0])
            cols = [c for c in cols if c is not live[0] and any(c)]
    return done


def _kernel_columns(a: IntMatrix) -> list[list[int]]:
    """Integer kernel basis of a, via column echelon of the stacked matrix
    [A; I] — the identity rows under columns killed in A span the kernel."""
    stacked = IntMatrix.from_rows(
        [list(row) for row in a.data] +
        [[1 if j == i else 0 for j in range(a.cols)] for i in range(a.cols)],
        cols=a.cols)
    kernel = []
    for col in _column_echelon(stacked):
        if all(x == 0 for x in col[:a.rows]):
            kernel.append(col[a.rows:])
    return kernel


def _index_from_columns(cols: list[list[int]], ambient: int) -> int | None:
    """Index of the span of the given columns in Z^ambient via residue
    counting; None when the span has lower rank (infinite index)."""
    if ambient == 0:
        return 1
    echelon = _column_echelon(IntMatrix.from_rows(
        [[c[i] for c in cols] for i in range(ambient)], cols=len(cols))
        if cols else IntMatrix.zeros(ambient, 0))
    if len(echelon) < ambient:
        return None
    # full rank: the echelon columns are triangular (column j leads in row j),
    # so the index is the absolute product of the leading entries
    index = 1
    for j, col in enumerate(echelon):
        index *= abs(col[j])
    return index


def vsp_by_preimage(h: ProductHom, t) -> int | None:
    """Index of the abelianized projected kernel for the tuple T (1-based),
    computed without the rank shortcut: the preimage under A_T of the image
    of the complementary blocks, via an independently coded echelon kernel.
    Returns the finite index, or None for infinite."""
    t0 = tuple(sorted(set(i - 1 for i in t)))
    comp = tuple(i for i in range(h.num_factors) if i not in t0)
    a_t = hstack([h.blocks[i] for i in t0], rows=h.target_rank)
    comp_cols = [[h.blocks[i].data[row][j] for row in range(h.target_rank)]
                 for i in comp for j in range(h.blocks[i].cols)]
    # solve A_T x = B y: kernel of [A_T | -B], keep the x part
    b_mat = IntMatrix.from_rows(
        [[c[row] for c in comp_cols] for row in range(h.target_rank)],
        cols=len(comp_cols))
    stacked = hstack([a_t, -b_mat], rows=h.target_rank)
    preimage_cols = [col[:a_t.cols] for col in _kernel_columns(stacked)]
    return _index_from_columns(preimage_cols, a_t.cols)


def _det_by_cofactors(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[x] for x in range(n) if x != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_by_cofactors(minor)
    return total


def index_by_residue_count(lat: Lattice) -> int:
    """Index of a full-rank lattice by counting residue classes of
    Z^ambient modulo the span of its basis columns (oracle for the
    triangular-determinant shortcut).

    Picks ambient columns with nonzero determinant d, then closes the
    subgroup generated by all columns inside (Z/d)^ambient by breadth-first
    search; the index is d^ambient / |subgroup|.
    """
    ambient = lat.ambient_rank
    if ambient > AMBIENT_BOUND:
        raise OracleBoundExceeded(f"ambient rank {ambient} > {AMBIENT_BOUND}")
    if ambient == 0:
        return 1
    cols = [[lat.basis.data[i][j] for i in range(ambient)]
            for j in range(lat.basis.cols)]
    d = 0
    for subset in combinations(range(len(cols)), ambient):
        square = [[cols[j][i] for j in subset] for i in range(ambient)]
        d = _det_by_cofactors(square)
        if d != 0:
            break
    if d == 0:
        raise ValueError("columns do not have full rank")
    d = abs(d)
    if d == 1:
        return 1
    gens = [tuple(x % d for x in c) for c in cols]
    seen = {tuple([0] * ambient)}
    frontier = [tuple([0] * ambient)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % d for a, b in zip(cur, g))
            if nxt not in seen:
                if len(seen) >= 10**6:
                    raise OracleBoundExceeded("subgroup closure too large")
                seen.add(nxt)
                frontier.append(nxt)
    index = d ** ambient // len(seen)
    if index > INDEX_BOUND:
        raise OracleBoundExceeded(f"index {index} > {INDEX_BOUND}")
    return index
