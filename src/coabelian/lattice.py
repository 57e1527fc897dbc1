"""Finitely generated subgroups of Z^n in canonical basis form.

A ``Lattice`` stores its basis as the column Hermite normal form of any
generating set, with zero columns dropped, computed without the unimodular
transform (only ``kernel_lattice`` needs one). Two lattices are equal as
subgroups of Z^n exactly when their stored bases are bit-identical, so
``==`` is the subgroup-equality test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmatrix import IntMatrix, hermite_normal_form, hnf_basis, hstack


class AmbientMismatchError(ValueError):
    """Raised when two lattices (or a lattice and a map) disagree on Z^n."""


@dataclass(frozen=True)
class Lattice:
    """A subgroup of Z^ambient_rank with canonical column-HNF basis."""

    ambient_rank: int
    basis: IntMatrix  # ambient_rank x rank, column echelon, no zero columns
    rank: int

    @classmethod
    def from_generators(cls, ambient_rank: int, generators: IntMatrix) -> "Lattice":
        if generators.rows != ambient_rank:
            raise AmbientMismatchError(
                f"generators live in Z^{generators.rows}, expected Z^{ambient_rank}")
        basis = hnf_basis(generators)
        return cls(ambient_rank, basis, basis.cols)

    @classmethod
    def full(cls, n: int) -> "Lattice":
        return cls(n, IntMatrix.identity(n), n)

    @property
    def is_full(self) -> bool:
        return self.rank == self.ambient_rank and self.basis == IntMatrix.identity(self.ambient_rank)

    def pivot_rows(self) -> tuple[int, ...]:
        """Row index of the topmost nonzero entry of each basis column."""
        return tuple(next(i for i in range(self.basis.rows) if self.basis.data[i][j])
                     for j in range(self.basis.cols))


def image_lattice(a: IntMatrix) -> Lattice:
    """The subgroup of Z^rows generated by the columns of A."""
    return Lattice.from_generators(a.rows, a)


def kernel_lattice(a: IntMatrix) -> Lattice:
    """The integer kernel {u : A u = 0}, a saturated lattice of rank cols - rank(A)."""
    h, u = hermite_normal_form(a)
    zero_cols = [j for j in range(h.cols)
                 if all(h.data[i][j] == 0 for i in range(h.rows))]
    return Lattice.from_generators(a.cols, u.select_columns(zero_cols))


def lattice_index(lat: Lattice) -> int | None:
    """Index of the lattice in Z^n; None means infinite (rank deficient).

    The canonical basis of a full-rank lattice is lower triangular, so the
    index is the product of its diagonal pivots.
    """
    if lat.rank < lat.ambient_rank:
        return None
    idx = 1
    for j in range(lat.ambient_rank):
        idx *= lat.basis.data[j][j]
    return idx


def lattice_intersection(l1: Lattice, l2: Lattice) -> Lattice:
    """Exact intersection: the image under B1 of the preimage of l2 under B1."""
    if l1.ambient_rank != l2.ambient_rank:
        raise AmbientMismatchError("lattice intersection needs equal ambient ranks")
    return image_lattice(l1.basis @ preimage_lattice(l1.basis, l2).basis)


def preimage_lattice(a: IntMatrix, lat: Lattice) -> Lattice:
    """The lattice {u in Z^cols : A u lies in lat}.

    Computed as the projection of the kernel of [A | -B] to the first block
    of coordinates, where B is the basis of lat. Always contains ker A.
    """
    if lat.ambient_rank != a.rows:
        raise AmbientMismatchError(
            f"lattice in Z^{lat.ambient_rank} cannot receive a map into Z^{a.rows}")
    if lat.is_full:
        return Lattice.full(a.cols)
    stacked = hstack([a, -lat.basis], rows=a.rows)
    ker = kernel_lattice(stacked)
    return Lattice.from_generators(a.cols, ker.basis.top_rows(a.cols))


def solve_in_basis(lat: Lattice, v: tuple[int, ...]) -> tuple[int, ...] | None:
    """Integer coordinates of v in the lattice basis, or None if v is outside.

    Forward substitution along the echelon pivots; exact divisibility at each
    pivot is required.
    """
    if len(v) != lat.ambient_rank:
        raise AmbientMismatchError("vector length does not match ambient rank")
    residual = list(v)
    coeffs = []
    pivots = lat.pivot_rows()
    for j, p in enumerate(pivots):
        pivot = lat.basis.data[p][j]
        if residual[p] % pivot:
            return None
        c = residual[p] // pivot
        coeffs.append(c)
        if c:
            for i in range(lat.ambient_rank):
                residual[i] -= c * lat.basis.data[i][j]
    if any(residual):
        return None
    return tuple(coeffs)
