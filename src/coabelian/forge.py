"""Deterministic generators for the example families.

Vector completion is greedy against a fixed total order on Z^k: vectors with
nonnegative entries come first, ordered by max-norm and then
lexicographically; sign-mixed vectors come after all nonnegative ones. The
inadmissible candidates at each step lie on finitely many hyperplanes, which
never contain the whole nonnegative orthant, so the greedy search only ever
inspects the nonnegative part of the order.
"""

from __future__ import annotations

from itertools import product

from .model import (DEGENERATE, DPS, EXTENDED, GENERIC, CoverData, FamilySpec,
                    VectorSet, check_property_P_prime, first_dependent,
                    independent_of_prefix, standard_basis)

# safety bound on the max-norm of greedily chosen vectors; generously above
# anything the supported parameter ranges require
_NORM_BOUND = 64
# a family document lists every cover coefficient, so its size grows with g
_MAX_GENUS = 1000


def _nonneg_candidates(k: int):
    """Nonnegative vectors of Z^k by (max-norm, lexicographic) order."""
    for norm in range(1, _NORM_BOUND + 1):
        for v in product(range(norm + 1), repeat=k):
            if max(v) == norm:
                yield v
    raise ValueError(f"no admissible vector of max-norm at most {_NORM_BOUND}")


def _greedy_extend(k: int, prefix: list[tuple[int, ...]],
                   count: int) -> list[tuple[int, ...]]:
    out = list(prefix)
    for _ in range(count):
        for cand in _nonneg_candidates(k):
            if independent_of_prefix(out, cand):
                out.append(cand)
                break
    return out


def generate_P_prime(k: int, r: int,
                     seed: tuple[tuple[int, ...], ...] = ()) -> VectorSet:
    """Greedy deterministic vector set with standard-basis prefix satisfying
    property P' (every k-subset linearly independent). A seed prefix is
    validated against property P, never repaired, then completed."""
    if not 1 <= k <= r:
        raise ValueError("need 1 <= k <= r")
    basis = standard_basis(k)
    prefix = list(seed)
    if prefix[:k] != basis[:len(prefix)]:
        raise ValueError("seed prefix must start with the standard basis")
    prefix += basis[len(prefix):]
    for v in prefix:
        if len(v) != k:
            raise ValueError("seed vector of wrong dimension")
    i = first_dependent(prefix)
    if i is not None:
        raise ValueError(f"seed prefix violates property P at position {i + 1}")
    if len(prefix) > r:
        raise ValueError("seed prefix longer than r")
    vectors = _greedy_extend(k, prefix, r - len(prefix))
    vs = VectorSet(k, tuple(vectors))
    assert check_property_P_prime(vs)
    return vs


def _default_covers(genera: tuple[int, ...], flagged: set[int]) -> tuple[CoverData, ...]:
    return tuple(CoverData.default(g, pi1_surjective=(i in flagged))
                 for i, g in enumerate(genera))


def _check_genera(genera, r: int) -> tuple[int, ...]:
    genera = tuple(genera) if genera is not None else (2,) * r
    if len(genera) != r or any(not 2 <= g <= _MAX_GENUS for g in genera):
        raise ValueError(f"need one genus in 2..{_MAX_GENUS} per factor")
    return genera


def make_generic_family(k: int, r: int, genera=None,
                        subdirect_variant: bool = False) -> FamilySpec:
    """Family with a property-P' vector configuration; the first k covers are
    asserted surjective on fundamental groups. With the subdirect variant the
    (k+1)-st vector is the sum of the basis vectors and its cover is flagged
    too, which makes the kernel subdirect on every factor."""
    if not 1 <= k <= r - 2:
        raise ValueError("need 1 <= k <= r-2")
    genera = _check_genera(genera, r)
    seed = (*standard_basis(k), (1,) * k) if subdirect_variant else ()
    vs = generate_P_prime(k, r, seed)
    flagged = set(range(k))
    if subdirect_variant:
        flagged.add(k)
    return FamilySpec(kind=DPS if k == 1 else GENERIC, k=k, r=r,
                      vector_set=vs, covers=_default_covers(genera, flagged))


def make_extended_family(m: int, r: int, genera=None,
                         subdirect_variant: bool = False) -> FamilySpec:
    """Family over Z^4 whose first vector is repeated m times; the remaining
    vectors are pairwise linearly independent. Covers m and m+1 are asserted
    surjective on fundamental groups."""
    if r < 4 or m < 1 or r - m < 3:
        raise ValueError("need r >= 4, m >= 1, r-m >= 3")
    genera = _check_genera(genera, r)
    second = (1, 1) if subdirect_variant else (0, 1)
    prefix = [(1, 0)] * m + [second]
    vectors = _greedy_extend(2, prefix, r - m - 1)
    flagged = {m - 1, m}
    return FamilySpec(kind=EXTENDED, k=2, r=r, m=m,
                      vector_set=VectorSet(2, tuple(vectors)),
                      covers=_default_covers(genera, flagged))


def make_degenerate_family(k: int, r: int, duplicate_profile, genera=None) -> FamilySpec:
    """Family obtained from a property-P' configuration by repeating each
    distinct vector with the given multiplicity. Large repeats create large
    deficient sets and drop the finiteness type below the generic value.
    A profile with no repeats reduces to the generic family."""
    profile = tuple(duplicate_profile)
    if not profile or any(c < 1 for c in profile) or sum(profile) != r:
        raise ValueError("profile must be positive multiplicities summing to r")
    if len(profile) < k:
        raise ValueError("need at least k distinct vectors")
    if all(c == 1 for c in profile) and k <= r - 2:
        return make_generic_family(k, r, genera)
    genera = _check_genera(genera, r)
    distinct = generate_P_prime(k, len(profile)).vectors
    vectors = tuple(v for v, count in zip(distinct, profile) for _ in range(count))
    return FamilySpec(kind=DEGENERATE, k=k, r=r,
                      vector_set=VectorSet(k, vectors),
                      covers=_default_covers(genera, set()))
