"""Invariants of kernels of maps from products of surface groups onto Z^n.

Every public function first normalizes its input: a non-surjective map is
rewritten in coordinates for its image lattice (a free abelian group), which
leaves the kernel untouched and makes the surjectivity hypotheses of the
underlying theorems available. The effective rank n' is the rank of the
concatenated block matrix. The model caches on the hom each block's Hermite
basis (``ProductHom.block_bases``), the blocks whose basis is the identity
(``onto_blocks``) and the normal form, which an onto block decides with no
further reduction. So one ``analyze`` reduces each raw and each rewritten
block once, and it hands its subdirectness statuses to the Betti phase.

Index sets in public signatures, witnesses, and JSON output are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .intmatrix import IntMatrix, column_components, hnf_basis, hstack, rank
from .lattice import Lattice, image_lattice, lattice_index, preimage_lattice
from .model import DEGENERATE, FamilySpec, ProductHom, build_hom_from_family

EXACT = "Exact"
FINITE_INDEX = "FiniteIndex"
INFINITE_INDEX = "InfiniteIndex"


@dataclass(frozen=True)
class Certificate:
    claim: str
    justification: str
    data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "justification": self.justification,
                "data": self.data}


@dataclass(frozen=True)
class FactorStatus:
    factor: int  # 1-based
    status: str  # Exact | FiniteIndex | InfiniteIndex
    index: int | None = None  # set exactly when status == FiniteIndex


@dataclass(frozen=True)
class DeficiencyWitness:
    subset: tuple[int, ...]  # 1-based, sorted
    rank_of_blocks: int


@dataclass(frozen=True)
class Finiteness:
    kind: str  # F_infinity | ExactType | NotFinitelyGenerated
    m: int | None = None


@dataclass(frozen=True)
class Betti:
    kind: str  # Value | UnknownByCriteria
    value: int | None = None


@dataclass(frozen=True)
class Kahler:
    kind: str  # NotKahler | Kahler | Unknown
    reason: str | None = None  # primary obstruction when kind == NotKahler
    # every applicable obstruction; the primary reason is listed first
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class Irreducibility:
    kind: str  # Irreducible | Reducible | Unknown
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class KernelProjection:
    """Abelianized image of the projection of the kernel to the factors in T."""
    lattice: Lattice
    index: int | None  # None means infinite


def normalize(h: ProductHom) -> tuple[ProductHom, int]:
    """(h', n') with h' = ``h.normal_form``: h rewritten onto its image
    lattice Z^n' (h itself if a block is onto), same kernel, cached on h."""
    hn = h.normal_form
    return hn, hn.target_rank


def _stack(h: ProductHom, indices: tuple[int, ...]) -> IntMatrix:
    """Concatenated blocks over a 0-based index tuple (empty → n' x 0)."""
    return hstack([h.blocks[i] for i in indices], rows=h.target_rank)


def fullness(h: ProductHom) -> Certificate:
    """The kernel meets every factor nontrivially, always."""
    return Certificate(
        claim="Full",
        justification="the target is abelian and each surface group of genus >= 2 "
                      "is non-abelian, so every factor's commutator subgroup is a "
                      "nontrivial subgroup of the kernel",
        data={"genera": list(h.genera)})


def projection_of_kernel(h: ProductHom, t: tuple[int, ...] | list[int]) -> KernelProjection:
    """Image of the kernel's projection to the factors in T (1-based, nonempty),
    described on abelianizations: the preimage under A_T of the image of the
    complementary blocks."""
    h, _ = normalize(h)
    t = tuple(sorted(set(t)))
    if not t:
        raise ValueError("T must be nonempty")
    if t[0] < 1 or t[-1] > h.num_factors:
        raise ValueError("T out of range")
    t0 = tuple(i - 1 for i in t)
    comp = tuple(i for i in range(h.num_factors) if i not in t0)
    a_t = _stack(h, t0)
    target_image = image_lattice(_stack(h, comp))  # zero lattice when comp empty
    lat = preimage_lattice(a_t, target_image)
    return KernelProjection(lattice=lat, index=lattice_index(lat))


def subdirectness(h: ProductHom) -> tuple[FactorStatus, ...]:
    """Per-factor status of the kernel's projections on abelianizations.
    After normalization im A_i + im A_comp = Z^n', so factor i's projection
    has index [Z^n' : im A_comp], A_comp the other factors' blocks. An onto
    block (``ProductHom.onto_blocks``) lies in every A_comp but its own: two
    make every factor Exact, and one leaves its own factor to one reduction
    of the other block bases. With none, running Hermite bases of the blocks
    before and after i are merged from each end. Either way im A_comp gets
    the canonical basis that reducing A_comp whole would give."""
    h, n_prime = normalize(h)
    bases, onto = h.block_bases, h.onto_blocks
    comps = {}  # 0-based factor -> basis of im A_comp; a factor not here is Exact
    if len(onto) == 1:
        i = onto[0]
        comps[i] = hnf_basis(hstack(bases[:i] + bases[i + 1:], rows=n_prime))
    elif not onto:
        prefix = [IntMatrix.zeros(n_prime, 0)]  # prefix[i] spans blocks 0..i-1
        for b in bases[:-1]:
            prefix.append(hnf_basis(hstack([prefix[-1], b])))
        suffix = [IntMatrix.zeros(n_prime, 0)]  # built right to left, then reversed
        for b in reversed(bases[1:]):
            suffix.append(hnf_basis(hstack([b, suffix[-1]])))
        suffix.reverse()  # suffix[i] spans blocks i+1..r-1
        for i, (before, after) in enumerate(zip(prefix, suffix)):
            comps[i] = hnf_basis(hstack([before, after]))
    out = []
    for i in range(h.num_factors):
        comp = comps.get(i)
        index = 1 if comp is None else lattice_index(Lattice(n_prime, comp, comp.cols))
        status = EXACT if index == 1 else INFINITE_INDEX if index is None else FINITE_INDEX
        out.append(FactorStatus(i + 1, status, index if status == FINITE_INDEX else None))
    return tuple(out)


def deficiency_profile(h: ProductHom) -> tuple[int | None, tuple[DeficiencyWitness, ...]]:
    """(D, witnesses): D is the largest size of an index set S with
    rank(A_S) < n'. Deficiency is downward-closed, so sizes are searched in
    decreasing order; the lexicographically smallest witness of size D is
    returned. D is None when n' = 0 (no deficient sets exist)."""
    h, n_prime = normalize(h)
    if n_prime == 0:
        return None, ()
    r = h.num_factors
    for size in range(r - 1, -1, -1):  # the full set has rank n', never deficient
        for subset in combinations(range(r), size):
            rk = rank(_stack(h, subset))
            if rk < n_prime:
                witness = DeficiencyWitness(tuple(i + 1 for i in subset), rk)
                return size, (witness,)
    raise AssertionError("empty set is deficient whenever n' >= 1")


def finiteness_type(h: ProductHom) -> tuple[Finiteness, tuple[Certificate, ...]]:
    h, n_prime = normalize(h)
    r = h.num_factors
    if n_prime == 0:
        return Finiteness("F_infinity"), (Certificate(
            claim="type F_infinity",
            justification="the map is trivial, so the kernel is the whole product "
                          "of surface groups, which is of type F_infinity"),)
    d, witnesses = deficiency_profile(h)
    assert d is not None
    m = r - d - 1
    if m <= 0:
        w = witnesses[0]
        return Finiteness("NotFinitelyGenerated"), (Certificate(
            claim="not finitely generated",
            justification="the blocks outside a deficient index set of size r-1 "
                          "have image of infinite index, so the kernel does not "
                          "even virtually surject onto single factors",
            data={"deficient_subset": list(w.subset),
                  "rank_of_blocks": w.rank_of_blocks}),)
    w = witnesses[0]
    upper = Certificate(
        claim=f"not of type F_{m + 1}",
        justification="the blocks indexed by the complement of the witness have "
                      f"image of infinite index in Z^{n_prime}, so the kernel does "
                      f"not virtually surject onto some ({m + 1})-tuple of factors; "
                      "by Kochloukova's criterion a coabelian subgroup of type "
                      f"F_{m + 1} would have to",
        data={"deficient_subset": list(w.subset),
              "rank_of_blocks": w.rank_of_blocks})
    if m == 1:
        lower = Certificate(
            claim="finitely generated",
            justification="every (r-1)-subset of blocks has full rank, so the "
                          "kernel virtually surjects onto every single factor and "
                          "is therefore finitely generated")
    else:
        lower = Certificate(
            claim=f"of type F_{m}",
            justification=f"every index set of size {m} has complement of full rank "
                          f"{n_prime}, so the kernel virtually surjects onto every "
                          f"{m}-tuple of factors; by the converse direction of "
                          "Kochloukova's criterion, valid for virtually coabelian "
                          f"subgroups, the kernel is of type F_{m}")
    return Finiteness("ExactType", m), (lower, upper)


def betti_kernel(h: ProductHom) -> tuple[Betti, Certificate | None]:
    """First Betti number of the kernel when one of two sufficient exactness
    conditions holds: (1) rank-one target with exact subdirectness, or
    (2) at least three factors individually surjecting onto the target."""
    return _betti(normalize(h)[0], subdirectness(h))


def _betti(h: ProductHom,
           sub: tuple[FactorStatus, ...]) -> tuple[Betti, Certificate | None]:
    """``betti_kernel`` of a normal form h given ``subdirectness(h)``."""
    n_prime = h.target_rank
    total = sum(2 * g for g in h.genera)
    if n_prime == 0:
        return Betti("Value", total), Certificate(
            claim=f"b1 = {total}",
            justification="the kernel is the whole product, whose first Betti "
                          "number is the sum of those of the factors")
    if n_prime == 1 and all(s.status == EXACT for s in sub):
        return Betti("Value", total - 1), Certificate(
            claim=f"b1 = {total - 1}",
            justification="the target has rank one and the kernel is subdirect, "
                          "so the five-term exact sequence in homology gives "
                          "b1(kernel) = sum of 2g_i minus the target rank",
            data={"condition": "rank-one subdirect"})
    if len(h.onto_blocks) >= 3:
        return Betti("Value", total - n_prime), Certificate(
            claim=f"b1 = {total - n_prime}",
            justification="at least three factors individually surject onto the "
                          "target, which forces the homology transgression to "
                          "vanish, so b1(kernel) = sum of 2g_i minus the target rank",
            data={"condition": "three surjecting factors",
                  "factors": [i + 1 for i in h.onto_blocks[:3]]})
    return Betti("UnknownByCriteria"), None


def _family_provenance(h: ProductHom, family: FamilySpec | None) -> bool:
    """True when h was built from a validated family of a Kaehler-producing
    kind (construction preconditions re-checked, blocks compared)."""
    if family is None or family.kind == DEGENERATE:
        return False
    try:
        built = build_hom_from_family(family)
    except ValueError:
        return False
    return built.blocks == h.blocks and built.genera == h.genera


def kahler_verdict(h: ProductHom,
                   family: FamilySpec | None = None) -> tuple[Kahler, Certificate]:
    """Parity obstructions first, then the construction certificate of a
    validated family that h was built from."""
    return _kahler(h, family, betti_kernel(h)[0])


def _kahler(raw: ProductHom, family: FamilySpec | None,
            betti: Betti) -> tuple[Kahler, Certificate]:
    """The Kaehler verdict given ``betti_kernel``'s verdict on raw."""
    _, n_prime = normalize(raw)
    odd_betti = (betti.kind == "Value" and betti.value is not None
                 and betti.value % 2 == 1)
    reasons = ()
    if n_prime % 2 == 1:
        reasons += ("OddRank",)
    if odd_betti:
        reasons += ("OddBetti",)
    if reasons:
        parts = []
        if "OddRank" in reasons:
            parts.append(
                "the kernel of an epimorphism from a product of surface groups "
                "onto a free abelian group of odd rank is never Kaehler (when "
                "it is not finitely presented it is not Kaehler for independent "
                "reasons)")
        if "OddBetti" in reasons:
            parts.append("Kaehler groups have even first Betti number")
        data: dict = {"effective_rank": n_prime}
        if odd_betti:
            data["betti"] = betti.value
        return Kahler("NotKahler", reasons[0], reasons), Certificate(
            claim="not Kaehler", justification="; and ".join(parts), data=data)
    if _family_provenance(raw, family):
        return Kahler("Kahler"), Certificate(
            claim="Kaehler",
            justification="the kernel is the fundamental group of a compact "
                          "Kaehler manifold, constructed from branched covers of "
                          "elliptic curves that are surjective on fundamental "
                          "groups combined along a vector configuration in "
                          "general position",
            data={"family_kind": family.kind if family else None})
    return Kahler("Unknown"), Certificate(
        claim="Kaehlerness undecided",
        justification="no parity obstruction applies and no validated "
                      "construction certificate is available")


_MAX_SPLIT_FACTORS = 12  # a nonzero map on more factors answers Unknown


def _first_split(group: list[int]) -> tuple[int, ...] | None:
    """L of the first bipartition L|R, in ``oracle.bipartitions`` order,
    that no group straddles (``group[i]`` labels factor i); None for one
    group. Any union of groups is at least as large as a smallest group,
    which has at most r/2 factors, so L is a smallest group; among ties the
    one with the least factor, as disjoint sets of one size compare by it."""
    members: dict[int, list[int]] = {}  # in order of least factor
    for i, g in enumerate(group):
        members.setdefault(g, []).append(i)
    return tuple(min(members.values(), key=len)) if len(members) > 1 else None


def splitting_search(h: ProductHom) -> tuple[Irreducibility, Certificate | None]:
    """Look for a bipartition L|R of the factors across which the kernel
    splits as a direct product. After normalization the two image
    sublattices always sum to the whole target, and the kernel modulo the
    product of the two restricted kernels is their intersection; so L|R
    splits exactly when rank(A_L) + rank(A_R) = n'. In the rational column
    matroid of the normalized matrix that says L's columns form a separator,
    that is a union of connected components (Oxley, Matroid Theory, 2nd ed.,
    ch. 4). So the factors are grouped by the components their columns
    share, and L|R splits exactly when no group has factors on both sides.
    The partition reported is the first split in order of |L|, then
    lexicographically (``_first_split``); a nonzero map on more than 12
    factors answers Unknown."""
    h, n_prime = normalize(h)
    r = h.num_factors
    if n_prime == 0:
        if r >= 2:
            part = ((1,), tuple(range(2, r + 1)))
            return Irreducibility("Reducible", part), Certificate(
                claim="reducible",
                justification="the kernel is the whole product, which splits "
                              "across any bipartition of the factors",
                data={"partition": [list(part[0]), list(part[1])]})
        return Irreducibility("Unknown"), None  # single factor: nothing to split
    if r > _MAX_SPLIT_FACTORS:
        return Irreducibility("Unknown"), None
    owner = [i for i, b in enumerate(h.blocks) for _ in range(b.cols)]
    group = list(range(r))  # factors joined by a shared component share a group
    for j, c in enumerate(column_components(_stack(h, tuple(range(r))))):
        old, new = group[owner[j]], group[owner[c]]
        if old != new:
            group = [new if g == old else g for g in group]
    left = _first_split(group)
    if left is None:
        return Irreducibility("Unknown"), None
    right = tuple(i for i in range(r) if i not in left)
    part = (tuple(i + 1 for i in left), tuple(i + 1 for i in right))
    return Irreducibility("Reducible", part), Certificate(
        claim="reducible",
        justification="the images of the two groups of blocks are "
                      "complementary sublattices of the target, so the "
                      "kernel is the direct product of the kernels of "
                      "the two restrictions",
        data={"partition": [list(part[0]), list(part[1])]})


def irreducibility(h: ProductHom) -> tuple[Irreducibility, Certificate | None]:
    """Reducible when an explicit splitting exists; Irreducible under a
    sufficient criterion (exact type F_m with m >= 2, virtual subdirectness,
    no factor mapped to zero, and failure of virtual surjection onto every
    2m-tuple); Unknown otherwise. Virtual subdirectness needs no check:
    factor i has infinite index exactly when its complement, an (r-1)-set,
    is deficient, and then D = r-1 and m = 0, turned away by the type test."""
    h, n_prime = normalize(h)
    split, cert = splitting_search(h)
    if split.kind == "Reducible":
        return split, cert
    fin, _ = finiteness_type(h)
    if fin.kind != "ExactType" or fin.m is None or fin.m < 2:
        return Irreducibility("Unknown"), None
    m = fin.m
    if any(b.is_zero() for b in h.blocks):
        return Irreducibility("Unknown"), None
    r = h.num_factors
    for t in combinations(range(r), 2 * m) if 2 * m <= r else ():
        comp = tuple(i for i in range(r) if i not in t)
        if rank(_stack(h, comp)) == n_prime:
            return Irreducibility("Unknown"), None  # kernel virtually surjects onto this 2m-tuple
    return Irreducibility("Irreducible"), Certificate(
        claim="irreducible",
        justification=f"the kernel is of type F_{m} but not F_{m + 1} with m >= 2, "
                      "is virtually subdirect, meets every factor in an infinite "
                      "subgroup, and does not virtually surject onto any 2m-tuple "
                      "of factors; a finite-index direct-product decomposition "
                      "would force one of these to fail",
        data={"m": m})


@dataclass(frozen=True)
class AnalysisReport:
    effective_rank: int
    fullness: Certificate
    subdirectness: tuple[FactorStatus, ...]
    max_deficient_size: int | None
    witnesses: tuple[DeficiencyWitness, ...]
    finiteness: Finiteness
    betti: Betti
    kahler: Kahler
    irreducibility: Irreducibility
    certificates: tuple[Certificate, ...]

    def to_json_dict(self) -> dict:
        sub = []
        for s in self.subdirectness:
            entry = {"factor": s.factor, "status": s.status}
            if s.status == FINITE_INDEX:
                entry["index"] = s.index
            sub.append(entry)
        fin: dict = {"kind": self.finiteness.kind}
        if self.finiteness.kind == "ExactType":
            fin["m"] = self.finiteness.m
        betti: dict = {"kind": self.betti.kind}
        if self.betti.kind == "Value":
            betti["value"] = self.betti.value
        kahler: dict = {"kind": self.kahler.kind}
        if self.kahler.reason is not None:
            kahler["reason"] = self.kahler.reason
            kahler["reasons"] = list(self.kahler.reasons)
        irr: dict = {"kind": self.irreducibility.kind}
        if self.irreducibility.partition is not None:
            irr["partition"] = [list(p) for p in self.irreducibility.partition]
        return {
            "effective_rank": self.effective_rank,
            "fullness": self.fullness.claim,
            "subdirectness": sub,
            "max_deficient_size": self.max_deficient_size,
            "witnesses": [{"subset": list(w.subset), "rank_of_blocks": w.rank_of_blocks}
                          for w in self.witnesses],
            "finiteness": fin,
            "betti": betti,
            "kahler": kahler,
            "irreducibility": irr,
            "certificates": [c.to_json_dict() for c in self.certificates],
        }


def analyze(h: ProductHom, family: FamilySpec | None = None) -> AnalysisReport:
    """Full report on the kernel of h, with certificates for every verdict."""
    hn, n_prime = normalize(h)
    full_cert = fullness(hn)
    sub = subdirectness(hn)
    d, witnesses = deficiency_profile(hn)
    fin, fin_certs = finiteness_type(hn)
    betti, betti_cert = _betti(hn, sub)
    kahler, kahler_cert = _kahler(h, family, betti)
    irr, irr_cert = irreducibility(hn)
    certs = [full_cert, *fin_certs]
    if betti_cert is not None:
        certs.append(betti_cert)
    certs.append(kahler_cert)
    if irr_cert is not None:
        certs.append(irr_cert)
    return AnalysisReport(
        effective_rank=n_prime,
        fullness=full_cert,
        subdirectness=sub,
        max_deficient_size=d,
        witnesses=witnesses,
        finiteness=fin,
        betti=betti,
        kahler=kahler,
        irreducibility=irr,
        certificates=tuple(certs),
    )
