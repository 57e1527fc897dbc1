"""Domain model: products of surface groups, maps to Z^n, example families.

A homomorphism from a direct product of surface groups to a free abelian
group is determined by its effect on abelianizations, so a ``ProductHom``
carries one integer block per factor: the n x 2g matrix induced on first
homology. That representation is lossless for every invariant this package
computes.

Surjectivity of a branched cover on fundamental groups is *not* derivable
from homology data, so ``CoverData`` carries it as a user-asserted flag;
homology-level surjectivity (the block's image is all of Z^2) is checked as
a necessary condition whenever the flag is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .intmatrix import IntMatrix, det, hnf_basis, hstack, rank
from .lattice import image_lattice, solve_in_basis

_INT64_MAX = 2**63

GENERIC = "generic"
EXTENDED = "extended"
DPS = "dps"
DEGENERATE = "degenerate"
FAMILY_KINDS = (GENERIC, EXTENDED, DPS, DEGENERATE)


class SchemaError(ValueError):
    """Malformed or invalid serialized document."""


class PropertyNotApplicable(ValueError):
    """Vector-set property check with fewer vectors than the dimension."""


class FamilyValidationError(ValueError):
    """A family specification violates one of its construction preconditions."""


@dataclass(frozen=True)
class VectorSet:
    """An ordered set of integer vectors in Z^dim (duplicates allowed)."""

    dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.dim:
                raise ValueError("vector length does not match dimension")


def standard_basis(k: int) -> list[tuple[int, ...]]:
    """The unit vectors of Z^k, in order."""
    return [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]


def independent_of_prefix(prefix: list[tuple[int, ...]],
                          cand: tuple[int, ...]) -> bool:
    """The incremental step of property P: every k-subset of prefix+cand
    that contains cand is linearly independent."""
    k = len(cand)
    if all(x == 0 for x in cand):
        return False
    if k == 1:
        return True
    for subset in combinations(prefix, k - 1):
        cols = list(subset) + [cand]
        if det(IntMatrix.from_rows([[c[i] for c in cols] for i in range(k)],
                                   cols=k)) == 0:
            return False
    return True


def first_dependent(vectors) -> int | None:
    """Index of the first vector that fails ``independent_of_prefix``
    against the vectors before it; None when every k-subset is independent."""
    return next((i for i, v in enumerate(vectors)
                 if not independent_of_prefix(vectors[:i], v)), None)


def check_property_P(vs: VectorSet) -> bool:
    """Every choice of dim vectors is linearly independent, and some choice
    is a basis of Z^dim (determinant +-1)."""
    k, r = vs.dim, len(vs.vectors)
    if r < k:
        raise PropertyNotApplicable(f"need at least {k} vectors, got {r}")
    if k == 0:
        return True
    has_unimodular = False
    for subset in combinations(range(r), k):
        d = det(IntMatrix.from_rows([[vs.vectors[j][i] for j in subset] for i in range(k)],
                                    cols=k))
        if d == 0:
            return False
        if abs(d) == 1:
            has_unimodular = True
    return has_unimodular


def check_property_P_prime(vs: VectorSet) -> bool:
    """Property P with the first dim vectors equal to the standard basis."""
    return check_property_P(vs) and list(vs.vectors[:vs.dim]) == standard_basis(vs.dim)


def default_cover_block(genus: int) -> IntMatrix:
    """Induced map on first homology of the reference branched cover:
    genus copies of the 2x2 identity side by side. Surjective on homology
    for every genus >= 2."""
    return hstack([IntMatrix.identity(2)] * genus)


@dataclass(frozen=True)
class CoverData:
    """A branched cover of an elliptic curve, at the level of first homology."""

    genus: int
    block: IntMatrix  # 2 x 2*genus
    pi1_surjective: bool = False

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("cover genus must be at least 2")
        if self.block.rows != 2 or self.block.cols != 2 * self.genus:
            raise ValueError("cover block must be 2 x 2*genus")
        if rank(self.block) != 2:
            raise ValueError("cover block must have rank 2 (finite-index homology image)")
        if self.pi1_surjective and not image_lattice(self.block).is_full:
            raise ValueError(
                "pi1-surjectivity asserted but the homology image is a proper sublattice")

    @classmethod
    def default(cls, genus: int, pi1_surjective: bool = False) -> "CoverData":
        return cls(genus, default_cover_block(genus), pi1_surjective)


@dataclass(frozen=True)
class ProductHom:
    """A homomorphism from a product of surface groups to Z^target_rank,
    given by its per-factor blocks on abelianizations."""

    genera: tuple[int, ...]
    target_rank: int
    blocks: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.genera) < 1:
            raise ValueError("need at least one factor")
        if self.target_rank < 0:
            raise ValueError("target rank must be nonnegative")
        if len(self.blocks) != len(self.genera):
            raise ValueError("one block per factor required")
        for g, b in zip(self.genera, self.blocks):
            if g < 2:
                raise ValueError("every genus must be at least 2")
            if b.rows != self.target_rank or b.cols != 2 * g:
                raise ValueError(
                    f"block must be {self.target_rank} x {2 * g}, got {b.rows} x {b.cols}")

    @property
    def num_factors(self) -> int:
        return len(self.genera)

    def concatenated(self) -> IntMatrix:
        return hstack(list(self.blocks), rows=self.target_rank)

    @property
    def normal_form(self) -> "ProductHom":
        """This map onto its image lattice Z^n' (a lossless change of
        coordinates keeping the kernel), computed once per object. A
        surjective map is its own normal form."""
        return self._rewritten or self

    @cached_property
    def _rewritten(self) -> "ProductHom | None":
        """The normal form, or None for a surjective map: caching the map
        itself would make a reference cycle that only the collector frees.
        An onto block makes the map surjective; otherwise the stacked block
        bases give the image the canonical basis the blocks themselves would."""
        if self.onto_blocks:
            return None
        image = image_lattice(hstack(self.block_bases, rows=self.target_rank))
        if image.is_full:
            return None
        new_blocks = []
        for block in self.blocks:
            cols = [solve_in_basis(image, col) for col in zip(*block.data)]
            assert None not in cols  # every column lies in the image by definition
            new_blocks.append(IntMatrix.from_rows(list(zip(*cols)), cols=block.cols))
        hn = ProductHom(self.genera, image.rank, tuple(new_blocks))
        vars(hn)["_rewritten"] = None  # its image is all of Z^n' already
        return hn

    @cached_property
    def block_bases(self) -> tuple[IntMatrix, ...]:
        """Each block's ``hnf_basis``, the canonical basis of its image."""
        return tuple(hnf_basis(b) for b in self.blocks)

    @cached_property
    def onto_blocks(self) -> tuple[int, ...]:
        """0-based indices of the blocks onto Z^target_rank (identity basis)."""
        full = IntMatrix.identity(self.target_rank)
        return tuple(i for i, b in enumerate(self.block_bases) if b == full)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one of the constructive example families.

    ``k`` is the number of elliptic-curve factors in the target, so the
    homomorphism lands in Z^(2k). ``m`` is only meaningful for the extended
    family (multiplicity of the repeated first vector).
    """

    kind: str
    k: int
    r: int
    vector_set: VectorSet
    covers: tuple[CoverData, ...]
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if len(self.vector_set.vectors) != self.r or self.vector_set.dim != self.k:
            raise ValueError("vector set shape inconsistent with (k, r)")
        if len(self.covers) != self.r:
            raise ValueError("one cover per factor required")
        if self.kind == EXTENDED:
            if self.m is None:
                raise ValueError("extended family requires m")
            if self.k != 2 or self.r < 4 or self.m < 1 or self.r - self.m < 3:
                raise ValueError("extended family needs k=2, r>=4, m>=1, r-m>=3")
        if self.kind == DPS and (self.k != 1 or self.r < 3):
            raise ValueError("dps family needs k=1, r>=3")


def _expand_block(v: tuple[int, ...], cover_block: IntMatrix) -> IntMatrix:
    """Stack v[j] * cover_block vertically: the 2k x 2*genus block realizing
    multiplication by v composed with the cover on homology."""
    rows = []
    for coeff in v:
        for row in cover_block.data:
            rows.append([coeff * x for x in row])
    return IntMatrix.from_rows(rows, cols=cover_block.cols)


def build_hom_from_family(spec: FamilySpec) -> ProductHom:
    """Realize a family specification as a ProductHom onto Z^(2k).

    Raises FamilyValidationError naming the first violated precondition.
    """
    vs = spec.vector_set
    if spec.kind in (GENERIC, DPS):
        if not check_property_P_prime(vs):
            raise FamilyValidationError(
                "generic family requires the vector set to satisfy property P' "
                "(standard-basis prefix, every k-subset independent)")
        for i in range(spec.k):
            if not spec.covers[i].pi1_surjective:
                raise FamilyValidationError(
                    f"generic family requires cover {i + 1} to be asserted "
                    "surjective on fundamental groups")
    elif spec.kind == EXTENDED:
        m = spec.m
        assert m is not None
        first = vs.vectors[0]
        if any(vs.vectors[i] != first for i in range(m)):
            raise FamilyValidationError(
                "extended family requires the first m vectors to coincide")
        i = first_dependent(vs.vectors[m - 1:])
        if i is not None:
            raise FamilyValidationError(
                f"extended family requires vectors {m}..{spec.r} to be pairwise "
                f"linearly independent; vector {m + i} depends on an earlier one")
        for i in (m - 1, m):
            if not spec.covers[i].pi1_surjective:
                raise FamilyValidationError(
                    f"extended family requires cover {i + 1} to be asserted "
                    "surjective on fundamental groups")
    else:  # degenerate: only shape constraints, no genericity
        for i, v in enumerate(vs.vectors):
            if all(x == 0 for x in v):
                raise FamilyValidationError(f"vector {i + 1} is zero")

    blocks = tuple(_expand_block(v, cover.block)
                   for v, cover in zip(vs.vectors, spec.covers))
    genera = tuple(cover.genus for cover in spec.covers)
    return ProductHom(genera=genera, target_rank=2 * spec.k, blocks=blocks)


# --- serialization -----------------------------------------------------------

def _encode_int(x: int):
    return str(x) if abs(x) >= _INT64_MAX else x


def _decode_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise SchemaError(f"{where}: expected an integer, got {type(x).__name__}")
    try:
        return int(x)
    except ValueError:
        body = x.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        cause = "too many digits" if digits.isdecimal() else "not a decimal integer"
        raise SchemaError(f"{where}: {cause}: {x[:20]!r}") from None


def _load_json(text: str):
    """json.loads with every decoder failure turned into a SchemaError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except ValueError:  # the interpreter's cap on the digits of an int literal
        raise SchemaError("invalid JSON: an integer literal has too many digits") from None


def _decode_int_list(xs, where: str) -> list[int]:
    if not isinstance(xs, list):
        raise SchemaError(f"{where}: expected a list")
    return [_decode_int(x, f"{where}[{i}]") for i, x in enumerate(xs)]


def hom_to_dict(h: ProductHom) -> dict:
    return {
        "genera": list(h.genera),
        "target_rank": h.target_rank,
        "blocks": [[_encode_int(x) for x in b.entries_row_major()] for b in h.blocks],
    }


def serialize_hom(h: ProductHom) -> str:
    return json.dumps(hom_to_dict(h), indent=2) + "\n"


def hom_from_dict(doc: dict) -> ProductHom:
    if not isinstance(doc, dict):
        raise SchemaError("hom document must be a JSON object")
    for key in ("genera", "target_rank", "blocks"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    genera = _decode_int_list(doc["genera"], "genera")
    n = _decode_int(doc["target_rank"], "target_rank")
    if n < 0:
        raise SchemaError("target_rank: must be nonnegative")
    raw_blocks = doc["blocks"]
    if not isinstance(raw_blocks, list):
        raise SchemaError("blocks: expected a list")
    if len(raw_blocks) != len(genera):
        raise SchemaError("blocks: need exactly one block per genus")
    if not genera:
        raise SchemaError("genera: need at least one factor")
    blocks = []
    for i, (g, entries) in enumerate(zip(genera, raw_blocks)):
        flat = _decode_int_list(entries, f"blocks[{i}]")
        if g < 2:
            raise SchemaError(f"genera[{i}]: genus must be at least 2")
        if len(flat) != n * 2 * g:
            raise SchemaError(
                f"blocks[{i}]: expected {n * 2 * g} entries, got {len(flat)}")
        blocks.append(IntMatrix.from_rows(
            [flat[row * 2 * g:(row + 1) * 2 * g] for row in range(n)], cols=2 * g))
    try:
        return ProductHom(tuple(genera), n, tuple(blocks))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def parse_hom(text: str) -> ProductHom:
    return hom_from_dict(_load_json(text))


def family_to_dict(spec: FamilySpec) -> dict:
    doc = {
        "kind": spec.kind,
        "k": spec.k,
        "r": spec.r,
        "vectors": [[_encode_int(x) for x in v] for v in spec.vector_set.vectors],
        "covers": [
            {
                "genus": c.genus,
                "block": [_encode_int(x) for x in c.block.entries_row_major()],
                "pi1_surjective": c.pi1_surjective,
            }
            for c in spec.covers
        ],
    }
    if spec.kind == EXTENDED:
        doc["m"] = spec.m
    return doc


def serialize_family(spec: FamilySpec) -> str:
    return json.dumps(family_to_dict(spec), indent=2) + "\n"


def family_from_dict(doc: dict) -> FamilySpec:
    if not isinstance(doc, dict):
        raise SchemaError("family document must be a JSON object")
    for key in ("kind", "k", "r", "vectors", "covers"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    kind = doc["kind"]
    if kind not in FAMILY_KINDS:
        raise SchemaError(f"kind: expected one of {FAMILY_KINDS}, got {repr(kind)[:20]}")
    k = _decode_int(doc["k"], "k")
    r = _decode_int(doc["r"], "r")
    if not isinstance(doc["vectors"], list) or len(doc["vectors"]) != r:
        raise SchemaError("vectors: expected a list with one vector per factor")
    vectors = tuple(tuple(_decode_int_list(v, f"vectors[{i}]"))
                    for i, v in enumerate(doc["vectors"]))
    if not isinstance(doc["covers"], list) or len(doc["covers"]) != r:
        raise SchemaError("covers: expected a list with one cover per factor")
    covers = []
    for i, c in enumerate(doc["covers"]):
        if not isinstance(c, dict):
            raise SchemaError(f"covers[{i}]: expected an object")
        genus = _decode_int(c.get("genus"), f"covers[{i}].genus")
        if genus < 2:
            raise SchemaError(f"covers[{i}].genus: must be at least 2")
        flat = _decode_int_list(c.get("block"), f"covers[{i}].block")
        if len(flat) != 4 * genus:
            raise SchemaError(f"covers[{i}].block: expected {4 * genus} entries")
        block = IntMatrix.from_rows([flat[:2 * genus], flat[2 * genus:]], cols=2 * genus)
        flag = c.get("pi1_surjective", False)
        if not isinstance(flag, bool):
            raise SchemaError(f"covers[{i}].pi1_surjective: expected a boolean")
        try:
            covers.append(CoverData(genus, block, flag))
        except ValueError as exc:
            raise SchemaError(f"covers[{i}]: {exc}") from None
    m = _decode_int(doc["m"], "m") if "m" in doc else None
    try:
        return FamilySpec(kind=kind, k=k, r=r,
                          vector_set=VectorSet(k, vectors),
                          covers=tuple(covers), m=m)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def parse_family(text: str) -> FamilySpec:
    return family_from_dict(_load_json(text))


def parse_document(text: str) -> ProductHom | FamilySpec:
    """Parse either document type; family documents are recognized by 'kind'."""
    doc = _load_json(text)
    if isinstance(doc, dict) and "kind" in doc:
        return family_from_dict(doc)
    return hom_from_dict(doc)
