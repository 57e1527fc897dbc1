import json

import pytest

from coabelian.intmatrix import IntMatrix
from coabelian.model import (CoverData, FamilySpec, ProductHom,
                             PropertyNotApplicable, SchemaError, VectorSet,
                             build_hom_from_family, check_property_P,
                             check_property_P_prime, default_cover_block,
                             parse_family, parse_hom, serialize_family,
                             serialize_hom)
from coabelian.forge import make_extended_family, make_generic_family


def test_property_P_examples():
    good = VectorSet(2, ((1, 0), (0, 1), (1, 1), (1, 2)))
    assert check_property_P(good)
    assert check_property_P_prime(good)
    # duplicate vectors break a 2-subset
    assert not check_property_P(VectorSet(2, ((1, 0), (1, 0), (0, 1))))
    # wrong prefix order fails P' but not P
    swapped = VectorSet(2, ((0, 1), (1, 0), (1, 1)))
    assert check_property_P(swapped)
    assert not check_property_P_prime(swapped)


def test_property_P_needs_enough_vectors():
    with pytest.raises(PropertyNotApplicable):
        check_property_P(VectorSet(3, ((1, 0, 0), (0, 1, 0))))


def test_property_P_k1():
    assert check_property_P(VectorSet(1, ((1,), (1,), (2,))))
    assert not check_property_P(VectorSet(1, ((1,), (0,))))


def test_cover_validation():
    c = CoverData.default(3, pi1_surjective=True)
    assert c.block.cols == 6
    with pytest.raises(ValueError):
        CoverData.default(1)
    with pytest.raises(ValueError):  # rank-deficient homology image
        CoverData(2, IntMatrix.zeros(2, 4))
    with pytest.raises(ValueError):  # flag inconsistent with proper sublattice
        CoverData(2, IntMatrix.from_rows([[2, 0, 0, 0], [0, 2, 0, 0]], cols=4),
                  pi1_surjective=True)


def test_product_hom_validation():
    with pytest.raises(ValueError):
        ProductHom((1,), 1, (IntMatrix.zeros(1, 2),))
    with pytest.raises(ValueError):  # block shape mismatch
        ProductHom((2,), 2, (IntMatrix.zeros(1, 4),))


def test_build_generic_requires_flags():
    spec = make_generic_family(2, 4)
    h = build_hom_from_family(spec)
    assert h.target_rank == 4
    assert h.genera == (2, 2, 2, 2)
    stripped = FamilySpec(kind=spec.kind, k=2, r=4, vector_set=spec.vector_set,
                          covers=tuple(CoverData(c.genus, c.block, False)
                                       for c in spec.covers))
    with pytest.raises(ValueError, match="surjective on fundamental groups"):
        build_hom_from_family(stripped)


def test_build_extended_checks_independence():
    spec = make_extended_family(2, 5)
    bad_vs = VectorSet(2, ((1, 0), (1, 0), (0, 1), (0, 2), (1, 1)))
    bad = FamilySpec(kind="extended", k=2, r=5, m=2, vector_set=bad_vs,
                     covers=spec.covers)
    with pytest.raises(ValueError, match="linearly independent; vector 4 depends"):
        build_hom_from_family(bad)


def test_block_expansion():
    spec = make_generic_family(2, 4)
    h = build_hom_from_family(spec)
    # third vector is (1,1): its block stacks two copies of the cover block
    cover = default_cover_block(2)
    assert h.blocks[2].data[:2] == cover.data
    assert h.blocks[2].data[2:] == cover.data


def test_hom_round_trip():
    spec = make_generic_family(2, 4)
    h = build_hom_from_family(spec)
    assert parse_hom(serialize_hom(h)) == h


def test_family_round_trip():
    for spec in (make_generic_family(2, 5), make_extended_family(1, 4),
                 make_generic_family(1, 3)):
        assert parse_family(serialize_family(spec)) == spec


def test_big_integers_serialize_as_strings():
    big = 2**80
    h = ProductHom((2,), 1,
                   (IntMatrix.from_rows([[big, 1, 0, 0]], cols=4),))
    text = serialize_hom(h)
    assert f'"{big}"' in text
    assert parse_hom(text) == h


def test_schema_errors():
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_hom("{nope")
    with pytest.raises(SchemaError, match="missing field"):
        parse_hom('{"genera": [2]}')
    with pytest.raises(SchemaError, match="expected 4 entries"):
        parse_hom('{"genera": [2], "target_rank": 1, "blocks": [[1, 2]]}')
    with pytest.raises(SchemaError, match="kind"):
        parse_family('{"kind": "weird", "k": 1, "r": 3, "vectors": [], "covers": []}')
    with pytest.raises(SchemaError, match="genus must be at least 2"):
        parse_hom('{"genera": [1], "target_rank": 1, "blocks": [[1, 2]]}')
    # the sign of the sizes is checked before the entry counts they imply
    with pytest.raises(SchemaError, match=r"^target_rank: must be nonnegative$"):
        parse_hom('{"genera": [2], "target_rank": -1, "blocks": [[1, 2]]}')
    doc = json.loads(serialize_family(make_generic_family(1, 3)))
    doc["covers"][0]["genus"] = -1
    with pytest.raises(SchemaError, match=r"^covers\[0\]\.genus: must be at least 2$"):
        parse_family(json.dumps(doc))
    # a target parameter k < 1 is refused by name, not by a later check
    with pytest.raises(SchemaError, match=r"^k must be at least 1$"):
        parse_family('{"kind": "generic", "k": -1, "r": 0, "vectors": [], "covers": []}')
    cover = {"genus": 2, "block": [1, 0, 1, 0, 0, 1, 0, 1], "pi1_surjective": True}
    with pytest.raises(SchemaError, match=r"^k must be at least 1$"):
        parse_family(json.dumps({"kind": "generic", "k": 0, "r": 2,
                                 "vectors": [[], []], "covers": [cover, cover]}))
