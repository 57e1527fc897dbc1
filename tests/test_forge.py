import pytest

from coabelian.forge import (generate_P_prime, make_degenerate_family,
                             make_extended_family, make_generic_family)
from coabelian.model import (check_property_P_prime, serialize_family)


def test_frozen_vector_sets():
    assert generate_P_prime(1, 3).vectors == ((1,), (1,), (1,))
    assert generate_P_prime(2, 4).vectors == ((1, 0), (0, 1), (1, 1), (1, 2))
    # k = r: just the standard basis
    assert generate_P_prime(3, 3).vectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_generated_sets_pass_checker():
    for k in range(1, 5):
        for r in range(k, 11):
            assert check_property_P_prime(generate_P_prime(k, r))


def test_determinism():
    a = serialize_family(make_generic_family(3, 6))
    b = serialize_family(make_generic_family(3, 6))
    assert a == b


def test_seed_prefix_validated_not_repaired():
    with pytest.raises(ValueError, match="violates property P"):
        generate_P_prime(2, 5, ((1, 0), (0, 1), (1, 0)))  # repeat
    with pytest.raises(ValueError, match="standard basis"):
        generate_P_prime(2, 5, ((2, 1),))  # wrong start
    # k = 1 seeds go through the same check
    with pytest.raises(ValueError, match="standard basis"):
        generate_P_prime(1, 3, ((2,),))


def test_seed_prefix_extended():
    vs = generate_P_prime(2, 5, ((1, 0), (0, 1), (2, 1)))
    assert vs.vectors[:3] == ((1, 0), (0, 1), (2, 1))
    assert check_property_P_prime(vs)


def test_generic_ranges():
    with pytest.raises(ValueError):
        make_generic_family(3, 4)  # k > r-2
    with pytest.raises(ValueError):
        make_generic_family(0, 4)
    with pytest.raises(ValueError):
        make_generic_family(1, 3, genera=(2, 1, 2))


def test_generic_flags_and_kind():
    spec = make_generic_family(2, 4)
    assert spec.kind == "generic"
    assert [c.pi1_surjective for c in spec.covers] == [True, True, False, False]
    # k = 1 lands in Z^2: the classical shape
    spec1 = make_generic_family(1, 3)
    assert spec1.kind == "dps"
    assert spec1.vector_set.vectors == ((1,), (1,), (1,))


def test_generic_subdirect_variant():
    spec = make_generic_family(2, 5, subdirect_variant=True)
    assert spec.vector_set.vectors[2] == (1, 1)
    assert spec.covers[2].pi1_surjective


def test_extended_shapes():
    spec = make_extended_family(2, 5)
    assert spec.kind == "extended" and spec.m == 2
    assert spec.vector_set.vectors == ((1, 0), (1, 0), (0, 1), (1, 1), (1, 2))
    assert [c.pi1_surjective for c in spec.covers] == \
        [False, True, True, False, False]
    variant = make_extended_family(2, 5, subdirect_variant=True)
    assert variant.vector_set.vectors[2] == (1, 1)


def test_extended_ranges():
    with pytest.raises(ValueError):
        make_extended_family(2, 4)  # r - m < 3
    with pytest.raises(ValueError):
        make_extended_family(0, 5)


def test_degenerate_profiles():
    spec = make_degenerate_family(2, 5, (3, 1, 1))
    assert spec.kind == "degenerate"
    assert spec.vector_set.vectors == ((1, 0), (1, 0), (1, 0), (0, 1), (1, 1))
    with pytest.raises(ValueError):
        make_degenerate_family(2, 5, (3, 1))  # doesn't sum to r
    with pytest.raises(ValueError):
        make_degenerate_family(3, 4, (3, 1))  # fewer distinct vectors than k


def test_degenerate_without_duplicates_reduces_to_generic():
    assert make_degenerate_family(2, 4, (1, 1, 1, 1)) == make_generic_family(2, 4)


def test_custom_genera():
    spec = make_generic_family(2, 4, genera=(2, 3, 4, 5))
    assert tuple(c.genus for c in spec.covers) == (2, 3, 4, 5)
    assert spec.covers[1].block.cols == 6
