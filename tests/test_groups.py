import pytest
from hypothesis import given, strategies as st

from gridchroma.errors import InputError
from gridchroma.groups import (
    GroupElement,
    MarkedGroupSpec,
    generators,
    multiply,
    untwist,
)

IDENTITY = GroupElement(0, 0, 0)
PLAIN3 = MarkedGroupSpec(3)
TWISTED3 = MarkedGroupSpec(3, twisted=True)


def specs(ks=(3, 4, 5)):
    return [MarkedGroupSpec(k, twisted=t) for k in ks for t in (False, True)]


small_elements = st.builds(
    GroupElement,
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(-6, 6),
)


class TestMultiply:
    def test_plain_componentwise(self):
        g = GroupElement(1, 2, 1)
        h = GroupElement(2, 1, 0)
        assert multiply(PLAIN3, g, h) == GroupElement(0, 0, 1)

    def test_twisted_swaps_on_odd_left_shift(self):
        # (1,2) + swap(2,1) = (1,2) + (1,2) = (2,1) mod 3
        g = GroupElement(1, 2, 1)
        h = GroupElement(2, 1, 0)
        assert multiply(TWISTED3, g, h) == GroupElement(2, 1, 1)

    def test_twisted_no_swap_on_even_left_shift(self):
        g = GroupElement(1, 2, 2)
        h = GroupElement(2, 1, 3)
        assert multiply(TWISTED3, g, h) == GroupElement(0, 0, 5)

    @pytest.mark.parametrize("spec", specs())
    def test_identity_laws(self, spec):
        g = GroupElement(1 % spec.k, 2 % spec.k, 7)
        assert multiply(spec, IDENTITY, g) == g
        assert multiply(spec, g, IDENTITY) == g

    @given(g=small_elements, h=small_elements, f=small_elements)
    def test_associativity_k3(self, g, h, f):
        for spec in (PLAIN3, TWISTED3):
            left = multiply(spec, multiply(spec, g, h), f)
            right = multiply(spec, g, multiply(spec, h, f))
            assert left == right

    @pytest.mark.parametrize("spec", specs((4, 5)))
    def test_associativity_larger_k(self, spec):
        import random

        rng = random.Random(20240 + spec.k + int(spec.twisted))
        for _ in range(200):
            g, h, f = (
                GroupElement(rng.randrange(spec.k), rng.randrange(spec.k), rng.randint(-5, 5))
                for _ in range(3)
            )
            assert multiply(spec, multiply(spec, g, h), f) == multiply(
                spec, g, multiply(spec, h, f)
            )


def inverse(spec, g):
    """The candidate inverse: negate, and swap the grid parts across an
    odd twisted shift."""
    a, b = (-g.a) % spec.k, (-g.b) % spec.k
    if spec.twisted and g.n % 2 != 0:
        a, b = b, a
    return GroupElement(a, b, -g.n)


def is_two_sided_inverse(spec, g, h):
    return multiply(spec, g, h) == IDENTITY == multiply(spec, h, g)


class TestInverse:
    def test_plain_negation(self):
        assert is_two_sided_inverse(PLAIN3, GroupElement(1, 2, 5), GroupElement(2, 1, -5))

    def test_twisted_odd_shift(self):
        # solve the twisted law: the inverse of ((1,2),1) is ((1,2),-1)
        assert is_two_sided_inverse(TWISTED3, GroupElement(1, 2, 1), GroupElement(1, 2, -1))

    def test_identity(self):
        for spec in (PLAIN3, TWISTED3):
            assert is_two_sided_inverse(spec, IDENTITY, IDENTITY)

    @given(g=small_elements)
    def test_inverse_law_both_sides(self, g):
        for spec in (PLAIN3, TWISTED3):
            assert is_two_sided_inverse(spec, g, inverse(spec, g))


class TestGenerators:
    @pytest.mark.parametrize("k,count", [(3, 12), (4, 27), (5, 48)])
    def test_count(self, k, count):
        assert len(generators(MarkedGroupSpec(k))) == count

    def test_grid_parts_nonzero(self):
        for gen in generators(MarkedGroupSpec(4)):
            assert gen.a != 0 and gen.b != 0

    def test_no_duplicates_and_no_identity(self):
        gens = generators(MarkedGroupSpec(4))
        assert len(set(gens)) == len(gens)
        assert IDENTITY not in gens

    @pytest.mark.parametrize("spec", specs())
    def test_closed_under_inverse(self, spec):
        elems = set(generators(spec))
        assert {inverse(spec, e) for e in elems} == elems


class TestUntwist:
    def test_even_level_fixed(self):
        assert untwist(GroupElement(1, 2, 0)) == GroupElement(1, 2, 0)

    def test_odd_level_swapped(self):
        assert untwist(GroupElement(1, 2, 3)) == GroupElement(2, 1, 3)

    @given(g=small_elements)
    def test_involution(self, g):
        assert untwist(untwist(g)) == g


def test_spec_rejects_small_k():
    with pytest.raises(InputError):
        MarkedGroupSpec(2)
