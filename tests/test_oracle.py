"""The brute-force enumerator that grounds every closed form."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affmon import (
    NotMemberError,
    Vec2,
    ZeroElementError,
    ZeroGeneratorError,
    elasticity_oracle,
    enumerate_factorizations,
)


def gens(*pairs):
    return tuple(Vec2(x, y) for x, y in pairs)


def multiply_back(g, mults):
    """The vector sum of mults[i] * g[i]."""
    return Vec2(sum(m * v.x for v, m in zip(g, mults)), sum(m * v.y for v, m in zip(g, mults)))


class TestEnumerate:
    def test_worked_example_non_member(self):
        fs = enumerate_factorizations(gens((0, 1), (11, 10), (10, 3)), Vec2(199, 119))
        assert fs.facts == ()
        assert not fs.member

    def test_worked_example_member(self):
        fs = enumerate_factorizations(gens((0, 1), (11, 10), (10, 3)), Vec2(199, 120))
        assert [f.mults for f in fs.facts] == [(0, 9, 10)]

    def test_three_factorizations(self):
        fs = enumerate_factorizations(gens((0, 1), (1, 2), (3, 5)), Vec2(6, 13))
        assert {f.mults for f in fs.facts} == {(3, 0, 2), (2, 3, 1), (1, 6, 0)}
        assert fs.lengths == (5, 6, 7)

    def test_single_generator(self):
        fs = enumerate_factorizations(gens((0, 1)), Vec2(0, 3))
        assert [f.mults for f in fs.facts] == [(3,)]

    def test_zero_target_has_exactly_the_empty_factorization(self):
        fs = enumerate_factorizations(gens((0, 1), (1, 2), (3, 5)), Vec2(0, 0))
        assert [f.mults for f in fs.facts] == [(0, 0, 0)]
        assert fs.lengths == (0,)

    def test_rejects_zero_generator(self):
        with pytest.raises(ZeroGeneratorError):
            enumerate_factorizations(gens((0, 0), (1, 1)), Vec2(1, 1))

    def test_rejects_empty_generator_list(self):
        with pytest.raises(ValueError):
            enumerate_factorizations((), Vec2(1, 1))

    def test_handles_equal_slope_and_non_coprime_generators(self):
        fs = enumerate_factorizations(gens((1, 1), (2, 2)), Vec2(4, 4))
        assert {f.mults for f in fs.facts} == {(4, 0), (2, 1), (0, 2)}

    def test_completeness_against_full_grid(self):
        # Every multiplicity vector in a box is found iff it multiplies back to
        # the target: the enumeration is complete, not just sound.  The cases
        # are every ordered list of one or two generators with entries <= 3
        # (single, equal, parallel, axis, off-axis and non-coprime ones) and
        # every set of three with entries <= 2, at every target <= 6.
        def nonzero(top):
            return [(x, y) for x in range(top + 1) for y in range(top + 1) if (x, y) != (0, 0)]

        cases = [pairs for n in (1, 2) for pairs in itertools.product(nonzero(3), repeat=n)]
        cases += itertools.combinations(nonzero(2), 3)
        for pairs in cases:
            g = gens(*pairs)
            # Each generator has an entry >= 1, so no multiplicity exceeds 6.
            expected: dict = {}
            for m in itertools.product(range(7), repeat=len(g)):
                expected.setdefault(multiply_back(g, m), set()).add(m)
            for target in (Vec2(x, y) for x in range(7) for y in range(7)):
                fs = enumerate_factorizations(g, target)
                assert {f.mults for f in fs.facts} == expected.get(target, set()), (pairs, target)

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda p: p != (0, 0)),
            min_size=1,
            max_size=3,
        ),
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_order_independence(self, pairs, target):
        g1 = gens(*pairs)
        g2 = tuple(reversed(g1))
        s = Vec2(*target)
        facts1 = {f.mults for f in enumerate_factorizations(g1, s).facts}
        facts2 = {tuple(reversed(f.mults)) for f in enumerate_factorizations(g2, s).facts}
        assert facts1 == facts2

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p != (0, 0)),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.integers(0, 6), min_size=3, max_size=3),
    )
    def test_explicit_combinations_are_found(self, pairs, mults):
        g = gens(*pairs)
        mults = tuple(mults[: len(g)])
        s = multiply_back(g, mults)
        fs = enumerate_factorizations(g, s)
        assert mults in {f.mults for f in fs.facts}


class TestElasticityOracle:
    def test_pinned_values(self):
        assert elasticity_oracle(gens((0, 1), (1, 2), (3, 5)), Vec2(6, 13)) == Fraction(7, 5)
        assert elasticity_oracle(gens((0, 1), (3, 2)), Vec2(6, 5)) == Fraction(1, 1)
        assert elasticity_oracle(gens((0, 1), (3, 5), (2, 3)), Vec2(6, 13)) == Fraction(7, 5)

    def test_zero_element_rejected(self):
        with pytest.raises(ZeroElementError):
            elasticity_oracle(gens((0, 1), (1, 2)), Vec2(0, 0))

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            elasticity_oracle(gens((0, 1), (11, 10), (10, 3)), Vec2(199, 119))
