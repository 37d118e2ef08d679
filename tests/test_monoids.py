"""Canonicalization, the star condition, and minimal generation."""

import itertools
from math import gcd

import pytest
from hypothesis import given, strategies as st

from affmon import (
    CanonicalMonoid2,
    CanonicalMonoid3,
    DuplicateGeneratorError,
    NotPhiMinimalError,
    Vec2,
    ZeroGeneratorError,
    canonical_coords,
    canonicalize,
    det_divisors,
    enumerate_factorizations,
    slope_compare,
    validate_minimal_generation,
)
from affmon.intlin import IDENTITY
from conftest import canonical_triples, star_monoids


def vecs(*pairs):
    return [Vec2(x, y) for x, y in pairs]


class TestCanonicalize:
    def test_worked_example_monoid(self):
        m = canonicalize(vecs((0, 1), (11, 10), (10, 3)))
        assert isinstance(m, CanonicalMonoid3)
        assert (m.a, m.b, m.c, m.d) == (11, 10, 10, 3)
        assert not m.star
        assert m.transform == IDENTITY

    def test_two_generator_transform(self):
        m = canonicalize(vecs((2, 1), (3, 1)))
        assert isinstance(m, CanonicalMonoid2)
        assert (m.a, m.b) == (1, 1)
        assert m.transform.as_rows() == ((1, -2), (0, 1))

    def test_star_fixture(self):
        m = canonicalize(vecs((0, 1), (1, 2), (3, 5)))
        assert isinstance(m, CanonicalMonoid3)
        assert (m.a, m.b, m.c, m.d) == (1, 2, 3, 5)
        assert m.star

    def test_star_detection(self):
        assert canonicalize(vecs((0, 1), (1, 2), (3, 5))).star  # 6 - 5 = 1
        assert not canonicalize(vecs((0, 1), (11, 10), (10, 3))).star  # 67
        assert canonicalize(vecs((0, 1), (1, 1), (2, 1))).star  # 2 - 1 = 1

    def test_input_order_is_irrelevant(self):
        # Every set of 2 or 3 distinct phi-minimal generators with entries <= 6,
        # in every order: one canonical monoid, (0, 1) first, slopes strictly
        # increasing, and a determinant +1 transform onto its generators.
        pool = [(x, y) for x in range(7) for y in range(7) if gcd(x, y) == 1]
        sets = [gens for k in (2, 3) for gens in itertools.combinations(pool, k)]
        assert (len(pool), len(sets)) == (25, 2600)
        for gens in sets:
            m = canonicalize(vecs(*gens))
            for order in itertools.permutations(gens):
                assert canonicalize(vecs(*order)) == m, order
            canon = m.gens
            assert canon[0] == Vec2(0, 1)
            assert all(slope_compare(u, v) < 0 for u, v in zip(canon, canon[1:])), m
            assert m.transform.det == 1
            assert sorted(m.transform.apply(*g) for g in gens) == sorted((v.x, v.y) for v in canon)

    def test_rejects_non_phi_minimal(self):
        with pytest.raises(NotPhiMinimalError):
            canonicalize(vecs((0, 1), (2, 4)))

    def test_rejects_duplicates_and_zero(self):
        with pytest.raises(DuplicateGeneratorError):
            canonicalize(vecs((1, 2), (1, 2)))
        with pytest.raises(ZeroGeneratorError):
            canonicalize(vecs((0, 0), (1, 2)))

    def test_rejects_wrong_generator_count(self):
        with pytest.raises(ValueError):
            canonicalize(vecs((1, 2)))
        with pytest.raises(ValueError):
            canonicalize(vecs((0, 1), (1, 2), (3, 5), (2, 1)))

    @given(star_monoids())
    def test_idempotent_on_canonical_generators(self, m):
        again = canonicalize(list(m.gens))
        assert again == m
        assert again.transform == IDENTITY

    @given(star_monoids())
    def test_star_implies_unit_second_divisor(self, m):
        d1, d2 = det_divisors([(g.x, g.y) for g in m.gens])
        assert d1 == 1
        assert d2 == 1

    def test_second_divisor_is_gcd_of_first_coordinates(self):
        m = canonicalize(vecs((0, 1), (4, 1), (6, 1)))
        # not star; d2 = gcd(4, 6) = 2
        assert det_divisors([(g.x, g.y) for g in m.gens])[1] == 2


class TestCanonicalCoords:
    def test_identity_transform_is_a_no_op(self):
        m = canonicalize(vecs((0, 1), (1, 2), (3, 5)))
        assert canonical_coords(m, Vec2(6, 13)) == Vec2(6, 13)

    def test_maps_through_the_transform(self):
        m = canonicalize(vecs((2, 1), (3, 1)))
        # (5,2) = (2,1) + (3,1) maps to (1,2) = (0,1) + (1,1)
        assert canonical_coords(m, Vec2(5, 2)) == Vec2(1, 2)

    def test_none_outside_the_cone(self):
        m = canonicalize(vecs((2, 1), (3, 1)))
        # slope 1/5 is below the monoid's cone; the image goes negative
        assert canonical_coords(m, Vec2(1, 5)) is None

    @given(
        st.integers(0, 8), st.integers(0, 8),
    )
    def test_membership_is_invariant(self, i, j):
        raw = vecs((2, 1), (3, 1))
        m = canonicalize(raw)
        s = i * raw[0] + j * raw[1]
        mapped = canonical_coords(m, s)
        assert mapped is not None
        raw_member = enumerate_factorizations(tuple(raw), s).member
        canon_member = enumerate_factorizations(m.gens, mapped).member
        assert raw_member and canon_member


class TestMinimalGeneration:
    def test_star_fixture_is_minimal(self):
        m = canonicalize(vecs((0, 1), (1, 2), (3, 5)))
        assert validate_minimal_generation(m)

    def test_redundant_middle_generator(self):
        # (1,2) = (1,1) + (0,1)
        m = canonicalize(vecs((0, 1), (1, 2), (1, 1)))
        assert not validate_minimal_generation(m)

    def test_two_generators_always_minimal(self):
        m = canonicalize(vecs((0, 1), (5, 3)))
        assert validate_minimal_generation(m)

    @given(star_monoids())
    def test_generated_star_monoids_are_minimal(self, m):
        assert validate_minimal_generation(m)

    def test_divisibility_criterion_matches(self):
        # the middle generator is redundant exactly when c divides a
        for raw, minimal in [
            (vecs((0, 1), (2, 5), (1, 1)), False),  # c=1 divides a=2
            (vecs((0, 1), (2, 5), (3, 4)), True),
            (vecs((0, 1), (4, 3), (2, 1)), False),  # c=2 divides a=4
            (vecs((0, 1), (5, 3), (2, 1)), True),
        ]:
            m = canonicalize(raw)
            assert validate_minimal_generation(m) is minimal

    def test_closed_form_matches_the_oracle(self):
        # Every canonical triple with entries <= 12: a generator is redundant
        # when the oracle finds it in the monoid of the other two.
        triples = canonical_triples(12)
        non_minimal = 0
        for t in triples:
            m = CanonicalMonoid3(*t, transform=IDENTITY)
            gens = m.gens
            minimal = not any(
                enumerate_factorizations(gens[:i] + gens[i + 1 :], g).member
                for i, g in enumerate(gens)
            )
            assert validate_minimal_generation(m) is minimal, m
            non_minimal += not minimal
        assert (len(triples), non_minimal) == (4186, 562)


class TestConstructorInvariants:
    def test_dim2_validates(self):
        with pytest.raises(ValueError):
            CanonicalMonoid2(a=0, b=1, transform=IDENTITY)
        with pytest.raises(NotPhiMinimalError):
            CanonicalMonoid2(a=2, b=4, transform=IDENTITY)

    def test_dim3_requires_slope_order(self):
        with pytest.raises(ValueError):
            CanonicalMonoid3(a=3, b=5, c=1, d=2, transform=IDENTITY)
        with pytest.raises(ValueError):  # equal slopes are not allowed either
            CanonicalMonoid3(a=1, b=2, c=1, d=2, transform=IDENTITY)
        with pytest.raises(NotPhiMinimalError):
            CanonicalMonoid3(a=1, b=2, c=2, d=4, transform=IDENTITY)

    def test_dim3_validates_its_entries(self):
        # Both in slope order, so only the range and gcd checks refuse them.
        with pytest.raises(ValueError, match="need a >= 1"):
            CanonicalMonoid3(0, 1, 1, 1, IDENTITY)
        with pytest.raises(NotPhiMinimalError, match=r"\(2, 4\) has coordinate gcd > 1"):
            CanonicalMonoid3(a=2, b=4, c=1, d=1, transform=IDENTITY)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CanonicalMonoid2(a=3, b=2, transform=IDENTITY),
            lambda: CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY),
        ],
        ids=["dim2", "dim3"],
    )
    def test_gens_are_built_once_and_stay_out_of_equality(self, make):
        m, fresh = make(), make()
        assert m.gens is m.gens
        assert m.gens[0] == Vec2(0, 1)
        assert m == fresh and hash(m) == hash(fresh)
        assert "gens" not in repr(m)

    @pytest.mark.parametrize("t", canonical_triples(4))
    def test_line_constants_are_built_once_and_stay_out_of_equality(self, t):
        m = CanonicalMonoid3(*t, transform=IDENTITY)
        fresh = CanonicalMonoid3(*t, transform=IDENTITY)
        before = hash(m)
        g, c_g, a_g, d_g, inv = m.line_consts
        assert m.line_consts is m.line_consts
        a, b, c, d = t
        assert (g, c_g, a_g, d_g) == (gcd(a, c), c // g, a // g, (b * c - a * d) // g)
        assert 0 <= inv < c_g and (a_g * inv - 1) % c_g == 0
        assert m == fresh and hash(m) == hash(fresh) == before
        assert "line_consts" not in repr(m)
