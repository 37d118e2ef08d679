"""Tests for the multiply-back check in ``Factorization.checked``."""

import pytest

from affmon.factorization import Factorization
from affmon.rationals import Vec2

GENS = (Vec2(0, 1), Vec2(1, 2), Vec2(3, 5))


def test_accepts_multiplicities_that_map_to_the_target():
    assert Factorization.checked((1, 2, 1), GENS, Vec2(5, 10)).mults == (1, 2, 1)


def test_rejects_a_wrong_target():
    with pytest.raises(ValueError, match=r"map to \(5, 10\), not \(5, 11\)"):
        Factorization.checked((1, 2, 1), GENS, Vec2(5, 11))


@pytest.mark.parametrize("mults", [(1, 1), (1, 1, 0, 4)])
def test_rejects_a_wrong_number_of_multiplicities(mults):
    # The first three generators of (1, 1, 0, ...) do map to (1, 3), so only
    # the count can reject these.
    with pytest.raises(ValueError, match="one multiplicity per generator"):
        Factorization.checked(mults, GENS, Vec2(1, 3))


def test_rejects_a_negative_multiplicity():
    # -1*(0, 1) + 1*(1, 2) is (1, 1): the target matches, the sign does not.
    with pytest.raises(ValueError, match="nonnegative"):
        Factorization.checked((-1, 1, 0), GENS, Vec2(1, 1))
