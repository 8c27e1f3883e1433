from fractions import Fraction

import pytest

from abba import BackendError
from abba.scalars import GQ, GaussianRational, TolerancePolicy


def test_construction_and_lowest_terms():
    z = GQ(Fraction(2, 4), Fraction(-6, 3))
    assert z.re == Fraction(1, 2) and z.im == -2
    assert z.re.denominator > 0


def test_float_rejected():
    with pytest.raises(BackendError):
        GQ(0.5)
    with pytest.raises(BackendError):
        GQ.coerce(1.5j)


def test_coercions():
    assert GQ.coerce("3/4") == GQ(Fraction(3, 4))
    assert GQ.coerce(("-1/2", "5")) == GQ(Fraction(-1, 2), 5)
    assert GQ.coerce(2j) == GQ(0, 2)
    assert GQ.coerce(Fraction(7, 3)) == GQ(Fraction(7, 3))
    with pytest.raises(TypeError):
        GQ.coerce(object())


def test_conjugate_and_norm():
    z = GQ(3, -4)
    assert z.conjugate() == GQ(3, 4)
    assert complex(z) == 3 - 4j


def test_equality_and_hash_interop():
    assert GQ(2) == 2 and GQ(2) == Fraction(2)
    assert hash(GQ(2)) == hash(2)
    assert GQ(0, 1) != 1


def test_immutability():
    z = GQ(1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_rel_tol=0.0)


def test_gaussian_rational_is_exported_alias():
    assert GaussianRational is GQ
