from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from abba import BackendError
from abba.scalars import GQ, GaussianRational, TolerancePolicy

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
scalars = st.builds(GQ, rationals, rationals)


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


def test_mixed_arithmetic_with_int_and_fraction():
    z = GQ(1, 1)
    assert z + 1 == GQ(2, 1)
    assert 1 + z == GQ(2, 1)
    assert 2 - z == GQ(1, -1)
    assert z * Fraction(1, 2) == GQ(Fraction(1, 2), Fraction(1, 2))
    assert 2 / GQ(1, 1) == GQ(1, -1)


def test_division():
    assert GQ(1, 2) / GQ(1, 2) == 1
    with pytest.raises(ZeroDivisionError):
        GQ(1) / GQ(0)


def test_conjugate_and_norm():
    z = GQ(3, -4)
    assert z.conjugate() == GQ(3, 4)
    assert z.norm_sq() == 25
    assert complex(z) == 3 - 4j


def test_equality_and_hash_interop():
    assert GQ(2) == 2 and GQ(2) == Fraction(2)
    assert hash(GQ(2)) == hash(2)
    assert GQ(0, 1) != 1


def test_immutability():
    z = GQ(1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_rel_tol=0.0)


def test_gaussian_rational_is_exported_alias():
    assert GaussianRational is GQ
