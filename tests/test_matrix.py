import warnings
from fractions import Fraction

import numpy as np
import pytest

from abba import BackendError, Matrix, ShapeError, block, hstack, kron, vstack
from abba.scalars import GQ


def test_products_of_nilpotent_pair(nilpotent_pair):
    a, b = nilpotent_pair
    assert a @ b == Matrix.exact([[0, 1], [0, 0]])
    assert (b @ a).is_zero()


def test_products_of_4x4_pair(hermitian_normal_pair_4x4):
    a, b = hermitian_normal_pair_4x4
    ab_expected = Matrix.exact(
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    ba_expected = Matrix.exact(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    )
    assert a @ b == ab_expected
    assert b @ a == ba_expected


def test_identity_multiplication():
    m = Matrix.exact([[1, (2, 3)], [(0, -1), 5]])
    assert Matrix.identity(2) @ m == m
    assert m @ Matrix.identity(2) == m


def test_adjoint_conjugates():
    assert Matrix.exact([[1j]]).adjoint() == Matrix.exact([[(0, -1)]])


def test_adjoint_fixed_points(hermitian_pair_3x3):
    a, b = hermitian_pair_3x3
    assert a.adjoint() == a
    assert b.adjoint() == b  # i times a real antisymmetric matrix


def test_adjoint_involution():
    m = Matrix.exact([[(1, 2), (3, -4)], [(0, 5), (-6, 7)]])
    assert m.adjoint().adjoint() == m
    f = Matrix.from_float(np.array([[1 + 2j, 3], [0, -1j]]))
    assert f.adjoint().adjoint() == f


def test_shape_and_backend_errors():
    with pytest.raises(ShapeError):
        Matrix.exact([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.exact([[1, 2]]) @ Matrix.exact([[1, 2]])
    with pytest.raises(BackendError):
        Matrix.exact([[1]]) @ Matrix.from_float([[1.0]])
    with pytest.raises(BackendError):
        Matrix.exact([[0.5]])
    with pytest.raises(ShapeError):
        Matrix.from_float([1.0, 2.0])


def test_float_results_must_be_finite():
    big = Matrix.from_float([[1e300, 1e300], [1e300, 1e300]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BackendError, match="infinite or NaN"):
            big @ big
        with pytest.raises(BackendError):
            big * 1e10
    with pytest.raises(BackendError):
        Matrix.from_float([[float("nan")]])
    assert (big * 0.5).array[0, 0] == 5e299


def test_immutability():
    m = Matrix.exact([[1]])
    with pytest.raises(ValueError):
        m.array[0, 0] = GQ(2)
    with pytest.raises(AttributeError):
        m._data = None


def test_scalar_multiplication_both_backends():
    m = Matrix.exact([[1, 2]])
    assert m * 2 == Matrix.exact([[2, 4]])
    assert 2 * m == m * 2
    f = Matrix.from_float([[1.0, 2.0]])
    assert np.allclose((f * 0.5).array, [[0.5, 1.0]])


def test_trace_and_blocks():
    m = Matrix.exact([[1, 2, 3], [4, 5, 6], [7, 8, (9, 1)]])
    assert m.trace() == GQ(15, 1)
    assert m.block(0, 2, 1, 3) == Matrix.exact([[2, 3], [5, 6]])


def test_stacking_and_block_assembly():
    a = Matrix.identity(2)
    z = Matrix.zeros(2, 1)
    assert hstack([a, z]).shape == (2, 3)
    assert vstack([a, Matrix.zeros(1, 2)]).shape == (3, 2)
    m = block([[a, z], [z.transpose(), Matrix.identity(1)]])
    assert m == Matrix.identity(3)


def test_block_with_empty_pieces():
    c = Matrix.exact([[7]])
    m = block([[c, Matrix.zeros(1, 0)], [Matrix.zeros(0, 1), Matrix.zeros(0, 0)]])
    assert m == c


def test_kron():
    a = Matrix.exact([[1, 2]])
    b = Matrix.exact([[1], [3]])
    assert kron(a, b) == Matrix.exact([[1, 2], [3, 6]])


def test_to_float_round_trip_values():
    m = Matrix.exact([[(1, 2), ("1/2", 0)]])
    f = m.to_float()
    assert f.backend == "float"
    assert f[0, 0] == 1 + 2j and f[0, 1] == 0.5


def test_frobenius_norm():
    m = Matrix.exact([[3, 4]])
    assert m.frobenius() == pytest.approx(5.0)
    assert Matrix.zeros(3, 3).frobenius() == 0.0


def test_frobenius_survives_overflowing_squares():
    from abba import is_hermitian

    m = Matrix.from_float([[1e200, 1e200], [0, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's first, squaring pass overflows silently
        assert m.frobenius() == 1.7320508075688773e+200
        assert not is_hermitian(m)  # ||m - m*|| = sqrt(2) 1e200 is no small part of ||m||


def test_frobenius_keeps_numpy_bits_when_finite():
    # numpy's squares underflow at 1e-300 (its norm is 0.0) and at 1e-160 (about
    # 1e-5 off); there the norm is numpy's on the data times 2^k, scaled back,
    # which is exact in binary
    rng = np.random.default_rng(126)
    for scale, k in ((1e-300, 1000), (1e-160, 530), (1e-8, 0), (1.0, 0), (1e8, 0), (1e150, 0)):
        for shape in ((1, 1), (2, 3), (4, 4), (6, 1)):
            data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            expected = float(np.linalg.norm(data * 2.0 ** k)) / 2.0 ** k
            assert np.isfinite(expected) and expected > 0
            assert Matrix.from_float(data).frobenius() == expected
    assert Matrix.from_float([[1e-300]]).frobenius() == 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # past the float range: inf, without a warning
        assert Matrix.from_float([[1.5e308, 1.5e308]]).frobenius() == np.inf


def test_exact_frobenius_past_the_float_range_of_the_square():
    # the squared norms 10^320 and 25 10^600 / 49 10^200 are past the float range,
    # the norms are not; past that range the norm is inf, as on the float backend
    assert Matrix.from_ints([[10**160]]).frobenius() == pytest.approx(1e160, rel=1e-15)
    m = Matrix.from_ints([[3 * 10**300, 4 * 10**300]], den=7 * 10**100)
    assert m.frobenius() == pytest.approx(5e200 / 7, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Matrix.from_ints([[10**400]]).frobenius() == np.inf
        three = Matrix.from_ints([[10**154, 10**154]], [[0, 10**154]]).frobenius()
    assert three == pytest.approx(3**0.5 * 1e154, rel=1e-15)


def test_numerators_expose_the_exact_layout():
    re, im, den = Matrix.exact([["1/2", (1, "3/4")]]).numerators
    assert (re.tolist(), im.tolist(), den) == ([[2, 4]], [[0, 3]], 4)
    assert not re.flags.writeable
    with pytest.raises(BackendError):
        Matrix.from_float([[1.0]]).numerators


def test_canonical_form_makes_equal_values_equal():
    assert Matrix.exact([[Fraction(1, 2)]]) == Matrix.exact([[1]]) * Fraction(1, 2)
    half = Matrix.exact([["1/2", (0, "3/6")]])
    assert half * 2 == Matrix.exact([[1, 1j]])
    assert half - half == Matrix.zeros(1, 2)
    assert half.block(0, 1, 1, 2) @ Matrix.exact([[(0, -2)]]) == Matrix.identity(1)


def test_from_ints_reduces_over_its_denominator():
    assert Matrix.from_ints([[2, 4]], [[0, 6]], 4) == Matrix.exact([["1/2", (1, "3/2")]])
    assert Matrix.from_ints([[0, 0]], den=5) == Matrix.zeros(1, 2)
    # fixed-width input, as an array or as scalars in lists, becomes Python
    # ints, so products do not wrap
    for big in (np.array([[2**40]], dtype=np.int64), [[np.int64(2**40)]]):
        assert Matrix.from_ints(big) @ Matrix.from_ints(big) == Matrix.from_ints([[2**80]])
    for den in (0, -3):
        with pytest.raises(ValueError):
            Matrix.from_ints([[1]], den=den)


def test_equality_distinguishes_backends():
    assert Matrix.exact([[1]]) != Matrix.from_float([[1.0]])
