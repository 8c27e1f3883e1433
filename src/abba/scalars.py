"""Scalar backends: exact Gaussian rationals and float tolerance policy.

:class:`GaussianRational` is the exact backend's scalar and I/O type: a
complex number as a pair of ``fractions.Fraction`` (always in lowest
terms with positive denominator, which Fraction guarantees), with
error-free +, -, *, and division by nonzero.  Exact matrices do not hold
these objects; they store integer numerators over one denominator (see
:mod:`abba.matrix`) and hand out GaussianRationals for single entries,
traces, determinants and characteristic-polynomial coefficients.  The
float backend is plain ``complex`` and all float-backend decisions are
governed by a :class:`TolerancePolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendError

_RAT = (int, Fraction)

_FLOAT_IN_EXACT = "float values are not allowed in the exact backend"


class GaussianRational:
    """A complex number re + im*i with rational re, im.

    Instances are immutable.  Mixed arithmetic with ``int`` and
    ``Fraction`` is supported; ``float`` operands are rejected to keep
    the backend exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise BackendError(_FLOAT_IN_EXACT)
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value) -> "GaussianRational":
        """Convert an int, Fraction, string, (re, im) pair, integral complex,
        or GaussianRational into a GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RAT):
            return GaussianRational(value)
        if isinstance(value, str):
            return GaussianRational(Fraction(value))
        if isinstance(value, tuple) and len(value) == 2:
            re, im = value
            re = Fraction(re) if isinstance(re, str) else re
            im = Fraction(im) if isinstance(im, str) else im
            return GaussianRational(re, im)
        if isinstance(value, complex):
            # literals like 1j are convenient; accept only integral parts
            if value.real.is_integer() and value.imag.is_integer():
                return GaussianRational(int(value.real), int(value.imag))
            raise BackendError(_FLOAT_IN_EXACT)
        if isinstance(value, float):
            raise BackendError(_FLOAT_IN_EXACT)
        raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")

    def _lift(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _RAT):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # matches hash(Fraction) when the value is real, keeping the
        # cross-type equality with int/Fraction consistent
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"gq({self.re})"
        return f"gq({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GQ = GaussianRational


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical thresholds used by every float-backend decision.

    rank_rel_tol: singular values below rank_rel_tol * sigma_max * max(rows, cols)
        are treated as zero when counting rank.
    residual_tol: relative residual bound for solves, certificates, and
        predicate tests.
    max_condition: largest condition estimate accepted as "invertible".
    """

    rank_rel_tol: float = 1e-10
    residual_tol: float = 1e-10
    max_condition: float = 1e8

    def __post_init__(self):
        if not (self.rank_rel_tol > 0 and self.residual_tol > 0 and self.max_condition > 0):
            raise ValueError("tolerance policy fields must be strictly positive")


DEFAULT_TOLERANCE = TolerancePolicy()
