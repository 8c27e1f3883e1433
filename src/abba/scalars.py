"""Scalar backends: exact Gaussian-rational values and float tolerance policy.

:class:`GaussianRational` is the exact backend's value type: a complex
number as a pair of ``fractions.Fraction`` (always in lowest terms with
positive denominator, which Fraction guarantees) that compares, hashes,
negates, conjugates and prints.  It does no arithmetic: exact matrices
store integer numerators over one denominator, all exact arithmetic runs
on them (see :mod:`abba.matrix`), and they hand out GaussianRationals for
single entries, traces, determinants and characteristic-polynomial
coefficients.  The float backend is plain ``complex`` and all
float-backend decisions are governed by a :class:`TolerancePolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendError

_RAT = (int, Fraction)

_FLOAT_IN_EXACT = "float values are not allowed in the exact backend"


class GaussianRational:
    """An exact complex value re + im*i with rational re, im.

    Instances are immutable and compare equal to an ``int`` or
    ``Fraction`` of the same real value; ``float`` parts are rejected to
    keep the backend exact.
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

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RAT):
            return self.im == 0 and self.re == other
        return NotImplemented

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
