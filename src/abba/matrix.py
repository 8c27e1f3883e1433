"""Dense complex matrices over two scalar backends.

A matrix is either ``exact`` or ``float``.  An exact matrix stores two
numpy object arrays of Python ints, ``re`` and ``im``, over one positive
int denominator ``den``: entry (j, k) is (re[j, k] + i im[j, k]) / den.
The triple is kept canonical, gcd(den, every numerator) = 1, so equal
matrices have equal triples and the zero matrix has den = 1.  Arithmetic
runs on the int arrays (a product is four integer ``dot``s and one gcd
pass); entries read one at a time (``m[i, j]``, ``trace``, ``array``)
come back as :class:`GaussianRational`.  A float matrix wraps a
complex128 array of finite entries: an operation whose result overflows
raises :class:`BackendError` instead of returning inf or NaN.  Float norms,
ranks and tests run at unit scale (``_at_unit_scale``), so no verdict of
theirs changes when the input is scaled by a power of two.

Values are immutable after construction; every operation returns a new
matrix.  Mixing backends in one operation raises :class:`BackendError`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import BackendError, ShapeError
from .scalars import GQ

EXACT = "exact"
FLOAT = "float"

# numpy fixed-width ints would wrap on overflow; exact numerators are Python ints
_INDEX = np.frompyfunc(operator.index, 1, 1)


def _over_common_den(values: Sequence[GQ]) -> tuple[list[int], list[int], int]:
    """Numerators (re, im) of Gaussian rationals over their least common denominator."""
    den = math.lcm(*(q.denominator for z in values for q in (z.re, z.im)))
    return ([z.re.numerator * (den // z.re.denominator) for z in values],
            [z.im.numerator * (den // z.im.denominator) for z in values], den)


def _gauss(op, ar, ai, br, bi):
    """(ar + i ai) op (br + i bi) for a bilinear op on integer arrays."""
    return op(ar, br) - op(ai, bi), op(ar, bi) + op(ai, br)


class Matrix:
    # float matrices set _data, exact ones _re, _im and _den
    __slots__ = ("_backend", "_shape", "_data", "_re", "_im", "_den")

    def __init__(self, data, backend: str):
        """Wrap `data`: a finite complex128 array on the float backend, or a triple
        (re, im, den) of integer object arrays and a positive int on the
        exact backend, which is brought to canonical form.  Build matrices
        with the static constructors below."""
        if backend == FLOAT:
            if not np.isfinite(data).all():
                raise BackendError("float matrix with an infinite or NaN entry (overflow)")
            data.flags.writeable = False
            object.__setattr__(self, "_data", data)
            shape = data.shape
        elif backend == EXACT:
            re, im, den = data
            g = math.gcd(den, *re.flat, *im.flat)
            if g != 1:
                re, im, den = re // g, im // g, den // g
            re.flags.writeable = False
            im.flags.writeable = False
            object.__setattr__(self, "_re", re)
            object.__setattr__(self, "_im", im)
            object.__setattr__(self, "_den", den)
            shape = re.shape
        else:
            raise BackendError(f"unknown backend {backend!r}")
        if len(shape) != 2:
            raise ShapeError("matrix data must be two-dimensional")
        object.__setattr__(self, "_backend", backend)
        object.__setattr__(self, "_shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction ---------------------------------------------------

    @staticmethod
    def exact(rows: Sequence[Sequence]) -> "Matrix":
        """Exact matrix from nested entries (ints, Fractions, strings,
        (re, im) pairs, integral complex literals, GaussianRationals)."""
        conv = [[GQ.coerce(x) for x in row] for row in rows]
        ncols = {len(r) for r in conv}
        if len(conv) == 0 or len(ncols) != 1:
            raise ShapeError("rows must be nonempty and of equal length")
        re, im, den = _over_common_den([z for row in conv for z in row])
        shape = (len(conv), ncols.pop())
        return Matrix((np.array(re, dtype=object).reshape(shape),
                       np.array(im, dtype=object).reshape(shape), den), EXACT)

    @staticmethod
    def from_ints(re, im=None, den: int = 1) -> "Matrix":
        """Exact matrix (re + i im) / den from 2-D integer arrays or nested
        lists; im defaults to zero and den must be a positive integer.  operator.index
        guards input from outside; the program's own int arrays go straight to Matrix()."""
        re = _INDEX(np.array(re, dtype=object))
        im = np.zeros(re.shape, dtype=object) if im is None else _INDEX(np.array(im, dtype=object))
        if re.shape != im.shape:
            raise ShapeError("real and imaginary parts must have the same shape")
        if operator.index(den) <= 0:
            raise ValueError("the denominator must be positive")
        return Matrix((re, im, operator.index(den)), EXACT)

    @staticmethod
    def from_float(rows) -> "Matrix":
        return Matrix(np.array(rows, dtype=np.complex128), FLOAT)

    @staticmethod
    def zeros(rows: int, cols: int, backend: str = EXACT) -> "Matrix":
        if backend == EXACT:
            return Matrix((np.zeros((rows, cols), dtype=object),
                           np.zeros((rows, cols), dtype=object), 1), EXACT)
        return Matrix(np.zeros((rows, cols), dtype=np.complex128), FLOAT)

    @staticmethod
    def identity(n: int, backend: str = EXACT) -> "Matrix":
        if backend == EXACT:
            return Matrix((np.eye(n, dtype=object), np.zeros((n, n), dtype=object), 1), EXACT)
        return Matrix(np.eye(n, dtype=np.complex128), FLOAT)

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        """Exact diagonal matrix with the given entries."""
        n = len(values)
        re, im, den = _over_common_den([GQ.coerce(v) for v in values])
        arr_re = np.zeros((n, n), dtype=object)
        arr_im = np.zeros((n, n), dtype=object)
        arr_re[range(n), range(n)] = re
        arr_im[range(n), range(n)] = im
        return Matrix((arr_re, arr_im, den), EXACT)

    # -- basic properties -----------------------------------------------

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def array(self) -> np.ndarray:
        """A read-only numpy array of the entries: the complex128 data on the
        float backend; on the exact backend, GaussianRational objects built
        afresh on every call (for I/O and inspection, not for arithmetic)."""
        if self._backend == FLOAT:
            return self._data
        arr = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(*self.shape):
            arr[idx] = self[idx]
        arr.flags.writeable = False
        return arr

    @property
    def numerators(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(re, im, den) of an exact matrix: read-only integer object arrays and
        the positive denominator, entry (j, k) being (re[j, k] + i im[j, k]) / den."""
        if self._backend != EXACT:
            raise BackendError("numerators are an exact-backend notion")
        return self._re, self._im, self._den

    def __getitem__(self, key):
        i, j = key
        if self._backend == EXACT:
            return GQ(Fraction(self._re[i, j], self._den), Fraction(self._im[i, j], self._den))
        return self._data[i, j]

    # -- arithmetic -------------------------------------------------------

    def _check_same_backend(self, other: "Matrix"):
        if self._backend != other._backend:
            raise BackendError("mixed exact/float operands")

    def _check_operand_pair(self, other: "Matrix"):
        """The contract of the two-matrix entry points: square, one size, one backend."""
        if self.shape != other.shape or not self.is_square:
            raise ShapeError("operands must be square and of equal size")
        if self._backend != other._backend:
            raise BackendError("operands must share a backend")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_backend(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if self._backend == FLOAT:
            return Matrix(np.dot(self._data, other._data), FLOAT)
        re, im = _gauss(np.dot, self._re, self._im, other._re, other._im)
        return Matrix((re, im, self._den * other._den), EXACT)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """Entrywise self op other for op in (add, sub), over the lcm of the denominators."""
        self._check_same_backend(other)
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch in {op.__name__}")
        if self._backend == FLOAT:
            return Matrix(op(self._data, other._data), FLOAT)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        return Matrix((op(self._re * s, other._re * t), op(self._im * s, other._im * t), den),
                      EXACT)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Matrix":
        if self._backend == EXACT:
            return Matrix((-self._re, -self._im, self._den), EXACT)
        return Matrix(-self._data, FLOAT)

    def __mul__(self, scalar) -> "Matrix":
        if isinstance(scalar, Matrix):
            raise TypeError("use @ for matrix products")
        if self._backend == EXACT:
            (sr,), (si,), sd = _over_common_den([GQ.coerce(scalar)])
            re, im = _gauss(np.multiply, self._re, self._im, sr, si)
            return Matrix((re, im, self._den * sd), EXACT)
        return Matrix(self._data * complex(scalar), FLOAT)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._backend != other._backend or self.shape != other.shape:
            return False
        if self._backend == EXACT:
            return (self._den == other._den and np.array_equal(self._re, other._re)
                    and np.array_equal(self._im, other._im))
        return bool(np.all(self._data == other._data))

    def __hash__(self):
        return hash((self._backend, self.shape))

    # -- structural operations --------------------------------------------

    def adjoint(self) -> "Matrix":
        """Conjugate transpose."""
        if self._backend == EXACT:
            return Matrix((self._re.T, -self._im.T, self._den), EXACT)
        return Matrix(self._data.conj().T.copy(), FLOAT)

    def transpose(self) -> "Matrix":
        if self._backend == EXACT:
            return Matrix((self._re.T, self._im.T, self._den), EXACT)
        return Matrix(self._data.T.copy(), FLOAT)

    def trace(self):
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        if self._backend == EXACT:
            return GQ(Fraction(sum(self._re.diagonal()), self._den),
                      Fraction(sum(self._im.diagonal()), self._den))
        return complex(np.trace(self._data))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Submatrix of rows [r0, r1) and columns [c0, c1)."""
        if self._backend == EXACT:
            return Matrix((self._re[r0:r1, c0:c1], self._im[r0:r1, c0:c1], self._den), EXACT)
        return Matrix(self._data[r0:r1, c0:c1].copy(), FLOAT)

    def to_float(self) -> "Matrix":
        """Float copy (identity on float matrices).  Each part is one
        correctly rounded int division, equal to float(Fraction) of the entry."""
        if self._backend == FLOAT:
            return self
        arr = np.empty(self.shape, dtype=np.complex128)
        arr.real = (self._re / self._den).astype(np.float64)
        arr.imag = (self._im / self._den).astype(np.float64)
        return Matrix(arr, FLOAT)

    # -- predicates and norms ----------------------------------------------

    def is_zero(self) -> bool:
        """Entrywise exact-zero test (no tolerance, either backend)."""
        if self._backend == EXACT:
            return not (self._re.any() or self._im.any())
        return bool(np.all(self._data == 0))

    def frobenius(self) -> float:
        if self._backend == EXACT:  # sqrt(sq / (d 4^e)) 2^e, 4^e keeping the quotient in range
            re, im = self._re.ravel(), self._im.ravel()
            sq, d = int(np.dot(re, re) + np.dot(im, im)), self._den ** 2
            e = max(0, (sq.bit_length() - d.bit_length()) // 2 - 500)
            root = (sq / (d << 2 * e)) ** 0.5
        else:
            unit, e = _at_unit_scale(self)
            root = np.linalg.norm(unit._data)
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            return float(np.ldexp(root, e))

    def __repr__(self):
        return f"Matrix({self._backend}, {self.rows}x{self.cols})"


def _at_unit_scale(m: Matrix) -> tuple[Matrix, int]:
    """(m / 2^e, e), e putting the largest entry part of a float m / 2^e in
    [0.5, 1), where squares and products neither overflow nor underflow;
    (m, 0) for an exact m.  Dividing by a power of two is exact in binary."""
    if m.backend == EXACT:
        return m, 0
    a = m._data
    _, e = np.frexp(max(np.abs(a.real).max(initial=0.0), np.abs(a.imag).max(initial=0.0)))
    return Matrix(_ldexp(a, -e), FLOAT), int(e)


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2^e part by part: exact in binary, signed zeros kept, unless it under- or overflows."""
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, e), np.ldexp(a.imag, e)
    return out


def _stack(mats: Iterable[Matrix], join, name: str) -> Matrix:
    mats = list(mats)
    backend = mats[0].backend
    if any(m.backend != backend for m in mats):
        raise BackendError(f"mixed backends in {name}")
    if backend == FLOAT:
        return Matrix(join([m._data for m in mats]), FLOAT)
    den = math.lcm(*(m._den for m in mats))
    return Matrix((join([m._re * (den // m._den) for m in mats]),
                   join([m._im * (den // m._den) for m in mats]), den), EXACT)


def hstack(mats: Iterable[Matrix]) -> Matrix:
    return _stack(mats, np.hstack, "hstack")


def vstack(mats: Iterable[Matrix]) -> Matrix:
    return _stack(mats, np.vstack, "vstack")


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a matrix from a 2-D grid of blocks (zero-sized blocks allowed)."""
    return vstack([hstack(row) for row in grid])


def kron(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_backend(b)
    if a.backend == FLOAT:
        return Matrix(np.kron(a._data, b._data), FLOAT)
    re, im = _gauss(np.kron, a._re, a._im, b._re, b._im)
    return Matrix((re, im, a._den * b._den), EXACT)
