"""Multivector arithmetic for the complexified spacetime algebra.

The algebra is Cl(1,3) with metric diag(+1, -1, -1, -1).  Basis blades are
indexed by 4-bit masks: bit ``mu`` set means the generator ``e_mu`` is a
factor, factors ordered ascending (mask 0b0011 is e0*e1, written ``e01``;
any sign from reordering is absorbed into the coefficient).

A multivector is one length-16 numpy array of coefficients, slot ``mask``
holding the coefficient of that blade.  The array is ``complex128``, the
normal case, or ``object`` when every nonzero coefficient is an ``int`` or
a ``fractions.Fraction``: exact values then flow through sums, products
and involutions unchanged, which is what the exact oracles in the test
suite rely on.  Mixing an exact operand with a complex one gives complex.

The product blade of blades ``a`` and ``b`` is ``a ^ b``, so the geometric
product is a signed XOR convolution.  In floating point it is one array
expression over precomputed index and sign tables.  An exact product loops
over the pairs of nonzero slots on Python ints, exact at any size.  A
``Fraction`` in any slot of either operand, ``Fraction(0)`` too, makes every
nonzero slot a ``Fraction``: the operands are then written as integer
numerators over the lcm of their denominators, and each nonzero slot is
divided once by the two lcms' product.  Otherwise the slots are ints.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Number
from typing import Iterable, Mapping

import numpy as np

DIMENSION = 4
BLADE_COUNT = 1 << DIMENSION
METRIC = (1, -1, -1, -1)

#: grade of each blade mask (number of generators in the product)
GRADE = tuple(mask.bit_count() for mask in range(BLADE_COUNT))

#: coefficient types kept exactly, in an object array
_EXACT = (int, Fraction)


def _blade_sign(a: int, b: int) -> int:
    # (-1) to the number of pairs (i in a, j in b) with i > j, times the
    # metric factor of each generator both blades share; the product blade
    # itself is always a ^ b.
    swaps = sum((a >> j + 1).bit_count() for j in range(DIMENSION) if b >> j & 1)
    return (-1) ** swaps * math.prod(METRIC[j] for j in range(DIMENSION) if (a & b) >> j & 1)


_MUL_SIGN = [[_blade_sign(a, b) for b in range(BLADE_COUNT)] for a in range(BLADE_COUNT)]

# out[c] = sum_a x[a] * sign(a, a ^ c) * y[a ^ c], i.e. out = x @ (_SP * y[_XOR])
_MASKS = np.arange(BLADE_COUNT)
_XOR = _MASKS[:, None] ^ _MASKS[None, :]
_SP = np.array(_MUL_SIGN, dtype=float)[_MASKS[:, None], _XOR]

_GRADES = np.array(GRADE)
#: slots each involution negates
_ODD = _GRADES % 2 == 1
_REVERSED = (_GRADES * (_GRADES - 1) // 2) % 2 == 1
#: grade-2 and grade-3 slots, where the self-adjoint basis carries a factor i
_TURNED = np.isin(_GRADES, (2, 3))

#: involution kind -> (the slots it negates, if any; whether it conjugates)
_INVOLUTIONS = {
    "grade": (_ODD, False),
    "reversion": (_REVERSED, False),
    "clifford_conj": (_ODD ^ _REVERSED, False),
    "complex_conj": (None, True),
    "dirac_dagger": (_REVERSED, True),
}


def _involute(kind: str, c: np.ndarray) -> np.ndarray:
    """Involution ``kind`` of a coefficient array, or of each row of a stack."""
    negated, conjugates = _INVOLUTIONS[kind]
    if negated is not None and c.dtype == object:  # one new object per negation: masked slots only
        c = np.negative(c, out=c.copy(), where=negated)
    elif negated is not None:
        c = np.where(negated, -c, c)
    return c.conj() if conjugates else c


def blade_key(mask: int) -> str:
    """Text key of a blade mask: "" for the scalar, "01", "0123", ..."""
    return "".join(str(j) for j in range(DIMENSION) if mask & (1 << j))


def _index(value, name: str, stop: int | None = None) -> int:
    """``value`` read through ``operator.index`` and in range(``stop``), or ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if stop is not None and value not in range(stop):
        raise ValueError(f"{name} {value} out of range")
    return value


def _common(a: np.ndarray, b: np.ndarray) -> tuple:
    """Two coefficient arrays in one dtype: object only if both are exact."""
    if a.dtype == b.dtype:
        return a, b
    return a.astype(complex), b.astype(complex)


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # no Fraction arithmetic in the pair loop (see the module notes)
    a, b = a.tolist(), b.tolist()
    fraction = any(issubclass(t, Fraction) for t in {*map(type, a), *map(type, b)})
    if fraction:
        (left, da), (right, db) = _numerators(a), _numerators(b)
    else:
        left, right = [(m, v) for m, v in enumerate(a) if v], [(m, v) for m, v in enumerate(b) if v]
    out = [0] * BLADE_COUNT
    for ma, ca in left:
        sign_row = _MUL_SIGN[ma]
        for mb, cb in right:
            if sign_row[mb] > 0:
                out[ma ^ mb] += ca * cb
            else:
                out[ma ^ mb] -= ca * cb
    if fraction:
        den = da * db
        out = [Fraction(v, den) if v else 0 for v in out]
    return np.fromiter(out, dtype=object, count=BLADE_COUNT)


def _numerators(row: list) -> tuple:
    """Nonzero (mask, numerator) pairs of an exact row over its lcm denominator, and that lcm."""
    ratios = [(m, v.as_integer_ratio()) for m, v in enumerate(row) if v]
    den = math.lcm(*[d for _, (_, d) in ratios])
    return [(m, n * (den // d)) for m, (n, d) in ratios], den


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product of coefficient arrays, or row by row of stacks
    (..., 16), bit for bit as ``__mul__``: each row's table is laid out as
    its one table is, so every row takes the same BLAS vector-matrix call.
    Two exact arrays or stacks multiply exactly."""
    a, b = _common(a, b)
    if a.dtype == object:
        a, b = np.broadcast_arrays(a, b)
        pairs = zip(a.reshape(-1, BLADE_COUNT), b.reshape(-1, BLADE_COUNT))
        return np.array([_exact_product(x, y) for x, y in pairs], dtype=object).reshape(a.shape)
    table = np.take(b, _XOR, axis=-1)
    table *= _SP
    return (a[..., None, :] @ table)[..., 0, :]


class Multivector:
    """Immutable element of C ⊗ Cl(1,3): 16 coefficients, one per blade mask."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        values = [0] * BLADE_COUNT
        if coeffs:
            for mask, value in coeffs.items():
                try:
                    mask = operator.index(mask)
                except TypeError:
                    raise ValueError(f"blade mask {mask!r} is not an integer") from None
                if not 0 <= mask < BLADE_COUNT:
                    raise ValueError(f"blade mask {mask} out of range")
                if value != 0:
                    values[mask] = value
        exact = all(isinstance(v, _EXACT) for v in values)
        if not exact:  # a numpy integer is the int it equals
            values = [int(v) if isinstance(v, np.integer) else v for v in values]
            exact = all(isinstance(v, _EXACT) for v in values)
        self._c = np.array(values, dtype=object if exact else complex)

    @classmethod
    def _of(cls, c: np.ndarray) -> "Multivector":
        """Wrap a coefficient array this module built; it is not copied."""
        out = object.__new__(cls)
        out._c = c
        return out

    # -- access -----------------------------------------------------------

    def coefficient(self, mask: int):
        mask = _index(mask, "blade mask")
        return self._c.tolist()[mask] if 0 <= mask < BLADE_COUNT else 0

    def items(self) -> list[tuple[int, object]]:
        """Nonzero coefficients as (mask, value) pairs in ascending mask order."""
        return [(m, v) for m, v in enumerate(self._c.tolist()) if v]

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for _, v in self.items())

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        a, b = _common(self._c, other._c)
        return Multivector._of(a + b)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        a, b = _common(self._c, other._c)
        return Multivector._of(a - b)

    def __neg__(self):
        return Multivector._of(-self._c)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            a, b = _common(self._c, other._c)
            if a.dtype == object:
                return Multivector._of(_exact_product(a, b))
            return Multivector._of(a @ (_SP * b[_XOR]))
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, k):
        if not isinstance(k, Number):
            return NotImplemented
        if self._c.dtype == object and isinstance(k, _EXACT):
            return Multivector._of(self._c * k)
        if isinstance(k, np.integer):  # the int it equals, as from the left
            return self._scaled(int(k))
        return Multivector._of(self._c.astype(complex) * complex(k))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return bool((self._c == other._c).all())

    def __hash__(self):
        return hash(tuple(self.items()))

    # -- involutions --------------------------------------------------------

    def grade_involution(self) -> "Multivector":
        return Multivector._of(_involute("grade", self._c))

    def reversion(self) -> "Multivector":
        return Multivector._of(_involute("reversion", self._c))

    def clifford_conjugation(self) -> "Multivector":
        return Multivector._of(_involute("clifford_conj", self._c))

    def complex_conjugate(self) -> "Multivector":
        return Multivector._of(_involute("complex_conj", self._c))

    def __repr__(self):
        terms = []
        for mask, value in self.items():
            if isinstance(value, complex) and value.imag == 0:
                value = value.real
            name = "1" if mask == 0 else "e" + blade_key(mask)
            terms.append(f"{value!r}*{name}" if mask else f"{value!r}")
        return "Multivector(" + (" + ".join(terms) or "0") + ")"


# -- constructors -----------------------------------------------------------

_GENERATORS = tuple(Multivector({1 << mu: 1}) for mu in range(DIMENSION))
#: every basis blade as an exact coefficient row, row ``mask`` for blade ``mask``
_BLADES = np.eye(BLADE_COUNT, dtype=object)


def scalar(value) -> Multivector:
    return Multivector({0: value})


def gamma(mu: int) -> Multivector:
    """Generator e_mu (mu in 0..3)."""
    return _GENERATORS[_index(mu, "gamma index", DIMENSION)]


def blade(indices: Iterable[int]) -> Multivector:
    """Product of generators in the given order.

    Indices may repeat or appear out of order; signs and metric factors
    are absorbed into the coefficient.
    """
    out = scalar(1)
    for mu in indices:
        out = out * gamma(mu)
    return out


def pseudoscalar() -> Multivector:
    """e0123; squares to -1 in Cl(1,3)."""
    return Multivector({BLADE_COUNT - 1: 1})


def gamma5_chiral() -> Multivector:
    """i*e0123; squares to +1, the chiral grading element."""
    return Multivector({BLADE_COUNT - 1: 1j})


# -- operations --------------------------------------------------------------


def grade_projection(a: Multivector, k: int) -> Multivector:
    k = _index(k, "grade")
    if not 0 <= k <= DIMENSION:
        raise ValueError(f"grade {k} out of range 0..{DIMENSION}")
    return Multivector._of(np.where(_GRADES == k, a._c, 0))


def involution(kind: str, a: Multivector) -> Multivector:
    """One of the canonical (anti)automorphisms of the algebra, or "dirac_dagger": reversion
    composed with complex conjugation, the gamma0-adjoint a -> g0 a^dag g0 of any
    representation with g0 Hermitian and the spatial generators anti-Hermitian."""
    if kind not in _INVOLUTIONS:
        raise ValueError(f"unknown involution kind {kind!r}")
    return Multivector._of(_involute(kind, a._c))


def coefficient_distance(a: Multivector, b: Multivector):
    """Max absolute difference between coefficients of two multivectors; exact
    when both are exact: the first largest slot is found on integer numerators
    over one lcm, and only its ``abs(x - y)`` is built, an int or a ``Fraction``."""
    x, y = _common(a._c, b._c)
    if x.dtype != object:
        return float(np.abs(x - y).max())
    x, y = x.tolist(), y.tolist()
    den = math.lcm(*[v.denominator for v in x + y])
    gaps = [abs(u.numerator * (den // u.denominator) - v.numerator * (den // v.denominator))
            for u, v in zip(x, y)]
    i = gaps.index(max(gaps))
    return abs(x[i] - y[i])


# -- the self-adjoint (gamma0-Hermitian) basis -------------------------------
#
# The gamma0-adjoint flips the sign of plain grade-2 and grade-3 blades and
# conjugates coefficients, so the blades rescaled by i on those grades are
# exactly the elements it fixes.  Real combinations of them form the
# 16-dimensional real space of operators Delta with g0*Delta Hermitian.


def hermitian_blade(mask: int) -> Multivector:
    plain = Multivector({mask: 1})  # refuses a mask that is not an integer in 0..15
    ((slot, _),) = plain.items()
    return Multivector({slot: 1j}) if _TURNED[slot] else plain


def random_multivector(rng, *, real: bool = False, hermitian: bool = False,
                        grades: Iterable[int] | None = None) -> Multivector:
    """Random multivector with coefficients uniform in [-1, 1].

    ``hermitian=True`` draws real coefficients in the self-adjoint basis,
    ``real=True`` draws real coefficients on plain blades.  ``grades``
    restricts which grades are populated.  Slots are drawn in ascending
    mask order, real part before imaginary part.
    """
    return Multivector._of(_random_coefficients(rng, (), real, hermitian, grades))


def _random_coefficients(rng, shape, real=False, hermitian=False, grades=None) -> np.ndarray:
    """Coefficients (*shape, 16) of random multivectors, drawn in one call
    and bit for bit as that many :func:`random_multivector` calls draw them."""
    wanted = set(range(DIMENSION + 1)) if grades is None else set(grades)
    slots = [m for m in range(BLADE_COUNT) if GRADE[m] in wanted]
    parts = np.zeros((*shape, BLADE_COUNT, 2))  # real and imaginary parts
    if hermitian or real:
        column = _TURNED[slots].astype(int) if hermitian else 0
        parts[..., slots, column] = rng.uniform(-1.0, 1.0, (*shape, len(slots)))
    else:
        parts[..., slots, :] = rng.uniform(-1.0, 1.0, (*shape, len(slots), 2))
    return parts.view(complex)[..., 0]
