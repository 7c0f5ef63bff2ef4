"""Multivector arithmetic for the complexified spacetime algebra.

The algebra is Cl(1,3) with metric diag(+1, -1, -1, -1).  Basis blades are
indexed by 4-bit masks: bit ``mu`` set means the generator ``e_mu`` is a
factor, factors ordered ascending (mask 0b0011 is e0*e1, written ``e01``;
any sign from reordering is absorbed into the coefficient).

Coefficients are plain Python scalars.  Complex floats are the normal
case; ints and ``fractions.Fraction`` flow through every operation
unchanged, which is what the exact oracles in the test suite rely on.
"""

from __future__ import annotations

from typing import Iterable, Mapping

DIMENSION = 4
BLADE_COUNT = 1 << DIMENSION
METRIC = (1, -1, -1, -1)

#: grade of each blade mask (number of generators in the product)
GRADE = tuple(mask.bit_count() for mask in range(BLADE_COUNT))

#: involution kind -> the Multivector method that implements it
_INVOLUTION_METHODS = {
    "grade": "grade_involution",
    "reversion": "reversion",
    "clifford_conj": "clifford_conjugation",
    "complex_conj": "complex_conjugate",
    "dirac_dagger": "hermitian_conjugate",
}


def _blade_sign(a: int, b: int) -> int:
    # Sign from counting transpositions, metric factors for repeated indices;
    # the product blade itself is always a ^ b.
    sign = 1
    acc = a
    for j in range(DIMENSION):
        bit = 1 << j
        if not b & bit:
            continue
        if (acc >> (j + 1)).bit_count() & 1:
            sign = -sign
        if acc & bit:
            sign *= METRIC[j]
            acc &= ~bit
        else:
            acc |= bit
    return sign


_MUL_SIGN = [[_blade_sign(a, b) for b in range(BLADE_COUNT)] for a in range(BLADE_COUNT)]


def blade_key(mask: int) -> str:
    """Text key of a blade mask: "" for the scalar, "01", "0123", ..."""
    return "".join(str(j) for j in range(DIMENSION) if mask & (1 << j))


def mask_from_key(key: str) -> int:
    mask = 0
    prev = -1
    for ch in key:
        j = int(ch)
        if not 0 <= j < DIMENSION or j <= prev:
            raise ValueError(f"bad blade key {key!r}")
        mask |= 1 << j
        prev = j
    return mask


class Multivector:
    """Immutable element of C ⊗ Cl(1,3), stored as {blade mask: coefficient}."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean: dict[int, object] = {}
        if coeffs:
            for mask, value in coeffs.items():
                mask = int(mask)
                if not 0 <= mask < BLADE_COUNT:
                    raise ValueError(f"blade mask {mask} out of range")
                if value != 0:
                    clean[mask] = value
        self._coeffs = clean

    # -- access -----------------------------------------------------------

    def coefficient(self, mask: int):
        return self._coeffs.get(mask, 0)

    def items(self) -> list[tuple[int, object]]:
        """Coefficients as (mask, value) pairs in deterministic order."""
        return sorted(self._coeffs.items())

    def grades(self) -> list[int]:
        return sorted({GRADE[m] for m in self._coeffs})

    def scalar_part(self):
        return self._coeffs.get(0, 0)

    def max_abs(self) -> float:
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self._coeffs.values())

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        out = dict(self._coeffs)
        for mask, value in other._coeffs.items():
            out[mask] = out.get(mask, 0) + value
        return Multivector(out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        out = dict(self._coeffs)
        for mask, value in other._coeffs.items():
            out[mask] = out.get(mask, 0) - value
        return Multivector(out)

    def __neg__(self):
        return Multivector({m: -v for m, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            out: dict[int, object] = {}
            for ma, ca in self._coeffs.items():
                sign_row = _MUL_SIGN[ma]
                for mb, cb in other._coeffs.items():
                    m = ma ^ mb
                    out[m] = out.get(m, 0) + sign_row[mb] * ca * cb
            return Multivector(out)
        return Multivector({m: v * other for m, v in self._coeffs.items()})

    def __rmul__(self, other):
        return Multivector({m: other * v for m, v in self._coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self.items()))

    # -- involutions --------------------------------------------------------

    def grade_involution(self) -> "Multivector":
        return Multivector(
            {m: -v if GRADE[m] & 1 else v for m, v in self._coeffs.items()}
        )

    def reversion(self) -> "Multivector":
        return Multivector(
            {
                m: -v if (GRADE[m] * (GRADE[m] - 1) // 2) & 1 else v
                for m, v in self._coeffs.items()
            }
        )

    def clifford_conjugation(self) -> "Multivector":
        return self.grade_involution().reversion()

    def complex_conjugate(self) -> "Multivector":
        return Multivector({m: v.conjugate() for m, v in self._coeffs.items()})

    def hermitian_conjugate(self) -> "Multivector":
        """Reversion composed with complex conjugation.

        This is the algebraic form of the gamma0-adjoint a -> g0 a^dag g0
        in any representation with g0 Hermitian and the spatial generators
        anti-Hermitian.
        """
        return self.reversion().complex_conjugate()

    def __repr__(self):
        if not self._coeffs:
            return "Multivector(0)"
        terms = []
        for mask, value in self.items():
            name = "1" if mask == 0 else "e" + blade_key(mask)
            terms.append(f"{value!r}*{name}" if mask else f"{value!r}")
        return "Multivector(" + " + ".join(terms) + ")"


# -- constructors -----------------------------------------------------------

ZERO = Multivector()
ONE = Multivector({0: 1})


def scalar(value) -> Multivector:
    return Multivector({0: value})


def basis_blade(mask: int, coeff=1) -> Multivector:
    return Multivector({mask: coeff})


def gamma(mu: int) -> Multivector:
    """Generator e_mu (mu in 0..3)."""
    if mu not in range(DIMENSION):
        raise ValueError(f"gamma index {mu} out of range")
    return Multivector({1 << mu: 1})


def blade(indices: Iterable[int], coeff=1) -> Multivector:
    """Product of generators in the given order, scaled by ``coeff``.

    Indices may repeat or appear out of order; signs and metric factors
    are absorbed into the coefficient.
    """
    out = scalar(coeff)
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
    if not 0 <= k <= DIMENSION:
        raise ValueError(f"grade {k} out of range 0..{DIMENSION}")
    return Multivector({m: v for m, v in a._coeffs.items() if GRADE[m] == k})


def involution(kind: str, a: Multivector) -> Multivector:
    """One of the canonical (anti)automorphisms of the algebra, or the
    gamma0-adjoint composite "dirac_dagger" (reversion then conjugation)."""
    try:
        method = _INVOLUTION_METHODS[kind]
    except KeyError:
        raise ValueError(f"unknown involution kind {kind!r}") from None
    return getattr(a, method)()


def coefficient_distance(a: Multivector, b: Multivector) -> float:
    """Max absolute difference between coefficients of two multivectors."""
    masks = set(a._coeffs) | set(b._coeffs)
    return max((abs(a.coefficient(m) - b.coefficient(m)) for m in masks), default=0.0)


# -- the self-adjoint (gamma0-Hermitian) basis -------------------------------
#
# hermitian_conjugate flips the sign of plain grade-2 and grade-3 blades and
# conjugates coefficients, so the blades rescaled by i on those grades are
# exactly the elements it fixes.  Real combinations of them form the
# 16-dimensional real space of operators Delta with g0*Delta Hermitian.


def hermitian_blade(mask: int) -> Multivector:
    factor = 1j if GRADE[mask] in (2, 3) else 1
    return Multivector({mask: factor})


def hermitian_basis() -> list[Multivector]:
    return [hermitian_blade(mask) for mask in range(BLADE_COUNT)]


def hermitian_coefficients(a: Multivector) -> list[complex]:
    """Coefficients of ``a`` in the self-adjoint basis (complex in general)."""
    out = []
    for mask in range(BLADE_COUNT):
        c = a.coefficient(mask)
        if GRADE[mask] in (2, 3):
            c = complex(c) / 1j
        out.append(complex(c))
    return out


def random_multivector(rng, *, real: bool = False, hermitian: bool = False,
                        grades: Iterable[int] | None = None) -> Multivector:
    """Random multivector with coefficients uniform in [-1, 1].

    ``hermitian=True`` draws real coefficients in the self-adjoint basis,
    ``real=True`` draws real coefficients on plain blades.  ``grades``
    restricts which grades are populated.
    """
    wanted = set(range(DIMENSION + 1)) if grades is None else set(grades)
    coeffs = {}
    out = ZERO
    for mask in range(BLADE_COUNT):
        if GRADE[mask] not in wanted:
            continue
        re = rng.uniform(-1.0, 1.0)
        if hermitian:
            out = out + re * hermitian_blade(mask)
            continue
        coeffs[mask] = re if real else complex(re, rng.uniform(-1.0, 1.0))
    if hermitian:
        return out
    return Multivector(coeffs)
