"""Algebraic spinor machinery: idempotents, minimal ideals, division rings,
and the beta inner product with its adjoint-involution conditions.

A spinor space here is a left ideal Cl·f over a primitive idempotent f; the
ring of spinor scalars is f·Cl·f.  The beta product
``beta(psi, phi) = h alpha(psi) phi f`` lands in that ring whenever the
adjoint involution alpha and the element h satisfy alpha(f) = h^-1 f h and
alpha(h) = h.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .multivector import (
    _BLADES,
    Multivector,
    _involute,
    _product,
    blade,
    coefficient_distance,
    gamma,
    involution,
    scalar,
)
from .weyl import (ANTICOMMUTATOR_TOL, INVOLUTION_TOL, RANK_TOL, ROUNDING_TOL, UNIT_TOL,
                   multivector_inverse)


class InvolutionConditionError(ValueError):
    """The (alpha, h, f) triple fails an adjoint-involution condition."""


class Idempotent(NamedTuple("Idempotent", [("value", Multivector)])):
    """Multivector f with f*f = f (within ``ROUNDING_TOL`` on coefficients)."""

    residual: object  #: distance of f f from f, measured at construction; not a field

    def __new__(cls, value: Multivector):
        residual = coefficient_distance(value * value, value)
        if not residual <= ROUNDING_TOL:  # NaN is not idempotent
            raise ValueError(f"not idempotent: residual {residual:.3e}")
        self = super().__new__(cls, value)
        object.__setattr__(self, "residual", residual)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace measures its f too


def canonical_idempotent(mode: str = "complex") -> Idempotent:
    """Reference idempotents.

    complex: f = 1/4 (1 + g0)(1 + i e12), a rank-1 projector in the Weyl
    representation (primitive over C).  real: f = 1/2 (1 + g0), primitive
    over the reals with quaternionic spinor scalars.
    """
    if mode == "complex":
        f = 0.25 * ((scalar(1) + gamma(0)) * (scalar(1) + 1j * blade((1, 2))))
    elif mode == "real":
        f = 0.5 * (scalar(1) + gamma(0))
    else:
        raise ValueError(f"unknown idempotent mode {mode!r}")
    return Idempotent(f)


# -- coefficient-space linear algebra ------------------------------------------


def _real_vec(v: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of complex vectors, one real row each."""
    return np.concatenate([v.real, v.imag], axis=-1)


def _independent_rows(vectors: np.ndarray, scalars: str) -> list:
    """Greedy basis among the rows of a coefficient stack over C or over R:
    row i is chosen where the rank of the first i + 1 rows rises."""
    if scalars not in ("complex", "real"):
        raise ValueError(f"unknown scalar field {scalars!r}")
    rows = vectors.astype(complex)
    if scalars == "real":
        rows = _real_vec(rows)
    prefixes = np.tril(np.ones((len(rows), len(rows))))[..., None] * rows
    ranks = np.linalg.matrix_rank(prefixes, tol=RANK_TOL)
    return [Multivector._of(vectors[i]) for i in np.flatnonzero(np.diff(ranks, prepend=0))]


class IdealBasis(NamedTuple):
    """Independent generators of Cl·f (or f·Cl) over the chosen scalars."""

    generators: list
    side: str
    scalars: str

    @property
    def dimension(self) -> int:
        return len(self.generators)


def ideal_basis(f: Idempotent, side: str = "left", scalars: str = "complex") -> IdealBasis:
    """Maximal independent set among the 16 products blade·f (or f·blade)."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    fc = f.value._c
    products = _product(_BLADES, fc) if side == "left" else _product(fc, _BLADES)
    return IdealBasis(_independent_rows(products, scalars), side, scalars)


# -- division rings ---------------------------------------------------------------


class RingReport(NamedTuple):
    """Identification of the spinor scalar ring f·Cl·f."""

    name: str
    dimension: int
    primitive: bool
    profile_ok: bool
    basis: list


def division_ring_identify(f: Idempotent, scalars: str = "real") -> RingReport:
    """Identify f·Cl·f over the chosen scalars by dimension and unit profile.

    Dimension 1 means the scalars themselves; over the reals dimension 2
    with a negative-square unit is C and dimension 4 with anticommuting
    negative-square units is H.  Anything bigger is not a division ring and
    marks f as non-primitive for that scalar field.
    """
    fc = f.value._c
    basis = _independent_rows(_product(_product(fc, _BLADES), fc), scalars)
    dim = len(basis)

    if scalars == "complex":
        if dim == 1:
            return RingReport("C", 1, True, True, basis)
        return RingReport("not_division_ring", dim, False, False, basis)

    if dim == 1:
        return RingReport("R", 1, True, True, basis)
    if dim in (2, 4):
        units, profile_ok = _pure_units(fc, np.array([w._c for w in basis]))
        if dim == 2:
            return RingReport("C", 2, True, profile_ok, basis)
        # quaternions additionally need a noncommuting pair
        i, j = np.triu_indices(len(units), 1)
        commutators = _product(units[i], units[j]) - _product(units[j], units[i])
        noncomm = bool((abs(commutators).max(axis=-1) > UNIT_TOL).any())
        return RingReport("H", 4, True, profile_ok and noncomm, basis)
    return RingReport("not_division_ring", dim, False, False, basis)


def _pure_units(f: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, bool]:
    """Units of f·Cl·f from a basis stack (d, 16), each row less its ring-scalar
    part and normalized, and whether every unit squares to a negative multiple
    of f and every two anticommute up to a multiple of f, as in a division ring.

    The ring-scalar part of w is tr M(w) / tr M(f) = w_0 / f_0, since every
    blade but the scalar has a traceless Weyl image: tr M(x) = 4 x_0.
    """
    f, rows = f.astype(complex), rows.astype(complex)
    pure = rows - (rows[:, :1] / f[0]) * f
    pure = pure[abs(pure).max(axis=-1) > UNIT_TOL]
    sq = _product(pure, pure)
    coeff = sq[:, :1] / f[0]
    bad = (abs(sq - coeff * f).max(axis=-1) > UNIT_TOL) | (coeff[:, 0].real >= 0)
    units = pure[~bad] * (1.0 / np.sqrt(-coeff[~bad].real))
    i, j = np.triu_indices(len(units), 1)
    anti = _product(units[i], units[j]) + _product(units[j], units[i])
    off = abs(anti - (anti[:, :1] / f[0]) * f).max(axis=-1) > ANTICOMMUTATOR_TOL
    return units, not (bad.any() or off.any())


# -- adjoint involutions and beta ---------------------------------------------------


def _violated_condition(kind: str, h: Multivector, f: Idempotent) -> str | None:
    """The first of alpha(f) = h^-1 f h and alpha(h) = h that fails, with its
    residual (as a float: an exact one may be a Fraction), or None when both
    hold; a NaN residual fails.  Raises ZeroDivisionError when h is singular."""
    hinv = multivector_inverse(h)
    r1 = coefficient_distance(involution(kind, f.value), hinv * f.value * h)
    r2 = coefficient_distance(involution(kind, h), h)
    if not r1 <= INVOLUTION_TOL:
        return f"alpha(f) != h^-1 f h (residual {float(r1):.3e})"
    if not r2 <= INVOLUTION_TOL:
        return f"alpha(h) != h (residual {float(r2):.3e})"
    return None


def verify_involution_conditions(kind: str, h: Multivector, f: Idempotent) -> bool:
    """Check alpha(f) = h^-1 f h and alpha(h) = h; h must be invertible."""
    return _violated_condition(kind, h, f) is None


def _require_adjoint(kind: str, h: Multivector, f: Idempotent) -> None:
    """Raise :class:`InvolutionConditionError` unless alpha(f) = h^-1 f h
    and alpha(h) = h hold for an invertible h, naming the violated one."""
    try:
        violated = _violated_condition(kind, h, f)
    except ZeroDivisionError as exc:
        raise InvolutionConditionError("h is not invertible") from exc
    if violated:
        raise InvolutionConditionError(violated)


def beta_inner_product(
    psi: Multivector, phi: Multivector, kind: str, h: Multivector, f: Idempotent
) -> Multivector:
    """beta(psi, phi) = h alpha(psi) phi f, valued in the ring f·Cl·f.

    Raises :class:`InvolutionConditionError` when the (alpha, h, f) triple
    fails its compatibility conditions (see :func:`_require_adjoint`).
    """
    _require_adjoint(kind, h, f)
    return Multivector._of(_beta(psi._c, phi._c, kind, h._c, f.value._c))


def _beta(psi, phi, kind: str, h, f) -> np.ndarray:
    """h alpha(psi) phi f of coefficient arrays, or row by row of stacks
    (..., 16); the (alpha, h, f) conditions are the caller's to check."""
    return _product(_product(_product(h, _involute(kind, psi)), phi), f)


def ring_membership_residual(b: Multivector, f: Idempotent) -> float:
    """Distance of b from f·Cl·f, measured as |b - f b f|."""
    return float(_ring_residual(b._c, f.value._c))


def _ring_residual(b, f):
    """|b - f b f| of coefficient arrays; one per row of a stack (..., 16)."""
    return abs(b - _product(_product(f, b), f)).max(axis=-1)
