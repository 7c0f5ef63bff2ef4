"""Momentum-dependent dual machinery: Xi, Delta, Omega and the dual map.

A dual operator can be carried either as Delta (the freedom in h = g0*Delta)
or as Omega (the mapping applied on the right of the seed dual psi^dag g0 Xi).
The two pictures are related by Delta = g0 Omega g0 Xi and constrained by

    Delta^dag g0 = g0 Delta        (Delta picture)
    Omega^dag = Xi g0 Omega g0 Xi  (Omega picture)

Everything is parameterized by an on-shell kinematic point (m, p, theta, phi),
whose energy E = sqrt(p^2 + m^2) is derived, never read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .weyl import VALIDATION_TOL, _dagger, _g0_left, _g0_right, _invertible

ELEMENT_NAMES = ("G", "F", "FG", "XiDagger", "GXiDagger", "H", "Hinv")


class KinematicsError(ValueError):
    """Invalid kinematic data."""


class SingularParameterError(KinematicsError):
    """A kinematic parameter sits at a singular value for the requested element."""


class InvalidOperatorError(ValueError):
    """A matrix fails the Delta or Omega validity condition."""


class KinematicPoint(NamedTuple("KinematicPoint", [("m", float), ("p", float), ("theta", float),
                                                   ("phi", float), ("E", float)])):
    """On-shell kinematics (m, p, theta, phi) with the energy E = sqrt(p^2 + m^2)
    derived at construction.  All parameters, the energy and m^4 must be finite.
    """

    __slots__ = ()

    def __new__(cls, m, p, theta, phi):
        given = super().__new__(cls, m, p, theta, phi, None)
        if not all(map(math.isfinite, given[:4])):
            raise KinematicsError(f"kinematics must be finite, got {given}")
        if not m > 0:
            raise KinematicsError(f"mass must be positive, got {m}")
        if p < 0:
            raise KinematicsError(f"momentum must be nonnegative, got {p}")
        energy = math.sqrt(p * p + m * m)
        if not math.isfinite(energy):
            raise KinematicsError(f"energy sqrt(p^2+m^2) overflows at p={p}")
        try:
            math.pow(m, 4)  # raises where the m ** 4 of the operator terms does
        except OverflowError:
            raise KinematicsError(f"m^4 at m={m} is outside the representable range") from None
        return super().__new__(cls, m, p, theta, phi, energy)

    _make = classmethod(lambda cls, values: cls(*list(values)[:4]))  # _replace derives E again
    __getnewargs__ = lambda self: self[:4]  # so copy and pickle derive it too

    def as_dict(self) -> dict:
        return {
            "mass": self.m,
            "momentum": self.p,
            "theta": self.theta,
            "phi": self.phi,
            "energy": self.E,
        }


def _drawn(rng, n) -> list:
    """The terms of ``n`` generic on-shell points with O(1) parameters, drawn in
    one call and bit for bit as ``n`` draws of m, p, theta and phi in turn."""
    low, high = (0.5, 0.5, 0.05, 0.0), (2.0, 2.0, math.pi - 0.05, 2.0 * math.pi)
    # Python floats, not numpy's: m ** 4 differs between them in the last bit
    return [_row_terms(*row) for row in rng.uniform(low, high, (n, 4)).tolist()]


# -- Xi ----------------------------------------------------------------------


def _terms(k) -> tuple:
    """What the operator formulas read off a point: m, p, E, s, c = sin,
    cos theta, ep = e^{-i phi} and m^4.  Terms already taken pass through."""
    if not isinstance(k, KinematicPoint):
        return k
    return _row_terms(k.m, k.p, k.theta, k.phi)


def _row_terms(m, p, theta, phi) -> tuple:
    E = math.sqrt(p * p + m * m)  # the bits of KinematicPoint.E
    return m, p, E, math.sin(theta), math.cos(theta), complex(math.cos(phi), -math.sin(phi)), m ** 4


def _stacked_terms(points) -> tuple:
    """The terms of a sequence of points, each an (n, 1, 1) array that
    broadcasts over a stack of matrices.  They are taken point by point
    with math, so each row has the bits of its single point."""
    return tuple(np.array(v).reshape(-1, 1, 1) for v in zip(*map(_terms, points)))


def _matrix(rows, m) -> np.ndarray:
    """Complex 4x4 matrix from its rows, or a stack of them when the mass
    ``m`` is an (n, 1, 1) array of stacked terms."""
    if not isinstance(m, np.ndarray):
        return np.array(rows, dtype=complex)
    out = np.empty(m.shape + (16,), dtype=complex)
    for i, e in enumerate(e for row in rows for e in row):
        out[..., i] = e
    return out.reshape(-1, 4, 4)


def xi_dagger(k: KinematicPoint) -> np.ndarray:
    """Closed form of Xi^dagger; block diagonal, entries linear in E, p."""
    m, p, E, s, c, ep, _ = _terms(k)
    em = ep.conjugate()
    return (-1j / m) * _matrix([
        [p * s, ep * (E - p * c), 0, 0],
        [-em * (E + p * c), -p * s, 0, 0],
        [0, 0, -p * s, ep * (E + p * c)],
        [0, 0, -em * (E - p * c), p * s],
    ], m)


def xi(k: KinematicPoint) -> np.ndarray:
    """Xi itself, reconstructed as the conjugate transpose of Xi^dagger.

    On shell it is an involution: Xi @ Xi = I.
    """
    return _dagger(xi_dagger(k))


# -- the named operator family ------------------------------------------------


def named_operator(name: str, k: KinematicPoint) -> np.ndarray:
    """Operator built from its defining expression in gamma0 and Xi.

    G    : (m/2E) {g0, Xi}            anticommutator
    F    : (m/2p) [g0, Xi]            commutator; singular at p = 0
    FG   : (m^2/4Ep) [Xi^dag, Xi]     equals F @ G; singular at p = 0
    XiDagger  : g0 Xi g0
    GXiDagger : (m/2E (Xi^dag Xi + I)) g0
    H    : m^2 Xi Xi^dag
    Hinv : m^-2 Xi^dag Xi             inverse of H
    """
    t = _terms(k)
    x = xi(t)
    return _named(name, t, x, _dagger(x))


def _named_operators(k):
    """(name, operator) at a point or (stacked) terms, one at a time, from one Xi
    and the two products the family shares, Xi^dag Xi and Xi Xi^dag, each formed once."""
    t = _terms(k)
    x = xi(t)
    xd = _dagger(x)
    xdx, xxd = xd @ x, x @ xd
    return ((name, _named(name, t, x, xd, xdx, xxd)) for name in ELEMENT_NAMES)


def _named(name: str, t: tuple, x: np.ndarray, xd: np.ndarray, xdx=None, xxd=None) -> np.ndarray:
    """:func:`named_operator` from terms ``t``, Xi, Xi^dag, and Xi^dag Xi, Xi Xi^dag if given."""
    m, p, E = t[:3]
    xdx = xd @ x if xdx is None and name in ("FG", "GXiDagger", "Hinv") else xdx
    xxd = x @ xd if xxd is None and name in ("FG", "H") else xxd
    if name == "G":
        return (m / (2 * E)) * (_g0_left(x) + _g0_right(x))
    if name == "F":
        _require_momentum(p)
        return (m / (2 * p)) * (_g0_left(x) - _g0_right(x))
    if name == "FG":
        _require_momentum(p)
        return (m * m / (4 * E * p)) * (xdx - xxd)
    if name == "XiDagger":
        return _g0_right(_g0_left(x))
    if name == "GXiDagger":
        return _g0_right((m / (2 * E)) * (xdx + np.eye(4)))
    if name == "H":
        return m * m * xxd
    if name == "Hinv":
        return xdx / (m * m)
    raise ValueError(f"unknown operator name {name!r}; choose from {ELEMENT_NAMES}")


def closed_form(name: str, k: KinematicPoint) -> np.ndarray:
    """Independent closed-form matrix for each named operator.

    These are written out entrywise (no gamma0/Xi algebra) and serve as the
    cross-check targets for :func:`named_operator`.  Two normalizations are
    pinned by algebraic constraints rather than taken at face value: F
    carries a factor i so that F @ F = I (required for the Klein-group
    multiplication tables and for Omega validity), and Hinv carries m^-4 so
    that H @ Hinv = I.
    """
    m, p, E, s, c, ep, m4 = t = _terms(k)
    em = ep.conjugate()
    if name == "G":
        return _matrix([
            [0, 0, 0, -1j * ep],
            [0, 0, 1j * em, 0],
            [0, -1j * ep, 0, 0],
            [1j * em, 0, 0, 0],
        ], m)
    if name == "F":
        _require_momentum(p)
        return 1j * _matrix([
            [0, 0, -s, ep * c],
            [0, 0, em * c, s],
            [s, -ep * c, 0, 0],
            [-em * c, -s, 0, 0],
        ], m)
    if name == "FG":
        return closed_form("F", t) @ closed_form("G", t)
    if name == "XiDagger":
        return xi_dagger(t)
    if name == "GXiDagger":
        return closed_form("G", t) @ closed_form("XiDagger", t)
    if name in ("H", "Hinv"):
        a = E * E + 2 * p * c * E + p * p
        b = E * E - 2 * p * c * E + p * p
        f = 2 * E * p * s
        if name == "Hinv":  # H with a and b swapped and ep, em negated, over m^4
            a, b, ep, em = b, a, -ep, -em
        h = _matrix([
            [a, ep * f, 0, 0],
            [em * f, b, 0, 0],
            [0, 0, b, -ep * f],
            [0, 0, -em * f, a],
        ], m)
        return h if name == "H" else h / m4
    raise ValueError(f"unknown operator name {name!r}; choose from {ELEMENT_NAMES}")


def _require_momentum(p):
    if np.any(p == 0):
        raise SingularParameterError("F and FG are singular at p = 0")


# -- validity ------------------------------------------------------------------


class OperatorValidation(NamedTuple):
    """Outcome of a Delta/Omega validity check; truthy when it passed.  Of a
    stack, ``ok``, ``residual`` and ``det`` hold one entry per matrix."""

    kind: str
    ok: bool
    residual: float
    det: complex
    tolerance: float

    def __bool__(self) -> bool:
        return self.ok

    def require(self) -> None:
        """Raise :class:`InvalidOperatorError` unless the check passed; for a
        stack, name the first matrix that failed."""
        if np.all(self.ok):
            return
        i = int(np.argmin(np.ravel(self.ok)))
        raise InvalidOperatorError(
            f"not a valid {self.kind.capitalize()}: constraint residual"
            f" {np.ravel(self.residual)[i]:.3e} (tolerance {self.tolerance:.1e}),"
            f" |det| = {abs(np.ravel(self.det)[i]):.3e}"
        )


def _max_entry(m: np.ndarray):
    """Largest entry modulus of a matrix, or an array of them for a stack."""
    worst = abs(m).max(axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


def _validation(kind: str, m: np.ndarray, residual, tol: float, det=None) -> OperatorValidation:
    """Pass when the residual is within ``tol`` and m (its det ``det`` if given) is invertible."""
    det = np.linalg.det(m) if det is None else det
    ok = (residual <= tol) & _invertible(det)
    if det.ndim == 0:
        det, ok = complex(det), bool(ok)
    return OperatorValidation(kind, ok, residual, det, tol)


def validate_delta(m: np.ndarray) -> OperatorValidation:
    """Check Delta^dag g0 = g0 Delta and det != 0, of a matrix or a stack."""
    return _delta_validation(np.asarray(m, dtype=complex))


def _delta_validation(m: np.ndarray, det=None) -> OperatorValidation:  # of a complex m
    residual = _max_entry(_g0_right(_dagger(m)) - _g0_left(m))
    return _validation("delta", m, residual, VALIDATION_TOL, det)


def omega_residual(m: np.ndarray, x: np.ndarray):
    """Max entry of Omega^dag - Xi g0 Omega g0 Xi, given the matrix Xi; an
    array of them for a stack of Omegas."""
    return _max_entry(_dagger(m) - _g0_right(_g0_right(x) @ m) @ x)


def validate_omega(
    m: np.ndarray, k: KinematicPoint, tol: float = VALIDATION_TOL
) -> OperatorValidation:
    """Check Omega^dag = Xi g0 Omega g0 Xi and det != 0."""
    m = np.asarray(m, dtype=complex)
    return _validation("omega", m, omega_residual(m, xi(k)), tol)


# -- Delta <-> Omega -----------------------------------------------------------
#
# det g0 = det Xi = 1 by construction, so both conversions keep det.


def delta_to_omega(m: np.ndarray, k: KinematicPoint) -> np.ndarray:
    """Omega = g0 Delta Xi g0; inverse of Delta = g0 Omega g0 Xi."""
    return _to_omega(m, xi(k))


def _to_delta(m, x) -> np.ndarray:  # the conversions given the matrix Xi
    return _g0_right(_g0_left(np.asarray(m, dtype=complex))) @ x


def _to_omega(m, x) -> np.ndarray:
    return _g0_right(_g0_left(np.asarray(m, dtype=complex)) @ x)


# -- random Delta and block structure -------------------------------------------


#: where each real and imaginary part of a random Delta comes from: an index
#: into the 16 draws u, into -u (16-31) or the zero at 32
_DELTA_SLOTS = np.array([
    [(0, 4), (1, 5), (10, 32), (8, 9)],
    [(2, 6), (3, 7), (8, 25), (11, 32)],
    [(14, 32), (12, 13), (0, 20), (2, 22)],
    [(12, 29), (15, 32), (1, 21), (3, 23)],
])


def _delta_from(u: np.ndarray) -> np.ndarray:
    """The Delta that :func:`random_delta` builds from 16 draws, for each
    row of draws (..., 16)."""
    values = np.concatenate([u, -u, np.zeros(u.shape[:-1] + (1,))], axis=-1)
    return np.take(values, _DELTA_SLOTS, axis=-1).view(complex)[..., 0]


def random_delta(seed) -> np.ndarray:
    """Random invertible Delta from the block pattern [[A, B], [C, A^dag]].

    A is an arbitrary complex 2x2 block (8 real parameters), B and C are
    Hermitian (4 each), all entries uniform in [-1, 1]; 16 real degrees of
    freedom total.  Each attempt draws its 16 numbers at once, in the order
    Re A, Im A, then for B and for C the off-diagonal real part, the
    off-diagonal imaginary part and the two diagonal entries.  Resamples
    until the determinant is nonzero.
    """
    rng = np.random.default_rng(seed)
    while True:
        delta = _delta_from(rng.uniform(-1, 1, 16))
        if _invertible(np.linalg.det(delta)):
            return delta


class DeltaBlocks(NamedTuple):
    """The three independent blocks of a valid Delta."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def hermiticity_residual(self):
        """Largest entry of B - B^dag and C - C^dag; per Delta for stacked blocks."""
        return _max_entry(np.concatenate(
            [self.B - _dagger(self.B), self.C - _dagger(self.C)], axis=-1))


def block_decompose(delta: np.ndarray) -> DeltaBlocks:
    """Extract (A, B, C) from a valid Delta, or stacked blocks from a stack;
    rejects invalid input."""
    validate_delta(delta).require()
    return _split_delta(np.asarray(delta, dtype=complex))


def _split_delta(delta: np.ndarray) -> DeltaBlocks:  # of a Delta already validated
    return DeltaBlocks(A=delta[..., :2, :2].copy(), B=delta[..., :2, 2:].copy(),
                       C=delta[..., 2:, :2].copy())


# -- the dual map -----------------------------------------------------------------


def dual_of(
    psi: np.ndarray, omega: np.ndarray, k: KinematicPoint,
    *, check: OperatorValidation | None = None,
) -> np.ndarray:
    """Dual spinor psi^dag g0 Xi Omega for a valid Omega: a complex row of 4
    entries, which pairs with a column spinor phi as ``dual @ phi``.

    ``check`` is the caller's validation of ``omega`` when it already has
    one; ``validate_omega(omega, k)`` is computed otherwise.  An invalid Omega
    raises InvalidOperatorError, and a psi whose dual overflows OverflowError.
    """
    if check is None:
        check = validate_omega(omega, k)
    check.require()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite dual is refused below
        dual = _g0_right(np.asarray(psi, dtype=complex).reshape(4).conj()) @ xi(k) @ omega
    if not np.isfinite(dual).all():
        raise OverflowError("psi is too large: its dual overflows")
    return dual
