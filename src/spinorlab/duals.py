"""Momentum-dependent dual machinery: Xi, Delta, Omega and the dual map.

A dual operator can be carried either as Delta (the freedom in h = g0*Delta)
or as Omega (the mapping applied on the right of the seed dual psi^dag g0 Xi).
The two pictures are related by Delta = g0 Omega g0 Xi and constrained by

    Delta^dag g0 = g0 Delta        (Delta picture)
    Omega^dag = Xi g0 Omega g0 Xi  (Omega picture)

Everything is parameterized by an on-shell kinematic point (m, p, theta, phi)
with E = sqrt(p^2 + m^2) always recomputed, never trusted from input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weyl import DET_TOL, GAMMA0

ONSHELL_TOL = 1e-12
VALIDATION_TOL = 1e-10

ELEMENT_NAMES = ("G", "F", "FG", "XiDagger", "GXiDagger", "H", "Hinv")


class KinematicsError(ValueError):
    """Invalid or off-shell kinematic data."""


class SingularParameterError(ValueError):
    """A kinematic parameter sits at a singular value for the requested element."""


class InvalidOperatorError(ValueError):
    """A matrix fails the Delta or Omega validity condition."""


@dataclass(frozen=True)
class KinematicPoint:
    """On-shell kinematics (m, p, theta, phi) with derived energy E.

    E is computed from m and p at construction; supplying an explicit E is
    only a cross-check and must agree with sqrt(p^2 + m^2) to 1e-12.  All
    parameters and the energy must be finite.
    """

    m: float
    p: float
    theta: float
    phi: float
    E: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m, self.p, self.theta, self.phi))):
            raise KinematicsError(f"kinematics must be finite, got {self}")
        if not self.m > 0:
            raise KinematicsError(f"mass must be positive, got {self.m}")
        if self.p < 0:
            raise KinematicsError(f"momentum must be nonnegative, got {self.p}")
        energy = math.sqrt(self.p * self.p + self.m * self.m)
        if not math.isfinite(energy):
            raise KinematicsError(f"energy sqrt(p^2+m^2) overflows at p={self.p}")
        tol = ONSHELL_TOL * max(1.0, energy)
        if self.E is not None and not abs(self.E - energy) <= tol:  # NaN E fails
            raise KinematicsError(
                f"off-shell kinematics: E={self.E} but sqrt(p^2+m^2)={energy}"
            )
        object.__setattr__(self, "E", energy)

    def as_dict(self) -> dict:
        return {
            "mass": self.m,
            "momentum": self.p,
            "theta": self.theta,
            "phi": self.phi,
            "energy": self.E,
        }


def random_kinematics(rng) -> KinematicPoint:
    """Generic on-shell point with O(1) parameters."""
    return KinematicPoint(
        m=rng.uniform(0.5, 2.0),
        p=rng.uniform(0.5, 2.0),
        theta=rng.uniform(0.05, math.pi - 0.05),
        phi=rng.uniform(0.0, 2.0 * math.pi),
    )


# -- Xi ----------------------------------------------------------------------


def xi_dagger(k: KinematicPoint) -> np.ndarray:
    """Closed form of Xi^dagger; block diagonal, entries linear in E, p."""
    s, c = math.sin(k.theta), math.cos(k.theta)
    ep, em = complex(math.cos(k.phi), -math.sin(k.phi)), complex(
        math.cos(k.phi), math.sin(k.phi)
    )
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = k.p * s
    m[0, 1] = ep * (k.E - k.p * c)
    m[1, 0] = -em * (k.E + k.p * c)
    m[1, 1] = -k.p * s
    m[2, 2] = -k.p * s
    m[2, 3] = ep * (k.E + k.p * c)
    m[3, 2] = -em * (k.E - k.p * c)
    m[3, 3] = k.p * s
    return (-1j / k.m) * m


def xi(k: KinematicPoint) -> np.ndarray:
    """Xi itself, reconstructed as the conjugate transpose of Xi^dagger.

    On shell it is an involution: Xi @ Xi = I.
    """
    return xi_dagger(k).conj().T


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
    x = xi(k)
    xd = x.conj().T
    g0 = GAMMA0
    if name == "G":
        return (k.m / (2 * k.E)) * (g0 @ x + x @ g0)
    if name == "F":
        _require_momentum(k)
        return (k.m / (2 * k.p)) * (g0 @ x - x @ g0)
    if name == "FG":
        _require_momentum(k)
        return (k.m * k.m / (4 * k.E * k.p)) * (xd @ x - x @ xd)
    if name == "XiDagger":
        return g0 @ x @ g0
    if name == "GXiDagger":
        return (k.m / (2 * k.E)) * (xd @ x + np.eye(4)) @ g0
    if name == "H":
        return k.m * k.m * (x @ xd)
    if name == "Hinv":
        return (xd @ x) / (k.m * k.m)
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
    s, c = math.sin(k.theta), math.cos(k.theta)
    ep = complex(math.cos(k.phi), -math.sin(k.phi))
    em = ep.conjugate()
    if name == "G":
        return np.array(
            [
                [0, 0, 0, -1j * ep],
                [0, 0, 1j * em, 0],
                [0, -1j * ep, 0, 0],
                [1j * em, 0, 0, 0],
            ],
            dtype=complex,
        )
    if name == "F":
        _require_momentum(k)
        return 1j * np.array(
            [
                [0, 0, -s, ep * c],
                [0, 0, em * c, s],
                [s, -ep * c, 0, 0],
                [-em * c, -s, 0, 0],
            ],
            dtype=complex,
        )
    if name == "FG":
        return closed_form("F", k) @ closed_form("G", k)
    if name == "XiDagger":
        return xi_dagger(k)
    if name == "GXiDagger":
        return closed_form("G", k) @ closed_form("XiDagger", k)
    if name in ("H", "Hinv"):
        a = k.E * k.E + 2 * k.p * c * k.E + k.p * k.p
        b = k.E * k.E - 2 * k.p * c * k.E + k.p * k.p
        f = 2 * k.E * k.p * s
        if name == "H":
            return np.array(
                [
                    [a, ep * f, 0, 0],
                    [em * f, b, 0, 0],
                    [0, 0, b, -ep * f],
                    [0, 0, -em * f, a],
                ],
                dtype=complex,
            )
        return np.array(
            [
                [b, -ep * f, 0, 0],
                [-em * f, a, 0, 0],
                [0, 0, a, ep * f],
                [0, 0, em * f, b],
            ],
            dtype=complex,
        ) / k.m**4
    raise ValueError(f"unknown operator name {name!r}; choose from {ELEMENT_NAMES}")


def _require_momentum(k: KinematicPoint):
    if k.p == 0:
        raise SingularParameterError("F and FG are singular at p = 0")


# -- validity ------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorValidation:
    """Outcome of a Delta/Omega validity check; truthy when it passed."""

    kind: str
    ok: bool
    residual: float
    det: complex
    tolerance: float

    def __bool__(self) -> bool:
        return self.ok

    def require(self) -> None:
        """Raise :class:`InvalidOperatorError` unless the check passed."""
        if not self.ok:
            raise InvalidOperatorError(
                f"not a valid {self.kind.capitalize()}: constraint residual"
                f" {self.residual:.3e} (tolerance {self.tolerance:.1e}),"
                f" |det| = {abs(self.det):.3e}"
            )


def _validation(kind: str, m: np.ndarray, residual: float, tol: float) -> OperatorValidation:
    """Pass when the constraint residual is within ``tol`` and m is invertible."""
    det = complex(np.linalg.det(m))
    return OperatorValidation(kind, residual <= tol and abs(det) > DET_TOL, residual, det, tol)


def validate_delta(m: np.ndarray) -> OperatorValidation:
    """Check Delta^dag g0 = g0 Delta and det != 0."""
    m = np.asarray(m, dtype=complex)
    residual = float(abs(m.conj().T @ GAMMA0 - GAMMA0 @ m).max())
    return _validation("delta", m, residual, VALIDATION_TOL)


def omega_residual(m: np.ndarray, x: np.ndarray) -> float:
    """Max entry of Omega^dag - Xi g0 Omega g0 Xi, given the matrix Xi."""
    return float(abs(m.conj().T - x @ GAMMA0 @ m @ GAMMA0 @ x).max())


def validate_omega(
    m: np.ndarray, k: KinematicPoint, tol: float = VALIDATION_TOL
) -> OperatorValidation:
    """Check Omega^dag = Xi g0 Omega g0 Xi and det != 0."""
    m = np.asarray(m, dtype=complex)
    return _validation("omega", m, omega_residual(m, xi(k)), tol)


# -- Delta <-> Omega -----------------------------------------------------------
#
# det g0 = det Xi = 1 by construction, so both conversions keep det.


def omega_to_delta(m: np.ndarray, k: KinematicPoint) -> np.ndarray:
    """Delta = g0 Omega g0 Xi."""
    return GAMMA0 @ np.asarray(m, dtype=complex) @ GAMMA0 @ xi(k)


def delta_to_omega(m: np.ndarray, k: KinematicPoint) -> np.ndarray:
    """Omega = g0 Delta Xi g0; inverse of :func:`omega_to_delta`."""
    return GAMMA0 @ np.asarray(m, dtype=complex) @ xi(k) @ GAMMA0


# -- random Delta and block structure -------------------------------------------


def random_delta(seed) -> np.ndarray:
    """Random invertible Delta from the block pattern [[A, B], [C, A^dag]].

    A is an arbitrary complex 2x2 block (8 real parameters), B and C are
    Hermitian (4 each), all entries uniform in [-1, 1]; 16 real degrees of
    freedom total.  Each attempt draws its 16 numbers at once, in the order
    Re A, Im A, then for B and for C the off-diagonal real part, the
    off-diagonal imaginary part and the two diagonal entries.  Resamples
    until the determinant is nonzero.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    while True:
        u = rng.uniform(-1, 1, 16)
        delta = np.empty((4, 4), dtype=complex)
        delta[:2, :2] = (u[:4] + 1j * u[4:8]).reshape(2, 2)
        delta[2:, 2:] = delta[:2, :2].conj().T
        for rows, cols, (re, im, d0, d1) in ((0, 2, u[8:12]), (2, 0, u[12:])):
            off = complex(re, im)
            delta[rows:rows + 2, cols:cols + 2] = [[d0, off], [off.conjugate(), d1]]
        if abs(np.linalg.det(delta)) > DET_TOL:
            return delta


@dataclass(frozen=True)
class DeltaBlocks:
    """The three independent blocks of a valid Delta."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def reassemble(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.C, self.A.conj().T]])

    def hermiticity_residual(self) -> float:
        rb = abs(self.B - self.B.conj().T).max()
        rc = abs(self.C - self.C.conj().T).max()
        return float(max(rb, rc))

    def degrees_of_freedom(self) -> dict:
        return {"A": 8, "B": 4, "C": 4, "total": 16}


def block_decompose(delta: np.ndarray) -> DeltaBlocks:
    """Extract (A, B, C) from a valid Delta; rejects invalid input."""
    validate_delta(delta).require()
    delta = np.asarray(delta, dtype=complex)
    return DeltaBlocks(
        A=delta[:2, :2].copy(), B=delta[:2, 2:].copy(), C=delta[2:, :2].copy()
    )


# -- the dual map -----------------------------------------------------------------


@dataclass(frozen=True)
class DualSpinor:
    """Row covector pairing with column spinors."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex).reshape(4)
        object.__setattr__(self, "components", c)

    def pair(self, psi: np.ndarray) -> complex:
        return complex(self.components @ np.asarray(psi, dtype=complex).reshape(4))


def dual_of(
    psi: np.ndarray, omega: np.ndarray, k: KinematicPoint,
    tol: float = VALIDATION_TOL, *, check: OperatorValidation | None = None,
) -> DualSpinor:
    """Dual spinor psi^dag g0 Xi Omega for a valid Omega.

    ``check`` is the ``validate_omega(omega, k, tol)`` result when the
    caller already has it; it is computed otherwise.
    """
    if check is None:
        check = validate_omega(omega, k, tol)
    check.require()
    row = np.asarray(psi, dtype=complex).reshape(4).conj() @ GAMMA0 @ xi(k) @ omega
    return DualSpinor(row)
