"""Quaternions and the embeddings H -> M2(C), GL(2,H) -> GL(4,C).

Also provides the quaternionic 2x2 representation of real Cl(1,3)
multivectors (the algebra is isomorphic to M2(H)) and the upper-block
complex image of the even subalgebra (isomorphic to M2(C)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multivector import BLADE_COUNT, DIMENSION, GRADE, Multivector
from .weyl import to_matrix, weyl_gamma

#: largest pattern residual, imaginary part or odd-grade content that
#: still counts as zero
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class Quaternion:
    """q = a + b i + c j + d k with real components."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            return Quaternion(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )
        return Quaternion(self.a * other, self.b * other,
                          self.c * other, self.d * other)

    def __rmul__(self, other) -> "Quaternion":
        return Quaternion(other * self.a, other * self.b,
                          other * self.c, other * self.d)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> float:
        return self.a**2 + self.b**2 + self.c**2 + self.d**2

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conjugate() * (1.0 / n)

    def as_list(self) -> list:
        return [self.a, self.b, self.c, self.d]


Q_ZERO = Quaternion()
Q_ONE = Quaternion(1.0)
Q_I = Quaternion(0.0, 1.0)
Q_J = Quaternion(0.0, 0.0, 1.0)
Q_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def quat_to_m2c(q: Quaternion) -> np.ndarray:
    """Standard embedding q -> [[a+ib, c+id], [-c+id, a-ib]]."""
    return np.array(
        [
            [complex(q.a, q.b), complex(q.c, q.d)],
            [complex(-q.c, q.d), complex(q.a, -q.b)],
        ]
    )


@dataclass(frozen=True)
class QuatMatrix2:
    """2x2 quaternionic matrix."""

    q11: Quaternion
    q12: Quaternion
    q21: Quaternion
    q22: Quaternion

    @classmethod
    def identity(cls) -> "QuatMatrix2":
        return cls(Q_ONE, Q_ZERO, Q_ZERO, Q_ONE)

    @classmethod
    def diagonal(cls, q1: Quaternion, q2: Quaternion) -> "QuatMatrix2":
        return cls(q1, Q_ZERO, Q_ZERO, q2)

    def __add__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2(self.q11 + other.q11, self.q12 + other.q12,
                           self.q21 + other.q21, self.q22 + other.q22)

    def __mul__(self, other):
        if isinstance(other, QuatMatrix2):
            return QuatMatrix2(
                self.q11 * other.q11 + self.q12 * other.q21,
                self.q11 * other.q12 + self.q12 * other.q22,
                self.q21 * other.q11 + self.q22 * other.q21,
                self.q21 * other.q12 + self.q22 * other.q22,
            )
        return QuatMatrix2(self.q11 * other, self.q12 * other,
                           self.q21 * other, self.q22 * other)

    def __rmul__(self, other) -> "QuatMatrix2":
        return QuatMatrix2(other * self.q11, other * self.q12,
                           other * self.q21, other * self.q22)

    def entries(self) -> tuple:
        return (self.q11, self.q12, self.q21, self.q22)


def gl2h_embed(a: QuatMatrix2) -> np.ndarray:
    """Blockwise complex image of a quaternionic matrix; multiplicative."""
    m = np.zeros((4, 4), dtype=complex)
    m[0:2, 0:2] = quat_to_m2c(a.q11)
    m[0:2, 2:4] = quat_to_m2c(a.q12)
    m[2:4, 0:2] = quat_to_m2c(a.q21)
    m[2:4, 2:4] = quat_to_m2c(a.q22)
    return m


# The conjugate-pair constraints of the embedded pattern: each odd row is
# determined by the row above it.
_PATTERN_PAIRS = (
    ((1, 0), (0, 1), -1),
    ((1, 1), (0, 0), +1),
    ((1, 2), (0, 3), -1),
    ((1, 3), (0, 2), +1),
    ((3, 0), (2, 1), -1),
    ((3, 1), (2, 0), +1),
    ((3, 2), (2, 3), -1),
    ((3, 3), (2, 2), +1),
)


@dataclass(frozen=True)
class PatternReport:
    matches: bool
    residual: float
    dof: int

    def __bool__(self) -> bool:
        return self.matches


def is_quaternionic_pattern(m: np.ndarray) -> PatternReport:
    """Check the eight conjugate-pair constraints of the GL(2,H) image.

    ``dof`` is the real dimension of the constraint solution space,
    computed once from the rank of the constraint system (it is 16,
    matching the real dimension of M2(H)).
    """
    m = np.asarray(m, dtype=complex)
    residual = 0.0
    for (r1, c1), (r2, c2), sign in _PATTERN_PAIRS:
        residual = max(residual, float(abs(m[r1, c1] - sign * m[r2, c2].conjugate())))
    return PatternReport(residual <= ZERO_TOL, residual, pattern_dof())


@lru_cache(maxsize=1)
def pattern_dof() -> int:
    """Real dimension of the pattern's solution space: 32 minus constraint rank."""
    rows = []
    for (r1, c1), (r2, c2), sign in _PATTERN_PAIRS:
        # entry (r, c) has real part at 2*(4r+c), imaginary at 2*(4r+c)+1
        re1, im1 = 2 * (4 * r1 + c1), 2 * (4 * r1 + c1) + 1
        re2, im2 = 2 * (4 * r2 + c2), 2 * (4 * r2 + c2) + 1
        row_re = np.zeros(32)
        row_re[re1] = 1.0
        row_re[re2] = -sign
        row_im = np.zeros(32)
        row_im[im1] = 1.0
        row_im[im2] = sign
        rows.extend([row_re, row_im])
    rank = np.linalg.matrix_rank(np.array(rows))
    return 32 - int(rank)


# -- the quaternionic picture of real Cl(1,3) ------------------------------------
#
# Generator images: g0 -> diag(1, -1), g1/g2/g3 -> offdiag(i/j/k).  These
# satisfy the Clifford relations exactly over H, which the test suite checks
# pair by pair.

_GENERATOR_IMAGES = (
    QuatMatrix2.diagonal(Q_ONE, -Q_ONE),
    QuatMatrix2(Q_ZERO, Q_I, Q_I, Q_ZERO),
    QuatMatrix2(Q_ZERO, Q_J, Q_J, Q_ZERO),
    QuatMatrix2(Q_ZERO, Q_K, Q_K, Q_ZERO),
)


def quaternionic_gamma(mu: int) -> QuatMatrix2:
    if mu not in range(DIMENSION):
        raise ValueError(f"gamma index {mu} out of range")
    return _GENERATOR_IMAGES[mu]


@lru_cache(maxsize=1)
def _blade_images() -> tuple:
    images = []
    for mask in range(BLADE_COUNT):
        m = QuatMatrix2.identity()
        for mu in range(DIMENSION):
            if mask & (1 << mu):
                m = m * _GENERATOR_IMAGES[mu]
        images.append(m)
    return tuple(images)


@lru_cache(maxsize=1)
def _image_components() -> np.ndarray:
    """Row per blade: the 16 real components (q11 a..d, q12, q21, q22) of its image."""
    return np.array([[v for q in image.entries() for v in q.as_list()]
                     for image in _blade_images()])


def mv_to_m2h(x: Multivector) -> QuatMatrix2:
    """Quaternionic 2x2 image of a real multivector; rejects complex input."""
    c = x._c.astype(complex, copy=False)
    imaginary = np.flatnonzero(abs(c.imag) > ZERO_TOL)
    if imaginary.size:
        mask = int(imaginary[0])
        raise ValueError(
            f"mv_to_m2h needs real coefficients; blade {mask} has {x.coefficient(mask)}"
        )
    parts = (c.real @ _image_components()).reshape(4, 4).tolist()
    return QuatMatrix2(*(Quaternion(*q) for q in parts))


def even_to_m2c(x: Multivector) -> np.ndarray:
    """Upper-left 2x2 block of the Weyl image of an even real multivector.

    Even elements are block diagonal in the Weyl representation, and the
    upper block alone is a faithful image of the even subalgebra.
    """
    for mask, value in x.items():
        if GRADE[mask] & 1 and abs(value) > ZERO_TOL:
            raise ValueError(f"even_to_m2c needs an even multivector; got grade "
                             f"{GRADE[mask]} content {value}")
        if abs(complex(value).imag) > ZERO_TOL:
            raise ValueError(
                f"even_to_m2c needs real coefficients; blade {mask} has {value}"
            )
    return to_matrix(x)[0:2, 0:2].copy()


@lru_cache(maxsize=1)
def intertwiner() -> np.ndarray:
    """Change of basis S with S · embed(mv_to_m2h(x)) · S^-1 = to_matrix(x).

    Solved once from the intertwining equations on the generators; both maps
    are faithful irreducible representations, so S exists and is unique up
    to scale.
    """
    blocks = []
    for mu in range(DIMENSION):
        a = gl2h_embed(quaternionic_gamma(mu))
        b = weyl_gamma(mu)
        # S a = b S  <=>  (a^T ⊗ I - I ⊗ b) vec(S) = 0 (column-major vec)
        blocks.append(np.kron(a.T, np.eye(4)) - np.kron(np.eye(4), b))
    system = np.vstack(blocks)
    _, sv, vh = np.linalg.svd(system)
    if sv[-1] > np.finfo(float).eps * max(system.shape) * sv[0]:
        raise RuntimeError("no intertwiner found; representations inequivalent")
    s = vh[-1].conj().reshape((4, 4), order="F")
    if abs(np.linalg.det(s)) < 1e-10:
        raise RuntimeError("intertwiner candidate is singular")
    return s
