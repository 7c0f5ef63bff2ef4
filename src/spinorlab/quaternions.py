"""Quaternionic 2x2 matrices and the embeddings H -> M2(C), GL(2,H) -> GL(4,C).

A quaternion a + b i + c j + d k is its components (a, b, c, d) on the last
axis of a real array; a QuatMatrix2 holds four of them, or a stack of such
matrices, and multiplies only a QuatMatrix2.  Also provides the quaternionic
2x2 representation of real Cl(1,3) multivectors (the algebra is isomorphic to
M2(H)) and the upper-block complex image of the even subalgebra (isomorphic
to M2(C)).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .multivector import BLADE_COUNT, DIMENSION, GRADE, Multivector, _index
from .weyl import ZERO_TOL, _invertible, _matrices, _modulus, weyl_gamma


def _hamilton(a1, b1, c1, d1, a2, b2, c2, d2) -> tuple:
    """Components of the Hamilton product; numbers or equal-shape arrays."""
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


#: q = (a, b, c, d) -> [[a+ib, c+id], [-c+id, a-ib]]: the (real, imaginary)
#: part of each entry as an index into (a, b, c, d, -a, -b, -c, -d)
_M2C_SLOTS = np.array([[(0, 1), (2, 3)], [(6, 3), (0, 5)]])


def _m2c(q: np.ndarray) -> np.ndarray:
    """Complex 2x2 images (..., 2, 2) of quaternion components (..., 4)."""
    values = np.concatenate([q, -q], axis=-1)
    return np.take(values, _M2C_SLOTS, axis=-1).view(complex)[..., 0]


class QuatMatrix2:
    """2x2 quaternionic matrix, or a stack of them: one real array ``q`` of
    shape (..., 2, 2, 4), entry (i, j) holding its components a, b, c, d."""

    __slots__ = ("q",)

    def __init__(self, q):
        """A read-only float copy of the real components ``q``, of shape (..., 2, 2, 4)."""
        q = np.asarray(q)
        if q.dtype.kind not in "biuf":
            raise ValueError(f"QuatMatrix2 needs real components, got dtype {q.dtype}")
        q = q.astype(float)
        if q.shape[-3:] != (2, 2, 4):
            raise ValueError(f"QuatMatrix2 needs components (..., 2, 2, 4), got {q.shape}")
        q.flags.writeable = False
        self.q = q

    @classmethod
    def _of(cls, q: np.ndarray) -> "QuatMatrix2":
        """Wrap a component array, made read-only: a matrix is a value."""
        out = object.__new__(cls)
        out.q = q.view()
        out.q.flags.writeable = False
        return out

    @classmethod
    def identity(cls) -> "QuatMatrix2":
        return cls._of(_FIXED[0])

    def __add__(self, other: "QuatMatrix2") -> "QuatMatrix2":
        return QuatMatrix2._of(self.q + other.q)

    def __mul__(self, other):
        if isinstance(other, QuatMatrix2):
            # t[..., i, k, j] = q_ik q'_kj; entry (i, j) sums it over k
            t = np.stack(_hamilton(*np.moveaxis(self.q[..., :, :, None, :], -1, 0),
                                   *np.moveaxis(other.q[..., None, :, :, :], -1, 0)), axis=-1)
            return QuatMatrix2._of(t[..., 0, :, :] + t[..., 1, :, :])
        return NotImplemented

    def __repr__(self) -> str:
        return f"QuatMatrix2({self.q.tolist()!r})"


def gl2h_embed(a: QuatMatrix2) -> np.ndarray:
    """Blockwise complex image of a quaternionic matrix, or of each matrix
    of a stack; multiplicative."""
    blocks = _m2c(a.q)  # (..., i, j, r, c) -> rows 2i + r, columns 2j + c
    return np.swapaxes(blocks, -3, -2).reshape(a.q.shape[:-3] + (4, 4))


# The conjugate-pair constraints of the embedded pattern: each odd row is
# determined by the row above it, m[r, c] = sign * conj(m[r - 1, c ^ 1]) with
# sign -1 in even columns and +1 in odd ones.
_ROWS, _COLS = np.repeat([1, 3], 4), np.tile(np.arange(4), 2)
_SIGNS = np.where(_COLS % 2, 1, -1)


class PatternReport(NamedTuple):
    """Pattern verdict; for a stack of matrices ``matches`` and ``residual``
    are arrays with one entry per matrix."""

    matches: bool
    residual: float

    def __bool__(self) -> bool:
        return self.matches


def is_quaternionic_pattern(m: np.ndarray) -> PatternReport:
    """Check the eight conjugate-pair constraints of the GL(2,H) image."""
    m = np.asarray(m, dtype=complex)
    first, second = m[..., _ROWS, _COLS], m[..., _ROWS - 1, _COLS ^ 1]
    residual = _modulus(first - _SIGNS * second.conj()).max(axis=-1)
    if residual.ndim == 0:
        residual = float(residual)
    return PatternReport(residual <= ZERO_TOL, residual)


@lru_cache(maxsize=1)
def pattern_dof() -> int:
    """Real dimension of the pattern's solution space: 32 minus constraint rank
    (16, the real dimension of M2(H))."""
    # entry (r, c) has real part at 2*(4r+c), imaginary part one after it;
    # row i asks re1 = sign re2, row 8 + i asks im1 = -sign im2
    first, second = 2 * (4 * _ROWS + _COLS), 2 * (4 * (_ROWS - 1) + (_COLS ^ 1))
    rows, i = np.zeros((16, 32)), np.arange(8)
    rows[i, first], rows[i, second] = 1.0, -_SIGNS
    rows[8 + i, first + 1], rows[8 + i, second + 1] = 1.0, _SIGNS
    return 32 - int(np.linalg.matrix_rank(rows))


# -- the quaternionic picture of real Cl(1,3) ------------------------------------
#
# The identity, then the generator images g0 -> diag(1, -1), g1/g2/g3 ->
# offdiag(i/j/k).  These satisfy the Clifford relations exactly over H, which
# the test suite checks pair by pair.

_ONE, _I, _J, _K = np.eye(4)
_ZERO = np.zeros(4)
_FIXED = np.array([
    [[_ONE, _ZERO], [_ZERO, _ONE]],
    [[_ONE, _ZERO], [_ZERO, -_ONE]],
    [[_ZERO, _I], [_I, _ZERO]],
    [[_ZERO, _J], [_J, _ZERO]],
    [[_ZERO, _K], [_K, _ZERO]],
])
_FIXED.flags.writeable = False


def quaternionic_gamma(mu: int) -> QuatMatrix2:
    return QuatMatrix2._of(_FIXED[1 + _index(mu, "gamma index", DIMENSION)])


@lru_cache(maxsize=1)
def _image_components() -> np.ndarray:
    """Row per blade: the 16 real components (q11 a..d, q12, q21, q22) of its image."""
    images = [QuatMatrix2.identity()]
    for mask in range(1, BLADE_COUNT):  # the blade without its last generator, times that one
        top = mask.bit_length() - 1
        images.append(images[mask ^ 1 << top] * quaternionic_gamma(top))
    return np.array([image.q.ravel() for image in images])


def mv_to_m2h(x: Multivector) -> QuatMatrix2:
    """Quaternionic 2x2 image of a real multivector; rejects complex input."""
    c = x._c.astype(complex, copy=False)
    imaginary = np.flatnonzero(abs(c.imag) > ZERO_TOL)
    if imaginary.size:
        mask = int(imaginary[0])
        raise ValueError(
            f"mv_to_m2h needs real coefficients; blade {mask} has {x.coefficient(mask)}"
        )
    return _m2h(c.real)


def _m2h(c: np.ndarray) -> QuatMatrix2:
    """Quaternionic images of real coefficient arrays (..., 16), as one stack."""
    return QuatMatrix2._of((c @ _image_components()).reshape(c.shape[:-1] + (2, 2, 4)))


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
    return _even_block(x._c.astype(complex, copy=False)).copy()


def _even_block(c: np.ndarray) -> np.ndarray:
    """Upper-left 2x2 blocks of the Weyl images of coefficient arrays (..., 16)."""
    return _matrices(c)[..., :2, :2]


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
    if not _invertible(np.linalg.det(s)):
        raise RuntimeError("intertwiner candidate is singular")
    return s
