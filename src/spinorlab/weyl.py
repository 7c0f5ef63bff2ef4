"""Weyl (chiral) representation: the isomorphism C ⊗ Cl(1,3) ≅ M4(C).

Block placement puts sigma^mu in the upper-right corner,
``gamma^mu = [[0, sigma^mu], [sigmabar^mu, 0]]`` with sigma^mu = (I, s)
and sigmabar^mu = (I, -s).  This is the placement for which the chiral
element i*e0123 maps to diag(-1, -1, 1, 1).  gamma0 = [[0, I], [I, 0]] is
applied as the block swap it is, by index: the bits of a product for finite
entries, but an overflowed entry stays inf where a product gave NaN.
"""

from __future__ import annotations

import numpy as np

from .multivector import (
    BLADE_COUNT,
    DIMENSION,
    Multivector,
    _index,
    gamma,
)

_Z2 = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _build_gammas() -> tuple[np.ndarray, ...]:
    mats = [np.block([[_Z2, _I2], [_I2, _Z2]])]
    for s in _PAULI:
        mats.append(np.block([[_Z2, s], [-s, _Z2]]))
    return tuple(mats)


_GAMMAS = _build_gammas()


def weyl_gamma(mu: int) -> np.ndarray:
    """4x4 matrix of the generator gamma^mu, mu in 0..3."""
    return _GAMMAS[_index(mu, "gamma index", DIMENSION)].copy()


_BLADE_MATS = np.array([np.eye(4, dtype=complex)] * BLADE_COUNT)
for _mask in range(1, BLADE_COUNT):  # the blade without its last generator, times that one
    _top = _mask.bit_length() - 1
    _BLADE_MATS[_mask] = _BLADE_MATS[_mask ^ 1 << _top] @ _GAMMAS[_top]

# Every blade squares to +I or -I, so its inverse is itself up to that sign.
_BLADE_INV = _BLADE_MATS / (_BLADE_MATS @ _BLADE_MATS)[:, :1, :1].real

GAMMA0 = _GAMMAS[0]
_SWAP = np.array([2, 3, 0, 1])  # GAMMA0 as a permutation: it swaps the two chiral blocks

# -- every threshold of the package, named once; other modules import them from here --
DET_TOL = 1e-12  #: |det| of a 4x4 operator at or below which it is singular
ONSHELL_TOL = 1e-12  #: |E - sqrt(p^2 + m^2)| of a given energy, per unit of max(1, E)
VALIDATION_TOL = 1e-10  #: Delta or Omega constraint residual of a valid operator
ROUNDING_TOL = 1e-12  #: an O(1) identity residual or coefficient that is zero but for rounding
ZERO_TOL = 1e-10  #: pattern residual, imaginary part or off-grade content that counts as zero
COMMUTATOR_TOL = 1e-9  #: largest commutator entry for which two Omegas count as commuting
GROUP_TOL = 1e-9  #: max-entry distance at which two group elements, or two duals, are equal
DEDUP_TOL = 1e-8  #: a tenth of the max-entry distance at which generate_group merges products
KEY_ROUNDING = 1e-13  #: rounding of a group lookup key, per unit of the row's 1-norm
CONJUGATION_TOL = 1e-8  #: how far a Pin element's twisted conjugate of e_mu leaves grade 1
RANK_TOL = 1e-9  #: singular value at or below which a rank count drops a direction
INVOLUTION_TOL = 1e-10  #: residual of an adjoint-involution condition that still holds
UNIT_TOL = 1e-9  #: coefficient distance at which f·Cl·f units agree, or an adjoint candidate is 0
ANTICOMMUTATOR_TOL = 1e-8  #: distance of u v + v u from the ring scalars, for f·Cl·f units u, v
NULL_SPACE_RTOL = 1e-10  #: singular value, over the largest, below which a direction is null
IDENTITY_TOL = 1e-9  #: worst entry of a matrix identity through products, inverses or closed forms
PRODUCT_TOL = 1e-10  #: worst entry of a product rule or a beta residual over O(1) draws
PERTURBATION = 1e-6  #: imaginary part adjoint_fixed_points adds to a self-adjoint multivector
DETECTION_TOL = 1e-7  #: adjoint residual above which that perturbation counts as detected
NONCOMMUTING_TOL = 1e-6  #: Omega residual above which a non-commuting product is detected


def _modulus(z):
    """|z| of complex numbers, each as abs takes it of one number; numpy's
    abs of a complex array can differ from that in the last bit."""
    return np.hypot(np.real(z), np.imag(z))


def _invertible(det):
    """|det| > DET_TOL, of a determinant or each of an array of them: the one invertibility test."""
    return _modulus(det) > DET_TOL


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _g0_left(m: np.ndarray) -> np.ndarray:  # GAMMA0 @ m, of a matrix or a stack
    return m.take(_SWAP, axis=-2)


def _g0_right(m: np.ndarray) -> np.ndarray:  # m @ GAMMA0, of a matrix, a stack or a row
    return m.take(_SWAP, axis=-1)


# Row-vector forms: to_matrix is c @ _BLADE_ROWS, and since the coefficient
# of blade G_I is trace(M @ G_I^{-1}) / 4, from_matrix is _TRACE_DUAL @ vec(M).
# The stacked forms keep one vector-matrix product per row, so a stack gets
# the bits of the single multivector.
_BLADE_ROWS = _BLADE_MATS.reshape(BLADE_COUNT, 16)
_TRACE_DUAL = _BLADE_INV.transpose(0, 2, 1).reshape(BLADE_COUNT, 16) / 4
for _array in (_Z2, _I2, *_PAULI, *_GAMMAS, _SWAP, _BLADE_MATS, _BLADE_INV, _BLADE_ROWS,
               _TRACE_DUAL):
    _array.flags.writeable = False  # shared by every caller; GAMMA0 is _GAMMAS[0]


def _matrices(c: np.ndarray) -> np.ndarray:
    """Matrix images (..., 4, 4) of complex coefficient arrays (..., 16)."""
    if c.ndim == 1:
        return (c @ _BLADE_ROWS).reshape(4, 4)
    return (c[..., None, :] @ _BLADE_ROWS).reshape(c.shape[:-1] + (4, 4))


def _coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficient arrays (..., 16) of matrices (..., 4, 4); inverse of _matrices."""
    if m.ndim == 2:
        return _TRACE_DUAL @ m.ravel()
    return (_TRACE_DUAL @ m.reshape(m.shape[:-2] + (16, 1)))[..., 0]


def _dirac_dagger(c: np.ndarray) -> np.ndarray:
    """The gamma0-adjoint of complex coefficient arrays (..., 16), through matrices."""
    return _coefficients(_g0_right(_g0_left(_dagger(_matrices(c)))))


def to_matrix(a: Multivector) -> np.ndarray:
    """Matrix image of a multivector; an algebra homomorphism."""
    return _matrices(a._c.astype(complex, copy=False))


def from_matrix(m: np.ndarray) -> Multivector:
    """Inverse of :func:`to_matrix`.

    The coefficient of blade G_I is trace(M @ G_I^{-1}) / 4; the 16 blades
    are trace-orthogonal so the extraction is exact up to rounding.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return Multivector._of(_coefficients(m))


def dirac_dagger_dual(a: Multivector) -> Multivector:
    """The gamma0-adjoint a -> g0 M(a)^dagger g0 pulled back to the algebra.

    Coincides with ``involution("dirac_dagger", a)``; its fixed points are the
    real combinations of the self-adjoint basis blades.
    """
    return Multivector._of(_dirac_dagger(a._c.astype(complex, copy=False)))


def multivector_inverse(a: Multivector) -> Multivector:
    """Inverse under the geometric product, via the matrix representation."""
    m = to_matrix(a)
    if not _invertible(np.linalg.det(m)):
        raise ZeroDivisionError("multivector is not invertible")
    return Multivector._of(_coefficients(np.linalg.inv(m)))
