"""Quaternionic matrices and the embedding chain H -> M2(C) -> M4(C)."""

import re

import numpy as np
import pytest

from spinorlab.multivector import Multivector, gamma, random_multivector, scalar
from spinorlab.quaternions import (
    QuatMatrix2,
    even_to_m2c,
    gl2h_embed,
    intertwiner,
    is_quaternionic_pattern,
    mv_to_m2h,
    pattern_dof,
    quaternionic_gamma,
)
from spinorlab.quaternions import _m2c
from spinorlab.weyl import to_matrix

# Independent oracle: the Hamilton multiplication table on {1, i, j, k}.
HAMILTON = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}
SLOT = {"1": 0, "i": 1, "j": 2, "k": 3}  # a unit's place in the components (a, b, c, d)
UNITS = dict(zip(SLOT, np.eye(4)))
ZERO = np.zeros(4)


def hamilton(p, q) -> np.ndarray:
    """The Hamilton product of components (a, b, c, d), term by term from HAMILTON.  Each
    component adds its terms in the order that ``QuatMatrix2``'s product does, so that the
    two agree bit for bit."""
    out = [0.0] * 4
    for (x, y), (sign, z) in HAMILTON.items():
        out[SLOT[z]] += sign * p[SLOT[x]] * q[SLOT[y]]
    return np.array(out)


def matrix(q11, q12, q21, q22) -> QuatMatrix2:
    return QuatMatrix2([[q11, q12], [q21, q22]])


def test_diagonal_products_follow_the_hamilton_table():
    for (na, nb), (sign, nc) in HAMILTON.items():
        sign_ba, nd = HAMILTON[nb, na]
        a, b = matrix(UNITS[na], ZERO, ZERO, UNITS[nb]), matrix(UNITS[nb], ZERO, ZERO, UNITS[na])
        want = matrix(sign * UNITS[nc], ZERO, ZERO, sign_ba * UNITS[nd])
        assert np.array_equal((a * b).q, want.q), (na, nb)


@pytest.mark.parametrize("shape", [(2, 4), (3, 2, 4)])
def test_a_quat_matrix_refuses_components_of_another_shape(shape):
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        QuatMatrix2(np.zeros(shape))


def test_a_quat_matrix_keeps_its_own_copy_of_the_components():
    components = np.arange(32.0).reshape(2, 2, 2, 4)
    m = QuatMatrix2(components)
    components[0, 0, 0, 0] = 99.0
    assert np.array_equal(m.q, np.arange(32.0).reshape(2, 2, 2, 4))
    with pytest.raises(ValueError):
        m.q[0, 0, 0, 0] = 99.0


def test_quaternionic_gamma0_keeps_its_signed_zeros():
    # its lower-right entry is -1 as the negated unit: (-1, -0, -0, -0)
    assert np.signbit(quaternionic_gamma(0).q[1, 1]).all()
    assert not np.signbit(quaternionic_gamma(0).q[:, 0]).any()


def m2c(q) -> np.ndarray:
    """The complex 2x2 block that gl2h_embed makes of one quaternion."""
    return _m2c(np.asarray(q, dtype=float))


def test_m2c_units():
    assert np.array_equal(m2c(UNITS["1"]), np.eye(2))
    assert np.array_equal(m2c(UNITS["i"]), np.diag([1j, -1j]))
    assert np.array_equal(m2c(UNITS["j"]), np.array([[0, 1], [-1, 0]], dtype=complex))


def test_m2c_is_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(-1, 1, 4)
        b = rng.uniform(-1, 1, 4)
        lhs = m2c(hamilton(a, b))
        rhs = m2c(a) @ m2c(b)
        assert abs(lhs - rhs).max() < 1e-14
        assert abs(m2c(a + b) - (m2c(a) + m2c(b))).max() == 0


def rand_qmat(rng) -> QuatMatrix2:
    return QuatMatrix2(rng.uniform(-1, 1, (2, 2, 4)))


def test_gl2h_embed_identity_and_diagonal():
    assert np.array_equal(gl2h_embed(QuatMatrix2.identity()), np.eye(4))
    embedded = gl2h_embed(matrix(UNITS["i"], ZERO, ZERO, UNITS["1"]))
    assert np.array_equal(embedded, np.diag([1j, -1j, 1, 1]))


def test_gl2h_embed_is_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rand_qmat(rng), rand_qmat(rng)
        lhs = gl2h_embed(a * b)
        rhs = gl2h_embed(a) @ gl2h_embed(b)
        assert abs(lhs - rhs).max() < 1e-10


def test_pattern_recognizes_embeddings():
    rng = np.random.default_rng(2)
    for _ in range(100):
        assert is_quaternionic_pattern(gl2h_embed(rand_qmat(rng)))


def test_pattern_rejects_generic_matrices():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        assert not is_quaternionic_pattern(m)


def test_pattern_dof_is_sixteen():
    assert pattern_dof() == 16


def test_quaternionic_gamma0():
    assert np.array_equal(quaternionic_gamma(0).q, [[UNITS["1"], ZERO], [ZERO, -UNITS["1"]]])


def test_quaternionic_clifford_relations_exact():
    eta = (1.0, -1.0, -1.0, -1.0)
    for mu in range(4):
        for nu in range(4):
            gm, gn = quaternionic_gamma(mu), quaternionic_gamma(nu)
            anti = gm * gn + gn * gm
            want = QuatMatrix2.identity().q * (2.0 * eta[mu] if mu == nu else 0.0)
            assert np.array_equal(anti.q, want)


def test_mv_to_m2h_gamma1_squares_to_minus_identity():
    square = (mv_to_m2h(gamma(1)) * mv_to_m2h(gamma(1))).q
    assert np.array_equal(square, -QuatMatrix2.identity().q)


def test_mv_to_m2h_is_homomorphism():
    # Oracle: the Clifford product computed upstream of the map.
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = random_multivector(rng, real=True)
        y = random_multivector(rng, real=True)
        lhs = mv_to_m2h(x * y)
        rhs = mv_to_m2h(x) * mv_to_m2h(y)
        assert abs(lhs.q - rhs.q).max() <= 1e-10


def test_mv_to_m2h_rejects_complex_input():
    with pytest.raises(ValueError):
        mv_to_m2h(scalar(1j))


def test_mv_to_m2h_is_bijective():
    # The 16 blade images must be linearly independent over the reals.
    from spinorlab.quaternions import _image_components

    rows = _image_components()
    assert np.linalg.matrix_rank(np.array(rows)) == 16


def test_invertibility_transport():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = random_multivector(rng, real=True)
        lhs = abs(np.linalg.det(to_matrix(x))) > 1e-12
        rhs = abs(np.linalg.det(gl2h_embed(mv_to_m2h(x)))) > 1e-12
        assert lhs == rhs
    zero_divisor = scalar(1) + gamma(0)
    assert abs(np.linalg.det(to_matrix(zero_divisor))) < 1e-12
    assert abs(np.linalg.det(gl2h_embed(mv_to_m2h(zero_divisor)))) < 1e-12


def test_even_to_m2c_examples():
    assert np.array_equal(even_to_m2c(scalar(1)), np.eye(2))
    # Weyl block oracle: gamma1 gamma2 has upper block -i sigma3.
    from spinorlab.multivector import blade

    assert abs(even_to_m2c(blade((1, 2))) - np.diag([-1j, 1j])).max() < 1e-14


def test_even_to_m2c_is_multiplicative():
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = random_multivector(rng, real=True, grades=(0, 2, 4))
        y = random_multivector(rng, real=True, grades=(0, 2, 4))
        lhs = even_to_m2c(x * y)
        rhs = even_to_m2c(x) @ even_to_m2c(y)
        assert abs(lhs - rhs).max() < 1e-10


def test_even_to_m2c_rejects_odd_and_complex():
    with pytest.raises(ValueError):
        even_to_m2c(gamma(0))
    with pytest.raises(ValueError):
        even_to_m2c(scalar(1j))


def test_even_map_is_injective():
    # 8x8 real coefficient map from the even basis to M2(C).
    from spinorlab.multivector import GRADE

    cols = []
    for mask in range(16):
        if GRADE[mask] % 2 == 0:
            block = even_to_m2c(Multivector({mask: 1}))
            cols.append(np.concatenate([block.ravel().real, block.ravel().imag]))
    m8 = np.array(cols).T
    assert m8.shape == (8, 8)
    assert abs(m8 @ np.linalg.inv(m8) - np.eye(8)).max() <= 1e-12


def test_intertwiner_relates_the_two_representations():
    s = intertwiner()
    s_inv = np.linalg.inv(s)
    for mask in range(16):
        x = Multivector({mask: 1})
        lhs = s @ gl2h_embed(mv_to_m2h(x)) @ s_inv
        assert abs(lhs - to_matrix(x)).max() < 1e-9
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = random_multivector(rng, real=True)
        lhs = s @ gl2h_embed(mv_to_m2h(x)) @ s_inv
        assert abs(lhs - to_matrix(x)).max() < 1e-9


def test_quaternionic_gamma_refuses_an_out_of_range_index():
    with pytest.raises(ValueError, match="gamma index 4 out of range"):
        quaternionic_gamma(4)
