"""Quaternion arithmetic and the embedding chain H -> M2(C) -> M4(C)."""

import numpy as np
import pytest

from spinorlab.multivector import Multivector, gamma, random_multivector, scalar
from spinorlab.quaternions import (
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    QuatMatrix2,
    Quaternion,
    even_to_m2c,
    gl2h_embed,
    intertwiner,
    is_quaternionic_pattern,
    mv_to_m2h,
    pattern_dof,
    quat_to_m2c,
    quaternionic_gamma,
)
from spinorlab.weyl import to_matrix

# Independent oracle: the Hamilton multiplication table on {1, i, j, k}.
HAMILTON = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}
UNITS = {"1": Q_ONE, "i": Q_I, "j": Q_J, "k": Q_K}


def quat_close(a: Quaternion, b: Quaternion, tol=0.0) -> bool:
    return max(abs(x - y) for x, y in zip(a.as_list(), b.as_list())) <= tol


def test_unit_quaternion_products_match_hamilton_table():
    for (na, nb), (sign, nc) in HAMILTON.items():
        assert quat_close(UNITS[na] * UNITS[nb], sign * UNITS[nc])


def test_quat_to_m2c_units():
    assert np.array_equal(quat_to_m2c(Q_ONE), np.eye(2))
    assert np.array_equal(quat_to_m2c(Q_I), np.diag([1j, -1j]))
    assert np.array_equal(quat_to_m2c(Q_J), np.array([[0, 1], [-1, 0]], dtype=complex))


def test_quat_to_m2c_is_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = Quaternion(*rng.uniform(-1, 1, 4))
        b = Quaternion(*rng.uniform(-1, 1, 4))
        lhs = quat_to_m2c(a * b)
        rhs = quat_to_m2c(a) @ quat_to_m2c(b)
        assert abs(lhs - rhs).max() < 1e-14
        a_plus_b = Quaternion(*(x + y for x, y in zip(a.as_list(), b.as_list())))
        assert abs(quat_to_m2c(a_plus_b) - (quat_to_m2c(a) + quat_to_m2c(b))).max() == 0


def rand_qmat(rng) -> QuatMatrix2:
    q = lambda: Quaternion(*rng.uniform(-1, 1, 4))
    return QuatMatrix2(q(), q(), q(), q())


def test_gl2h_embed_identity_and_diagonal():
    assert np.array_equal(gl2h_embed(QuatMatrix2.identity()), np.eye(4))
    embedded = gl2h_embed(QuatMatrix2.diagonal(Q_I, Q_ONE))
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
    assert is_quaternionic_pattern(np.eye(4)).dof == 16


def test_quaternionic_gamma0():
    g0 = quaternionic_gamma(0)
    assert quat_close(g0.q11, Q_ONE) and quat_close(g0.q22, -1 * Q_ONE)
    assert quat_close(g0.q12, Quaternion()) and quat_close(g0.q21, Quaternion())


def test_quaternionic_clifford_relations_exact():
    eta = (1.0, -1.0, -1.0, -1.0)
    for mu in range(4):
        for nu in range(4):
            gm, gn = quaternionic_gamma(mu), quaternionic_gamma(nu)
            anti = gm * gn + gn * gm
            want = QuatMatrix2.identity() * (2.0 * eta[mu] if mu == nu else 0.0)
            for got, expected in zip(anti.entries(), want.entries()):
                assert quat_close(got, expected)


def test_mv_to_m2h_gamma1_squares_to_minus_identity():
    sq = mv_to_m2h(gamma(1)) * mv_to_m2h(gamma(1))
    assert quat_close(sq.q11, -1 * Q_ONE) and quat_close(sq.q22, -1 * Q_ONE)


def test_mv_to_m2h_is_homomorphism():
    # Oracle: the Clifford product computed upstream of the map.
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = random_multivector(rng, real=True)
        y = random_multivector(rng, real=True)
        lhs = mv_to_m2h(x * y)
        rhs = mv_to_m2h(x) * mv_to_m2h(y)
        for a, b in zip(lhs.entries(), rhs.entries()):
            assert quat_close(a, b, 1e-10)


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
