"""The matrix representation: gamma matrices, the isomorphism, the adjoint."""

import numpy as np
import pytest

from spinorlab.multivector import (
    BLADE_COUNT,
    Multivector,
    blade,
    coefficient_distance,
    gamma,
    hermitian_blade,
    random_multivector,
    scalar,
)
from spinorlab.weyl import (
    GAMMA0,
    _SWAP,
    _coefficients,
    _dagger,
    _dirac_dagger,
    _g0_left,
    _g0_right,
    _matrices,
    dirac_dagger_dual,
    from_matrix,
    multivector_inverse,
    to_matrix,
    weyl_gamma,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
SIGMA3 = np.diag([1.0, -1.0])


def hermitian_coefficients(x):
    """Coefficients of x in the self-adjoint basis of the hermitian blades."""
    return [x.coefficient(m) / hermitian_blade(m).coefficient(m) for m in range(BLADE_COUNT)]


def test_weyl_gamma0_entries():
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.array_equal(weyl_gamma(0), expected)


def test_weyl_gamma3_pauli_blocks():
    g3 = weyl_gamma(3)
    assert np.array_equal(g3[0:2, 2:4], SIGMA3)
    assert np.array_equal(g3[2:4, 0:2], -SIGMA3)
    assert np.array_equal(g3[0:2, 0:2], np.zeros((2, 2)))


def test_gamma0_squares_to_identity():
    assert np.array_equal(weyl_gamma(0) @ weyl_gamma(0), np.eye(4))


def test_invalid_index_rejected():
    with pytest.raises(ValueError):
        weyl_gamma(4)


def test_anticommutation_all_pairs_exact():
    for mu in range(4):
        for nu in range(4):
            anti = weyl_gamma(mu) @ weyl_gamma(nu) + weyl_gamma(nu) @ weyl_gamma(mu)
            assert np.array_equal(anti, 2 * ETA[mu, nu] * np.eye(4))


def test_to_matrix_identity_and_chiral():
    assert np.array_equal(to_matrix(scalar(1)), np.eye(4))
    assert np.array_equal(
        to_matrix(1j * blade((0, 1, 2, 3))), np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
    )


def test_to_matrix_homomorphism_on_blade():
    assert np.array_equal(
        to_matrix(gamma(0) * gamma(1)), weyl_gamma(0) @ weyl_gamma(1)
    )


def test_to_matrix_homomorphism_random_pairs():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        a = random_multivector(rng)
        b = random_multivector(rng)
        worst = max(worst, abs(to_matrix(a * b) - to_matrix(a) @ to_matrix(b)).max())
    assert worst < 1e-10


def test_blade_matrices_linearly_independent():
    # Gram matrix of trace pairings must be invertible (injectivity).
    gram = np.zeros((BLADE_COUNT, BLADE_COUNT), dtype=complex)
    mats = [to_matrix(Multivector({mask: 1})) for mask in range(BLADE_COUNT)]
    for i in range(BLADE_COUNT):
        for j in range(BLADE_COUNT):
            gram[i, j] = np.trace(mats[i].conj().T @ mats[j])
    assert abs(np.linalg.det(gram)) > 1.0


def test_from_matrix_basics():
    assert from_matrix(np.eye(4)) == scalar(1)
    assert from_matrix(weyl_gamma(2)) == gamma(2)


def test_from_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        from_matrix(np.eye(3))


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = random_multivector(rng)
        assert coefficient_distance(from_matrix(to_matrix(x)), x) < 1e-12


def test_dirac_dagger_dual_fixes_gamma1():
    # Oracle: direct matrix computation of g0 gamma1^dag g0.
    g1 = weyl_gamma(1)
    expected = from_matrix(GAMMA0 @ g1.conj().T @ GAMMA0)
    assert expected == gamma(1)
    assert dirac_dagger_dual(gamma(1)) == gamma(1)


def test_dirac_dagger_dual_conjugates_scalars():
    assert dirac_dagger_dual(scalar(1j)) == scalar(-1j)


def test_dirac_dagger_dual_matches_algebraic_route():
    # Independent route: reversion composed with complex conjugation.
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = random_multivector(rng)
        assert coefficient_distance(
            dirac_dagger_dual(x), x.reversion().complex_conjugate()
        ) < 1e-12


def test_dirac_dagger_dual_fixes_selfadjoint_basis_combinations():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = random_multivector(rng, hermitian=True)
        assert coefficient_distance(dirac_dagger_dual(x), x) < 1e-12


def test_fixed_point_equivalence():
    # fixed within 1e-12  <=>  self-adjoint coefficients real within 1e-12
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = random_multivector(rng)
        fixed = coefficient_distance(dirac_dagger_dual(x), x) <= 1e-12
        max_imag = max(abs(c.imag) for c in hermitian_coefficients(x))
        assert fixed == (max_imag <= 1e-12)
    for _ in range(50):
        x = random_multivector(rng, hermitian=True)
        assert coefficient_distance(dirac_dagger_dual(x), x) <= 1e-12
        assert max(abs(c.imag) for c in hermitian_coefficients(x)) <= 1e-12


def test_multivector_inverse():
    rng = np.random.default_rng(5)
    x = random_multivector(rng)
    xi = multivector_inverse(x)
    assert coefficient_distance(x * xi, scalar(1)) < 1e-10
    with pytest.raises(ZeroDivisionError):
        multivector_inverse(scalar(1) + gamma(0))


# -- gamma0 applied as a block swap ------------------------------------------------------


def random_finite(rng, shape):
    """Complex entries spread over 300 decades, so the swap meets large and tiny values."""
    return 10.0 ** rng.uniform(-150, 150, shape) * (rng.normal(size=shape)
                                                    + 1j * rng.normal(size=shape))


@pytest.mark.parametrize("shape", [(4, 4), (250, 4, 4)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_the_block_swap_has_the_bits_of_the_product_with_gamma0(shape, seed):
    m = random_finite(np.random.default_rng(seed), shape)
    assert np.array_equal(_g0_left(m), GAMMA0 @ m)
    assert np.array_equal(_g0_right(m), m @ GAMMA0)
    row = m[..., 0, :]  # a row (or rows), as dual_of applies gamma0 to psi^dag
    assert np.array_equal(_g0_right(row), row @ GAMMA0)


def test_the_swap_is_gamma0_in_this_representation():
    assert np.array_equal(GAMMA0, np.eye(4)[_SWAP])


def test_an_overflowed_entry_stays_inf_through_the_swap():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.inf
    assert _g0_left(m)[2, 0] == np.inf and _g0_right(m)[0, 2] == np.inf
    assert not np.isnan(_g0_left(m)).any()
    with np.errstate(invalid="ignore"):
        assert np.isnan(GAMMA0 @ m).any()  # inf * 0 in the product


def product_dirac_dagger(c):
    """The gamma0-adjoint through two products with GAMMA0: the reference for the swap."""
    return _coefficients(GAMMA0 @ _dagger(_matrices(c)) @ GAMMA0)


@pytest.mark.parametrize("n", [1, 250])
def test_the_dirac_dagger_keeps_the_bits_of_its_product_formula(n):
    c = random_finite(np.random.default_rng(n), (n, 16))
    assert np.array_equal(_dirac_dagger(c), product_dirac_dagger(c))
    assert np.array_equal(_dirac_dagger(c[0]), product_dirac_dagger(c[0]))
