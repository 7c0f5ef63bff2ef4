"""Core multivector arithmetic: products, grades, involutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab.multivector import (
    BLADE_COUNT,
    GRADE,
    METRIC,
    Multivector,
    basis_blade,
    blade,
    blade_key,
    coefficient_distance,
    gamma,
    gamma5_chiral,
    grade_projection,
    hermitian_basis,
    hermitian_blade,
    hermitian_coefficients,
    involution,
    mask_from_key,
    pseudoscalar,
    random_multivector,
    scalar,
)

ONE = scalar(1)


def rational_multivectors():
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=8
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=BLADE_COUNT - 1), coeff, max_size=6
    ).map(Multivector)


def test_signature_is_spacetime():
    assert (METRIC.count(1), METRIC.count(-1)) == (1, 3)
    assert METRIC == (1, -1, -1, -1)


def test_generator_squares():
    assert gamma(1) * gamma(1) == scalar(-1)
    assert gamma(0) * gamma(0) == ONE
    for mu in range(4):
        assert gamma(mu) * gamma(mu) == scalar(METRIC[mu])


def test_orthogonal_generators_give_bivector():
    assert gamma(0) * gamma(1) == basis_blade(0b0011)


def test_idempotent_style_expansion():
    x = ONE + gamma(0)
    assert x * x == scalar(2) + 2 * gamma(0)


def test_clifford_relation_all_pairs_exact():
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) * gamma(nu) + gamma(nu) * gamma(mu)
            expected = scalar(2 * METRIC[mu]) if mu == nu else Multivector()
            assert anti == expected


@settings(max_examples=60, deadline=None)
@given(rational_multivectors(), rational_multivectors(), rational_multivectors())
def test_associativity_exact_rational(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(rational_multivectors(), rational_multivectors(), rational_multivectors())
def test_bilinearity_exact_rational(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_associativity_float():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = (random_multivector(rng) for _ in range(3))
        assert coefficient_distance((a * b) * c, a * (b * c)) < 1e-12


def test_grade_projection_examples():
    x = ONE + gamma(0) + basis_blade(0b0011)
    assert grade_projection(x, 1) == gamma(0)
    assert grade_projection(pseudoscalar(), 4) == pseudoscalar()
    assert grade_projection(pseudoscalar(), 2) == Multivector()


def test_grade_projection_range_rejected():
    with pytest.raises(ValueError):
        grade_projection(ONE, 5)
    with pytest.raises(ValueError):
        grade_projection(ONE, -1)


def test_grade_projections_decompose_and_are_orthogonal():
    rng = np.random.default_rng(1)
    x = random_multivector(rng)
    parts = [grade_projection(x, k) for k in range(5)]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert coefficient_distance(total, x) == 0
    for k in range(5):
        assert grade_projection(parts[k], k) == parts[k]
        for j in range(5):
            if j != k:
                assert grade_projection(parts[k], j) == Multivector()


def test_involution_examples():
    assert involution("reversion", basis_blade(0b0011)) == -1 * basis_blade(0b0011)
    assert involution("grade", gamma(2)) == -1 * gamma(2)
    assert involution("clifford_conj", pseudoscalar()) == pseudoscalar()
    assert involution("complex_conj", scalar(1j)) == scalar(-1j)


def test_involutions_square_to_identity():
    rng = np.random.default_rng(2)
    for kind in ("grade", "reversion", "clifford_conj", "complex_conj"):
        for _ in range(20):
            x = random_multivector(rng)
            assert coefficient_distance(
                involution(kind, involution(kind, x)), x
            ) == 0


def test_involution_grade_signs():
    for mask in range(BLADE_COUNT):
        k = GRADE[mask]
        b = basis_blade(mask)
        assert involution("grade", b) == (-1) ** k * b
        assert involution("reversion", b) == (-1) ** (k * (k - 1) // 2) * b


@settings(max_examples=60, deadline=None)
@given(rational_multivectors(), rational_multivectors())
def test_reversion_is_antiautomorphism(a, b):
    lhs = involution("reversion", a * b)
    rhs = involution("reversion", b) * involution("reversion", a)
    assert lhs == rhs


def test_unknown_involution_rejected():
    with pytest.raises(ValueError):
        involution("transpose", ONE)


def pseudoscalar_square_sign(p, q):
    # Independent sign oracle for the square of the volume element.
    n = p + q
    return (-1) ** (q + n * (n - 1) // 2)


def test_pseudoscalar_square_matches_sign_oracle():
    want = pseudoscalar_square_sign(1, 3)
    assert pseudoscalar() * pseudoscalar() == scalar(want)
    assert want == -1


def test_chiral_element_squares_to_plus_one():
    assert gamma5_chiral() * gamma5_chiral() == ONE
    assert grade_projection(gamma5_chiral(), 4) == gamma5_chiral()


def test_blade_constructor_absorbs_reordering_sign():
    assert blade((1, 0)) == -1 * basis_blade(0b0011)
    assert blade((0, 1, 2, 3)) == pseudoscalar()
    assert blade((1, 1)) == scalar(-1)


def test_blade_keys_roundtrip():
    for mask in range(BLADE_COUNT):
        assert mask_from_key(blade_key(mask)) == mask
    with pytest.raises(ValueError):
        mask_from_key("10")
    with pytest.raises(ValueError):
        mask_from_key("5")


def test_hermitian_blades_fixed_by_hermitian_conjugation():
    for mask in range(BLADE_COUNT):
        hb = hermitian_blade(mask)
        assert hb.hermitian_conjugate() == hb


def test_plain_bivector_flips_under_hermitian_conjugation():
    e12 = basis_blade(0b0110)
    assert e12.hermitian_conjugate() == -1 * e12


def test_hermitian_coefficient_roundtrip():
    rng = np.random.default_rng(3)
    x = random_multivector(rng)
    coeffs = hermitian_coefficients(x)
    rebuilt = Multivector()
    for mask, c in enumerate(coeffs):
        rebuilt = rebuilt + c * hermitian_blade(mask)
    assert coefficient_distance(rebuilt, x) < 1e-15
    assert len(hermitian_basis()) == BLADE_COUNT


def test_random_real_multivector_has_real_coefficients():
    rng = np.random.default_rng(4)
    x = random_multivector(rng, real=True)
    assert all(complex(v).imag == 0 for _, v in x.items())
    h = random_multivector(rng, hermitian=True)
    assert all(abs(c.imag) < 1e-15 for c in hermitian_coefficients(h))
