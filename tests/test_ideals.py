"""Algebraic spinor spaces: idempotents, ideals, division rings, beta."""

from fractions import Fraction

import numpy as np
import pytest

from spinorlab.ideals import (
    ANTICOMMUTATOR_TOL,
    RANK_TOL,
    UNIT_TOL,
    Idempotent,
    InvolutionConditionError,
    beta_inner_product,
    canonical_idempotent,
    division_ring_identify,
    ideal_basis,
    ring_membership_residual,
    verify_involution_conditions,
)
from spinorlab.multivector import (
    BLADE_COUNT,
    Multivector,
    blade,
    coefficient_distance,
    gamma,
    involution,
    random_multivector,
    scalar,
)
from spinorlab import ideals
from spinorlab.ideals import _pure_units
from spinorlab.weyl import _BLADE_MATS, to_matrix

FC = canonical_idempotent("complex")
FR = canonical_idempotent("real")
EXACT_FR = Idempotent(Multivector({0: Fraction(1, 2), 1: Fraction(1, 2)}))
ONE = scalar(1)
BLADES = [Multivector({mask: 1}) for mask in range(BLADE_COUNT)]


def test_canonical_idempotents_are_idempotent():
    assert FC.value * FC.value == FC.value
    assert FR.value * FR.value == FR.value


@pytest.mark.parametrize("f", [FC, FR, EXACT_FR], ids=["complex", "real", "exact"])
def test_an_idempotent_keeps_the_residual_its_constructor_measured(f):
    want = coefficient_distance(f.value * f.value, f.value)
    assert (type(f.residual), repr(f.residual)) == (type(want), repr(want))  # bit for bit
    same = Idempotent(f.value)
    assert "residual" not in repr(f) and f == same and hash(f) == hash(same)


def test_complex_idempotent_has_rank_one():
    assert np.linalg.matrix_rank(to_matrix(FC.value), tol=1e-9) == 1


def test_real_idempotent_expands_to_half_one_plus_gamma0():
    assert FR.value == 0.5 * (ONE + gamma(0))


def test_idempotency_survives_matrix_representation():
    for f in (FC, FR):
        m = to_matrix(f.value)
        assert abs(m @ m - m).max() < 1e-12


def test_idempotent_constructor_rejects_non_idempotent():
    with pytest.raises(ValueError):
        Idempotent(gamma(1))
    with pytest.raises(ValueError):
        canonical_idempotent("split")


def test_idempotent_constructor_rejects_nan():
    # A NaN residual compares false against every bound; it must be refused
    # here, not reach division_ring_identify's SVD.
    with pytest.raises(ValueError, match="not idempotent: residual nan"):
        Idempotent(Multivector({0: float("nan")}))
    with pytest.raises(ValueError, match="not idempotent"):
        Idempotent(Multivector({0: 0.5, 1: float("nan")}))


def test_ideal_dimensions():
    assert ideal_basis(FC, "left", "complex").dimension == 4
    assert ideal_basis(FC, "right", "complex").dimension == 4
    assert ideal_basis(FR, "left", "real").dimension == 8


def test_ideal_generators_absorb_the_idempotent():
    for basis in (ideal_basis(FC, "left", "complex"), ideal_basis(FC, "right", "complex")):
        for g in basis.generators:
            prod = g * FC.value if basis.side == "left" else FC.value * g
            assert coefficient_distance(prod, g) < 1e-12


def test_left_ideal_closed_under_left_multiplication():
    rng = np.random.default_rng(0)
    basis = ideal_basis(FC, "left", "complex")
    span = np.array([g._c for g in basis.generators], dtype=complex).T
    for _ in range(25):
        a = random_multivector(rng)
        psi = random_multivector(rng) * FC.value
        target = (a * psi)._c
        coeffs, *_ = np.linalg.lstsq(span, target, rcond=None)
        assert abs(span @ coeffs - target).max() < 1e-9


def test_bad_side_or_scalars_rejected():
    with pytest.raises(ValueError):
        ideal_basis(FC, "middle")
    with pytest.raises(ValueError):
        ideal_basis(FC, "left", "rationals")


# -- division rings --------------------------------------------------------------


def test_complex_idempotent_ring_is_c():
    report = division_ring_identify(FC, "complex")
    assert report.name == "C"
    assert report.dimension == 1
    assert report.primitive


def test_real_idempotent_ring_is_h():
    # Oracle on top of dimension: the pure units square to -f and
    # anticommute, the signature of quaternions.
    report = division_ring_identify(FR, "real")
    assert report.name == "H"
    assert report.dimension == 4
    assert report.primitive and report.profile_ok


def test_unit_idempotent_is_not_primitive():
    report = division_ring_identify(Idempotent(ONE), "real")
    assert report.name == "not_division_ring"
    assert report.dimension == 16
    assert not report.primitive


# -- involution conditions --------------------------------------------------------


def test_involution_conditions_examples():
    assert verify_involution_conditions("reversion", ONE, FR)
    assert not verify_involution_conditions("grade", ONE, FR)
    assert verify_involution_conditions("reversion", gamma(0), FR)


def test_involution_conditions_need_invertible_h():
    with pytest.raises(ZeroDivisionError):
        verify_involution_conditions("reversion", ONE + gamma(0), FR)


def test_the_volume_element_is_adjoint_for_the_grade_involution():
    # e0123 anticommutes with every odd blade and is even, so conjugating by it
    # is the grade involution on both canonical idempotents; h = 1 is not.
    volume = blade((0, 1, 2, 3))
    for f in (FR, FC):
        assert verify_involution_conditions("grade", volume, f)
        assert not verify_involution_conditions("grade", ONE, f)


def test_one_and_gamma0_are_adjoint_for_the_dagger_on_the_complex_idempotent():
    assert verify_involution_conditions("dirac_dagger", ONE, FC)
    assert verify_involution_conditions("dirac_dagger", gamma(0), FC)


def test_no_blade_is_adjoint_for_the_reversion_on_the_complex_idempotent():
    # The reversion flips the j e12 part of the complex f, which no h commuting
    # with the rest of f can undo; the conditions must say so for every blade.
    assert not any(verify_involution_conditions("reversion", h, FC) for h in BLADES)
    assert verify_involution_conditions("reversion", ONE, FR)


def test_involution_dirac_dagger_is_reversion_plus_conjugation():
    rng = np.random.default_rng(1)
    x = random_multivector(rng)
    assert involution("dirac_dagger", x) == x.reversion().complex_conjugate()


# -- beta ----------------------------------------------------------------------------


def test_beta_on_the_idempotent_itself():
    # f^3 = f, so beta(f, f) with alpha = reversion and h = 1 is f again.
    b = beta_inner_product(FR.value, FR.value, "reversion", ONE, FR)
    assert coefficient_distance(b, FR.value) < 1e-14


def test_beta_zero_argument():
    b = beta_inner_product(Multivector(), FR.value, "reversion", ONE, FR)
    assert b == Multivector()


def test_beta_lands_in_the_scalar_ring():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = random_multivector(rng, real=True) * FR.value
        phi = random_multivector(rng, real=True) * FR.value
        b = beta_inner_product(psi, phi, "reversion", ONE, FR)
        assert ring_membership_residual(b, FR) < 1e-10


def test_beta_is_additive_in_both_arguments():
    rng = np.random.default_rng(3)
    psi1 = random_multivector(rng) * FR.value
    psi2 = random_multivector(rng) * FR.value
    phi1 = random_multivector(rng) * FR.value
    phi2 = random_multivector(rng) * FR.value
    lhs = beta_inner_product(psi1 + psi2, phi1, "reversion", ONE, FR)
    rhs = beta_inner_product(psi1, phi1, "reversion", ONE, FR) + beta_inner_product(
        psi2, phi1, "reversion", ONE, FR
    )
    assert coefficient_distance(lhs, rhs) < 1e-12
    lhs = beta_inner_product(psi1, phi1 + phi2, "reversion", ONE, FR)
    rhs = beta_inner_product(psi1, phi1, "reversion", ONE, FR) + beta_inner_product(
        psi1, phi2, "reversion", ONE, FR
    )
    assert coefficient_distance(lhs, rhs) < 1e-12


def test_beta_right_module_linearity():
    # Oracle: multiply phi by a ring scalar s in f Cl f on the right.
    rng = np.random.default_rng(4)
    psi = random_multivector(rng) * FR.value
    phi = random_multivector(rng) * FR.value
    s = FR.value * random_multivector(rng) * FR.value
    lhs = beta_inner_product(psi, phi * s, "reversion", ONE, FR)
    rhs = beta_inner_product(psi, phi, "reversion", ONE, FR) * s
    assert coefficient_distance(lhs, rhs) < 1e-10


def test_beta_with_gamma0_reduces_to_matrix_adjoint_product():
    # In the matrix picture, beta with alpha = h^-1 (.)^dag h and h = g0
    # is psi^dag h phi f.
    rng = np.random.default_rng(5)
    g0 = gamma(0)
    for _ in range(25):
        psi = random_multivector(rng) * FR.value
        phi = random_multivector(rng) * FR.value
        b = beta_inner_product(psi, phi, "dirac_dagger", g0, FR)
        matrix_side = (
            to_matrix(psi).conj().T
            @ to_matrix(g0)
            @ to_matrix(phi)
            @ to_matrix(FR.value)
        )
        assert abs(to_matrix(b) - matrix_side).max() < 1e-10


def test_beta_rejects_incompatible_involution():
    with pytest.raises(InvolutionConditionError) as err:
        beta_inner_product(FR.value, FR.value, "grade", ONE, FR)
    assert "alpha(f)" in str(err.value)


def test_beta_rejects_singular_h():
    with pytest.raises(InvolutionConditionError) as err:
        beta_inner_product(FR.value, FR.value, "reversion", ONE + gamma(0), FR)
    assert "invertible" in str(err.value)


def test_beta_rejects_asymmetric_h():
    # h = e01 satisfies the conjugation condition for the grade involution
    # but grade(e01) = e01 holds, so use reversion where rev(e01) = -e01.
    h = blade((0, 1))
    with pytest.raises(InvolutionConditionError) as err:
        beta_inner_product(FR.value, FR.value, "reversion", h, FR)
    assert "alpha(h)" in str(err.value) or "alpha(f)" in str(err.value)


# -- the stacked spans against blade-by-blade references ----------------------------


def ref_independent(vectors, scalars):
    """Greedy basis by one rank test per candidate against the kept rows."""
    kept, chosen = [], []
    for v in vectors:
        row = v._c.astype(complex)
        if scalars == "real":
            row = np.concatenate([row.real, row.imag])
        if np.linalg.matrix_rank(np.array(kept + [row]), tol=RANK_TOL) > len(kept):
            kept.append(row)
            chosen.append(v)
    return chosen


#: grade-by-grade sign of each involution, and whether it conjugates the coefficients
REF_INVOLUTIONS = {
    "grade": (lambda k: (-1) ** k, False),
    "reversion": (lambda k: (-1) ** (k * (k - 1) // 2), False),
    "clifford_conj": (lambda k: (-1) ** (k * (k + 1) // 2), False),
    "complex_conj": (lambda k: 1, True),
    "dirac_dagger": (lambda k: (-1) ** (k * (k - 1) // 2), True),
}


def ref_involution_conditions(kind, h, f):
    """alpha(f) = h^-1 f h and alpha(h) = h, with alpha applied blade by blade
    from its grade signs and h^-1 f h formed from 4x4 matrices."""
    sign, conj = REF_INVOLUTIONS[kind]

    def alpha(x):
        c = x._c.astype(complex)
        return np.array([sign(bin(m).count("1")) * (c[m].conjugate() if conj else c[m])
                         for m in range(BLADE_COUNT)])

    def matrix(c):
        return sum(v * b for v, b in zip(c, _BLADE_MATS))

    hm = matrix(h._c.astype(complex))
    conjugated = np.linalg.solve(hm, matrix(f.value._c.astype(complex)) @ hm)
    return (np.abs(matrix(alpha(f.value)) - conjugated).max() < 1e-9
            and np.abs(alpha(h) - h._c.astype(complex)).max() < 1e-9)


@pytest.mark.parametrize("kind", ["grade", "reversion", "clifford_conj", "complex_conj",
                                  "dirac_dagger"])
@pytest.mark.parametrize("f", [FC, FR, EXACT_FR], ids=["complex", "real", "exact"])
def test_involution_conditions_match_blade_by_blade_reference(f, kind):
    # Every blade is invertible, so each is a candidate h; so are the three sums,
    # whose inverses are not +-h.
    candidates = BLADES + [2 * ONE + gamma(0), 2 * ONE + blade((1, 2)),
                           3 * ONE + blade((0, 1)) + gamma(2)]
    got = [verify_involution_conditions(kind, h, f) for h in candidates]
    assert got == [ref_involution_conditions(kind, h, f) for h in candidates]


def assert_same_multivectors(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a._c.dtype == b._c.dtype and np.array_equal(a._c, b._c)


@pytest.mark.parametrize("scalars", ["complex", "real"])
@pytest.mark.parametrize("f", [FC, FR, EXACT_FR, Idempotent(ONE)],
                         ids=["complex", "real", "exact", "unit"])
def test_spans_match_blade_by_blade_references(f, scalars):
    for side in ("left", "right"):
        products = [b * f.value if side == "left" else f.value * b for b in BLADES]
        assert_same_multivectors(ideal_basis(f, side, scalars).generators,
                                 ref_independent(products, scalars))
    ring = division_ring_identify(f, scalars)
    assert_same_multivectors(ring.basis, ref_independent([f.value * b * f.value for b in BLADES],
                                                         scalars))


def test_exact_idempotent_keeps_exact_spans():
    generators = ideal_basis(EXACT_FR, "left", "real").generators
    ring = division_ring_identify(EXACT_FR, "real")
    assert (len(generators), ring.name, ring.dimension) == (8, "H", 4)
    assert all(g._c.dtype == object for g in generators + ring.basis)


# -- the unit profile against the object-by-object reference ------------------------


def ref_pure_units(f, basis):
    """_pure_units one Multivector at a time, reading each ring-scalar part
    as tr M(w) / tr M(f) from the Weyl matrices."""
    f_trace = complex(np.trace(to_matrix(f)))
    units, ok = [], True
    for w in basis:
        lam = complex(np.trace(to_matrix(w))) / f_trace
        pure = w - lam * f
        if pure.is_zero(UNIT_TOL):
            continue
        sq = pure * pure
        coeff = complex(np.trace(to_matrix(sq))) / f_trace
        if coefficient_distance(sq, coeff * f) > UNIT_TOL or coeff.real >= 0:
            ok = False
            continue
        units.append((1.0 / np.sqrt(-coeff.real)) * pure)
    for i, u in enumerate(units):
        for v in units[i + 1:]:
            anti = u * v + v * u
            lam = complex(np.trace(to_matrix(anti))) / f_trace
            if coefficient_distance(anti, lam * f) > ANTICOMMUTATOR_TOL:
                ok = False
    return units, ok


def ref_ring_identify(f, scalars):
    """(name, dimension, primitive, profile_ok, basis) from the object-by-object
    unit profile and the pairwise commutator scan."""
    basis = ref_independent([f.value * b * f.value for b in BLADES], scalars)
    dim = len(basis)
    if dim == 1:
        return "R" if scalars == "real" else "C", 1, True, True, basis
    if scalars == "complex" or dim not in (2, 4):
        return "not_division_ring", dim, False, False, basis
    units, ok = ref_pure_units(f.value, basis)
    if dim == 2:
        return "C", 2, True, ok, basis
    noncomm = any(coefficient_distance(u * v, v * u) > UNIT_TOL
                  for i, u in enumerate(units) for v in units[i + 1:])
    return "H", 4, True, ok and noncomm, basis


def assert_same_units(units, ref_units):
    # a trace sums four diagonal entries where w_0 / f_0 reads one slot, so
    # the O(1) unit coefficients agree to some ulps of complex128, not bit for bit
    want = np.reshape([u._c for u in ref_units], (-1, BLADE_COUNT))
    assert units.shape == want.shape and np.allclose(units, want, rtol=0, atol=1e-14)


def half_one_plus(*xs):
    """The idempotent product of (1 + x)/2 over commuting x with x x = 1."""
    f = ONE
    for x in xs:
        f = f * (0.5 * (ONE + x))
    return Idempotent(f)


G0, G01, IG12, G123 = gamma(0), blade((0, 1)), 1j * blade((1, 2)), blade((1, 2, 3))
#: of these four square roots of 1, only g0 with ig12 and ig12 with g123 commute
RING_CASES = {
    "complex": FC, "real": FR, "exact": EXACT_FR, "unit": Idempotent(ONE),
    "g0": half_one_plus(G0), "g01": half_one_plus(G01), "ig12": half_one_plus(IG12),
    "g123": half_one_plus(G123), "g0*ig12": half_one_plus(G0, IG12),
    "ig12*g123": half_one_plus(IG12, G123),
}


@pytest.mark.parametrize("scalars", ["complex", "real"])
@pytest.mark.parametrize("f", list(RING_CASES.values()), ids=list(RING_CASES))
def test_ring_identify_matches_object_reference(f, scalars):
    ring = division_ring_identify(f, scalars)
    *want, basis = ref_ring_identify(f, scalars)
    assert [ring.name, ring.dimension, ring.primitive, ring.profile_ok] == want
    assert all(type(v) is bool for v in (ring.primitive, ring.profile_ok))
    assert_same_multivectors(ring.basis, basis)
    if scalars == "real" and ring.dimension in (2, 4):
        units, got = _pure_units(f.value._c, np.array([w._c for w in basis]))
        ref_units, ref_ok = ref_pure_units(f.value, basis)
        assert got == ref_ok
        assert_same_units(units, ref_units)


def test_only_the_scalar_blade_has_a_trace():
    # the identity tr M(x) = 4 x_0 that _pure_units reads ring scalars by
    assert np.trace(_BLADE_MATS, axis1=1, axis2=2).tolist() == [4] + [0] * (BLADE_COUNT - 1)


@pytest.mark.parametrize("rows, ok", [
    ([blade((1, 2)), blade((2, 3))], True),
    ([1j * blade((1, 2))], False),  # squares to +1
    ([blade((1, 2)), blade((0, 1, 2, 3))], False),  # commute: u v + v u = -2 e03
    ([blade((1, 2)), blade((1, 2)) + 0.5 * gamma(0)], False),  # squares to e012 - 0.75
    ([ONE, 2 * ONE], True),  # nothing but ring scalars
], ids=["quaternion-pair", "plus-square", "commuting-pair", "square-off-f", "scalars-only"])
def test_pure_units_flags_what_the_reference_flags(rows, ok):
    f = ONE
    units, got = _pure_units(f._c, np.array([w._c for w in rows]))
    ref_units, ref_ok = ref_pure_units(f, rows)
    assert got == ref_ok == ok
    assert_same_units(units, ref_units)


def test_division_ring_identify_refuses_an_unknown_scalar_field():
    with pytest.raises(ValueError, match="unknown scalar field 'octonion'"):
        division_ring_identify(FR, "octonion")


def test_beta_refuses_an_h_that_its_involution_moves():
    # e12 commutes with e0, so alpha(f) = h^-1 f h holds, but rev(e12) = -e12.
    with pytest.raises(InvolutionConditionError, match=r"^alpha\(h\) != h \(residual 2\.000e\+00\)$"):
        beta_inner_product(ONE, ONE, "reversion", blade((1, 2)), FR)


@pytest.mark.parametrize("nan_call, violated", [(0, r"alpha\(f\) != h\^-1 f h"),
                                                (1, r"alpha\(h\) != h")],
                         ids=["alpha-f", "alpha-h"])
def test_a_nan_residual_fails_both_adjoint_verdicts(monkeypatch, nan_call, violated):
    # (reversion, 1, FR) holds; one of its two residuals is made NaN.
    calls = iter(range(4))

    def distance(a, b):
        return float("nan") if next(calls) % 2 == nan_call else 0.0

    monkeypatch.setattr(ideals, "coefficient_distance", distance)
    assert not verify_involution_conditions("reversion", ONE, FR)
    with pytest.raises(InvolutionConditionError, match=rf"^{violated} \(residual nan\)$"):
        beta_inner_product(ONE, ONE, "reversion", ONE, FR)


def test_an_exact_residual_is_named_in_both_adjoint_verdicts():
    # e12 / 2 commutes with e0, but rev(e12 / 2) = -e12 / 2: a Fraction residual of 1.
    h = Multivector({0b0110: Fraction(1, 2)})
    assert not verify_involution_conditions("reversion", h, FR)
    with pytest.raises(InvolutionConditionError, match=r"^alpha\(h\) != h \(residual 1\.000e\+00\)$"):
        beta_inner_product(ONE, ONE, "reversion", h, FR)
