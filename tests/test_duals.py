"""Dual operators: Xi, the named family, Delta/Omega validity, the dual map."""

import math

import numpy as np
import pytest

from spinorlab import duals
from spinorlab.duals import (
    ELEMENT_NAMES,
    InvalidOperatorError,
    KinematicPoint,
    KinematicsError,
    block_decompose,
    closed_form,
    delta_to_omega,
    dual_of,
    named_operator,
    random_delta,
    validate_delta,
    validate_omega,
    xi,
    xi_dagger,
)
from spinorlab.weyl import GAMMA0

from test_checks import ref_random_kinematics

K_REF = KinematicPoint(1.0, 1.0, math.pi / 2, 0.0)
ROOT2 = math.sqrt(2.0)


def sample_points(seed, n):
    rng = np.random.default_rng(seed)
    return [ref_random_kinematics(rng) for _ in range(n)]


def reassembled(blocks):
    """The Delta whose blocks are (A, B; C, A^dag)."""
    return np.block([[blocks.A, blocks.B], [blocks.C, blocks.A.conj().T]])


# -- kinematics ---------------------------------------------------------------


def test_energy_is_derived():
    k = KinematicPoint(3.0, 4.0, 0.1, 0.2)
    assert k.E == 5.0


def test_bad_mass_momentum_rejected():
    with pytest.raises(KinematicsError):
        KinematicPoint(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(KinematicsError):
        KinematicPoint(1.0, -1.0, 0.0, 0.0)


# -- Xi ------------------------------------------------------------------------


def test_xi_dagger_reference_point():
    # Derived by direct substitution at m=1, p=1, theta=pi/2, phi=0.
    upper = -1j * np.array([[1.0, ROOT2], [-ROOT2, -1.0]])
    lower = -1j * np.array([[-1.0, ROOT2], [-ROOT2, 1.0]])
    xd = xi_dagger(K_REF)
    assert abs(xd[0:2, 0:2] - upper).max() < 1e-14
    assert abs(xd[2:4, 2:4] - lower).max() < 1e-14
    assert abs(xd[0:2, 2:4]).max() == 0
    assert abs(xd[2:4, 0:2]).max() == 0


def test_xi_is_involution_on_shell():
    for k in sample_points(0, 25):
        x = xi(k)
        assert abs(x @ x - np.eye(4)).max() < 1e-10


def test_xi_dagger_is_gamma0_conjugate():
    for k in sample_points(1, 25):
        assert abs(GAMMA0 @ xi(k) @ GAMMA0 - xi_dagger(k)).max() < 1e-10


def test_xi_is_conjugate_transpose_of_xi_dagger():
    k = sample_points(2, 1)[0]
    assert np.array_equal(xi(k), xi_dagger(k).conj().T)


# -- named operators ------------------------------------------------------------


def test_g_at_phi_zero_is_antidiagonal():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = -1j
    expected[1, 2] = 1j
    expected[2, 1] = -1j
    expected[3, 0] = 1j
    assert abs(named_operator("G", K_REF) - expected).max() < 1e-14


def test_f_at_theta_zero():
    # The commutator form carries a factor i relative to the bare
    # sine/cosine matrix; only with it does F square to the identity.
    k = KinematicPoint(1.0, 1.0, 0.0, 0.0)
    base = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=complex
    )
    f = named_operator("F", k)
    assert abs(f - 1j * base).max() < 1e-14
    assert abs(f @ f - np.eye(4)).max() < 1e-14


def test_h_times_hinv_is_identity():
    for k in sample_points(3, 10):
        h = named_operator("H", k)
        hinv = named_operator("Hinv", k)
        assert abs(h @ hinv - np.eye(4)).max() < 1e-9


def test_named_operators_match_closed_forms():
    for k in sample_points(4, 25):
        for name in ELEMENT_NAMES:
            assert (
                abs(named_operator(name, k) - closed_form(name, k)).max() < 1e-9
            ), name


def test_hinv_is_gamma0_conjugate_of_h():
    for k in sample_points(5, 10):
        h = named_operator("H", k)
        hinv = named_operator("Hinv", k)
        assert abs(hinv - GAMMA0 @ h @ GAMMA0 / k.m**4).max() < 1e-9


def test_singular_momentum_raises_for_f_family():
    k = KinematicPoint(1.0, 0.0, 0.3, 0.4)
    for name in ("F", "FG"):
        with pytest.raises(KinematicsError, match="singular at p = 0"):
            named_operator(name, k)
        with pytest.raises(KinematicsError, match="singular at p = 0"):
            closed_form(name, k)
    named_operator("G", k)  # fine at p = 0


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_operator("Q", K_REF)


# -- validity --------------------------------------------------------------------


def test_validate_omega_identity():
    assert validate_omega(np.eye(4), K_REF)


def test_validate_delta_accepts_xi():
    # Xi^dag g0 = g0 Xi follows from Xi^dag = g0 Xi g0 and g0^2 = I.
    for k in sample_points(6, 10):
        assert validate_delta(xi(k))


def test_validate_delta_rejects_antihermitian_scalar():
    assert not validate_delta(1j * np.eye(4))


def test_validate_delta_and_omega_at_reference_point():
    assert validate_delta(xi(K_REF))
    assert validate_omega(np.eye(4), K_REF)


# -- conversions --------------------------------------------------------------------


def test_convert_examples():
    assert abs(delta_to_omega(xi(K_REF), K_REF) - np.eye(4)).max() < 1e-12
    assert abs(duals._to_delta(np.eye(4), xi(K_REF)) - xi(K_REF)).max() < 1e-12


def test_convert_roundtrip_random_delta():
    rng = np.random.default_rng(7)
    for k in sample_points(8, 10):
        delta = random_delta(rng)
        tripped = duals._to_delta(delta_to_omega(delta, k), xi(k))
        assert abs(tripped - delta).max() < 1e-10


def test_convert_carries_validity():
    rng = np.random.default_rng(9)
    for k in sample_points(10, 10):
        delta = random_delta(rng)
        assert validate_delta(delta)
        assert validate_omega(delta_to_omega(delta, k), k)


def test_determinant_transport():
    # The conversions keep det because det g0 = det Xi = 1.
    assert np.linalg.det(GAMMA0) == 1
    rng = np.random.default_rng(11)
    for k in sample_points(12, 20):
        assert abs(np.linalg.det(xi(k)) - 1) <= 1e-12
        delta = random_delta(rng)
        omega = delta_to_omega(delta, k)
        assert abs(np.linalg.det(delta) - np.linalg.det(omega)) < 1e-9 * max(
            1.0, abs(np.linalg.det(delta))
        )


# -- random Delta and blocks -----------------------------------------------------------


def test_random_delta_always_validates():
    for seed in range(20):
        assert validate_delta(random_delta(seed))


def test_random_delta_deterministic():
    assert np.array_equal(random_delta(123), random_delta(123))


def _per_scalar_random_delta(rng):
    """random_delta as first written: one draw per scalar, blocks joined by np.block."""

    def hermitian2():
        off = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return np.array(
            [[rng.uniform(-1, 1), off], [off.conjugate(), rng.uniform(-1, 1)]],
            dtype=complex,
        )

    while True:
        a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        b = hermitian2()
        c = hermitian2()
        delta = np.block([[a, b], [c, a.conj().T]])
        if abs(np.linalg.det(delta)) > 1e-12:
            return delta


def test_random_delta_draws_match_per_scalar_draws():
    for seed in (0, 1, 7, 42, 123):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # successive calls continue the same stream
            assert np.array_equal(random_delta(rng_new), _per_scalar_random_delta(rng_old))
        assert rng_new.uniform() == rng_old.uniform()


def test_block_decompose_identity():
    blocks = block_decompose(np.eye(4))
    assert np.array_equal(blocks.A, np.eye(2))
    assert abs(blocks.B).max() == 0
    assert abs(blocks.C).max() == 0


def test_block_decompose_xi():
    # Blocks read straight off the Xi matrix slices.
    x = xi(K_REF)
    blocks = block_decompose(x)
    assert np.array_equal(blocks.A, x[0:2, 0:2])
    assert np.array_equal(blocks.B, x[0:2, 2:4])
    assert np.array_equal(blocks.C, x[2:4, 0:2])
    assert abs(reassembled(blocks) - x).max() < 1e-12


def test_block_decompose_random_delta_structure():
    delta = random_delta(42)
    blocks = block_decompose(delta)
    assert blocks.hermiticity_residual() == 0.0
    assert np.array_equal(delta[2:4, 2:4], blocks.A.conj().T)
    assert np.array_equal(reassembled(blocks), delta)


def test_block_decompose_rejects_invalid():
    with pytest.raises(InvalidOperatorError, match=r"^not a valid Delta: constraint residual "
                       r"2\.000e\+00 \(tolerance 1\.0e-10\), \|det\| = 1\.000e\+00$"):
        block_decompose(1j * np.eye(4))


# -- the dual map -------------------------------------------------------------------------


def test_dual_of_identity_omega():
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    dual = dual_of(psi, np.eye(4), K_REF, check=validate_omega(np.eye(4), K_REF))
    # Matrix-vector oracle: the dual row is psi^dag g0 Xi.
    expected = psi.conj() @ GAMMA0 @ xi(K_REF)
    assert dual.shape == (4,) and dual.dtype == complex
    assert abs(dual - expected).max() < 1e-14
    assert abs(dual - np.array([0, 0, -1j, -1j * ROOT2])).max() < 1e-12


def test_dual_of_zero_spinor():
    dual = dual_of(np.zeros(4), np.eye(4), K_REF, check=validate_omega(np.eye(4), K_REF))
    assert abs(dual).max() == 0


def test_dual_pairing_associativity():
    rng = np.random.default_rng(13)
    k = sample_points(14, 1)[0]
    omega = delta_to_omega(random_delta(rng), k)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    lhs = dual_of(psi, omega, k, check=validate_omega(omega, k)) @ phi
    rhs = psi.conj() @ (GAMMA0 @ xi(k) @ omega @ phi)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.filterwarnings("error")
def test_dual_of_refuses_a_psi_whose_dual_overflows():
    with pytest.raises(OverflowError, match=r"^psi is too large: its dual overflows$"):
        dual_of(np.full(4, 1e308), np.eye(4), K_REF, check=validate_omega(np.eye(4), K_REF))


def test_dual_of_honours_a_passed_check():
    # A failing check is raised even for a valid Omega, and a passing one is
    # trusted: the check is not recomputed.
    failing = validate_omega(1j * np.eye(4), K_REF)
    with pytest.raises(InvalidOperatorError, match="^not a valid Omega: constraint residual"):
        dual_of(np.ones(4), np.eye(4), K_REF, check=failing)
    passing = validate_omega(np.eye(4), K_REF)
    dual = dual_of(np.ones(4), 1j * np.eye(4), K_REF, check=passing)
    assert np.array_equal(dual, np.ones(4) @ GAMMA0 @ xi(K_REF) @ (1j * np.eye(4)))


# -- inverse-closure lemma -----------------------------------------------------------------


def test_inverse_closure_lemma():
    rng = np.random.default_rng(15)
    for k in sample_points(16, 20):
        omega = delta_to_omega(random_delta(rng), k)
        inv = np.linalg.inv(omega)
        x = xi(k)
        residual = abs(inv.conj().T - x @ GAMMA0 @ inv @ GAMMA0 @ x).max()
        assert residual < 1e-9


@pytest.mark.parametrize("validate", [validate_delta, lambda m: validate_omega(m, K_REF)])
def test_a_validation_takes_one_determinant(validate, monkeypatch):
    # The determinant the report carries is the one the invertibility test reads.
    calls = []
    real_det = np.linalg.det

    def counted(m):
        calls.append(np.shape(m))
        return real_det(m)

    monkeypatch.setattr(np.linalg, "det", counted)
    stack = np.array([np.eye(4), 1e-4 * np.eye(4), 2 * np.eye(4)], dtype=complex)
    single = validate(stack[0])
    assert calls == [(4, 4)] and single.ok and single.det == 1
    calls.clear()
    report = validate(stack)
    assert calls == [(3, 4, 4)]
    assert report.ok.tolist() == [True, False, True]  # det 1e-16 is singular
    assert np.array_equal(report.det, real_det(stack))


def test_closed_form_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown operator name 'bogus'") as exc:
        closed_form("bogus", KinematicPoint(1.0, 1.0, 0.7, 0.3))
    assert str(ELEMENT_NAMES) in str(exc.value)


def written_out_terms(k):
    """The operator terms of a point, as the formula reads them off it."""
    return (k.m, k.p, k.E, math.sin(k.theta), math.cos(k.theta),
            complex(math.cos(k.phi), -math.sin(k.phi)), k.m ** 4)


@pytest.mark.parametrize("seed, n", [
    pytest.param(seed, n, id=f"{seed}-{n}") for seed, n in [
        (0, 1), (0, 256), (0, 300), (1, 1), (1, 256), (1, 300), (7, 1), (7, 250), (7, 256),
        (7, 300), (42, 600)]])  # checks draws 256 points to a block
def test_terms_taken_from_the_draw_are_the_terms_of_its_points(seed, n):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    terms = duals._drawn(rng, n)
    points = [ref_random_kinematics(ref) for _ in range(n)]
    # repr tells every float bit pattern apart, -0.0 from 0.0 included
    assert repr(terms) == repr([written_out_terms(k) for k in points])
    assert repr([duals._terms(k) for k in points]) == repr(terms)
    assert rng.bit_generator.state == ref.bit_generator.state
    k = KinematicPoint(3.0, 4.0, 0.1, 0.2)
    assert repr(duals._terms(k)) == repr(written_out_terms(k))


# -- gamma0 by index: the product formulas as references ------------------------------------
#
# Each formula below multiplies by GAMMA0, in the order the function it mirrors
# associates its products.  Applying gamma0 as a block swap gives the same bits.


def product_named(name, t, x, xd):
    """The named operator with gamma0 and Xi^dag Xi, Xi Xi^dag as products."""
    m, p, E = t[:3]
    g0 = GAMMA0
    return {
        "G": lambda: (m / (2 * E)) * (g0 @ x + x @ g0),
        "F": lambda: (m / (2 * p)) * (g0 @ x - x @ g0),
        "FG": lambda: (m * m / (4 * E * p)) * (xd @ x - x @ xd),
        "XiDagger": lambda: g0 @ x @ g0,
        "GXiDagger": lambda: (m / (2 * E)) * (xd @ x + np.eye(4)) @ g0,
        "H": lambda: m * m * (x @ xd),
        "Hinv": lambda: (xd @ x) / (m * m),
    }[name]()


def product_delta_residual(m):
    return duals._max_entry(m.conj().swapaxes(-1, -2) @ GAMMA0 - GAMMA0 @ m)


def product_omega_residual(m, x):
    return duals._max_entry(m.conj().swapaxes(-1, -2) - x @ GAMMA0 @ m @ GAMMA0 @ x)


def product_to_delta(m, x):
    return GAMMA0 @ m @ GAMMA0 @ x


def product_to_omega(m, x):
    return GAMMA0 @ m @ x @ GAMMA0


def same_bits(a, b):
    """Equal arrays of the same shape; 0.0 and -0.0 count as equal, as a max-entry
    residual cannot tell them apart."""
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


@pytest.mark.parametrize("p", [1e-3, 1.0, 1e3, 1e4])
def test_the_gamma0_formulas_keep_the_bits_of_their_products(p):
    rng = np.random.default_rng(int(p * 1000))
    draws = rng.uniform((0.5, 0.05, 0.0), (2.0, 3.09, 6.28), (250, 3)).tolist()
    points = [KinematicPoint(m, p, theta, phi) for m, theta, phi in draws]
    t = duals._stacked_terms(points)
    deltas = duals._delta_from(rng.uniform(-1, 1, (250, 16)))
    generic = rng.normal(size=(250, 4, 4)) + 1j * rng.normal(size=(250, 4, 4))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    passed = duals.OperatorValidation("omega", True, 0.0, 1.0, 0.0)  # dual_of skips validation
    for i in (slice(None), 0, 249):  # the stack, and single matrices
        single = not isinstance(i, slice)
        ti = duals._terms(points[i]) if single else t
        x = xi(ti)
        xd = duals._dagger(x)
        shared = dict(duals._named_operators(ti))
        for name in ELEMENT_NAMES:
            want = product_named(name, ti, x, xd)
            assert same_bits(shared[name], want), (name, i)
            if single:
                assert same_bits(named_operator(name, points[i]), want), (name, i)
        omega = duals._to_omega(deltas[i], x)
        assert same_bits(omega, product_to_omega(deltas[i], x))
        back = duals._to_delta(omega, x)
        assert same_bits(back, product_to_delta(omega, x))
        assert same_bits(duals.omega_residual(omega, x), product_omega_residual(omega, x))
        for m in (deltas[i], back, generic[i], omega):
            assert same_bits(validate_delta(m).residual, product_delta_residual(m))
        if single:
            row = psi.conj() @ GAMMA0 @ x @ omega
            got = dual_of(psi, omega, points[i], check=passed)
            assert same_bits(got, row)
