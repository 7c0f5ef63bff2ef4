"""The batched checks draw and measure exactly what trial-by-trial loops do.

Each reference below is a trial-by-trial loop written with the
single-operator functions.  A batched check must report the same residuals,
bit for bit, and leave its generator in the same state, at trial counts on
both sides of the block size.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinorlab import checks, cli, duals, weyl
from spinorlab.duals import (
    ELEMENT_NAMES, KinematicPoint, block_decompose, closed_form, delta_to_omega,
    named_operator, omega_residual, random_delta, validate_delta, xi,
)
from spinorlab.ideals import beta_inner_product, canonical_idempotent, ring_membership_residual
from spinorlab.multivector import (
    Multivector, coefficient_distance, gamma, involution, random_multivector, scalar,
)
from spinorlab.quaternions import (
    QuatMatrix2, Quaternion, even_to_m2c, gl2h_embed, intertwiner, is_quaternionic_pattern,
    mv_to_m2h,
)
from spinorlab.weyl import DET_TOL, GAMMA0, dirac_dagger_dual, to_matrix

SEEDS = (0, 1, 7, 42, 123)
BLOCK = checks._BLOCK
COUNTS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 1000)
K = KinematicPoint(1.3, 0.8, 0.7, 0.3)
FR = canonical_idempotent("real")


def worst(values):
    return float(np.max(values))


def weakest(values):
    return float(np.min(values))


def residuals(found):
    """The residual of one returned check, or a tuple of those of several."""
    return found["residual"] if isinstance(found, dict) else tuple(c["residual"] for c in found)


def random_generic(rng):
    return rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))


def random_quat_matrix(rng):
    return QuatMatrix2(*(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(4)))


def quat_product(a, b):
    """a b entry by entry with the scalar Quaternion product, summed by component."""
    (a11, a12, a21, a22), (b11, b12, b21, b22) = a.entries(), b.entries()

    def dot(p, q, r, s):  # p q + r s
        return Quaternion(*(x + y for x, y in zip((p * q).as_list(), (r * s).as_list())))

    return QuatMatrix2(dot(a11, b11, a12, b21), dot(a11, b12, a12, b22),
                       dot(a21, b11, a22, b21), dot(a21, b12, a22, b22))


def even_block(x):
    """even_to_m2c without its input checks."""
    return to_matrix(x)[:2, :2]


def beta(psi, phi, kind, h, f):
    """beta_inner_product without its (alpha, h, f) checks."""
    return h * involution(kind, psi) * phi * f.value


def block_embed(m):
    """gl2h_embed as blocks [[a+ib, c+id], [-c+id, a-ib]], one per entry a + bi + cj + dk."""
    q11, q12, q21, q22 = (np.array([[complex(a, b), complex(c, d)], [complex(-c, d), complex(a, -b)]])
                          for a, b, c, d in m.entries())
    return np.block([[q11, q12], [q21, q22]])


def ref_block_pattern(rng, trials):
    constraint, hermiticity = [], []
    for _ in range(trials):
        delta = random_delta(rng)
        check = validate_delta(delta)
        constraint.append(check.residual if check else max(check.residual, 1.0))
        hermiticity.append(block_decompose(delta).hermiticity_residual())
    return worst(constraint), worst(hermiticity)


def ref_generic_acceptance(rng, trials):
    return sum(bool(validate_delta(random_generic(rng))) for _ in range(trials))


def ref_adjoint_fixed_points(rng, trials):
    fixed, detected = [], []
    for _ in range(trials):
        x = random_multivector(rng, hermitian=True)
        fixed.append(coefficient_distance(dirac_dagger_dual(x), x))
        y = x + complex(0, 1e-6) * random_multivector(rng, hermitian=True)
        detected.append(coefficient_distance(dirac_dagger_dual(y), y))
    return worst(fixed), weakest(detected)


def ref_closure(rng, trials, k=K):
    x = xi(k)
    commuting, noncommuting, inverse, det = [], [], [], []
    for _ in range(trials):
        base = delta_to_omega(random_delta(rng), k)
        c = rng.uniform(-1, 1, 5)
        om1 = c[0] * np.eye(4) + c[1] * base + c[2] * base @ base
        om2 = c[3] * np.eye(4) + c[4] * base
        commuting.append(omega_residual(om1 @ om2, x))
        other = delta_to_omega(random_delta(rng), k)
        noncommuting.append(omega_residual(base @ other, x))
        inverse.append(omega_residual(np.linalg.inv(base), x))
        delta_back = GAMMA0 @ base @ GAMMA0 @ x
        det.append(abs(np.linalg.det(base) - np.linalg.det(delta_back)))
    return worst(commuting), weakest(noncommuting), worst(inverse), worst(det)


def ref_gl2h_homomorphism(rng, trials):
    out = []
    for _ in range(trials):
        a, b = random_quat_matrix(rng), random_quat_matrix(rng)
        out.append(float(abs(block_embed(quat_product(a, b))
                             - block_embed(a) @ block_embed(b)).max()))
    return worst(out)


def ref_pattern_mistakes(rng, trials):
    mistakes = 0
    for _ in range(trials):
        mistakes += not is_quaternionic_pattern(block_embed(random_quat_matrix(rng)))
        mistakes += bool(is_quaternionic_pattern(random_generic(rng)))
    return mistakes


def ref_invertibility_transported(rng, trials):
    samples = [random_multivector(rng, real=True) for _ in range(trials)]
    samples.append(scalar(1) + gamma(0))
    return all(
        (abs(np.linalg.det(to_matrix(x))) > DET_TOL)
        == (abs(np.linalg.det(gl2h_embed(mv_to_m2h(x)))) > DET_TOL)
        for x in samples
    )


def ref_even_block_multiplicativity(rng, trials):
    out = []
    for _ in range(trials):
        x = random_multivector(rng, real=True, grades=(0, 2, 4))
        y = random_multivector(rng, real=True, grades=(0, 2, 4))
        out.append(float(abs(even_block(x * y) - even_block(x) @ even_block(y)).max()))
    return worst(out)


def ref_intertwined_representations(rng, trials):
    s = intertwiner()
    s_inv = np.linalg.inv(s)
    out = []
    for _ in range(trials):
        x = random_multivector(rng, real=True)
        lhs = s @ gl2h_embed(mv_to_m2h(x)) @ s_inv
        out.append(float(abs(lhs - to_matrix(x)).max()))
    return worst(out)


def ref_beta_in_ring(rng, trials, f=FR, real=True):
    out = []
    for _ in range(trials):
        psi = random_multivector(rng, real=real) * f.value
        phi = random_multivector(rng, real=real) * f.value
        b = beta(psi, phi, "reversion", scalar(1), f)
        out.append(coefficient_distance(b, f.value * b * f.value))
    return worst(out)


def ref_beta_matches_matrix_adjoint(rng, trials, f=FR):
    g0 = gamma(0)
    out = []
    for _ in range(trials):
        psi = random_multivector(rng) * f.value
        phi = random_multivector(rng) * f.value
        b = beta(psi, phi, "dirac_dagger", g0, f)
        matrix_side = (
            to_matrix(psi).conj().T @ to_matrix(g0) @ to_matrix(phi) @ to_matrix(f.value)
        )
        out.append(float(abs(to_matrix(b) - matrix_side).max()))
    return worst(out)


def ref_random_kinematics(rng):
    """One point, drawn one parameter at a time: the tests' one drawer of kinematic points."""
    return KinematicPoint(m=rng.uniform(0.5, 2.0), p=rng.uniform(0.5, 2.0),
                          theta=rng.uniform(0.05, math.pi - 0.05),
                          phi=rng.uniform(0.0, 2.0 * math.pi))


def row_residuals(points):
    """Each named operator's largest defining-expression-minus-closed-form entry, point by point."""
    return {name: [float(abs(named_operator(name, k) - closed_form(name, k)).max())
                   for k in points] for name in ELEMENT_NAMES}


def ref_operator_residuals(rng, trials, k=K):
    each = row_residuals([k] + [ref_random_kinematics(rng) for _ in range(trials)])
    return tuple(worst(each[name]) for name in ELEMENT_NAMES)


#: name -> (batched check, its trial-by-trial reference), both (rng, trials)
PAIRS = {
    "block_pattern": (checks.block_pattern, ref_block_pattern),
    "generic_acceptance": (  # the share accepted
        checks.generic_acceptance, lambda rng, n: ref_generic_acceptance(rng, n) / n),
    "adjoint_fixed_points": (checks.adjoint_fixed_points, ref_adjoint_fixed_points),
    "closure": (lambda rng, n: checks.closure(rng, n, K), ref_closure),
    "gl2h_homomorphism": (checks.gl2h_homomorphism, ref_gl2h_homomorphism),
    "pattern_mistakes": (checks.pattern_mistakes, ref_pattern_mistakes),
    "invertibility_transported": (  # a yes/no check: residual 1 when it fails
        checks.invertibility_transported,
        lambda rng, n: float(not ref_invertibility_transported(rng, n))),
    "even_block_multiplicativity": (
        checks.even_block_multiplicativity, ref_even_block_multiplicativity),
    "intertwined_representations": (
        checks.intertwined_representations, ref_intertwined_representations),
    "beta_in_ring_real": (
        lambda rng, n: checks.beta_in_ring(rng, n, FR, real=True), ref_beta_in_ring),
    "beta_in_ring_complex": (
        lambda rng, n: checks.beta_in_ring(rng, n, FR, real=False),
        lambda rng, n: ref_beta_in_ring(rng, n, real=False)),
    "beta_matches_matrix_adjoint": (
        lambda rng, n: checks.beta_matches_matrix_adjoint(rng, n, FR),
        ref_beta_matches_matrix_adjoint),
    "operator_residuals": (  # at K, then at the drawn points
        lambda rng, n: checks.operator_residuals(rng, n, K, 1e-9), ref_operator_residuals),
}


def assert_same_stream(batched, reference, seed, counts=COUNTS):
    for trials in counts:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert residuals(batched(rng, trials)) == reference(ref_rng, trials), trials
        assert rng.bit_generator.state == ref_rng.bit_generator.state, trials


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PAIRS)
def test_batched_check_keeps_the_stream(name, seed):
    assert_same_stream(*PAIRS[name], seed)


def traced_peak(check, trials) -> int:
    """Bytes that one run of ``check`` holds at its peak, above what was held before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    check(np.random.default_rng(0), trials)
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("name", PAIRS)
def test_batched_check_memory_stays_bounded(name):
    # A check keeps one block's draws at a time and, across blocks, only its
    # per-trial residuals: a few bytes a trial, not the draws themselves.
    check = PAIRS[name][0]
    check(np.random.default_rng(0), BLOCK)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        one, many = traced_peak(check, BLOCK), traced_peak(check, 21 * BLOCK)
    finally:
        tracemalloc.stop()
    assert (many - one) / (20 * BLOCK) < 64


def test_table1_memory_stays_bounded():
    # The whole suite, from argv to the written report: table1 keeps one block of
    # points at a time, as the checks above do.
    def table1(rng, trials):
        assert cli.main(["table1", "--trials", str(trials)]) == 0

    table1(None, BLOCK - 1)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        one, many = traced_peak(table1, BLOCK - 1), traced_peak(table1, 21 * BLOCK - 1)
    finally:
        tracemalloc.stop()
    assert (many - one) / (20 * BLOCK) < 64


def first_point_then_residuals(seed, n):
    """The rows at the first ``n`` points drawn from ``seed``, the first one as the given point."""
    rng = np.random.default_rng(seed)
    return checks.operator_residuals(rng, n - 1, ref_random_kinematics(rng), 1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_operator_residual_matches_point_by_point(seed):
    rng = np.random.default_rng(seed)
    each = row_residuals([ref_random_kinematics(rng) for _ in range(max(COUNTS))])
    for n in COUNTS:
        want = tuple(worst(each[name][:n]) for name in ELEMENT_NAMES)
        assert residuals(first_point_then_residuals(seed, n)) == want, n


def test_operator_residual_rejects_zero_momentum_like_one_point(monkeypatch):
    zero = KinematicPoint(1.0, 0.0, 0.7, 0.3)
    rng = np.random.default_rng(0)
    assert min(residuals(checks.operator_residuals(rng, 0, K, 1e-9))) >= 0.0
    with pytest.raises(duals.SingularParameterError):
        named_operator("F", zero)
    # the point at p = 0 drawn after K
    monkeypatch.setattr(checks, "_drawn", lambda rng, n: [duals._terms(zero)] * n)
    with pytest.raises(duals.SingularParameterError):
        checks.operator_residuals(rng, 1, K, 1e-9)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["block_pattern", "closure"])
def test_resampled_deltas_keep_the_stream(monkeypatch, name, seed):
    # No natural seed draws a Delta with |det| <= 1e-12; at 0.05 about 3 in
    # 100 do, and random_delta resamples them.
    monkeypatch.setattr(weyl, "DET_TOL", 0.05)
    per_trial = []  # trials the batched check handed to random_delta
    monkeypatch.setattr(checks, "random_delta", lambda rng: per_trial.append(1) or random_delta(rng))
    assert_same_stream(*PAIRS[name], seed, counts=(1, BLOCK - 1, BLOCK + 1, 600))
    assert per_trial


@pytest.mark.parametrize("seed", SEEDS)
def test_single_operator_functions_share_the_stacked_formulas(seed):
    # beta_inner_product, ring_membership_residual and even_to_m2c run the
    # helpers the batched checks run; on one operand they give the bits of
    # the plain Multivector expressions.
    rng = np.random.default_rng(seed)
    psi, phi = (random_multivector(rng) * FR.value for _ in range(2))
    for kind, h in (("reversion", scalar(1)), ("dirac_dagger", gamma(0))):
        b = beta_inner_product(psi, phi, kind, h, FR)
        assert np.array_equal(b._c, beta(psi, phi, kind, h, FR)._c)
        assert ring_membership_residual(b, FR) == coefficient_distance(
            b, FR.value * b * FR.value)
    x = random_multivector(rng, real=True, grades=(0, 2, 4))
    assert np.array_equal(even_to_m2c(x), even_block(x))


def test_beta_of_exact_operands_stays_exact():
    f = canonical_idempotent("real")
    exact_f = type(f)(Multivector({0: Fraction(1, 2), 1: Fraction(1, 2)}))
    psi = Multivector({0: 1, 3: Fraction(1, 3)}) * exact_f.value
    b = beta_inner_product(psi, psi, "reversion", scalar(1), exact_f)
    assert b._c.dtype == object
    assert b == beta(psi, psi, "reversion", scalar(1), exact_f)


def test_block_pattern_validates_each_block_once(monkeypatch):
    # on the one determinant the draw took to decide whether to resample
    validated, dets = [], []  # the size of each stack validated and of each det taken
    real_validation, real_det = duals._delta_validation, np.linalg.det

    def counted(delta, *det):
        validated.append(len(delta))
        return real_validation(delta, *det)

    monkeypatch.setattr(checks, "_delta_validation", counted)
    monkeypatch.setattr(duals, "_delta_validation", counted)
    monkeypatch.setattr(np.linalg, "det", lambda m: dets.append(len(m)) or real_det(m))
    checks.block_pattern(np.random.default_rng(0), BLOCK + 1)
    assert validated == [BLOCK, 1]
    assert dets == [BLOCK, 1]


def test_block_pattern_refuses_a_stack_that_is_not_a_delta(monkeypatch):
    monkeypatch.setattr(checks, "_draw", lambda rng, n, layout: ([np.full((n, 4, 4), 1j)], []))
    with pytest.raises(duals.InvalidOperatorError, match="^not a valid Delta: constraint residual"):
        checks.block_pattern(np.random.default_rng(0), 3)


class RecordedProducts(np.ndarray):
    """An array that records the plain operands of each matrix product it takes part in,
    from either side; what is computed from it records its products too."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(v) if isinstance(v, RecordedProducts) else v for v in inputs]
        if ufunc is np.matmul:
            RecordedProducts.products.append(plain)
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(RecordedProducts) if isinstance(out, np.ndarray) else out


def with_gamma0(products) -> list:
    """The products one of whose operands holds gamma0 as a matrix."""
    return [pair for pair in products
            if any(np.shape(v)[-2:] == (4, 4) and (np.reshape(v, (-1, 4, 4)) == GAMMA0)
                   .all(axis=(1, 2)).any() for v in pair)]


def test_closure_takes_no_product_with_gamma0(monkeypatch):
    want = checks.closure(np.random.default_rng(0), BLOCK, K)
    draw = checks._draw
    monkeypatch.setattr(checks, "xi", lambda k: xi(k).view(RecordedProducts))
    monkeypatch.setattr(checks, "_draw", lambda rng, n, layout: (
        [s.view(RecordedProducts) for s in draw(rng, n, layout)[0]], []))
    RecordedProducts.products = []
    assert checks.closure(np.random.default_rng(0), BLOCK, K) == want
    assert RecordedProducts.products  # the products were seen
    assert with_gamma0(RecordedProducts.products) == []


def test_the_beta_matrix_side_takes_no_product_with_gamma0(monkeypatch):
    want = checks.beta_matches_matrix_adjoint(np.random.default_rng(0), BLOCK, FR)
    monkeypatch.setattr(checks, "_matrices", lambda c: weyl._matrices(c).view(RecordedProducts))
    RecordedProducts.products = []
    assert checks.beta_matches_matrix_adjoint(np.random.default_rng(0), BLOCK, FR) == want
    assert len(RecordedProducts.products) == 2  # (psi^dag g0) phi, then times f
    assert with_gamma0(RecordedProducts.products) == []


def test_the_delta_and_adjoint_checks_take_no_product_with_gamma0(monkeypatch):
    def both():
        return checks.block_pattern(np.random.default_rng(0), BLOCK), \
            checks.adjoint_fixed_points(np.random.default_rng(0), BLOCK)

    want, draw, matrices = both(), checks._draw, weyl._matrices

    def recorded_draw(rng, n, layout):
        stacks, dets = draw(rng, n, layout)
        return [s.view(RecordedProducts) for s in stacks], dets

    monkeypatch.setattr(checks, "_draw", recorded_draw)
    monkeypatch.setattr(weyl, "_matrices", lambda c: matrices(c).view(RecordedProducts))
    RecordedProducts.products = []
    assert both() == want
    assert RecordedProducts.products  # the products were seen
    assert with_gamma0(RecordedProducts.products) == []


@pytest.mark.parametrize("n", [1, BLOCK])
def test_a_table1_block_forms_each_shared_product_once(n, monkeypatch):
    rng = np.random.default_rng(n)
    points = [ref_random_kinematics(rng) for _ in range(n)]
    want = first_point_then_residuals(n, n)
    x = xi(duals._stacked_terms(points))
    monkeypatch.setattr(duals, "xi", lambda t: xi(t).view(RecordedProducts))
    RecordedProducts.products = []
    assert first_point_then_residuals(n, n) == want
    formed = RecordedProducts.products
    assert with_gamma0(formed) == []
    assert len(formed) == 2  # Xi^dag Xi and Xi Xi^dag, whatever else the seven read
    assert any(np.array_equal(a, duals._dagger(x)) and np.array_equal(b, x) for a, b in formed)
    assert any(np.array_equal(a, x) and np.array_equal(b, duals._dagger(x)) for a, b in formed)


@pytest.mark.parametrize("name, products", [
    ("G", 0), ("F", 0), ("FG", 2), ("XiDagger", 0), ("GXiDagger", 1), ("H", 1), ("Hinv", 1),
])
def test_a_single_operator_forms_only_the_products_its_name_reads(name, products, monkeypatch):
    want = named_operator(name, K)
    monkeypatch.setattr(duals, "xi", lambda t: xi(t).view(RecordedProducts))
    RecordedProducts.products = []
    assert np.array_equal(named_operator(name, K), want)
    assert len(RecordedProducts.products) == products


def test_closure_forms_xi_once(monkeypatch):
    formed = []
    monkeypatch.setattr(checks, "xi", lambda k: formed.append(k) or xi(k))
    monkeypatch.setattr(duals, "xi", lambda k: formed.append(k) or xi(k))
    checks.closure(np.random.default_rng(0), BLOCK + 1, K)
    assert formed == [K]
