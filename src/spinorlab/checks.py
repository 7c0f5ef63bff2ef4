"""The verification checks behind the CLI suites and the acceptance gate.

Each check draws from the generator it is given, in a fixed order, and
returns what it measured: a worst residual, a count or a flag.  Check names
and tolerances stay with the callers.  Worst and weakest values propagate
NaN, so a trial that produced NaN fails its check.
"""

from __future__ import annotations

import numpy as np

from .duals import (
    block_decompose, closed_form, delta_to_omega, named_operator, omega_residual,
    random_delta, validate_delta, xi,
)
from .ideals import beta_inner_product, ring_membership_residual
from .multivector import coefficient_distance, gamma, random_multivector, scalar
from .quaternions import (
    QuatMatrix2, Quaternion, even_to_m2c, gl2h_embed, intertwiner,
    is_quaternionic_pattern, mv_to_m2h, quaternionic_gamma,
)
from .weyl import GAMMA0, dirac_dagger_dual, to_matrix


# numpy's max and min return NaN if any value is NaN; Python's may drop it.
def _worst(values) -> float:
    return float(np.max(values))


def _weakest(values) -> float:
    return float(np.min(values))


def _random_generic(rng) -> np.ndarray:
    return rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))


def _random_quat_matrix(rng) -> QuatMatrix2:
    return QuatMatrix2(*(Quaternion(*rng.uniform(-1, 1, 4)) for _ in range(4)))


def block_pattern(rng, trials) -> tuple:
    """Worst Delta-constraint residual (at least 1.0 for a rejected Delta) and
    worst B/C hermiticity residual over random block-pattern Deltas."""
    constraint, hermiticity = [], []
    for _ in range(trials):
        delta = random_delta(rng)
        check = validate_delta(delta)
        constraint.append(check.residual if check else max(check.residual, 1.0))
        hermiticity.append(block_decompose(delta).hermiticity_residual())
    return _worst(constraint), _worst(hermiticity)


def generic_acceptance(rng, trials) -> int:
    """How many generic complex 4x4 matrices pass as a Delta."""
    return sum(bool(validate_delta(_random_generic(rng))) for _ in range(trials))


def adjoint_fixed_points(rng, trials) -> tuple:
    """Worst distance of a self-adjoint multivector from its gamma0-adjoint,
    and weakest distance once 1e-6 i times another one is added."""
    fixed, detected = [], []
    for _ in range(trials):
        x = random_multivector(rng, hermitian=True)
        fixed.append(coefficient_distance(dirac_dagger_dual(x), x))
        y = x + complex(0, 1e-6) * random_multivector(rng, hermitian=True)
        detected.append(coefficient_distance(dirac_dagger_dual(y), y))
    return _worst(fixed), _weakest(detected)


def closure(rng, trials, k) -> tuple:
    """Omega residuals at ``k``: worst for commuting products, weakest for
    non-commuting ones, worst for inverses; worst det change Omega -> Delta."""
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
    return _worst(commuting), _weakest(noncommuting), _worst(inverse), _worst(det)


def operator_residual(name, points) -> float:
    """Worst entry of the defining expression of ``name`` minus its closed
    form, over the kinematic ``points``."""
    return _worst([
        float(abs(named_operator(name, k) - closed_form(name, k)).max())
        for k in points
    ])


def quaternion_clifford_relations() -> float:
    """Worst component of {g_mu, g_nu} - 2 eta_mu_nu I over the quaternionic
    gammas in M2(H)."""
    eta = (1.0, -1.0, -1.0, -1.0)
    diffs = []
    for mu in range(4):
        for nu in range(4):
            gm, gn = quaternionic_gamma(mu), quaternionic_gamma(nu)
            anti = gm * gn + gn * gm
            want = QuatMatrix2.identity() * (2.0 * eta[mu] if mu == nu else 0.0)
            for qa, qb in zip(anti.entries(), want.entries()):
                diffs += [abs(a - b) for a, b in zip(qa.as_list(), qb.as_list())]
    return _worst(diffs)


def gl2h_homomorphism(rng, trials) -> float:
    """Worst entry of embed(a b) - embed(a) embed(b) over random M2(H) pairs."""
    worst = []
    for _ in range(trials):
        a, b = _random_quat_matrix(rng), _random_quat_matrix(rng)
        worst.append(float(abs(gl2h_embed(a * b) - gl2h_embed(a) @ gl2h_embed(b)).max()))
    return _worst(worst)


def pattern_mistakes(rng, trials) -> int:
    """Embedded M2(H) matrices missed plus generic matrices accepted by the
    quaternionic pattern test."""
    mistakes = 0
    for _ in range(trials):
        mistakes += not is_quaternionic_pattern(gl2h_embed(_random_quat_matrix(rng)))
        mistakes += bool(is_quaternionic_pattern(_random_generic(rng)))
    return mistakes


def invertibility_transported(rng, trials) -> bool:
    """Whether det != 0 agrees between the Weyl image and the M2(H) image, on
    random real multivectors and one zero divisor."""
    samples = [random_multivector(rng, real=True) for _ in range(trials)]
    samples.append(scalar(1) + gamma(0))  # zero divisor, singular on both sides
    return all(
        (abs(np.linalg.det(to_matrix(x))) > 1e-12)
        == (abs(np.linalg.det(gl2h_embed(mv_to_m2h(x)))) > 1e-12)
        for x in samples
    )


def even_block_multiplicativity(rng, trials) -> float:
    """Worst entry of m(x y) - m(x) m(y) for the even-subalgebra block map m."""
    worst = []
    for _ in range(trials):
        x = random_multivector(rng, real=True, grades=(0, 2, 4))
        y = random_multivector(rng, real=True, grades=(0, 2, 4))
        worst.append(float(abs(even_to_m2c(x * y) - even_to_m2c(x) @ even_to_m2c(y)).max()))
    return _worst(worst)


def intertwined_representations(rng, trials) -> float:
    """Worst entry of S embed(x) S^-1 - to_matrix(x) over real multivectors."""
    s = intertwiner()
    s_inv = np.linalg.inv(s)
    worst = []
    for _ in range(trials):
        x = random_multivector(rng, real=True)
        lhs = s @ gl2h_embed(mv_to_m2h(x)) @ s_inv
        worst.append(float(abs(lhs - to_matrix(x)).max()))
    return _worst(worst)


def idempotency(f) -> float:
    """Coefficient distance of f f from f."""
    return coefficient_distance(f.value * f.value, f.value)


def beta_in_ring(rng, trials, f, real) -> float:
    """Worst distance of beta(psi, phi) (reversion, h = 1) from the scalar
    ring f Cl f, for psi, phi in the left ideal of ``f``."""
    one = scalar(1)
    worst = []
    for _ in range(trials):
        psi = random_multivector(rng, real=real) * f.value
        phi = random_multivector(rng, real=real) * f.value
        b = beta_inner_product(psi, phi, "reversion", one, f)
        worst.append(ring_membership_residual(b, f))
    return _worst(worst)


def beta_matches_matrix_adjoint(rng, trials, f) -> float:
    """Worst entry of beta(psi, phi) (gamma0-adjoint, h = g0) minus
    psi^dag g0 phi f computed on matrices."""
    g0 = gamma(0)
    worst = []
    for _ in range(trials):
        psi = random_multivector(rng) * f.value
        phi = random_multivector(rng) * f.value
        b = beta_inner_product(psi, phi, "dirac_dagger", g0, f)
        matrix_side = (
            to_matrix(psi).conj().T @ to_matrix(g0) @ to_matrix(phi) @ to_matrix(f.value)
        )
        worst.append(float(abs(to_matrix(b) - matrix_side).max()))
    return _worst(worst)
