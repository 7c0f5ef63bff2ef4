"""The verification checks behind the CLI suites and the acceptance gate.

Each check draws from the generator it is given and returns what it
measured: a worst residual, a count or a flag.  Check names and tolerances
stay with the callers.  Worst and weakest values propagate NaN, so a trial
that produced NaN fails its check.

Trials run in blocks of at most ``_BLOCK``, so memory stays bounded.  A
block draws its numbers in one call, in the order a trial-by-trial loop
draws them, and computes on stacks with the same per-matrix operations:
its results and the generator's final state are bit for bit that loop's.
"""

from __future__ import annotations

import numpy as np

from .duals import (
    ELEMENT_NAMES, _delta_from, _max_entry, _stacked_terms, block_decompose, closed_form,
    delta_to_omega, named_operator, omega_residual, omega_to_delta, random_delta,
    validate_delta, xi,
)
from .ideals import _beta, _require_adjoint, _ring_residual
from .multivector import METRIC, _product, _random_coefficients, coefficient_distance, gamma, scalar
from .quaternions import (
    QuatMatrix2, _even_block, _m2h, gl2h_embed, intertwiner, is_quaternionic_pattern,
    quaternionic_gamma,
)
from .weyl import PERTURBATION, _dagger, _dirac_dagger, _invertible, _matrices, _modulus

_BLOCK = 256


def _blocks(trials) -> list:
    """Sizes of the blocks that ``trials`` trials run in."""
    return [min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK)]


# numpy's max and min return NaN if any value is NaN; Python's may drop it.
def _worst(blocks) -> float:
    return float(np.max([np.max(b) for b in blocks]))


def _weakest(blocks) -> float:
    return float(np.min([np.min(b) for b in blocks]))


def _draw(rng, n, layout) -> list:
    """``n`` trials, each drawing in turn a random Delta for every None in
    ``layout`` and that many uniforms in [-1, 1] for every number; one
    stack per entry.

    A Delta that :func:`random_delta` would resample takes more draws than
    one call made, so a block with one rewinds the generator and draws
    trial by trial.
    """
    state = rng.bit_generator.state
    widths = [16 if w is None else w for w in layout]
    u = np.split(rng.uniform(-1, 1, (n, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    stacks = [v if w else _delta_from(v) for w, v in zip(layout, u)]
    if all(_invertible(np.linalg.det(s)).all() for w, s in zip(layout, stacks) if w is None):
        return stacks
    rng.bit_generator.state = state
    trials = [[rng.uniform(-1, 1, w) if w else random_delta(rng) for w in layout] for _ in range(n)]
    return [np.array(part) for part in zip(*trials)]


def block_pattern(rng, trials) -> tuple:
    """Worst Delta-constraint residual and worst B/C hermiticity residual
    over random block-pattern Deltas; a Delta that fails validation raises
    :class:`InvalidOperatorError`."""
    constraint, hermiticity = [], []
    for n in _blocks(trials):
        (delta,) = _draw(rng, n, (None,))
        constraint.append(validate_delta(delta).residual)
        hermiticity.append(block_decompose(delta).hermiticity_residual())
    return _worst(constraint), _worst(hermiticity)


def generic_acceptance(rng, trials) -> int:
    """How many generic complex 4x4 matrices pass as a Delta."""
    accepted = 0
    for n in _blocks(trials):
        re, im = np.moveaxis(rng.uniform(-1, 1, (n, 2, 4, 4)), 1, 0)
        accepted += int(np.count_nonzero(validate_delta(re + 1j * im).ok))
    return accepted


def adjoint_fixed_points(rng, trials) -> tuple:
    """Worst distance of a self-adjoint multivector from its gamma0-adjoint,
    and weakest distance once ``PERTURBATION`` i times another one is added."""
    fixed, detected = [], []
    for n in _blocks(trials):
        x, other = np.moveaxis(_random_coefficients(rng, (n, 2), hermitian=True), 1, 0)
        fixed.append(abs(_dirac_dagger(x) - x).max(axis=-1))
        y = x + other * complex(0, PERTURBATION)
        detected.append(abs(_dirac_dagger(y) - y).max(axis=-1))
    return _worst(fixed), _weakest(detected)


def closure(rng, trials, k) -> tuple:
    """Omega residuals at ``k``: worst for commuting products, weakest for
    non-commuting ones, worst for inverses; worst det change Omega -> Delta."""
    x = xi(k)
    commuting, noncommuting, inverse, det = [], [], [], []
    for n in _blocks(trials):
        base, c, other = _draw(rng, n, (None, 5, None))
        base, other = delta_to_omega(base, k), delta_to_omega(other, k)
        c = c[:, :, None, None]
        om1 = c[:, 0] * np.eye(4) + c[:, 1] * base + c[:, 2] * base @ base
        om2 = c[:, 3] * np.eye(4) + c[:, 4] * base
        commuting.append(omega_residual(om1 @ om2, x))
        noncommuting.append(omega_residual(base @ other, x))
        inverse.append(omega_residual(np.linalg.inv(base), x))
        det.append(_modulus(np.linalg.det(base) - np.linalg.det(omega_to_delta(base, k))))
    return _worst(commuting), _weakest(noncommuting), _worst(inverse), _worst(det)


def operator_residuals(points) -> list:
    """Worst entry of each named operator's defining expression minus its
    closed form over the kinematic ``points``, in ``ELEMENT_NAMES`` order."""
    blocks = [_stacked_terms(points[i:i + _BLOCK]) for i in range(0, len(points), _BLOCK)]
    return [_worst([_max_entry(named_operator(name, t) - closed_form(name, t)) for t in blocks])
            for name in ELEMENT_NAMES]


def quaternion_clifford_relations() -> float:
    """Worst component of {g_mu, g_nu} - 2 eta_mu_nu I over the quaternionic
    gammas in M2(H)."""
    gammas = np.array([quaternionic_gamma(mu).q for mu in range(4)])
    gm, gn = QuatMatrix2._of(gammas[:, None]), QuatMatrix2._of(gammas[None, :])
    anti = gm * gn + gn * gm  # entry [mu, nu] for every pair
    want = QuatMatrix2.identity().q * (2.0 * np.diag(METRIC))[..., None, None, None]
    return _worst([abs(anti.q - want)])


def gl2h_homomorphism(rng, trials) -> float:
    """Worst entry of embed(a b) - embed(a) embed(b) over random M2(H) pairs."""
    worst = []
    for n in _blocks(trials):
        a, b = map(QuatMatrix2._of, np.moveaxis(rng.uniform(-1, 1, (n, 2, 2, 2, 4)), 1, 0))
        worst.append(_max_entry(gl2h_embed(a * b) - gl2h_embed(a) @ gl2h_embed(b)))
    return _worst(worst)


def pattern_mistakes(rng, trials) -> int:
    """Embedded M2(H) matrices missed plus generic matrices accepted by the
    quaternionic pattern test."""
    mistakes = 0
    for n in _blocks(trials):
        u = rng.uniform(-1, 1, (n, 48))
        embedded = gl2h_embed(QuatMatrix2._of(u[:, :16].reshape(n, 2, 2, 4)))
        generic = u[:, 16:32].reshape(n, 4, 4) + 1j * u[:, 32:].reshape(n, 4, 4)
        mistakes += int(np.count_nonzero(~is_quaternionic_pattern(embedded).matches))
        mistakes += int(np.count_nonzero(is_quaternionic_pattern(generic).matches))
    return mistakes


def invertibility_transported(rng, trials) -> bool:
    """Whether det != 0 agrees between the Weyl image and the M2(H) image, on
    random real multivectors and one zero divisor."""
    zero_divisor = (scalar(1) + gamma(0))._c.astype(complex)  # singular on both sides
    samples = [_random_coefficients(rng, (n,), real=True) for n in _blocks(trials)]
    return all(np.array_equal(_invertible(np.linalg.det(_matrices(x))),
                              _invertible(np.linalg.det(gl2h_embed(_m2h(x.real)))))
               for x in [*samples, zero_divisor[None]])


def even_block_multiplicativity(rng, trials) -> float:
    """Worst entry of m(x y) - m(x) m(y) for the even-subalgebra block map
    m of :func:`even_to_m2c`."""
    worst = []
    for n in _blocks(trials):
        x, y = np.moveaxis(_random_coefficients(rng, (n, 2), real=True, grades=(0, 2, 4)), 1, 0)
        worst.append(_max_entry(_even_block(_product(x, y)) - _even_block(x) @ _even_block(y)))
    return _worst(worst)


def intertwined_representations(rng, trials) -> float:
    """Worst entry of S embed(x) S^-1 - to_matrix(x) over real multivectors."""
    s = intertwiner()
    s_inv = np.linalg.inv(s)
    worst = []
    for n in _blocks(trials):
        x = _random_coefficients(rng, (n,), real=True)
        lhs = s @ gl2h_embed(_m2h(x.real)) @ s_inv
        worst.append(_max_entry(lhs - _matrices(x)))
    return _worst(worst)


def idempotency(f) -> float:
    """Coefficient distance of f f from f."""
    return coefficient_distance(f.value * f.value, f.value)


def _ideal_pairs(rng, n, f, real=False) -> np.ndarray:
    """psi, phi = (random multivector) f for ``n`` trials."""
    return np.moveaxis(_product(_random_coefficients(rng, (n, 2), real=real), f), 1, 0)


def beta_in_ring(rng, trials, f, real) -> float:
    """Worst distance of beta(psi, phi) (reversion, h = 1) from the scalar
    ring f Cl f, for psi, phi in the left ideal of ``f``."""
    one, fc = scalar(1), f.value._c
    _require_adjoint("reversion", one, f)
    worst = []
    for n in _blocks(trials):
        psi, phi = _ideal_pairs(rng, n, fc, real)
        worst.append(_ring_residual(_beta(psi, phi, "reversion", one._c, fc), fc))
    return _worst(worst)


def beta_matches_matrix_adjoint(rng, trials, f) -> float:
    """Worst entry of beta(psi, phi) (gamma0-adjoint, h = g0) minus
    psi^dag g0 phi f computed on matrices."""
    g0 = gamma(0)
    _require_adjoint("dirac_dagger", g0, f)
    h, fc = g0._c.astype(complex), f.value._c.astype(complex)
    worst = []
    for n in _blocks(trials):
        psi, phi = _ideal_pairs(rng, n, fc)
        b = _beta(psi, phi, "dirac_dagger", h, fc)
        matrix_side = _dagger(_matrices(psi)) @ _matrices(h) @ _matrices(phi) @ _matrices(fc)
        worst.append(_max_entry(_matrices(b) - matrix_side))
    return _worst(worst)
