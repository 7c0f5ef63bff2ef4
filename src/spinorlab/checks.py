"""The verification checks behind the CLI suites, the acceptance gate and the demos.

A demo narrates a command by calling the checks its suite calls, with the command's default
seed and trial count and in its order of draws, so that it prints the command's own verdicts.

Each check draws from the generator it is given, table1's seven operator rows included,
and returns its verdicts: report check objects made by :func:`verdict`, which holds the
check's name, its tolerance and the direction of its comparison.  A suite refuses nothing it
draws, as its verdicts report it: a Delta off its constraint fails block-structure-validation,
and a pair that beta takes off its conditions fails involution-conditions.  What draws
nothing, the quaternionic Clifford relations and :func:`spinor_space_structure`, is measured
once per process and cached; each call builds new check objects from it.  A patched threshold
reaches the structure only once its cache is cleared, and only where it is read:
``weyl.DET_TOL`` in ``weyl``, whose ``_invertible`` reads it at call time; any other in the
module that imported it, as ``checks.RANK_TOL`` (patching ``weyl.RANK_TOL`` changes nothing).

Trials run in blocks of at most ``_BLOCK``, and a block's draws go before the next block
is drawn, so memory stays bounded.  A block draws its numbers in one call, in the order a
trial-by-trial loop draws them, and computes on stacks with the same per-matrix
operations: its results and the generator's final state are bit for bit that loop's.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .duals import (
    ELEMENT_NAMES, _delta_from, _delta_validation, _drawn, _max_entry, _named_operators,
    _split_delta, _stacked_terms, _to_delta, _to_omega, closed_form, omega_residual, random_delta,
    validate_delta, xi,
)
from .ideals import (
    _beta, _ring_residual, canonical_idempotent, division_ring_identify,
    ideal_basis, verify_involution_conditions,
)
from .multivector import METRIC, _product, _random_coefficients, gamma, scalar
from .quaternions import (
    QuatMatrix2, _even_block, _m2h, gl2h_embed, intertwiner, is_quaternionic_pattern,
    pattern_dof, quaternionic_gamma,
)
from .weyl import (
    DETECTION_TOL, IDENTITY_TOL, NONCOMMUTING_TOL, PERTURBATION, PRODUCT_TOL, RANK_TOL,
    ROUNDING_TOL, VALIDATION_TOL, _dagger, _dirac_dagger, _g0_right, _invertible, _matrices,
    _modulus, to_matrix,
)

_BLOCK = 256


def _blocks(trials) -> list:
    """Sizes of the blocks that ``trials`` trials run in."""
    return [min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK)]


def verdict(name, blocks, tolerance, above=False) -> dict:
    """The report's check object.  A bound's residual is the largest value in ``blocks``, a
    number or a list of numbers and arrays, and passes at or below ``tolerance``; a detection
    (``above``) takes the smallest and passes above it.  numpy's max and min propagate NaN,
    which fails both.  A yes/no check gives residual 1 when it fails."""
    reduce = np.min if above else np.max
    residual = float(reduce([reduce(b) for b in blocks]) if isinstance(blocks, list) else blocks)
    passed = residual > tolerance if above else residual <= tolerance
    return {"name": name, "status": "pass" if passed else "fail",
            "residual": residual, "tolerance": float(tolerance)}


def _draw(rng, n, layout) -> tuple:
    """``n`` trials, each drawing in turn a random Delta for every None in
    ``layout`` and that many uniforms in [-1, 1] for every number; one
    stack per entry, and the determinants of the Delta stacks.

    A Delta that :func:`random_delta` would resample takes more draws than
    one call made, so a block with one rewinds the generator and draws
    trial by trial; it returns no determinants.
    """
    state = rng.bit_generator.state
    widths = [16 if w is None else w for w in layout]
    u = np.split(rng.uniform(-1, 1, (n, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    stacks = [v if w else _delta_from(v) for w, v in zip(layout, u)]
    dets = [np.linalg.det(s) for w, s in zip(layout, stacks) if w is None]
    if all(_invertible(d).all() for d in dets):
        return stacks, dets
    rng.bit_generator.state = state
    trials = [[rng.uniform(-1, 1, w) if w else random_delta(rng) for w in layout] for _ in range(n)]
    return [np.array(part) for part in zip(*trials)], []


def block_pattern(rng, trials) -> list:
    """The Delta-constraint and B/C hermiticity residuals of random block-pattern Deltas;
    a Delta off the constraint fails the first verdict.  ``_draw`` resamples a singular one."""
    constraint, hermiticity = [], []
    for n in _blocks(trials):
        (delta,), dets = _draw(rng, n, (None,))
        constraint.append(_delta_validation(delta, *dets).residual)
        hermiticity.append(_split_delta(delta).hermiticity_residual())
    return [verdict("block-structure-validation", constraint, VALIDATION_TOL),
            verdict("block-hermiticity", hermiticity, ROUNDING_TOL)]


def generic_acceptance(rng, trials) -> dict:
    """The share of generic complex 4x4 matrices that pass as a Delta."""
    accepted = 0
    for n in _blocks(trials):
        re, im = np.moveaxis(rng.uniform(-1, 1, (n, 2, 4, 4)), 1, 0)
        accepted += int(np.count_nonzero(validate_delta(re + 1j * im).ok))
    return verdict("generic-matrix-rejection", accepted / trials, 0.0)


def adjoint_fixed_points(rng, trials) -> list:
    """The distance of a self-adjoint multivector from its gamma0-adjoint and, to be
    detected, that distance once ``PERTURBATION`` i times another one is added."""
    fixed, detected = [], []
    for n in _blocks(trials):
        x, other = np.moveaxis(_random_coefficients(rng, (n, 2), hermitian=True), 1, 0)
        fixed.append(abs(_dirac_dagger(x) - x).max(axis=-1))
        y = x + other * complex(0, PERTURBATION)
        detected.append(abs(_dirac_dagger(y) - y).max(axis=-1))
    return [verdict("adjoint-fixed-points", fixed, ROUNDING_TOL),
            verdict("adjoint-imaginary-detection", detected, DETECTION_TOL, above=True)]


def closure(rng, trials, k) -> list:
    """Omega residuals at ``k`` of commuting products, of non-commuting ones
    (to be detected) and of inverses; the det change Omega -> Delta."""
    x = xi(k)
    commuting, noncommuting, inverse, det = [], [], [], []
    for n in _blocks(trials):
        (base, c, other), _ = _draw(rng, n, (None, 5, None))
        base, other = _to_omega(base, x), _to_omega(other, x)
        c = c[:, :, None, None]
        om1 = c[:, 0] * np.eye(4) + c[:, 1] * base + c[:, 2] * base @ base
        om2 = c[:, 3] * np.eye(4) + c[:, 4] * base
        commuting.append(omega_residual(om1 @ om2, x))
        noncommuting.append(omega_residual(base @ other, x))
        inverse.append(omega_residual(np.linalg.inv(base), x))
        det.append(_modulus(np.linalg.det(base) - np.linalg.det(_to_delta(base, x))))
    return [verdict("closure-commuting-products", commuting, IDENTITY_TOL),
            verdict("closure-noncommuting-detection", noncommuting, NONCOMMUTING_TOL, above=True),
            verdict("inverse-closure-lemma", inverse, IDENTITY_TOL),
            verdict("determinant-transport", det, IDENTITY_TOL)]


def operator_residuals(rng, trials, k, tolerance) -> list:
    """One check per named operator, in ``ELEMENT_NAMES`` order: the largest entry of
    its defining expression minus its closed form at the point ``k`` and at ``trials``
    drawn points, ``k`` leading the first block.  Each block forms Xi once."""
    def block(lead, n) -> list:  # its terms go before the next block is drawn
        t = _stacked_terms(lead + _drawn(rng, n - len(lead)))
        return [_max_entry(op - closed_form(name, t)) for name, op in _named_operators(t)]

    per_block = [block([k] if i == 0 else [], n) for i, n in enumerate(_blocks(trials + 1))]
    return [verdict(f"row-{name}", list(each), tolerance)
            for name, each in zip(ELEMENT_NAMES, zip(*per_block))]


@cache
def quaternion_clifford_relations() -> float:
    """Worst component of {g_mu, g_nu} - 2 eta_mu_nu I over the quaternionic
    gammas in M2(H); it draws nothing, so it is computed once per process."""
    gammas = np.array([quaternionic_gamma(mu).q for mu in range(4)])
    gm, gn = QuatMatrix2._of(gammas[:, None]), QuatMatrix2._of(gammas[None, :])
    anti = gm * gn + gn * gm  # entry [mu, nu] for every pair
    want = QuatMatrix2.identity().q * (2.0 * np.diag(METRIC))[..., None, None, None]
    return float(np.max(abs(anti.q - want)))


def clifford_relations() -> dict:
    """The check on :func:`quaternion_clifford_relations`."""
    return verdict("quaternion-clifford-relations", quaternion_clifford_relations(), 0.0)


def gl2h_homomorphism(rng, trials) -> dict:
    """The largest entry of embed(a b) - embed(a) embed(b) over random M2(H) pairs."""
    worst = []
    for n in _blocks(trials):
        a, b = map(QuatMatrix2._of, np.moveaxis(rng.uniform(-1, 1, (n, 2, 2, 2, 4)), 1, 0))
        worst.append(_max_entry(gl2h_embed(a * b) - gl2h_embed(a) @ gl2h_embed(b)))
    return verdict("gl2h-homomorphism", worst, PRODUCT_TOL)


def pattern_dimension() -> dict:
    """Whether the quaternionic pattern has 16 real degrees of freedom."""
    return verdict("pattern-dof", abs(pattern_dof() - 16), 0.0)


def pattern_mistakes(rng, trials) -> dict:
    """Embedded M2(H) matrices missed plus generic matrices accepted by the
    quaternionic pattern test."""
    mistakes = 0
    for n in _blocks(trials):
        u = rng.uniform(-1, 1, (n, 48))
        embedded = gl2h_embed(QuatMatrix2._of(u[:, :16].reshape(n, 2, 2, 4)))
        generic = u[:, 16:32].reshape(n, 4, 4) + 1j * u[:, 32:].reshape(n, 4, 4)
        mistakes += int(np.count_nonzero(~is_quaternionic_pattern(embedded).matches))
        mistakes += int(np.count_nonzero(is_quaternionic_pattern(generic).matches))
    return verdict("pattern-detection", mistakes, 0.0)


def invertibility_transported(rng, trials) -> dict:
    """Whether det != 0 agrees between the Weyl image and the M2(H) image, on
    random real multivectors and one zero divisor."""
    def agree(x) -> bool:
        return np.array_equal(_invertible(np.linalg.det(_matrices(x))),
                              _invertible(np.linalg.det(gl2h_embed(_m2h(x.real)))))

    zero_divisor = (scalar(1) + gamma(0))._c.astype(complex)  # singular on both sides
    # each block is tested as it is drawn, and every block is drawn whatever the verdict,
    # so that the checks after this one draw the same numbers
    disagree = not agree(zero_divisor[None])
    for n in _blocks(trials):
        disagree |= not agree(_random_coefficients(rng, (n,), real=True))
    return verdict("invertibility-transport", disagree, 0.0)


def even_block_multiplicativity(rng, trials) -> dict:
    """The largest entry of m(x y) - m(x) m(y) for the even-subalgebra block
    map m of :func:`even_to_m2c`."""
    worst = []
    for n in _blocks(trials):
        x, y = np.moveaxis(_random_coefficients(rng, (n, 2), real=True, grades=(0, 2, 4)), 1, 0)
        worst.append(_max_entry(_even_block(_product(x, y)) - _even_block(x) @ _even_block(y)))
    return verdict("even-block-multiplicativity", worst, PRODUCT_TOL)


def intertwined_representations(rng, trials) -> dict:
    """The largest entry of S embed(x) S^-1 - to_matrix(x) over real multivectors."""
    s = intertwiner()
    s_inv = np.linalg.inv(s)
    worst = []
    for n in _blocks(trials):
        x = _random_coefficients(rng, (n,), real=True)
        lhs = s @ gl2h_embed(_m2h(x.real)) @ s_inv
        worst.append(_max_entry(lhs - _matrices(x)))
    return verdict("intertwined-representations", worst, IDENTITY_TOL)


def _ideal_pairs(rng, n, f, real=False) -> np.ndarray:
    """psi, phi = (random multivector) f for ``n`` trials."""
    return np.moveaxis(_product(_random_coefficients(rng, (n, 2), real=real), f), 1, 0)


def beta_in_ring(rng, trials, f, real) -> dict:
    """The distance of beta(psi, phi) (reversion, h = 1) from the scalar
    ring f Cl f, for psi, phi in the left ideal of ``f``."""
    h, fc = scalar(1)._c, f.value._c
    worst = []
    for n in _blocks(trials):
        psi, phi = _ideal_pairs(rng, n, fc, real)
        worst.append(_ring_residual(_beta(psi, phi, "reversion", h, fc), fc))
    return verdict("beta-in-ring", worst, PRODUCT_TOL)


def beta_matches_matrix_adjoint(rng, trials, f) -> dict:
    """The largest entry of beta(psi, phi) (gamma0-adjoint, h = g0) minus
    psi^dag g0 phi f computed on matrices."""
    h, fc = gamma(0)._c.astype(complex), f.value._c.astype(complex)
    worst = []
    for n in _blocks(trials):
        psi, phi = _ideal_pairs(rng, n, fc)
        b = _beta(psi, phi, "dirac_dagger", h, fc)
        matrix_side = _g0_right(_dagger(_matrices(psi))) @ _matrices(phi) @ _matrices(fc)
        worst.append(_max_entry(_matrices(b) - matrix_side))
    return verdict("beta-matches-matrix-adjoint", worst, PRODUCT_TOL)


@cache
def spinor_space_structure() -> tuple:
    """What the spinor-space checks measure without drawing, once per process: the complex and
    real canonical idempotents f, the complex one's matrix rank, the complex left, complex right
    and real left ideals, the two division rings and whether the involution conditions hold."""
    fc, fr = canonical_idempotent("complex"), canonical_idempotent("real")
    involutions = (verify_involution_conditions("reversion", scalar(1), fr)
                   and not verify_involution_conditions("grade", scalar(1), fr)
                   and verify_involution_conditions("dirac_dagger", gamma(0), fr))
    return (fc, fr, np.linalg.matrix_rank(to_matrix(fc.value), tol=RANK_TOL),
            ideal_basis(fc, "left", "complex"), ideal_basis(fc, "right", "complex"),
            ideal_basis(fr, "left", "real"), division_ring_identify(fc, "complex"),
            division_ring_identify(fr, "real"), involutions)


def spinor_spaces(rng, trials) -> list:
    """The spinor-space checks in report order, on :func:`spinor_space_structure`."""
    (fc, fr, rank, complex_left, complex_right, real_left, ring_c, ring_r,
     involutions) = spinor_space_structure()
    return [
        verdict("complex-idempotency", fc.residual, ROUNDING_TOL),
        verdict("complex-projector-rank-1", abs(rank - 1), 0.0),
        verdict("real-idempotency", fr.residual, ROUNDING_TOL),
        verdict("ideal-dimension-complex-left", abs(complex_left.dimension - 4), 0.0),
        verdict("ideal-dimension-complex-right", abs(complex_right.dimension - 4), 0.0),
        verdict("ideal-dimension-real-left", abs(real_left.dimension - 8), 0.0),
        verdict("division-ring-complex-is-C", (ring_c.name, ring_c.dimension) != ("C", 1), 0.0),
        verdict("division-ring-real-is-H",
                (ring_r.name, ring_r.dimension, ring_r.profile_ok) != ("H", 4, True), 0.0),
        beta_in_ring(rng, trials, fr, real=True),
        verdict("involution-conditions", not involutions, 0.0),
        beta_matches_matrix_adjoint(rng, trials, fr),
    ]
