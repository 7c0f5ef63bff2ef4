"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every criterion is also enforced with assertions, so the suite
is red if any of them regresses.
"""

import math
import time

import numpy as np
import pytest

from spinorlab import checks
from spinorlab.duals import (
    delta_to_omega,
    named_operator,
    omega_residual,
    random_delta,
    xi,
)
from spinorlab.groups import (
    CapExceeded,
    exp_bivector,
    generate_group,
    identify_group,
    membership,
    twisted_adjoint,
)
from spinorlab.ideals import canonical_idempotent, division_ring_identify
from spinorlab.multivector import (
    METRIC,
    Multivector,
    coefficient_distance,
    gamma,
    hermitian_blade,
    random_multivector,
    scalar,
)
from spinorlab.quaternions import even_to_m2c, pattern_dof
from spinorlab.weyl import dirac_dagger_dual, to_matrix

from test_checks import ref_random_kinematics

KLEIN_TABLE = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_clifford_relations_exact():
    start = time.perf_counter()
    exact = True
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) * gamma(nu) + gamma(nu) * gamma(mu)
            expected = scalar(2 * METRIC[mu]) if mu == nu else Multivector()
            exact = exact and anti == expected
            exact = exact and all(
                isinstance(v, int) for _, v in anti.items()
            )
    elapsed = time.perf_counter() - start
    report(
        1, exact and elapsed < 1.0,
        f"16 generator pairs exact in integer arithmetic ({elapsed:.3f}s)",
    )


def _match_generated_to_reference(group, references, tol):
    perm = []
    for ref in references:
        hits = [i for i, el in enumerate(group.elements) if abs(el - ref).max() <= tol]
        if len(hits) != 1:
            return None
        perm.append(hits[0])
    return perm if len(set(perm)) == len(references) else None


def test_criterion_02_cayley_tables_reproduce_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for k in [ref_random_kinematics(rng) for _ in range(20)]:
        g = named_operator("G", k)
        f = named_operator("F", k)
        xd = named_operator("XiDagger", k)
        for gens, refs in (
            ([g, f], [np.eye(4), g, f, f @ g]),
            ([g, xd], [np.eye(4), g, xd, g @ xd]),
        ):
            group = generate_group(gens)
            ok = ok and group.order == 4
            perm = _match_generated_to_reference(group, refs, 1e-9)
            ok = ok and perm is not None
            if perm is None:
                continue
            for i in range(4):
                for j in range(4):
                    ok = ok and group.table[perm[i], perm[j]] == perm[KLEIN_TABLE[i, j]]
            ok = ok and identify_group(group).name == "K4"
    elapsed = time.perf_counter() - start
    report(
        2, ok and elapsed < 5.0,
        f"both operator groups match the reference Cayley tables and are K4 "
        f"at 20 points ({elapsed:.3f}s)",
    )


def test_criterion_03_named_operators_match_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    rows = checks.operator_residuals(rng, 99, ref_random_kinematics(rng), 1e-9)
    worst = float(np.max([row["residual"] for row in rows]))  # NaN if any residual is NaN
    elapsed = time.perf_counter() - start
    report(
        3, worst <= 1e-9 and elapsed < 10.0,
        f"7 defining expressions vs closed forms at 100 points, "
        f"worst residual {worst:.2e} ({elapsed:.3f}s)",
    )


def test_criterion_04_block_pattern_theorem():
    rng = np.random.default_rng(4)
    worst_constraint, worst_hermiticity = (c["residual"] for c in checks.block_pattern(rng, 1000))
    accepted = 1000 * checks.generic_acceptance(rng, 1000)["residual"]
    ok = worst_constraint <= 1e-10 and worst_hermiticity <= 1e-12 and accepted == 0
    report(
        4, ok,
        f"1000 block-pattern matrices validate (hermiticity residual "
        f"{worst_hermiticity:.2e}); 1000 generic matrices all rejected",
    )


def test_criterion_05_fixed_points_of_the_adjoint():
    rng = np.random.default_rng(5)
    worst_fix = 0.0
    for _ in range(1000):
        x = random_multivector(rng, hermitian=True)
        worst_fix = max(worst_fix, coefficient_distance(dirac_dagger_dual(x), x))
    weakest = math.inf
    for _ in range(1000):
        x = random_multivector(rng, hermitian=True)
        mask = rng.integers(0, 16)
        eps = rng.uniform(1e-6, 1e-3)
        y = x + complex(0, eps) * hermitian_blade(mask)
        weakest = min(weakest, coefficient_distance(dirac_dagger_dual(y), y))
    ok = worst_fix <= 1e-12 and weakest > 1e-7
    report(
        5, ok,
        f"1000 real-coefficient multivectors fixed within {worst_fix:.2e}; "
        f"imaginary perturbations >= 1e-6 leave residual >= {weakest:.2e}",
    )


def test_criterion_06_closure_theorem():
    rng = np.random.default_rng(6)
    k = ref_random_kinematics(rng)
    x = xi(k)

    worst_commuting = 0.0
    for _ in range(200):
        base = delta_to_omega(random_delta(rng), k)
        c = rng.uniform(-1, 1, 5)
        om1 = c[0] * np.eye(4) + c[1] * base + c[2] * base @ base
        om2 = c[3] * np.eye(4) + c[4] * base
        worst_commuting = max(worst_commuting, omega_residual(om1 @ om2, x))

    weakest_violation = math.inf
    for _ in range(200):
        om1 = delta_to_omega(random_delta(rng), k)
        om2 = delta_to_omega(random_delta(rng), k)
        if abs(om1 @ om2 - om2 @ om1).max() < 1e-3:
            continue  # genuinely commuting pairs are excluded by construction
        weakest_violation = min(weakest_violation, omega_residual(om1 @ om2, x))

    cap_exceeded = 0
    for kk in [ref_random_kinematics(rng) for _ in range(10)]:
        try:
            generate_group([named_operator("H", kk)], cap=64)
        except CapExceeded:
            cap_exceeded += 1
    ok = (
        worst_commuting <= 1e-9
        and weakest_violation > 1e-6
        and cap_exceeded == 10
    )
    report(
        6, ok,
        f"200 commuting products valid within {worst_commuting:.2e}; 200 "
        f"non-commuting products violate by >= {weakest_violation:.2e}; "
        f"H generation exceeded cap 64 at {cap_exceeded}/10 points",
    )


def test_criterion_07_quaternionic_suite():
    exact = checks.clifford_relations()["residual"] == 0.0
    rng = np.random.default_rng(7)
    worst_hom = checks.gl2h_homomorphism(rng, 1000)["residual"]
    transport_ok = checks.invertibility_transported(rng, 499)["residual"] == 0.0
    ok = exact and worst_hom <= 1e-10 and pattern_dof() == 16 and transport_ok
    report(
        7, ok,
        f"quaternionic Clifford relations exact; embedding homomorphism worst "
        f"{worst_hom:.2e} on 1000 pairs; pattern dof {pattern_dof()}; "
        f"invertibility transported on 500 multivectors",
    )


def test_criterion_08_even_subalgebra_map():
    worst = checks.even_block_multiplicativity(np.random.default_rng(8), 1000)["residual"]
    from spinorlab.multivector import GRADE

    cols = []
    for mask in range(16):
        if GRADE[mask] % 2 == 0:
            block = even_to_m2c(Multivector({mask: 1}))
            cols.append(np.concatenate([block.ravel().real, block.ravel().imag]))
    m8 = np.array(cols).T
    kernel_residual = float(abs(m8 @ np.linalg.inv(m8) - np.eye(8)).max())
    ok = worst <= 1e-10 and kernel_residual <= 1e-12
    report(
        8, ok,
        f"even-block map multiplicative within {worst:.2e} on 1000 pairs; "
        f"8x8 coefficient map invertible (residual {kernel_residual:.2e})",
    )


def test_criterion_09_spin_hierarchy():
    rng = np.random.default_rng(9)
    eta = np.diag(METRIC)
    all_spin_plus = True
    worst_metric = 0.0
    worst_cover = 0.0
    for _ in range(500):
        b = random_multivector(rng, real=True, grades=(2,))
        rotor = exp_bivector(0.75 * b)
        all_spin_plus = all_spin_plus and membership(rotor, tol=1e-8).in_spin_plus
        lam = twisted_adjoint(rotor)
        worst_metric = max(worst_metric, float(abs(lam.T @ eta @ lam - eta).max()))
        worst_cover = max(
            worst_cover, float(abs(lam - twisted_adjoint(-1 * rotor)).max())
        )
    ok = all_spin_plus and worst_metric <= 1e-8 and worst_cover <= 1e-8
    report(
        9, ok,
        f"500 rotors in Spin+; metric preserved within {worst_metric:.2e}; "
        f"x and -x give the same Lorentz matrix within {worst_cover:.2e}",
    )


def test_criterion_10_spinor_spaces():
    fc = canonical_idempotent("complex")
    fr = canonical_idempotent("real")
    idem = fc.residual
    rank = int(np.linalg.matrix_rank(to_matrix(fc.value), tol=1e-9))
    ring_c = division_ring_identify(fc, "complex")
    ring_r = division_ring_identify(fr, "real")

    worst_beta = checks.beta_in_ring(np.random.default_rng(10), 100, fr, real=False)["residual"]

    ok = (
        idem <= 1e-12
        and rank == 1
        and (ring_c.name, ring_c.dimension) == ("C", 1)
        and (ring_r.name, ring_r.dimension) == ("H", 4)
        and worst_beta <= 1e-10
    )
    report(
        10, ok,
        f"canonical idempotent rank {rank}, idempotency residual {idem:.2e}; "
        f"rings {ring_c.name}/{ring_r.name}; beta stays in the scalar ring "
        f"within {worst_beta:.2e} on 100 pairs",
    )
