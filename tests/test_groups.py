"""Group machinery: closure, generation, Cayley tables, orbits, hierarchy."""

import math

import numpy as np
import pytest

from spinorlab.duals import (
    KinematicPoint,
    delta_to_omega,
    named_operator,
    random_delta,
    random_kinematics,
    validate_omega,
    xi,
)
from spinorlab.groups import (
    CapExceeded,
    check_abelian_closure,
    exp_bivector,
    generate_group,
    group_from_elements,
    identify_group,
    membership,
    minkowski_metric,
    orbit_partition,
    twisted_adjoint,
)
from spinorlab.multivector import (
    Multivector,
    blade,
    coefficient_distance,
    gamma,
    random_multivector,
    scalar,
)
from spinorlab.weyl import GAMMA0, to_matrix, weyl_gamma

K = KinematicPoint(1.0, 1.0, 0.7, 0.3)

KLEIN_TABLE = np.array(
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
)


def gf_elements(k):
    g = named_operator("G", k)
    f = named_operator("F", k)
    return [np.eye(4, dtype=complex), g, f, f @ g]


def gxd_elements(k):
    g = named_operator("G", k)
    xd = named_operator("XiDagger", k)
    return [np.eye(4, dtype=complex), g, xd, g @ xd]


# -- abelian closure -------------------------------------------------------------


def test_gf_set_closes():
    assert check_abelian_closure(gf_elements(K), K)


def test_gxidagger_set_closes():
    assert check_abelian_closure(gxd_elements(K), K)


def test_random_valid_pair_does_not_commute():
    rng = np.random.default_rng(0)
    om1 = delta_to_omega(random_delta(rng), K)
    om2 = delta_to_omega(random_delta(rng), K)
    report = check_abelian_closure([om1, om2], K)
    assert not report
    assert report.worst_norm > 1e-3
    assert report.worst_pair == (0, 1)


def test_invalid_candidate_rejected_before_scan():
    with pytest.raises(ValueError):
        check_abelian_closure([np.eye(4), 1j * np.eye(4)], K)


def omega_condition_residual(om, k):
    x = xi(k)
    return abs(om.conj().T - x @ GAMMA0 @ om @ GAMMA0 @ x).max()


def test_closure_theorem_forward():
    # A commuting valid set generates a group whose every element is valid.
    group = generate_group(gf_elements(K)[1:3], labels=["G", "F"])
    for element in group.elements:
        assert omega_condition_residual(element, K) < 1e-9


def test_closure_theorem_converse():
    # A valid non-commuting pair yields a product violating the condition.
    rng = np.random.default_rng(1)
    om1 = delta_to_omega(random_delta(rng), K)
    om2 = delta_to_omega(random_delta(rng), K)
    assert validate_omega(om1, K) and validate_omega(om2, K)
    assert omega_condition_residual(om1 @ om2, K) > 1e-6


# -- group generation --------------------------------------------------------------


def test_generate_gf_group():
    g = named_operator("G", K)
    f = named_operator("F", K)
    group = generate_group([g, f], labels=["G", "F"])
    assert group.order == 4
    expected = gf_elements(K)
    matched = set()
    for ref in expected:
        hits = [
            i for i, el in enumerate(group.elements) if abs(el - ref).max() < 1e-9
        ]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == {0, 1, 2, 3}


def test_generate_h_exceeds_cap():
    h = named_operator("H", K)
    with pytest.raises(CapExceeded) as err:
        generate_group([h], cap=64)
    assert err.value.count > 64


def test_generate_h_at_readme_point_reaches_cap_1024():
    h = named_operator("H", K)
    with pytest.raises(CapExceeded) as err:
        generate_group([h], cap=1024)
    assert (err.value.cap, err.value.count) == (1024, 1025)


def test_dedup_boundary_is_ten_times_tol():
    # (1 + d) R and its powers differ from R^n by about 2d per step, so the
    # default tol = 1e-8 merges them below d = 5e-8 and keeps them apart
    # above it.
    r = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert generate_group([(1 + 4.9e-8) * r], cap=16).order == 2
    with pytest.raises(CapExceeded):
        generate_group([(1 + 6e-8) * r], cap=16)


@pytest.mark.parametrize("extra, order", [([], 32), ([1j * np.eye(4)], 64)])
def test_dirac_group_orders_and_table(extra, order):
    group = generate_group([weyl_gamma(mu) for mu in range(4)] + extra)
    assert group.order == order
    everyone = list(range(order))
    assert all(sorted(row) == everyone for row in group.table)
    assert all(sorted(col) == everyone for col in group.table.T)
    for i, a in enumerate(group.elements):
        for j, b in enumerate(group.elements):
            assert abs(a @ b - group.elements[group.table[i, j]]).max() <= 1e-9


def test_generate_trivial_group():
    group = generate_group([np.eye(4, dtype=complex)])
    assert group.order == 1
    assert identify_group(group).name == "trivial"


def test_generate_rejects_singular_generator():
    with pytest.raises(ValueError):
        generate_group([np.zeros((4, 4))])


# -- identification ------------------------------------------------------------------


def test_gf_cayley_matches_reference_table():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    assert np.array_equal(group.table, KLEIN_TABLE)
    ident = identify_group(group)
    assert ident.name == "K4"
    # every element is an involution: identity diagonal
    assert all(group.table[i, i] == 0 for i in range(4))


def test_gxidagger_cayley_matches_reference_table():
    group = group_from_elements(gxd_elements(K), ["I", "G", "XiDagger", "GXiDagger"])
    assert np.array_equal(group.table, KLEIN_TABLE)
    assert identify_group(group).name == "K4"


def test_cyclic_group_identified_as_z4():
    # Oracle: powers of i close after four steps.
    group = generate_group([1j * np.eye(4, dtype=complex)])
    assert group.order == 4
    assert identify_group(group).name == "Z4"


def test_order_two_group():
    group = generate_group([-np.eye(4, dtype=complex)])
    assert identify_group(group).name == "Z2"


def test_csv_layout():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    lines = group.to_csv().strip().splitlines()
    assert lines[0] == ",I,G,F,FG"
    assert lines[1] == "I,I,G,F,FG"
    assert lines[2] == "G,G,I,FG,F"
    assert lines[3] == "F,F,FG,I,G"
    assert lines[4] == "FG,FG,F,G,I"


# -- orbits ------------------------------------------------------------------------------


def brute_force_class_count(group, rows, tol):
    # Independent oracle: all-pairs equivalence plus union-find closure.
    rows = np.asarray(rows, dtype=complex).reshape(-1, 4)
    n = len(rows)
    related = np.zeros((n, n), dtype=bool)
    for g in group.elements:  # related[i, j]: rows[i] @ g is within tol of rows[j]
        related |= abs((rows @ g)[:, None, :] - rows[None, :, :]).max(axis=2) <= tol
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(related)):
        pi, pj = find(i), find(j)
        if pi != pj:
            parent[pi] = pj
    return len({find(i) for i in range(n)})


def test_trivial_group_gives_singletons():
    group = generate_group([np.eye(4, dtype=complex)])
    rng = np.random.default_rng(2)
    duals = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(5)]
    partition = orbit_partition(group, duals)
    assert [len(c) for c in partition.classes] == [1] * 5


def test_constructed_orbit_members_share_a_class():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = named_operator("F", K)
    partition = orbit_partition(group, [psi, psi @ f])
    assert partition.classes == [[0, 1]]
    assert partition.orbit_sizes[0] in (1, 2, 4)


def test_random_duals_match_brute_force_oracle():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    rng = np.random.default_rng(4)
    base = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    rows = list(base)
    rows.append(base[0] @ group.elements[1])
    rows.append(base[1] @ group.elements[3])
    rows.extend(rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
    partition = orbit_partition(group, rows, tol=1e-9)
    assert len(partition.classes) == brute_force_class_count(group, rows, 1e-9)


@pytest.mark.parametrize("action", ["right", "transpose"])
def test_400_shuffled_rows_match_brute_force_oracle(action):
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    rng = np.random.default_rng(14)
    rows = []
    for _ in range(100):
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        rows += [base @ (g if action == "right" else g.T) for g in group.elements]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    partition = orbit_partition(group, rows, action=action)
    owners = [[j for j in range(400) if order[j] // 4 == b] for b in range(100)]
    assert partition.classes == sorted(owners)
    transposed = group_from_elements([g.T for g in group.elements])
    oracle_group = group if action == "right" else transposed
    assert len(partition.classes) == brute_force_class_count(oracle_group, rows, 1e-9)
    assert partition.representatives == [cls[0] for cls in partition.classes]
    assert all(type(j) is int for cls in partition.classes for j in cls)


def test_empty_duals_give_empty_partition():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    partition = orbit_partition(group, [])
    assert (partition.classes, partition.representatives, partition.orbit_sizes) == (
        [], [], []
    )


def test_orbit_sizes_divide_group_order():
    group = group_from_elements(gxd_elements(K), ["I", "G", "Xd", "GXd"])
    rng = np.random.default_rng(5)
    duals = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(6)]
    partition = orbit_partition(group, duals)
    assert all(group.order % size == 0 for size in partition.orbit_sizes)


def test_partition_invariant_under_input_permutation():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    rng = np.random.default_rng(6)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rows = [psi, psi @ group.elements[2], rng.normal(size=4) + 0j]
    p1 = orbit_partition(group, rows)
    p2 = orbit_partition(group, rows[::-1])
    sizes1 = sorted(len(c) for c in p1.classes)
    sizes2 = sorted(len(c) for c in p2.classes)
    assert sizes1 == sizes2


def test_transpose_action_switch():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    rng = np.random.default_rng(7)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rows = [psi, psi @ group.elements[2].T]
    assert orbit_partition(group, rows, action="transpose").classes == [[0, 1]]
    with pytest.raises(ValueError):
        orbit_partition(group, rows, action="left")


# -- hierarchy membership --------------------------------------------------------------------


def test_membership_gamma0():
    record = membership(gamma(0))
    assert record.in_gamma and record.in_pin
    assert not record.even and not record.in_spin
    assert abs(record.norm - 1) < 1e-12


def test_membership_rotor():
    x = scalar(math.cos(math.pi / 4)) + math.sin(math.pi / 4) * blade((1, 2))
    record = membership(x)
    assert record.in_spin_plus
    assert abs(record.norm - 1) < 1e-12


def test_membership_zero_divisor():
    record = membership(scalar(1) + gamma(0))
    assert not record.invertible
    assert not record.in_gamma and not record.in_pin


def test_membership_generic_element_not_in_gamma():
    rng = np.random.default_rng(8)
    x = random_multivector(rng)
    record = membership(x)
    assert record.invertible
    assert not record.in_gamma


def test_hierarchy_monotone_on_1000_elements():
    rng = np.random.default_rng(9)
    samples = []
    for _ in range(400):
        samples.append(random_multivector(rng))
    for _ in range(300):
        b = random_multivector(rng, real=True, grades=(2,))
        samples.append(exp_bivector(b))
    for _ in range(300):
        v = random_multivector(rng, real=True, grades=(1,))
        norm_sq = complex((v * v).scalar_part()).real
        if abs(norm_sq) > 1e-6:
            samples.append((1.0 / math.sqrt(abs(norm_sq))) * v)
    for x in samples:
        r = membership(x)
        assert (not r.in_spin_plus) or r.in_spin
        assert (not r.in_spin) or r.in_pin
        assert (not r.in_pin) or r.in_gamma
        assert (not r.in_gamma) or r.invertible


# -- twisted adjoint -------------------------------------------------------------------------


def test_twisted_adjoint_identity():
    assert np.allclose(twisted_adjoint(scalar(1)), np.eye(4))


def test_twisted_adjoint_rotation():
    # Oracle: a rotor with half-angle pi/4 rotates vectors by pi/2 in the
    # 1-2 plane.
    x = scalar(math.cos(math.pi / 4)) + math.sin(math.pi / 4) * blade((1, 2))
    lam = twisted_adjoint(x)
    expected = np.eye(4)
    expected[1, 1] = 0.0
    expected[2, 2] = 0.0
    expected[1, 2] = -1.0
    expected[2, 1] = 1.0
    assert abs(lam - expected).max() < 1e-12


def test_twisted_adjoint_boost_doubles_rapidity():
    x = scalar(math.cosh(0.5)) + math.sinh(0.5) * blade((0, 1))
    lam = twisted_adjoint(x)
    assert abs(lam[0, 0] - math.cosh(1.0)) < 1e-12


def test_twisted_adjoint_preserves_metric_and_double_cover():
    rng = np.random.default_rng(10)
    eta = minkowski_metric()
    for _ in range(50):
        b = random_multivector(rng, real=True, grades=(2,))
        x = exp_bivector(0.5 * b)
        lam = twisted_adjoint(x)
        assert abs(lam.T @ eta @ lam - eta).max() < 1e-8
        assert abs(lam - twisted_adjoint(-1 * x)).max() < 1e-8


def test_twisted_adjoint_homomorphism_on_pin_pairs():
    rng = np.random.default_rng(11)
    for _ in range(30):
        b1 = random_multivector(rng, real=True, grades=(2,))
        b2 = random_multivector(rng, real=True, grades=(2,))
        x = exp_bivector(0.4 * b1)
        v = random_multivector(rng, real=True, grades=(1,))
        norm_sq = complex((v * v).scalar_part()).real
        if abs(norm_sq) < 1e-3:
            continue
        y = (1.0 / math.sqrt(abs(norm_sq))) * v  # unit vector: a reflection
        xy = x * y
        assert membership(y).in_pin
        lam = twisted_adjoint(xy)
        assert abs(lam - twisted_adjoint(x) @ twisted_adjoint(y)).max() < 1e-8
        assert abs(twisted_adjoint(exp_bivector(0.4 * b2) * x)
                   - twisted_adjoint(exp_bivector(0.4 * b2)) @ twisted_adjoint(x)
                   ).max() < 1e-8


def test_twisted_adjoint_rejects_non_pin():
    with pytest.raises(ValueError):
        twisted_adjoint(scalar(2))


# -- rotor exponential --------------------------------------------------------------------------


def test_exp_zero_bivector():
    assert coefficient_distance(exp_bivector(Multivector()), scalar(1)) == 0


def test_exp_rotation_plane():
    # e12 squares to -1, so the Euler oracle applies.
    out = exp_bivector((math.pi / 4) * blade((1, 2)))
    expected = scalar(math.cos(math.pi / 4)) + math.sin(math.pi / 4) * blade((1, 2))
    assert coefficient_distance(out, expected) < 1e-12


def test_exp_boost_plane():
    # e01 squares to +1, so cosh/sinh replace cos/sin.
    out = exp_bivector(0.3 * blade((0, 1)))
    expected = scalar(math.cosh(0.3)) + math.sinh(0.3) * blade((0, 1))
    assert coefficient_distance(out, expected) < 1e-12


def test_exp_rejects_non_bivector():
    with pytest.raises(ValueError):
        exp_bivector(gamma(1))


def test_exp_bivector_lands_in_spin_plus():
    rng = np.random.default_rng(12)
    for _ in range(25):
        b = random_multivector(rng, real=True, grades=(2,))
        assert membership(exp_bivector(b), tol=1e-8).in_spin_plus


def taylor_expm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    # Reference exponential: Taylor series on a halved until its norm is
    # at most 1/2, then squared back up.
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    a = a / 2**squarings
    out = term = np.eye(4, dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize("scale", [1e-12, 1e-4, 0.5, 1.0, 3.0])
def test_exp_bivector_matches_taylor_reference(scale):
    rng = np.random.default_rng(13)
    for _ in range(50):
        b = scale * random_multivector(rng, real=True, grades=(2,))
        ref = taylor_expm(to_matrix(b))
        err = abs(to_matrix(exp_bivector(b)) - ref).max()
        assert err <= 1e-13 * abs(ref).max()


def test_exp_null_bivector_is_exact():
    # e01 + e13 squares to 0, so the series stops after its linear term.
    b = blade((0, 1)) + blade((1, 3))
    assert b * b == Multivector()
    assert exp_bivector(b) == scalar(1) + b
