"""Group machinery: closure, generation, Cayley tables, orbits, hierarchy."""

import cmath
import math
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinorlab.duals import (
    InvalidOperatorError,
    KinematicPoint,
    delta_to_omega,
    named_operator,
    random_delta,
    validate_omega,
    xi,
)
from spinorlab import groups
from spinorlab.cli import _as_csv
from spinorlab.groups import (
    CapExceeded,
    check_abelian_closure,
    exp_bivector,
    generate_group,
    group_from_elements,
    MembershipRecord,
    identify_group,
    membership,
    orbit_partition,
    twisted_adjoint,
    _VECTOR_SLOTS,
    _times_generators,
)
from spinorlab.multivector import (
    _BLADES,
    METRIC,
    Multivector,
    _involute,
    _product,
    blade,
    coefficient_distance,
    gamma,
    random_multivector,
    scalar,
)
from spinorlab.weyl import GAMMA0, from_matrix, multivector_inverse, to_matrix, weyl_gamma

from test_checks import ref_random_kinematics

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


def test_invalid_candidate_error_is_the_omega_verdict():
    # The verdict is worded once, by OperatorValidation.require, and keeps
    # the candidate index.
    bad = 1j * np.eye(4)
    with pytest.raises(InvalidOperatorError) as info:
        check_abelian_closure([np.eye(4), bad], K)
    check = validate_omega(bad, K)
    assert str(info.value) == (
        f"candidate 1: not a valid Omega: constraint residual {check.residual:.3e}"
        f" (tolerance 1.0e-10), |det| = {abs(check.det):.3e}"
    )
    assert isinstance(info.value.__cause__, InvalidOperatorError)


def loop_closure_scan(mats):
    """check_abelian_closure's worst commutator and pair, one pair at a time:
    the first strict maximum in (i, j) order; a NaN norm never replaces it."""
    worst, worst_pair = 0.0, None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            norm = float(abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max())
            if norm > worst:
                worst, worst_pair = norm, (i, j)
    return worst, worst_pair


def closure_scan_cases():
    rng = np.random.default_rng(19)
    a, b, c = (delta_to_omega(random_delta(rng), K) for _ in range(3))
    eye, nan = np.eye(4, dtype=complex), np.full((4, 4), np.nan + 0j)
    yield "random", [a, b, c, a @ b]
    yield "tie", [a, b, a]  # (0, 1) and (1, 2) have equal norms
    yield "ties", [eye, a, b, b, a]
    yield "commuting", [eye, 2 * eye, -eye]
    yield "nan", [a, nan, b]
    yield "all-nan", [nan, nan]
    yield "overflow", [1e300 * a, 1e300 * b, c]
    yield "one", [a]
    yield "none", []


@pytest.mark.parametrize("mats", [c[1] for c in closure_scan_cases()],
                         ids=[c[0] for c in closure_scan_cases()])
@np.errstate(all="ignore")
def test_closure_scan_matches_pair_loop(mats, monkeypatch):
    # Validation is stubbed so that NaN and overflowing sets reach the scan.
    monkeypatch.setattr(groups, "validate_omega", lambda m, k: validate_omega(np.eye(4), k))
    report = check_abelian_closure(mats, K)
    assert (report.worst_norm, report.worst_pair) == loop_closure_scan(mats)
    assert type(report.worst_norm) is float
    assert report.worst_pair is None or all(type(i) is int for i in report.worst_pair)
    assert report.commutes == (report.worst_norm <= groups.COMMUTATOR_TOL)


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


def _find(stored: np.ndarray, x: np.ndarray, tol: float):
    """The dense lookup that the keyed one must match: the index of the first row of
    ``stored`` within max-entry distance ``tol`` of the row ``x``, or -1; a stack of
    rows ``x`` gives one index per row."""
    hits = (abs(stored - x[..., None, :]) <= tol).all(axis=-1)
    return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)


def per_element_table(elements, tol):
    flat = np.array(elements).reshape(len(elements), 16)
    return np.array([[_find(flat, (a @ b).ravel(), tol) for b in elements]
                     for a in elements])


@pytest.mark.parametrize("order", [4, 32, 64])
def test_table_equals_per_element_lookup(order):
    if order == 4:
        group, tol = group_from_elements(gf_elements(K)), 1e-9
    else:
        extra = [1j * np.eye(4)] if order == 64 else []
        group, tol = generate_group([weyl_gamma(mu) for mu in range(4)] + extra), 1e-7
    assert group.order == order
    assert np.array_equal(group.table, per_element_table(group.elements, tol))


def test_table_lookups_stay_in_blocks(monkeypatch):
    # A cyclic group of order 100 needs two lookup blocks per table row, and
    # its closure walks blocks of 32 parents times 2 steps; no keyed lookup
    # may stack more than 64 products.
    shapes = []
    real_matches = groups._matches

    def recording_matches(stored, keys, x, tol):
        shapes.append(x.shape)
        return real_matches(stored, keys, x, tol)

    monkeypatch.setattr(groups, "_matches", recording_matches)
    step = np.diag([np.exp(2j * np.pi / 100), 1, 1, 1])
    elements = [np.linalg.matrix_power(step, i) for i in range(100)]
    group = group_from_elements(elements)
    assert np.array_equal(group.table, (np.add.outer(range(100), range(100)) % 100))
    assert max(shape[0] for shape in shapes) == 64
    shapes.clear()
    assert generate_group([step]).order == 100
    assert max(shape[0] for shape in shapes) == 64


def _corner():
    e = np.zeros((4, 4))
    e[0, 3] = 1  # e @ e = 0
    return e


@pytest.mark.parametrize("elements, message", [
    # closed, with identity I; -I is its own inverse, 0, P and -P have none
    ([np.eye(4), -np.eye(4), np.zeros((4, 4)), np.diag([1.0, 0, 0, 0]),
      -np.diag([1.0, 0, 0, 0])], "element 2 has no inverse"),
    ([np.zeros((4, 4)), _corner()], "group has no identity element"),
    ([np.eye(4), _corner()], "element set is not closed under products"),
])
def test_group_from_elements_names_the_first_failure(elements, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        group_from_elements(elements)


def sequential_closure(generators, cap):
    """generate_group one product at a time, each compared in full with
    every stored element by _find.  Returns the elements, labels and table,
    or ("cap", cap, count, labels) where the walk passed the cap."""
    tol = 10 * groups.DEDUP_TOL
    steps = []
    for i, g in enumerate(generators):
        g = np.asarray(g, dtype=complex)
        steps += [(g, f"g{i}"), (np.linalg.inv(g), f"g{i}^-1")]
    elements, names = [np.eye(4, dtype=complex)], ["I"]
    flat = elements[0].reshape(1, 16)
    for m, name in zip(elements, names):
        for g, step in steps:
            prod = m @ g
            if _find(flat, prod.ravel(), tol) >= 0:
                continue
            flat = np.concatenate([flat, prod.reshape(1, 16)])
            elements.append(prod)
            names.append(step if name == "I" else f"{name}·{step}")
            if len(elements) > cap:
                return "cap", cap, len(elements), names
    stack = np.array(elements)
    table = np.array([_find(flat, (a @ stack).reshape(-1, 16), tol) for a in stack])
    return stack, names, table


def closure_cases():
    h = named_operator("H", K)
    for cap in (64, 256, 1024):
        yield f"H-readme-{cap}", [h], cap
    rng = np.random.default_rng(16)
    for i, k in enumerate([ref_random_kinematics(rng) for _ in range(3)]):
        yield f"H-random-{i}", [named_operator("H", k)], 256
    gammas = [weyl_gamma(mu) for mu in range(4)]
    yield "dirac-32", gammas, 1024
    yield "dirac-64", gammas + [1j * np.eye(4)], 1024
    r = np.diag([-1.0, 1.0, 1.0, 1.0])
    yield "R-merged", [(1 + 4.9e-8) * r], 16
    yield "R-apart", [(1 + 6e-8) * r], 16
    yield "cyclic-100", [np.diag([np.exp(2j * np.pi / 100), 1, 1, 1])], 1024
    # a matches I, b matches a but not I: b is new, since a was never kept.
    a, b = (1 + 0.9e-7) * np.eye(4), (1 + 1.8e-7) * np.eye(4)
    yield "drift-chain", [a, b], 64
    # Order 2, with |tr| 4 + 1.96e-7 and an eigenvalue modulus 1 + 1.47e-7:
    # past the merge distance, inside the screen's four-fold slack.
    yield "minus-I-merged", [-(1 + 4.9e-8) * np.eye(4)], 16
    yield "R-spread", [r + 4.9e-8 * np.ones((4, 4))], 16
    # H is within 2e-9 of I here, so the walk, not the screen, decides.
    yield "H-tiny-p", [named_operator("H", KinematicPoint(1.0, 1e-9, 0.7, 0.3))], 64
    for p in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2):
        k = KinematicPoint(1.0, p, 0.7, 0.3)
        for other in ("F", "XiDagger"):
            yield f"G{other}-{p:g}", [named_operator("G", k), named_operator(other, k)], 64


@pytest.mark.parametrize("gens, cap", [c[1:] for c in closure_cases()],
                         ids=[c[0] for c in closure_cases()])
def test_closure_matches_sequential_reference(gens, cap, monkeypatch):
    ref = sequential_closure(gens, cap)
    composed = []
    real_compose = groups._compose_label

    def recording_compose(a, b):
        composed.append(real_compose(a, b))
        return composed[-1]

    monkeypatch.setattr(groups, "_compose_label", recording_compose)
    if isinstance(ref[0], str):
        # The spectral screen stops these walks in their first blocks; with
        # it off, the walk itself is checked against the reference.
        monkeypatch.setattr(groups, "_screen", lambda rows, labels, cap: None)
        with pytest.raises(CapExceeded) as err:
            generate_group(gens, cap)
        assert (err.value.cap, err.value.count) == ref[1:3]
        assert err.value.witness is None
        # The walk may finish the block that passed the cap, so it can have
        # named more products than the reference; the first ones agree.
        assert composed[:cap] == ref[3][1:]
    else:
        screened = []
        real_screen = groups._screen

        def recording_screen(rows, labels, cap):
            real_screen(rows, labels, cap)
            screened.extend(labels)

        monkeypatch.setattr(groups, "_screen", recording_screen)
        group = generate_group(gens, cap)
        assert np.array_equal(np.array(group.elements), ref[0])
        assert group.labels == ref[1] == ["I"] + composed
        assert np.array_equal(group.table, ref[2])
        # the generators and their inverses went through the live screen up
        # front, then every element but I did in the walk; it let all pass
        steps = [f"g{i}{inverse}" for i in range(len(gens)) for inverse in ("", "^-1")]
        assert screened == steps + ref[1][1:]


def test_screen_certifies_h_at_random_points():
    # H = m^2 Xi Xi^dag is Hermitian positive definite and not I for p > 0,
    # so its group is infinite: its trace or its eigenvalues prove it.
    kinds = set()
    rng = np.random.default_rng(18)
    for k in [ref_random_kinematics(rng) for _ in range(2000)]:
        with pytest.raises(CapExceeded) as err:
            generate_group([named_operator("H", k)], cap=64)
        stop = err.value
        assert (stop.cap, stop.count) == (64, 65)
        assert str(stop) == f"group generation exceeded cap 64 ({stop.witness})"
        assert stop.witness.startswith("g0 ") and stop.witness.endswith(": infinite order")
        kinds.add(stop.witness.split()[1])
    assert kinds == {"has", "is"}  # both the trace and the Hermitian test fire


def test_screen_skips_eigenvalues_of_nonfinite_rows():
    # eigvalsh fails on infinite entries, which overflowing products can hold;
    # such a row is judged by its trace alone, and the block is still screened.
    overflowed = np.diag([0, 0, 1, 1]).astype(complex)
    overflowed[0, 1] = overflowed[1, 0] = np.inf
    rows = np.array([overflowed, np.eye(4), 0.5 * np.eye(4)]).reshape(3, 16)
    with pytest.raises(CapExceeded) as err:
        groups._screen(rows, ["a", "b", "c"], 8)
    assert (err.value.cap, err.value.count) == (8, 9)
    assert err.value.witness == (
        "c is Hermitian with an eigenvalue modulus off 1 by 0.5: infinite order")


def test_screen_refuses_generators_before_the_walk(monkeypatch):
    # a generator or inverse of infinite order is refused before the walk
    # looks up a single product, under the name the walk would give it
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(groups, "_lookup", no_walk)
    monkeypatch.setattr(groups, "_matches", no_walk)
    h = named_operator("H", K)
    for cap in (64, 256, 1024):
        with pytest.raises(CapExceeded) as err:
            generate_group([h], cap)
        assert (err.value.cap, err.value.witness) == (cap, "g0 has |tr| 12 > 4: infinite order")
    g = np.eye(4)
    g[0, :2] = 0.1, 1  # I - 0.9 E00 + E01: |tr g| = 3.1, |tr g^-1| = 13
    for gens, witness in [([g], "g0^-1"), ([np.eye(4), g], "g1^-1")]:
        with pytest.raises(CapExceeded) as err:
            generate_group(gens, 64)
        assert err.value.witness == f"{witness} has |tr| 13 > 4: infinite order"
    # a singular generator is refused first, before any screen
    with pytest.raises(ValueError, match="^generator 1 is not invertible$"):
        generate_group([h, np.zeros((4, 4))], 64)


def _row(entries, scale, i, value):
    row = scale * entries
    if value is not None:
        row[i] = value
    return row


_SMALL = st.floats(-4, 4)
#: rows with entries of order 1, near 1e300 or near overflow, and at most
#: one NaN or infinite entry
_ROW = st.builds(
    _row,
    arrays(complex, 16, elements=st.builds(complex, _SMALL, _SMALL)),
    st.sampled_from([1.0, 1e300, 4e307]),
    st.integers(0, 15),
    st.one_of(st.none(), st.sampled_from([complex(math.nan, 0), complex(math.inf, 1),
                                          complex(0, -math.inf)])),
)


def _nudges(tol):
    """Offsets at, just inside and just outside tol on each entry; the
    aligned ones move the key by 16 tol, the edge of the key window."""
    aligned = tol * np.conj(groups._KEY_WEIGHTS)
    edge = np.full(16, tol, dtype=complex)
    return [np.zeros(16), edge, -1j * edge, aligned, aligned * (1 - 2**-50),
            aligned * (1 + 2**-50), edge * (1 - 2**-50), edge * (1 + 2**-50)]


@settings(max_examples=100, deadline=None)
@given(st.data())
@np.errstate(all="ignore")
def test_keyed_lookup_matches_find(data):
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-7, 1.0, 1e285]))
    base = np.array(data.draw(st.lists(_ROW, min_size=1, max_size=4)))
    # Clusters of near-duplicates that differ only by rounding.
    stored = np.concatenate([base, base * (1 + 2**-52), base * (1 - 2**-53),
                             (base * 3) / 3])
    stored = stored[data.draw(st.permutations(range(len(stored))))]
    queries = []
    for _ in range(data.draw(st.integers(1, 8))):
        row = stored[data.draw(st.integers(0, len(stored) - 1))]
        bits = data.draw(st.one_of(st.just(2**16 - 1), st.integers(0, 2**16 - 1)))
        mask = (bits >> np.arange(16)) & 1
        queries.append(row + mask * data.draw(st.sampled_from(_nudges(tol))))
    queries.append(data.draw(_ROW))
    x = np.array(queries)
    keys = groups._key(stored)
    brute = (abs(stored[None] - x[:, None]) <= tol).all(axis=-1)
    assert np.array_equal(groups._matches(stored, keys, x, tol), brute)
    assert np.array_equal(groups._lookup(stored, keys, x, tol), _find(stored, x, tol))


def test_key_window_allows_for_rounding():
    # Rows moved by just under tol along the key weights sit on the edge of
    # the key window, and rounding puts some of their keys past 16 tol.
    rng = np.random.default_rng(17)
    tol = 1e-7
    stored = rng.uniform(-1, 1, (1024, 16)) + 1j * rng.uniform(-1, 1, (1024, 16))
    keys = groups._key(stored)
    past = 0
    for k in range(30, 34):
        x = stored + tol * (1 - 2.0**-k) * np.conj(groups._KEY_WEIGHTS)
        hit = (abs(x - stored) <= tol).all(axis=-1)
        past += (hit & (abs(groups._key(x) - keys) > 16 * tol)).sum()
        for i in range(0, 1024, 64):
            found = groups._lookup(stored, keys, x[i:i + 64], tol)
            assert np.array_equal(found, np.where(hit[i:i + 64], np.arange(i, i + 64), -1))
    assert past >= 1


def test_generate_trivial_group():
    group = generate_group([np.eye(4, dtype=complex)])
    assert group.order == 1
    assert identify_group(group).name == "trivial"


def test_generate_from_no_generators_or_many():
    group = generate_group([])
    assert (group.order, group.labels, group.table.tolist()) == (1, ["I"], [[0]])
    assert identify_group(group).name == "trivial"
    # 66 steps: the walk still takes one parent per block
    assert generate_group([weyl_gamma(0)] * 33).order == 2


def test_generate_rejects_singular_generator():
    with pytest.raises(ValueError):
        generate_group([np.zeros((4, 4))])


@pytest.mark.parametrize("labels", [["G"], ["G", "F", "X"]])
def test_generate_refuses_a_label_count_that_is_not_the_generator_count(labels):
    gens = [named_operator("G", K), named_operator("F", K)]
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for 2 generators$"):
        generate_group(gens, labels=labels)
    # the count is checked before the generators are: a singular one is not reached
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for 2 generators$"):
        generate_group([np.zeros((4, 4))] * 2, labels=labels)


@pytest.mark.parametrize("labels", [["I", "G"], ["I", "G", "F", "FG", "X"]])
def test_group_from_elements_refuses_a_label_count_that_is_not_the_element_count(labels):
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for 4 elements$"):
        group_from_elements(gf_elements(K), labels)
    # checked before closure: an open set with the wrong count names the count
    with pytest.raises(ValueError, match=f"^{len(labels)} labels for 4 elements$"):
        group_from_elements([np.eye(4), 2 * np.eye(4), 3 * np.eye(4), 4 * np.eye(4)], labels)


@pytest.mark.parametrize("build, mats, message", [
    (generate_group, [np.eye(3)], "generator 0 is not a 4x4 matrix"),
    (generate_group, [[1, 0, 0, 0]], "generator 0 is not a 4x4 matrix"),
    (generate_group, [np.eye(4), np.zeros((3, 3))], "generator 1 is not a 4x4 matrix"),
    (group_from_elements, [np.eye(3)], "element 0 is not a 4x4 matrix"),
    (group_from_elements, [np.eye(4), np.eye(4).reshape(16)], "element 1 is not a 4x4 matrix"),
])
def test_group_builders_refuse_a_matrix_that_is_not_4x4_by_its_index(build, mats, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(mats)


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


def loop_identity_index(table):
    for i in range(len(table)):
        if all(table[i, j] == j and table[j, i] == j for j in range(len(table))):
            return i
    raise ValueError("group has no identity element")


def loop_element_order(table, i):
    """The least n with i^n = e, so that i^(n-1) is the inverse of i."""
    e, power = loop_identity_index(table), i
    for n in range(1, len(table) + 1):
        if power == e:
            return n
        power = table[power, i]
    raise ValueError("element order exceeds group order; table is broken")


@pytest.mark.parametrize("table", [
    KLEIN_TABLE,
    (np.add.outer(range(5), range(5)) + 1) % 5,  # identity at index 4
    [[0, 1, 2], [1, 1, 1], [2, 1, 0]],  # element 1 has no inverse
    [[0, 1, 2], [1, 0, 0], [2, 0, 1]],  # element 1 has two
    [[1, 0], [0, 1]],  # Z2 with the identity second
    [[0, 0], [0, 0]],  # no identity
    np.zeros((0, 0), dtype=int),
])
def test_identity_and_inverse_match_loops(table):
    table = np.array(table)
    group = groups.FiniteMatrixGroup([None] * len(table), [""] * len(table), table)
    assert (outcome(lambda g: g.identity_index, group)
            == outcome(loop_identity_index, table))
    for i in range(-len(table), len(table)):
        assert (outcome(lambda g: g.element_order(i), group)
                == outcome(lambda t: loop_element_order(t, i), table))


def test_cyclic_group_identified_as_z4():
    # Oracle: powers of i close after four steps.
    group = generate_group([1j * np.eye(4, dtype=complex)])
    assert group.order == 4
    assert identify_group(group).name == "Z4"


def test_order_two_group():
    group = generate_group([-np.eye(4, dtype=complex)])
    assert identify_group(group).name == "Z2"


def test_csv_layout():
    # The csv a group's labels and Cayley table render to, as the cayley report carries them.
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    payload = {"labels": list(group.labels), "table": group.table.tolist()}
    lines = _as_csv({"payload": payload}).strip().splitlines()
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


def test_400_shuffled_rows_match_brute_force_oracle():
    group = group_from_elements(gf_elements(K), ["I", "G", "F", "FG"])
    rng = np.random.default_rng(14)
    rows = []
    for _ in range(100):
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        rows += [base @ g for g in group.elements]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    partition = orbit_partition(group, rows)
    owners = [[j for j in range(400) if order[j] // 4 == b] for b in range(100)]
    assert partition.classes == sorted(owners)
    assert len(partition.classes) == brute_force_class_count(group, rows, 1e-9)
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


@pytest.mark.filterwarnings("error")
def test_a_representative_whose_image_overflows_is_refused():
    group = group_from_elements(gxd_elements(K), ["I", "G", "Xd", "GXd"])
    with pytest.raises(OverflowError, match=r"^dual 0 is too large: an image overflows$"):
        orbit_partition(group, [[1e308] * 4, [1, 0, 0, 0]])


@pytest.mark.filterwarnings("error")
def test_the_images_of_a_member_are_not_formed():
    # row 1 lies within tol of row 0, so it joins its class; its images would overflow, and
    # the four images of row 0 lie within tol of each other, so they count once
    group = group_from_elements(gxd_elements(K), ["I", "G", "Xd", "GXd"])
    partition = orbit_partition(group, [[1, 0, 0, 0], [1e308] * 4], tol=1e308)
    assert (partition.classes, partition.orbit_sizes) == ([[0, 1]], [1])


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


def ref_orbit_partition(group, duals, tol=1e-9):
    """orbit_partition one class at a time, each class with two dense scans:
    its members among the open rows, then its distinct images."""
    rows = np.array([np.asarray(d, complex).reshape(4) for d in duals],
                    dtype=complex).reshape(-1, 4)
    mats = np.array(group.elements)
    classes, sizes = [], []
    unassigned = np.ones(len(rows), dtype=bool)
    for i in range(len(rows)):
        if not unassigned[i]:
            continue
        images = rows[i] @ mats
        open_rows = i + np.flatnonzero(unassigned[i:])
        members = open_rows[_find(images, rows[open_rows], tol) >= 0]
        unassigned[members] = False
        classes.append([int(j) for j in members])
        sizes.append(int((_find(images, images, tol) == np.arange(len(images))).sum()))
    return classes, [cls[0] for cls in classes], sizes


def klein_group(name, k):
    # Built without the closure check, which fails for GXiDagger near E/m 1e3.
    elements = gf_elements(k) if name == "GF" else gxd_elements(k)
    return groups.FiniteMatrixGroup(elements, ["I", "G", name[1:], name], KLEIN_TABLE)


def shuffled_orbits(rng, elements, bases, scale=1.0):
    """Some images of each of ``bases`` random rows, shuffled."""
    rows = []
    for _ in range(bases):
        base = scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
        picked = rng.permutation(len(elements))[:rng.integers(1, len(elements) + 1)]
        rows += [base @ elements[g] for g in picked]
    return [rows[i] for i in rng.permutation(len(rows))]


def nudged(rng, rows, tol):
    """Each row moved along random phases by tol * (1 +- 2^-k) per entry."""
    out = []
    for row in rows:
        k = rng.choice([20, 30, 40, 52])
        phases = np.exp(2j * np.pi * rng.uniform(size=4))
        out += [row, row + tol * (1 + rng.choice([-1, 1]) * 2.0**-k) * phases]
    return out


#: the point of the classify-gxidagger-orbits-split ledger entry
SPLIT_POINT = KinematicPoint(1.8384213168348236, 2700.0665423118476,
                             2.4029433328532512, 4.276206332007041)


def orbit_cases():
    rng = np.random.default_rng(19)
    for name in ("GF", "GXiDagger"):
        for p in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 2e3, 3e3):
            group = klein_group(name, KinematicPoint(1.0, p, 0.7, 0.3))
            yield f"{name}-{p:g}", group, shuffled_orbits(rng, group.elements, 60), 1e-9
        group = klein_group(name, SPLIT_POINT)
        yield f"{name}-split-point", group, shuffled_orbits(rng, group.elements, 100), 1e-9
    gf = klein_group("GF", K)
    rows = shuffled_orbits(rng, gf.elements, 30)
    for tol in (0.0, 1e-9, 1e-7, 1e285):
        yield f"tol-{tol:g}", gf, rows, tol
        yield f"nudged-{tol:g}", gf, nudged(rng, rows, tol), tol
    trivial = generate_group([np.eye(4, dtype=complex)])
    yield "trivial", trivial, shuffled_orbits(rng, gf.elements, 10), 1e-9
    dirac = generate_group([weyl_gamma(mu) for mu in range(4)] + [1j * np.eye(4)])
    yield "order-64", dirac, shuffled_orbits(rng, dirac.elements, 5), 1e-9
    yield "empty", gf, [], 1e-9
    yield "duplicates", gf, rows[:10] * 3 + rows[:4], 1e-9
    yield "mixed-types", gf, [r if i % 2 else list(r) for i, r in enumerate(rows)], 1e-9
    huge = shuffled_orbits(rng, gf.elements, 30, scale=1e307)  # images near the float limit
    for tol in (1e-9, 1e285):
        yield f"near-overflow-{tol:g}", gf, huge, tol


@pytest.mark.parametrize("group, rows, tol", [c[1:] for c in orbit_cases()],
                         ids=[c[0] for c in orbit_cases()])
@np.errstate(over="ignore", invalid="ignore")
def test_orbit_partition_matches_class_by_class_reference(group, rows, tol):
    partition = orbit_partition(group, rows, tol)
    assert (partition.classes, partition.representatives, partition.orbit_sizes) == (
        ref_orbit_partition(group, rows, tol))
    assert all(type(j) is int for cls in partition.classes for j in cls)
    assert all(type(s) is int for s in partition.orbit_sizes)


def test_split_point_still_splits_true_orbits():
    # The absolute tol splits some orbits at this point (a known defect); the
    # partition must split exactly where the reference does, no more and no less.
    rng = np.random.default_rng(20)
    group = klein_group("GXiDagger", SPLIT_POINT)
    rows = shuffled_orbits(rng, group.elements, 100)
    partition = orbit_partition(group, rows)
    assert partition.classes == ref_orbit_partition(group, rows)[0]
    assert len(partition.classes) > 100


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_dual_is_refused_by_index(bad):
    group = group_from_elements(gf_elements(K))
    with pytest.raises(ValueError, match=r"^dual 0 is not finite$"):
        orbit_partition(group, [[bad, 1, 1, 1]])
    rows = [np.ones(4), np.array([1, bad, 1, 1]), [bad, 1, 1, 1]]
    with pytest.raises(ValueError, match=r"^dual 1 is not finite$"):
        orbit_partition(group, rows)


@pytest.mark.parametrize("bad", [np.ones(3), np.ones((4, 4)), [1, 1, 1, 1, 1], 1.0])
def test_a_dual_that_is_not_four_entries_is_refused(bad):
    group = group_from_elements(gf_elements(K))
    with pytest.raises(ValueError):
        orbit_partition(group, [np.ones(4), bad])


def test_a_dual_belongs_to_the_class_it_opens():
    # The identity is (1 + 1e-10) I, so a dual of size 100 is 1e-8 from its
    # own image; it still opens, and belongs to, its own class.
    group = group_from_elements([(1 + 1e-10) * np.eye(4)])
    rows = [100 * np.ones(4), 100 * (1 + 1e-10) * np.ones(4), 50 * np.ones(4)]
    partition = orbit_partition(group, rows)
    assert partition.classes == [[0, 1], [2]]
    assert (partition.representatives, partition.orbit_sizes) == ([0, 2], [1, 1])


def test_orbit_lookups_stay_in_blocks(monkeypatch):
    shapes = []
    real_matches = groups._matches

    def recording_matches(stored, keys, x, tol):
        shapes.append(x.shape)
        return real_matches(stored, keys, x, tol)

    monkeypatch.setattr(groups, "_matches", recording_matches)
    group = group_from_elements(gf_elements(K))
    assert len(shapes) == 1  # the whole order-4 table in one keyed call
    shapes.clear()
    rows = shuffled_orbits(np.random.default_rng(21), group.elements, 200)[:400]
    assert len(rows) == 400
    partition = orbit_partition(group, rows)
    assert max(shape[0] for shape in shapes) <= 64
    assert len(shapes) <= math.ceil(400 / 16)
    assert len(shapes) < len(partition.classes)


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
        norm_sq = complex((v * v).coefficient(0)).real
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
    eta = np.diag(METRIC)
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
        norm_sq = complex((v * v).coefficient(0)).real
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


# -- the stacked conjugates against element-by-element references -------------------------


def ref_membership(x, tol=1e-10):
    """membership with one Multivector product per generator and scans of
    the nonzero coefficients."""
    even = sum(abs(v) for m, v in x.items() if m.bit_count() & 1) <= tol
    norm_mv = x * x.reversion()
    norm = complex(norm_mv.coefficient(0))
    try:
        xinv = multivector_inverse(x)
    except ZeroDivisionError:
        return MembershipRecord(even, False, False, False, False, False, norm)
    in_gamma = True
    for mu in range(4):
        y = x * gamma(mu) * xinv
        stray = sum(abs(v) for m, v in y.items() if m.bit_count() != 1)
        imag = max((abs(complex(v).imag) for m, v in y.items() if m.bit_count() == 1),
                   default=0.0)
        in_gamma = in_gamma and stray <= tol and imag <= tol
    off_scalar = sum(abs(v) for m, v in norm_mv.items() if m != 0)
    unit = off_scalar <= tol and (abs(norm - 1) <= tol or abs(norm + 1) <= tol)
    in_pin = in_gamma and unit
    in_spin = in_pin and even
    return MembershipRecord(even, True, in_gamma, in_pin, in_spin,
                            in_spin and abs(norm - 1) <= tol, norm)


def ref_twisted_adjoint(x):
    """twisted_adjoint with one Multivector product per generator."""
    if not ref_membership(x).in_pin:
        raise ValueError("twisted_adjoint requires a Pin element")
    xh, xinv = x.grade_involution(), multivector_inverse(x)
    lam = np.zeros((4, 4))
    for nu in range(4):
        y = xh * gamma(nu) * xinv
        for mu in range(4):
            lam[mu, nu] = complex(y.coefficient(1 << mu)).real
        residual = sum(abs(v) for m, v in y.items() if m.bit_count() != 1)
        if residual > 1e-8:
            raise ValueError(f"conjugation left grade 1 by {residual:.3e}")
    return lam


def outcome(f, x):
    """What f(x) returns, or the text of the ValueError it raises."""
    try:
        return f(x)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_conjugates_match_element_by_element_references():
    rng = np.random.default_rng(15)
    rotors = [exp_bivector(random_multivector(rng, real=True, grades=(2,))) for _ in range(1000)]
    samples = rotors + [r * gamma(mu) for mu, r in enumerate(rotors[:4])] + [
        gamma(0), blade((1, 2, 3)), scalar(1) + gamma(0), scalar(2), 1j * gamma(1),
        random_multivector(rng),
    ]
    rejected = 0
    for x in samples:
        record = membership(x)
        assert record == ref_membership(x)
        assert all(type(flag) is bool for flag in tuple(record)[:-1])
        lam, ref = outcome(twisted_adjoint, x), outcome(ref_twisted_adjoint, x)
        if isinstance(ref, str):
            assert lam == ref
            rejected += 1
        else:
            assert np.array_equal(lam, ref)
    assert rejected == 3  # 1 + e0, scalar(2) and the generic element are not in Pin


#: a real or imaginary part: zero of either sign, or of either sign with
#: magnitude 1e-5 to 1e5
FLOAT_PARTS = st.one_of(st.sampled_from((0.0, -0.0)), st.builds(
    lambda sign, magnitude: sign * magnitude, st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1e-5, max_value=1e5)))
FLOAT_ROWS = st.lists(st.builds(complex, FLOAT_PARTS, FLOAT_PARTS), min_size=16, max_size=16)
EXACT_ROWS = st.lists(st.one_of(
    st.just(0), st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 10**12)),
), min_size=16, max_size=16)


def blade_products(row):
    """x e_mu and hat(x) e_mu as products with the generators' coefficient rows."""
    return [_product(x, _BLADES[_VECTOR_SLOTS]) for x in (row, _involute("grade", row))]


@settings(max_examples=200, deadline=None)
@given(st.lists(FLOAT_ROWS, min_size=1, max_size=3))
def test_generator_gather_has_the_bits_of_the_blade_product(rows):
    # e_mu is a unit blade, so x e_mu is a signed gather of x's slots; the
    # gather must give every bit of the product, the sign of each zero included.
    x = np.array(rows)
    got = _times_generators(x)
    assert got.dtype == complex and got.shape == (len(rows), 2, 4, 16)
    for row, images in zip(x, got):
        for image, want in zip(images, blade_products(row)):
            assert image.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(EXACT_ROWS, min_size=1, max_size=3))
def test_generator_gather_is_exact_on_exact_rows(rows):
    x = np.array(rows, dtype=object)
    got = _times_generators(x)
    assert got.dtype == object and got.shape == (len(rows), 2, 4, 16)
    for row, images in zip(x, got):
        for image, want in zip(images, blade_products(row)):
            assert image.tolist() == want.tolist()
            assert all(type(v) in (int, Fraction) for v in image.ravel())
            assert image.astype(complex).tobytes() == want.astype(complex).tobytes()


def copy_of(x):
    return Multivector._of(x._c.copy())


def bits(result):
    """A result or error text, with the bits of every float in it."""
    if isinstance(result, MembershipRecord):
        return tuple(result)[:-1], np.complex128(result.norm).tobytes()
    return result.tobytes() if isinstance(result, np.ndarray) else result


def test_shared_pass_gives_what_fresh_copies_give():
    # Each call's record, Lambda or error text has the bits that the same call
    # on a fresh copy of its argument gives, whatever object came before it.
    rng = np.random.default_rng(16)
    rotor = exp_bivector(random_multivector(rng, real=True, grades=(2,)))
    near = (1 + 1e-9) * rotor
    assert membership(near, tol=1e-8).in_pin  # then the default tol, on the same object
    assert outcome(twisted_adjoint, near) == "ValueError: twisted_adjoint requires a Pin element"
    assert not membership(near).in_pin
    pool = [
        rotor, copy_of(rotor), rotor * gamma(1), near,
        Multivector({0: Fraction(3, 5), 6: Fraction(4, 5)}), Multivector({0: 0.6, 6: 0.8}),
        scalar(1), scalar(1.0), -scalar(-1.0),  # equal values: exact, +0 parts, -0 parts
        scalar(1) + gamma(0), scalar(2), random_multivector(rng),  # singular, not in Pin
    ]
    calls = [(membership, {}), (membership, {"tol": 1e-8}), (twisted_adjoint, {})]
    sequence = [(x, f, kw) for x in pool for f, kw in calls]
    sequence += [(x, twisted_adjoint, {}) for x in pool]
    sequence += [(pool[i], *calls[j]) for i, j in rng.integers(0, (len(pool), 3), (300, 2))]
    for x, f, kw in sequence:
        assert bits(outcome(lambda y: f(y, **kw), x)) == bits(
            outcome(lambda y: f(y, **kw), copy_of(x)))


def test_membership_then_twisted_adjoint_inverts_once(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return multivector_inverse(x)

    monkeypatch.setattr(groups, "multivector_inverse", counted)
    x = exp_bivector(0.3 * blade((1, 2)) + 0.2 * blade((0, 3)))
    assert membership(x).in_spin_plus
    twisted_adjoint(x)
    membership(x, tol=1e-8)
    assert len(calls) == 1
    membership(copy_of(x))
    assert len(calls) == 2
    twisted_adjoint(x)  # no longer the last object seen
    assert len(calls) == 3


def test_shared_pass_under_threads():
    # The last object and its data are stored as one tuple, so however the
    # threads interleave, none reads data that belongs to another object.
    rng = np.random.default_rng(17)
    xs = [exp_bivector(random_multivector(rng, real=True, grades=(2,))) for _ in range(6)]
    xs += [x * gamma(1) for x in xs[:2]] + [scalar(2), scalar(1) + gamma(0)]
    want = [(bits(membership(copy_of(x))), bits(outcome(twisted_adjoint, copy_of(x))))
            for x in xs]
    wrong, finished = [], []

    def work(seed):
        for i in np.random.default_rng(seed).integers(0, len(xs), 300):
            got = bits(membership(xs[i])), bits(outcome(twisted_adjoint, xs[i]))
            if got != want[i]:
                wrong.append(i)
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [0, 1, 2, 3] and not wrong


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


# -- Cayley tables composed from the walk ----------------------------------------------------


def table_cases():
    """Every input of the sequential-reference test, which has the Dirac
    groups of orders 32 and 64 and cyclic-100, and [G, F] and [G, XiDagger] up
    to momentum 1e4, where [G, XiDagger] closes at orders 6 and 8."""
    yield from closure_cases()
    for p in (1e3, 3e3, 1e4):
        k = KinematicPoint(1.0, p, 0.7, 0.3)
        for other in ("F", "XiDagger"):
            yield f"G{other}-{p:g}", [named_operator("G", k), named_operator(other, k)], 64


def closure_outcome(gens, cap):
    """Elements, labels and table bits of generate_group, or its error text."""
    try:
        group = generate_group(gens, cap)
    except (CapExceeded, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return np.array(group.elements).tobytes(), group.labels, group.table.dtype, group.table.tobytes()


TABLE_TOL = 10 * groups.DEDUP_TOL  # generate_group's merge distance


@dataclass
class Build:
    """One _build_table call: its order and hint, and the rows each keyed lookup
    was given, for the separation check (at 2 tol plus rounding) and for products."""

    order: int
    hint: np.ndarray | None
    separation: list = field(default_factory=list)
    products: list = field(default_factory=list)

    def looked_up(self) -> tuple:
        return sum(map(len, self.separation)), sum(map(len, self.products))


def recorded_builds(monkeypatch) -> list:
    """Record each later _build_table call; the walk's own lookups are not recorded."""
    builds = []
    real_build, real_lookup = groups._build_table, groups._lookup

    def build(stack, tol, hint=None):
        record = Build(len(stack), None if hint is None else hint.copy())
        builds.append(record)

        def lookup(stored, keys, x, t):
            (record.products if t == tol else record.separation).append(x.copy())
            return real_lookup(stored, keys, x, t)

        monkeypatch.setattr(groups, "_lookup", lookup)
        try:
            return real_build(stack, tol, hint)
        finally:
            monkeypatch.setattr(groups, "_lookup", real_lookup)

    monkeypatch.setattr(groups, "_build_table", build)
    return builds


@pytest.mark.parametrize("gens, cap", [c[1:] for c in table_cases()],
                         ids=[c[0] for c in table_cases()])
def test_composed_table_is_the_lookup_table(gens, cap, monkeypatch):
    real_build = groups._build_table
    builds = recorded_builds(monkeypatch)
    got = closure_outcome(gens, cap)
    # With the hint dropped, each table is found by lookup.
    monkeypatch.setattr(groups, "_build_table", lambda stack, tol, hint: real_build(stack, tol))
    assert got == closure_outcome(gens, cap)
    if isinstance(got, str):
        assert not builds  # a walk that raises composes nothing
    else:
        stack = np.frombuffer(got[0], dtype=complex).reshape(-1, 4, 4)
        assert np.array_equal(builds[0].hint, real_build(stack, TABLE_TOL))


def test_dirac_table_is_composed_and_merged_groups_fall_back(monkeypatch):
    builds = recorded_builds(monkeypatch)
    cases = {name: (gens, cap) for name, gens, cap in table_cases()}
    assert generate_group(*cases["dirac-64"]).order == 64
    # The separation check looks each element up once, and no product is looked up.
    assert [b.looked_up() for b in builds] == [(64, 0)]
    # These close only through products merged farther out than DEDUP_TOL.
    for name in ("R-merged", "minus-I-merged", "R-spread", "GXiDagger-1000"):
        builds.clear()
        order = generate_group(*cases[name]).order
        [build] = builds
        separation, products = build.looked_up()
        assert build.order == separation == order and 0 < products <= order**2, name
    # drift-chain's walk raises before it has a table to compose or look up.
    builds.clear()
    with pytest.raises(CapExceeded):
        generate_group(*cases["drift-chain"])
    assert builds == []


def test_h_certificate_composes_no_table(monkeypatch):
    # The spectral screen stops the walk in its first block.
    touched = []
    monkeypatch.setattr(groups, "_build_table", lambda *args: touched.append("build"))
    for cap in (64, 1024):
        with pytest.raises(CapExceeded):
            generate_group([named_operator("H", K)], cap)
    assert touched == []


def test_certificate_refuses_a_table_that_names_a_copy(monkeypatch):
    # -I stored twice: every product has two matches, and the lookup takes the first.
    stack = np.array([np.eye(4), -np.eye(4), -np.eye(4)], dtype=complex)
    first = groups._build_table(stack, 1e-7)
    assert first.tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    builds = recorded_builds(monkeypatch)
    # The copies fail the separation check, so even the lookup's own table is refused.
    for hint in (np.where(first == 1, 2, first), first):
        assert np.array_equal(groups._build_table(stack, 1e-7, hint), first)
    assert [b.looked_up()[1] for b in builds] == [9, 9]
    # Without the copy the table is kept; a wrong entry refuses its block.
    builds.clear()
    wrong = first[:2, :2].copy()
    wrong[1, 1] = 1
    for hint in (first[:2, :2], wrong):
        assert np.array_equal(groups._build_table(stack[:2], 1e-7, hint), first[:2, :2])
    assert [b.looked_up() for b in builds] == [(2, 0), (2, 4)]


class CountedProducts(np.ndarray):
    """A (n, 4, 4) stack that counts the 4x4 products a stacked product with it forms."""

    count = 0

    def __matmul__(self, other):
        out = np.asarray(self) @ np.asarray(other)
        CountedProducts.count += out.size // 16 if out.ndim == 4 else 0
        return out


@pytest.mark.parametrize("name, wrong, refused", [
    ("dirac-32", [0, 3], [0, 3]),
    ("dirac-64", [0, 7, 15], [0, 7, 15]),
    ("cyclic-100", [1, 24], [1, 24]),
    ("GXiDagger-3000", [0], [0]),
    # merged groups, each one block: the walk's own hint is refused
    ("GXiDagger-1000", [], [0]),
    ("GXiDagger-10000", [], [0]),
])
def test_a_refused_hint_block_alone_is_looked_up(name, wrong, refused, monkeypatch):
    gens, cap = {c[0]: c[1:] for c in table_cases()}[name]
    builds = recorded_builds(monkeypatch)
    stack = np.array(generate_group(gens, cap).elements)
    n = len(stack)
    rows = max(groups._TABLE_BLOCK // 16, groups._TABLE_BLOCK // n)  # the builder's block
    hint = builds[0].hint
    for b in wrong:  # one wrong entry in each chosen block of rows
        i, j = b * rows + b % min(rows, n - b * rows), b % n
        hint[i, j] = (hint[i, j] + 1) % n
    builds.clear()
    counted = stack.view(CountedProducts)
    CountedProducts.count = 0
    table = groups._build_table(counted, TABLE_TOL, hint)
    # each of the n^2 products is formed once, and only a refused block's are looked up
    assert CountedProducts.count == n * n
    assert np.array_equal(table, groups._build_table(stack, TABLE_TOL))
    looked_up = np.concatenate(builds[0].products)
    blocks = [stack[b * rows:(b + 1) * rows, None] @ stack for b in refused]
    assert np.array_equal(looked_up, np.concatenate(blocks).reshape(-1, 16))


# -- Spin elements measured once -----------------------------------------------------------


def any_outcome(f, x):
    """What f(x) returns, with the bits of its floats, or the type and text
    of whatever it raises."""
    try:
        return bits(f(x))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"


def exact_pin_rows():
    """Exact elements with entries up to 2^2000: rotors (p + q e12) / r from
    Pythagorean triples, nudged by 2^-2000 or 2^-1000 on an odd or off-scalar
    slot, and ones whose integer entries overflow a float."""
    big, small = 2**1000 + 1, 2**999 - 3
    p, q, r = big * big - small * small, 2 * big * small, big * big + small * small
    rotor = Multivector({0: Fraction(p, r), 6: Fraction(q, r)})
    rows = [rotor, rotor * gamma(1), Multivector({0: Fraction(3, 5), 6: Fraction(4, 5)})]
    for nudge in (Fraction(1, 2**2000), Fraction(1, 2**1000), Fraction(1, 10**9)):
        rows += [rotor + Multivector({1: nudge}), rotor + Multivector({3: nudge}),
                 Multivector({0: 1, 8: nudge}), scalar(1 + nudge)]
    rows += [scalar(2**2000), Multivector({0: 1, 1: 2**2000}), scalar(-1), scalar(1) + gamma(0)]
    return rows


def test_spin_flags_under_interleaved_tolerances():
    # One measurement serves every tolerance: each call's outcome is the one a
    # fresh copy gives, and the exact masses are compared exactly (2^-2000 is
    # not 0, though it underflows a float).
    rows = exact_pin_rows()
    rng = np.random.default_rng(19)
    calls = [(lambda y, t=t: membership(y, tol=t)) for t in (0, 1e-10, 1e-8)] + [twisted_adjoint]
    for i, j in rng.integers(0, (len(rows), len(calls)), (600, 2)):
        x, f = rows[i], calls[j]
        assert any_outcome(f, x) == any_outcome(f, copy_of(x))
        if j < 3 and not isinstance(any_outcome(ref_membership, x), str):
            assert membership(x, tol=(0, 1e-10, 1e-8)[j]) == ref_membership(x, tol=(0, 1e-10, 1e-8)[j])
    nudged = rows[3]  # rotor + 2^-2000 e0
    assert [membership(nudged, tol=t).even for t in (0, 1e-10, 0)] == [False, True, False]
    assert membership(rows[0], tol=0).in_spin_plus
    assert any_outcome(membership, rows[-4]).startswith("OverflowError")


def test_in_gamma_reads_the_untwisted_conjugates():
    # Rotors nudged off grade 0 + 2 by a small vector: some leave grade 1 by
    # less than tol under x e_mu x^-1 and by more under hat(x) e_mu x^-1.
    rng = np.random.default_rng(3)
    split = 0
    for _ in range(800):
        rotor = exp_bivector(random_multivector(rng, real=True, grades=(2,)))
        eps = 10 ** rng.uniform(-12, -8)
        x = rotor + Multivector._of(eps * random_multivector(rng, real=True, grades=(1,))._c)
        for tol in (1e-10, 1e-8):
            record = membership(x, tol)
            assert record == ref_membership(x, tol)
            stray = groups._pin_data(x)[3][1]
            split += bool((stray[0].max() <= tol) != (stray.max() <= tol))
    assert split >= 2


def matrix_form_exp_bivector(b):
    """exp_bivector through to_matrix, np.eye and from_matrix: the reference for its bits."""
    if any(m.bit_count() != 2 for m, _ in b.items()):
        raise ValueError("exp_bivector requires a pure grade-2 argument")
    m = to_matrix(b)
    out = np.zeros((4, 4), dtype=complex)
    for blk in (slice(0, 2), slice(2, 4)):
        a = m[blk, blk]
        s = cmath.sqrt(a[0, 1] * a[1, 0] - a[0, 0] * a[1, 1])
        sinhc = cmath.sinh(s) / s if s else 1
        out[blk, blk] = cmath.cosh(s) * np.eye(2) + sinhc * a
    return from_matrix(out)


#: a bivector coefficient part: zero of either sign, or up to 20 either way
BIVECTOR_PARTS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-20, 20))
BIVECTORS = st.lists(st.one_of(
    st.builds(complex, BIVECTOR_PARTS, BIVECTOR_PARTS), BIVECTOR_PARTS,
    st.just(0), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7)),
), min_size=6, max_size=6)


@settings(max_examples=300, deadline=None)
@given(BIVECTORS, st.sampled_from([None, 0, 7, 15]), st.sampled_from(["mapping", "raw", "zero"]))
def test_exp_bivector_has_the_bits_of_the_matrix_form(parts, stray, form):
    # The mapping constructor drops zero values, so "raw" writes the parts,
    # zeros of either sign included, straight into a complex coefficient row.
    coeffs = {} if form == "zero" else dict(zip((3, 5, 9, 6, 10, 12), parts))
    if stray is not None:
        coeffs[stray] = parts[0]
    if form == "raw":
        row = np.zeros(16, dtype=complex)
        row[list(coeffs)] = [complex(v) for v in coeffs.values()]
        b = Multivector._of(row)
    else:
        b = Multivector(coeffs)
    with np.errstate(all="ignore"):
        assert any_outcome(lambda y: exp_bivector(y)._c, b) == any_outcome(
            lambda y: matrix_form_exp_bivector(y)._c, b)


def test_element_order_refuses_a_table_with_no_cycle_to_the_identity():
    # Element 1 cycles 1 -> 2 -> 1 and never reaches the identity 0.
    table = np.array([[0, 1, 2], [1, 2, 1], [2, 1, 0]])
    group = groups.FiniteMatrixGroup([None] * 3, [""] * 3, table)
    with pytest.raises(ValueError, match="table is broken"):
        group.element_order(1)
