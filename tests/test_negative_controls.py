"""Negative controls: a report check shown to fail on a defect of known size.

Each control of a bound adds a defect of size delta at one seam of ``checks``,
by a monkeypatch, and asserts that the check reads delta within a factor of 2,
so that it responds linearly; that it fails, where it passed without the
defect (table1's rows at a tolerance of delta / 10, the other bounds at their
fixed tolerances, and at 10 times them); and that the other checks of the same
call keep their bits.  The control of a detection removes what it detects and
asserts that it fails.  The control of a yes/no check gives it the wrong answer
at its seam and asserts that it fails.  The controls so far cover table1's
seven rows, embed's three bounds and pattern-detection, six checks of
verify-theorems, spinor-spaces's two beta bounds and involution-conditions,
classify's one check and cayley's identified-K4: 22 of the 38 checks that
``REPORTS`` in ``tests/test_known_defects.py`` names.  ``VACUOUS`` lists the checks that no
defect can make fail, each with its reason and a test that shows it.  A test
holds both counts.
"""

import json

import numpy as np
import pytest

from spinorlab import checks, cli
from spinorlab.duals import (
    ELEMENT_NAMES, KinematicPoint, _delta_validation, _split_delta, _to_delta, closed_form,
    validate_delta,
)
from spinorlab.groups import GroupIdentification, orbit_partition
from spinorlab.ideals import Idempotent, _beta, canonical_idempotent, verify_involution_conditions
from spinorlab.multivector import _product, scalar
from spinorlab.quaternions import QuatMatrix2, is_quaternionic_pattern
from spinorlab.serialize import dump_json, matrix_to_obj
from spinorlab.weyl import VALIDATION_TOL, _dirac_dagger, _matrices

from test_cli import fresh_structure  # noqa: F401 - a fixture
from test_known_defects import BOUNDS, REPORTS, kinematic_flags, run, with_files, write_inputs

DELTAS = (1e-8, 1e-6, 1e-4)
K = KinematicPoint(1.3, 0.8, 0.7, 0.3)
E01 = np.zeros((4, 4))
E01[0, 1] = 1.0
KFLAGS = kinematic_flags(K)


def suite_checks(argv):
    args = cli.build_parser().parse_args(argv)
    return args.suite(args)["checks"]


def assert_only_it_fails(name, before_checks, after_checks):
    """Check ``name`` passed before and fails now; every other check keeps its bits.
    Returns the residual it fails with."""
    failed = []
    for before, after in zip(before_checks, after_checks, strict=True):
        if after["name"] != name:
            assert after == before
            continue
        assert (before["status"], after["status"]) == ("pass", "fail")
        failed.append(after["residual"])
    [residual] = failed
    return residual


def assert_only_it_reads(name, before_checks, after_checks, delta):
    """Check ``name`` passed before and fails now, reading ``delta`` within a factor of 2;
    every other check keeps its bits."""
    assert delta / 2 <= assert_only_it_fails(name, before_checks, after_checks) <= 2 * delta


def shifted_closed_form(target, delta):
    """``closed_form`` with ``delta`` added to entry (0, 1) of ``target``'s matrix.  It
    replaces the name ``checks`` reads; ``duals`` builds FG and GXiDagger from its own
    ``closed_form``, which stays as it is, so only ``target``'s row moves."""
    def shifted(name, t):
        exact = closed_form(name, t)
        return exact + delta * E01 if name == target else exact

    return shifted


def table1_rows(tolerance):
    return checks.operator_residuals(np.random.default_rng(0), 100, K, tolerance)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", ELEMENT_NAMES)
def test_a_table1_row_reads_a_defect_in_its_closed_form(name, delta, monkeypatch):
    tolerance = delta / 10
    want = table1_rows(tolerance)
    monkeypatch.setattr(checks, "closed_form", shifted_closed_form(name, delta))
    assert_only_it_reads(f"row-{name}", want, table1_rows(tolerance), delta)


def shifted_quaternion_products(delta):
    """``QuatMatrix2`` with ``delta`` added to entry (0, 0) of each product of two
    matrices, whose embedding moves by delta at (0, 0) and (1, 1).  In embed only
    gl2h-homomorphism multiplies them; the Clifford relations were cached before."""
    class Shifted(QuatMatrix2):
        __slots__ = ()

        def __mul__(self, other):
            q = super().__mul__(other).q.copy()
            q[..., 0, 0, 0] += delta
            return QuatMatrix2._of(q)

    return Shifted


SCALAR = np.eye(16)[0]  # the coefficients of the scalar blade

#: embed's bound: the name in ``checks`` that its seam replaces, and the seam for delta
EMBED_SEAMS = {
    "gl2h-homomorphism": ("QuatMatrix2", shifted_quaternion_products),
    # x y gains delta times the scalar blade, so its even block gains delta I
    "even-block-multiplicativity": ("_product", lambda d: lambda x, y: _product(x, y) + d * SCALAR),
    # a nilpotent shift: the zero divisor that invertibility-transport measures stays singular
    "intertwined-representations": ("_matrices", lambda d: lambda c: _matrices(c) + d * E01),
}


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", EMBED_SEAMS)
def test_an_embed_bound_reads_a_defect_at_its_seam(name, delta, monkeypatch):
    want = suite_checks(["embed"])
    seam, shifted = EMBED_SEAMS[name]
    monkeypatch.setattr(checks, seam, shifted(delta))
    assert_only_it_reads(name, want, suite_checks(["embed"]), delta)


def moved_at_fixed_points(delta):
    """``_dirac_dagger`` moved by ``delta`` on the scalar blade of each multivector that it
    leaves fixed to 1e-9: the self-adjoint draws.  The perturbed draws lie 1e-6 or more
    from their adjoints, so their residuals keep their bits."""
    def adjoint(c):
        out = _dirac_dagger(c)
        out[abs(out - c).max(axis=-1) < 1e-9, 0] += delta
        return out

    return adjoint


def shifted_determinant(delta):
    """``_to_delta`` with the first row of each Delta scaled so that its determinant
    gains ``delta``.  In verify-theorems only determinant-transport converts to Delta."""
    def to_delta(m, x):
        d = _to_delta(m, x)
        d[..., 0, :] *= 1 + delta / np.linalg.det(d)[..., None]
        return d

    return to_delta


E03 = np.zeros((4, 4))
E03[0, 3] = 1.0  # entry (0, 1) of the block B

#: verify-theorems's bound: the name in ``checks`` that its seam replaces, and the seam for delta
THEOREM_SEAMS = {
    # A is off its mirror A^dag by delta at entry (0, 1); only block_pattern validates a
    # Delta, and its hermiticity is measured on the Delta as drawn
    "block-structure-validation": ("_delta_validation",
                                   lambda d: lambda m, *det: _delta_validation(m + d * E01, *det)),
    # B stops being Hermitian; the constraint is measured on the Delta as drawn
    "block-hermiticity": ("_split_delta", lambda d: lambda m: _split_delta(m + d * E03)),
    "adjoint-fixed-points": ("_dirac_dagger", moved_at_fixed_points),
    "determinant-transport": ("_to_delta", shifted_determinant),
}


@pytest.mark.parametrize("scale", [*DELTAS, "10x"])
@pytest.mark.parametrize("name", THEOREM_SEAMS)
def test_a_verify_theorems_bound_reads_a_defect_at_its_seam(name, scale, monkeypatch):
    seam, shifted = THEOREM_SEAMS[name]
    delta = 10 * BOUNDS["verify-theorems"][name] if scale == "10x" else scale
    want = suite_checks(["verify-theorems", *KFLAGS])
    monkeypatch.setattr(checks, seam, shifted(delta))
    assert_only_it_reads(name, want, suite_checks(["verify-theorems", *KFLAGS]), delta)


def shifted_beta(kind, row, delta):
    """``_beta`` moved by ``delta`` times the coefficients ``row`` for the involution ``kind``
    only.  In spinor-spaces beta-in-ring takes the reversion and beta-matches-matrix-adjoint
    the gamma0-adjoint ("dirac_dagger"), so each seam moves one check."""
    def beta(psi, phi, k, h, f):
        b = _beta(psi, phi, k, h, f)
        return b + delta * row if k == kind else b

    return beta


#: spinor-spaces's beta bound: the involution kind that its seam moves, and the direction
SPINOR_SEAMS = {
    # e1 is off the ring of f = (1 + g0) / 2, as f e1 f = 0, so b - f b f gains delta e1
    "beta-in-ring": ("reversion", np.eye(16)[0b0010]),
    # the scalar blade's matrix is I, so the matrix difference gains delta I
    "beta-matches-matrix-adjoint": ("dirac_dagger", SCALAR),
}


@pytest.mark.parametrize("scale", [*DELTAS, "10x"])
@pytest.mark.parametrize("name", SPINOR_SEAMS)
def test_a_spinor_spaces_bound_reads_a_defect_at_its_seam(name, scale, monkeypatch):
    delta = 10 * BOUNDS["spinor-spaces"][name] if scale == "10x" else scale
    want = suite_checks(["spinor-spaces"])
    monkeypatch.setattr(checks, "_beta", shifted_beta(*SPINOR_SEAMS[name], delta))
    assert_only_it_reads(name, want, suite_checks(["spinor-spaces"]), delta)


def test_the_adjoint_detection_fails_without_its_perturbation(monkeypatch):
    want = suite_checks(["verify-theorems", *KFLAGS])
    monkeypatch.setattr(checks, "PERTURBATION", 0.0)
    assert_only_it_fails("adjoint-imaginary-detection", want,
                         suite_checks(["verify-theorems", *KFLAGS]))


def accept_every_delta(m):
    """``validate_delta`` with every matrix of the stack passed as a Delta."""
    check = validate_delta(m)
    return check._replace(ok=np.ones_like(check.ok))


def accept_every_pattern(m):
    """``is_quaternionic_pattern`` with every matrix of the stack matching the pattern."""
    report = is_quaternionic_pattern(m)
    return report._replace(matches=np.ones_like(report.matches))


def with_a_size_of_3(*args, **kwargs):
    """``orbit_partition`` with its first orbit size 3, which divides no order of 4."""
    partition = orbit_partition(*args, **kwargs)
    return partition._replace(orbit_sizes=[3, *partition.orbit_sizes[1:]])


#: a yes/no check: the argv of a report it passes in, and the module, name and value of the
#: seam that gives it the wrong answer.  Each seam is read by that check alone.
YES_NO_SEAMS = {
    "generic-matrix-rejection": (["verify-theorems", *KFLAGS], checks, "validate_delta",
                                 accept_every_delta),
    "pattern-detection": (["embed"], checks, "is_quaternionic_pattern", accept_every_pattern),
    "orbit-sizes-divide-order": (["classify", "--duals", "PSI_DUALS"], cli, "orbit_partition",
                                 with_a_size_of_3),
    "identified-K4": (["cayley", *KFLAGS], cli, "identify_group",
                      lambda group: GroupIdentification("Z4", group.order)),
    "involution-conditions": (["spinor-spaces"], checks, "verify_involution_conditions",
                              lambda *args: not verify_involution_conditions(*args)),
}


@pytest.mark.parametrize("name", YES_NO_SEAMS)
def test_a_yes_no_check_fails_on_a_wrong_answer_at_its_seam(name, monkeypatch, tmp_path,
                                                             fresh_structure):
    argv, module, seam, wrong = YES_NO_SEAMS[name]
    argv = with_files(argv, write_inputs(tmp_path)[0])
    want = suite_checks(argv)
    monkeypatch.setattr(module, seam, wrong)
    fresh_structure.cache_clear()
    assert_only_it_fails(name, want, suite_checks(argv))


#: report check that no defect can make fail: why.  Items 5 and 18 of the ROADMAP work
#: through this list.
VACUOUS = {
    "closure": "cayley reports the constant 0; the closure decision is group_from_elements's "
               "raise",
    **dict.fromkeys(("complex-idempotency", "real-idempotency"),
                    "Idempotent refuses a residual above ROUNDING_TOL, the check's own tolerance, "
                    "before any verdict is built"),
    "omega-validity": "dual calls require() on the Omega's validation before it builds the "
                      "verdict, so an Omega off the condition exits 5 and never reports a fail",
}


def test_cayley_closure_reads_0_or_raises(monkeypatch):
    argv = ["cayley", *KFLAGS]
    for delta, outcome in [(0.0, None), (1e-12, None), (1e-3, "not closed under products")]:
        monkeypatch.setattr(cli, "closed_form", shifted_closed_form("F", delta))
        if outcome:
            with pytest.raises(ValueError, match=outcome):
                suite_checks(argv)
        else:
            want = checks.verdict("closure", 0, BOUNDS["cayley"]["closure"])
            assert suite_checks(argv)[0] == want


def test_a_delta_off_its_constraint_is_a_failed_check_not_an_error(monkeypatch):
    argv = ["verify-theorems", *KFLAGS]
    out, err = run(argv)[1:]
    assert err == ""
    seam, shifted = THEOREM_SEAMS["block-structure-validation"]
    monkeypatch.setattr(checks, seam, shifted(10 * VALIDATION_TOL))
    after, after_out, err = run(argv)
    assert (after, err) == (1, "")
    assert_only_it_fails("block-structure-validation", json.loads(out)["checks"],
                         json.loads(after_out)["checks"])


@pytest.mark.parametrize("mode, residual", [("complex", "5.000e-10"), ("real", "1.000e-09")])
def test_idempotency_raises_instead_of_failing(mode, residual, monkeypatch):
    # f + 1e-9 is off its square by far more than the check's tolerance of 1e-12
    def shifted(m):
        f = canonical_idempotent(m)
        return Idempotent(f.value + 1e-9 * scalar(1)) if m == mode else f

    monkeypatch.setattr(checks, "canonical_idempotent", shifted)
    checks.spinor_space_structure.cache_clear()
    with pytest.raises(ValueError, match=rf"^not idempotent: residual {residual}$"):
        suite_checks(["spinor-spaces"])


def test_omega_validity_exits_5_instead_of_failing(tmp_path):
    # (1 + i eps) I is off the Omega condition by 2 eps: 10 times the check's tolerance
    files = write_inputs(tmp_path)[0]
    omega = tmp_path / "omega-off.json"
    omega.write_text(dump_json(matrix_to_obj((1 + 5e-10j) * np.eye(4))))
    code, out, err = run(with_files(["dual", "--psi", "PSI", "--omega", str(omega)], files))
    assert (code, out) == (5, "")
    assert err == ("operator error: not a valid Omega: constraint residual 1.000e-09 "
                   f"(tolerance {BOUNDS['dual']['omega-validity']:.1e}), |det| = 1.000e+00\n")


def test_every_control_is_of_a_check_that_a_report_names():
    named = {name for _, _, bounds in REPORTS.values() for name in bounds}
    assert len(named) == 38
    controlled = ({f"row-{name}" for name in ELEMENT_NAMES} | set(EMBED_SEAMS)
                  | set(THEOREM_SEAMS) | set(SPINOR_SEAMS) | {"adjoint-imaginary-detection"}
                  | set(YES_NO_SEAMS))
    assert len(controlled) == 22 and controlled <= named
    assert len(VACUOUS) == 4 and set(VACUOUS) <= named - controlled
