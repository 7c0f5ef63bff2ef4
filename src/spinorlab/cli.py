"""Command-line entry point: verification suites and report emission.

Commands
--------
verify-theorems   block-structure and fixed-point theorems, closure, inverses
table1            defining expressions of the named operators vs closed forms
cayley            Cayley table of a named operator group, with identification
classify          orbit partition of supplied dual spinors under a group
embed             quaternionic embedding suite
spinor-spaces     idempotent / ideal / division-ring / beta suite
dual              compute a dual spinor from psi, Omega, and kinematics

Exit codes
----------
0  all checks passed
1  one or more checks failed
2  command-line usage error
3  malformed input file
4  invalid or off-shell kinematics, or a singular parameter (F at p = 0)
5  invalid operator matrix
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .duals import (
    ELEMENT_NAMES,
    InvalidOperatorError,
    KinematicPoint,
    KinematicsError,
    SingularParameterError,
    block_decompose,
    closed_form,
    delta_to_omega,
    dual_of,
    named_operator,
    omega_residual,
    random_delta,
    random_kinematics,
    validate_delta,
    validate_omega,
    xi,
)
from .groups import group_from_elements, identify_group, orbit_partition
from .ideals import (
    beta_inner_product,
    canonical_idempotent,
    division_ring_identify,
    ideal_basis,
    ring_membership_residual,
    verify_involution_conditions,
)
from .multivector import (
    coefficient_distance,
    gamma,
    random_multivector,
    scalar,
)
from .quaternions import (
    Quaternion,
    QuatMatrix2,
    gl2h_embed,
    intertwiner,
    is_quaternionic_pattern,
    mv_to_m2h,
    even_to_m2c,
    quaternionic_gamma,
    pattern_dof,
)
from .serialize import (
    MalformedInputError,
    dump_json,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    multivector_to_obj,
    spinor_from_obj,
    spinor_to_obj,
)
from .weyl import GAMMA0, dirac_dagger_dual, to_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_BAD_KINEMATICS = 4
EXIT_BAD_OPERATOR = 5

GROUP_CHOICES = ("GF", "GXiDagger")


@dataclass
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def as_obj(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual": self.residual,
            "tolerance": self.tolerance,
        }


@dataclass
class SuiteReport:
    suite: str
    kinematics: dict
    seed: int
    trials: int
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add(self, name, residual, tolerance, passed=None) -> "Check":
        if passed is None:
            passed = residual <= tolerance
        check = Check(name, bool(passed), float(residual), float(tolerance))
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "kinematics": self.kinematics,
            "seed": self.seed,
            "trials": self.trials,
            "status": "pass" if self.passed else "fail",
            "checks": [c.as_obj() for c in self.checks],
        }
        if self.payload:
            obj["payload"] = self.payload
        return obj

    def as_text(self) -> str:
        lines = [f"suite: {self.suite}  status: {'pass' if self.passed else 'fail'}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  {status}  {c.name}  residual={c.residual:.3e}"
                f"  tolerance={c.tolerance:.1e}"
            )
        return "\n".join(lines)


# -- suites -----------------------------------------------------------------


def _suite_verify_theorems(k: KinematicPoint, seed: int, trials: int) -> SuiteReport:
    report = SuiteReport("verify-theorems", k.as_dict(), seed, trials)
    rng = np.random.default_rng(seed)

    worst_constraint = worst_blocks = 0.0
    for _ in range(trials):
        delta = random_delta(rng)
        check = validate_delta(delta)
        worst_constraint = max(worst_constraint, check.residual)
        if not check:
            worst_constraint = max(worst_constraint, 1.0)
        worst_blocks = max(
            worst_blocks, block_decompose(delta).hermiticity_residual()
        )
    report.add("block-structure-validation", worst_constraint, 1e-10)
    report.add("block-hermiticity", worst_blocks, 1e-12)

    accepted = sum(
        bool(validate_delta(rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))))
        for _ in range(trials)
    )
    report.add("generic-matrix-rejection", accepted / trials, 0.0)

    worst_fix = 0.0
    weakest_detect = math.inf
    for _ in range(trials):
        x = random_multivector(rng, hermitian=True)
        worst_fix = max(worst_fix, coefficient_distance(dirac_dagger_dual(x), x))
        y = x + complex(0, 1e-6) * random_multivector(rng, hermitian=True)
        weakest_detect = min(
            weakest_detect, coefficient_distance(dirac_dagger_dual(y), y)
        )
    report.add("adjoint-fixed-points", worst_fix, 1e-12)
    report.add(
        "adjoint-imaginary-detection", weakest_detect, 1e-7,
        passed=weakest_detect > 1e-7,
    )

    g0 = GAMMA0
    x_mat = xi(k)
    worst_commuting = 0.0
    weakest_noncomm = math.inf
    worst_inverse = 0.0
    worst_det = 0.0
    for _ in range(trials):
        base = delta_to_omega(random_delta(rng), k)
        c0, c1, c2 = rng.uniform(-1, 1, 3)
        om1 = c0 * np.eye(4) + c1 * base + c2 * base @ base
        om2_coeffs = rng.uniform(-1, 1, 2)
        om2 = om2_coeffs[0] * np.eye(4) + om2_coeffs[1] * base
        worst_commuting = max(worst_commuting, omega_residual(om1 @ om2, x_mat))

        other = delta_to_omega(random_delta(rng), k)
        weakest_noncomm = min(weakest_noncomm, omega_residual(base @ other, x_mat))

        inv = np.linalg.inv(base)
        worst_inverse = max(worst_inverse, omega_residual(inv, x_mat))

        delta_back = g0 @ base @ g0 @ x_mat
        worst_det = max(
            worst_det, abs(np.linalg.det(base) - np.linalg.det(delta_back))
        )
    report.add("closure-commuting-products", worst_commuting, 1e-9)
    report.add(
        "closure-noncommuting-detection", weakest_noncomm, 1e-6,
        passed=weakest_noncomm > 1e-6,
    )
    report.add("inverse-closure-lemma", worst_inverse, 1e-9)
    report.add("determinant-transport", worst_det, 1e-9)
    return report


def _suite_table1(k: KinematicPoint, seed: int, trials: int, tol: float) -> SuiteReport:
    report = SuiteReport("table1", k.as_dict(), seed, trials)
    rng = np.random.default_rng(seed)
    points = [k] + [random_kinematics(rng) for _ in range(trials)]
    for name in ELEMENT_NAMES:
        worst = 0.0
        for point in points:
            worst = max(
                worst,
                float(abs(named_operator(name, point) - closed_form(name, point)).max()),
            )
        report.add(f"row-{name}", worst, tol)
    report.payload = {
        "operators": {
            name: matrix_to_obj(named_operator(name, k)) for name in ELEMENT_NAMES
        }
    }
    return report


def _named_group(name: str, k: KinematicPoint, tol: float):
    g = named_operator("G", k)
    if name == "GF":
        f = named_operator("F", k)
        elements = [np.eye(4, dtype=complex), g, f, f @ g]
        labels = ["I", "G", "F", "FG"]
    else:
        xd = named_operator("XiDagger", k)
        elements = [np.eye(4, dtype=complex), g, xd, g @ xd]
        labels = ["I", "G", "XiDagger", "GXiDagger"]
    return group_from_elements(elements, labels, tol)


def _suite_cayley(k: KinematicPoint, group_name: str, tol: float) -> SuiteReport:
    report = SuiteReport("cayley", k.as_dict(), 0, 0)
    group = _named_group(group_name, k, tol)
    ident = identify_group(group)
    report.add("closure", 0.0, tol)
    report.add("identified-K4", 0.0 if ident.name == "K4" else 1.0, 0.0)
    report.payload = {
        "group": group_name,
        "name": ident.name,
        "labels": list(group.labels),
        "table": group.to_json_obj()["table"],
        "csv": group.to_csv(),
    }
    return report


def _suite_classify(
    k: KinematicPoint, group_name: str, duals_obj, tol: float
) -> SuiteReport:
    report = SuiteReport("classify", k.as_dict(), 0, 0)
    if not isinstance(duals_obj, list):
        raise MalformedInputError("duals JSON must be a list of spinor rows")
    rows = [spinor_from_obj(obj) for obj in duals_obj]
    group = _named_group(group_name, k, tol)
    partition = orbit_partition(group, rows, tol=tol)
    divides = all(group.order % s == 0 for s in partition.orbit_sizes)
    report.add("orbit-sizes-divide-order", 0.0 if divides else 1.0, 0.0)
    report.payload = {
        "group": group_name,
        "classes": partition.to_json_obj(),
        "representatives": partition.representatives,
        "orbit_sizes": partition.orbit_sizes,
    }
    return report


def _suite_embed(seed: int, trials: int) -> SuiteReport:
    report = SuiteReport("embed", {}, seed, trials)
    rng = np.random.default_rng(seed)

    eta = (1.0, -1.0, -1.0, -1.0)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            gm, gn = quaternionic_gamma(mu), quaternionic_gamma(nu)
            anti = gm * gn + gn * gm
            want = QuatMatrix2.identity() * (2.0 * eta[mu] if mu == nu else 0.0)
            for qa, qb in zip(anti.entries(), want.entries()):
                worst = max(worst, max(abs(x - y) for x, y in
                                       zip(qa.as_list(), qb.as_list())))
    report.add("quaternion-clifford-relations", worst, 0.0)

    def rand_quat():
        return Quaternion(*rng.uniform(-1, 1, 4))

    def rand_qmat():
        return QuatMatrix2(rand_quat(), rand_quat(), rand_quat(), rand_quat())

    worst = 0.0
    for _ in range(trials):
        a, b = rand_qmat(), rand_qmat()
        worst = max(worst, float(abs(gl2h_embed(a * b) - gl2h_embed(a) @ gl2h_embed(b)).max()))
    report.add("gl2h-homomorphism", worst, 1e-10)

    report.add("pattern-dof", abs(pattern_dof() - 16), 0.0)

    mistakes = 0
    for _ in range(trials):
        if not is_quaternionic_pattern(gl2h_embed(rand_qmat())):
            mistakes += 1
        if is_quaternionic_pattern(rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))):
            mistakes += 1
    report.add("pattern-detection", float(mistakes), 0.0)

    transported = True
    samples = [random_multivector(rng, real=True) for _ in range(trials)]
    samples.append(scalar(1) + gamma(0))  # zero divisor, singular on both sides
    for x in samples:
        d1 = abs(np.linalg.det(to_matrix(x))) > 1e-12
        d2 = abs(np.linalg.det(gl2h_embed(mv_to_m2h(x)))) > 1e-12
        transported = transported and (d1 == d2)
    report.add("invertibility-transport", 0.0 if transported else 1.0, 0.0)

    worst = 0.0
    for _ in range(trials):
        x = random_multivector(rng, real=True, grades=(0, 2, 4))
        y = random_multivector(rng, real=True, grades=(0, 2, 4))
        worst = max(worst, float(abs(even_to_m2c(x * y) - even_to_m2c(x) @ even_to_m2c(y)).max()))
    report.add("even-block-multiplicativity", worst, 1e-10)

    s = intertwiner()
    s_inv = np.linalg.inv(s)
    worst = 0.0
    for _ in range(trials):
        x = random_multivector(rng, real=True)
        lhs = s @ gl2h_embed(mv_to_m2h(x)) @ s_inv
        worst = max(worst, float(abs(lhs - to_matrix(x)).max()))
    report.add("intertwined-representations", worst, 1e-9)
    return report


def _suite_spinor_spaces(seed: int, trials: int) -> SuiteReport:
    report = SuiteReport("spinor-spaces", {}, seed, trials)
    rng = np.random.default_rng(seed)

    fc = canonical_idempotent("complex")
    fr = canonical_idempotent("real")
    report.add(
        "complex-idempotency",
        coefficient_distance(fc.value * fc.value, fc.value),
        1e-12,
    )
    rank = np.linalg.matrix_rank(to_matrix(fc.value), tol=1e-9)
    report.add("complex-projector-rank-1", abs(rank - 1), 0.0)
    report.add(
        "real-idempotency",
        coefficient_distance(fr.value * fr.value, fr.value),
        1e-12,
    )

    complex_left = ideal_basis(fc, "left", "complex")
    complex_right = ideal_basis(fc, "right", "complex")
    basis = ideal_basis(fr, "left", "real")
    report.add("ideal-dimension-complex-left", abs(complex_left.dimension - 4), 0.0)
    report.add("ideal-dimension-complex-right", abs(complex_right.dimension - 4), 0.0)
    report.add("ideal-dimension-real-left", abs(basis.dimension - 8), 0.0)

    ring_c = division_ring_identify(fc, "complex")
    report.add(
        "division-ring-complex-is-C",
        0.0 if (ring_c.name, ring_c.dimension) == ("C", 1) else 1.0, 0.0,
    )
    ring_r = division_ring_identify(fr, "real")
    report.add(
        "division-ring-real-is-H",
        0.0 if (ring_r.name, ring_r.dimension, ring_r.profile_ok) == ("H", 4, True)
        else 1.0,
        0.0,
    )

    one = scalar(1)
    worst = 0.0
    for _ in range(trials):
        psi = random_multivector(rng, real=True) * fr.value
        phi = random_multivector(rng, real=True) * fr.value
        b = beta_inner_product(psi, phi, "reversion", one, fr)
        worst = max(worst, ring_membership_residual(b, fr))
    report.add("beta-in-ring", worst, 1e-10)

    expected = {
        ("reversion", "one"): True,
        ("grade", "one"): False,
        ("reversion", "gamma0"): True,
    }
    actual = {
        ("reversion", "one"): verify_involution_conditions("reversion", one, fr),
        ("grade", "one"): verify_involution_conditions("grade", one, fr),
        ("reversion", "gamma0"): verify_involution_conditions("reversion", gamma(0), fr),
    }
    report.add(
        "involution-conditions", 0.0 if actual == expected else 1.0, 0.0
    )

    g0 = gamma(0)
    worst = 0.0
    for _ in range(trials):
        psi = random_multivector(rng) * fr.value
        phi = random_multivector(rng) * fr.value
        b = beta_inner_product(psi, phi, "dirac_dagger", g0, fr)
        matrix_side = (
            to_matrix(psi).conj().T @ to_matrix(g0) @ to_matrix(phi) @ to_matrix(fr.value)
        )
        worst = max(worst, float(abs(to_matrix(b) - matrix_side).max()))
    report.add("beta-matches-matrix-adjoint", worst, 1e-10)

    report.payload = {
        "idempotents": {
            "complex": multivector_to_obj(fc.value),
            "real": multivector_to_obj(fr.value),
        },
        "ideal_dimensions": {
            "complex_left": complex_left.dimension,
            "complex_right": complex_right.dimension,
            "real_left": basis.dimension,
        },
        "ideal_basis_real_left": [
            multivector_to_obj(g) for g in basis.generators
        ],
        "division_rings": {
            "complex": {"name": ring_c.name, "dimension": ring_c.dimension},
            "real": {"name": ring_r.name, "dimension": ring_r.dimension},
        },
    }
    return report


def _suite_dual(k: KinematicPoint, psi_obj, omega_obj, tol: float) -> SuiteReport:
    report = SuiteReport("dual", k.as_dict(), 0, 0)
    psi = spinor_from_obj(psi_obj)
    omega = np.eye(4, dtype=complex) if omega_obj is None else matrix_from_obj(omega_obj)
    dual = dual_of(psi, omega, k, tol)
    report.add("omega-validity", validate_omega(omega, k, tol).residual, tol)
    report.payload = {"dual": spinor_to_obj(dual.components)}
    return report


# -- argument plumbing ----------------------------------------------------------


def _add_kinematics(parser: argparse.ArgumentParser):
    parser.add_argument("--mass", type=float, default=1.0, help="mass m > 0")
    parser.add_argument("--momentum", type=float, default=1.0, help="momentum |p| >= 0")
    parser.add_argument("--theta", type=float, default=0.7, help="polar angle")
    parser.add_argument("--phi", type=float, default=0.3, help="azimuthal angle")
    parser.add_argument(
        "--energy", type=float, default=None,
        help="optional cross-check; must equal sqrt(p^2 + m^2)",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--trials", type=_positive_int, default=100, help="trial count")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="comparison tolerance for table/orbit/validation commands",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        dest="fmt", help="report format (csv only for cayley)",
    )
    parser.add_argument("--output", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="verification suites for the spinor-dual laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-theorems", help="theorem and closure suites")
    _add_kinematics(p)
    _add_common(p)

    p = sub.add_parser("table1", help="named operators vs closed forms")
    _add_kinematics(p)
    _add_common(p)

    p = sub.add_parser("cayley", help="Cayley table of a named operator group")
    _add_kinematics(p)
    _add_common(p)
    p.add_argument("--group", choices=GROUP_CHOICES, default="GF")

    p = sub.add_parser("classify", help="orbit partition of dual spinors")
    _add_kinematics(p)
    _add_common(p)
    p.add_argument("--group", choices=GROUP_CHOICES, default="GF")
    p.add_argument("--duals", required=True, help="JSON file with a list of duals")

    p = sub.add_parser("embed", help="quaternionic embedding suite")
    _add_common(p)

    p = sub.add_parser("spinor-spaces", help="idempotent and ideal suite")
    _add_common(p)

    p = sub.add_parser("dual", help="compute psi^dag g0 Xi Omega")
    _add_kinematics(p)
    _add_common(p)
    p.add_argument("--psi", required=True, help="spinor JSON file")
    p.add_argument(
        "--omega", default="identity",
        help='operator matrix JSON file, or "identity"',
    )
    return parser


def _kinematics_from_args(args) -> KinematicPoint:
    return KinematicPoint(
        m=args.mass, p=args.momentum, theta=args.theta, phi=args.phi, E=args.energy
    )


def _emit(report: SuiteReport, args) -> int:
    if args.fmt == "csv":
        if report.suite != "cayley":
            print("csv format is only available for cayley", file=sys.stderr)
            return EXIT_USAGE
        text = report.payload["csv"]
    elif args.fmt == "text":
        text = report.as_text()
    else:
        obj = report.as_obj()
        if report.suite == "cayley":
            obj["payload"] = {k: v for k, v in report.payload.items() if k != "csv"}
        text = dump_json(obj)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text.rstrip("\n"))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify-theorems":
            report = _suite_verify_theorems(
                _kinematics_from_args(args), args.seed, args.trials
            )
        elif args.command == "table1":
            tol = args.tolerance if args.tolerance is not None else 1e-9
            report = _suite_table1(
                _kinematics_from_args(args), args.seed, args.trials, tol
            )
        elif args.command == "cayley":
            tol = args.tolerance if args.tolerance is not None else 1e-9
            report = _suite_cayley(_kinematics_from_args(args), args.group, tol)
        elif args.command == "classify":
            tol = args.tolerance if args.tolerance is not None else 1e-9
            report = _suite_classify(
                _kinematics_from_args(args), args.group, load_json(args.duals), tol
            )
        elif args.command == "embed":
            report = _suite_embed(args.seed, args.trials)
        elif args.command == "spinor-spaces":
            report = _suite_spinor_spaces(args.seed, args.trials)
        elif args.command == "dual":
            tol = args.tolerance if args.tolerance is not None else 1e-10
            omega_obj = None if args.omega == "identity" else load_json(args.omega)
            report = _suite_dual(
                _kinematics_from_args(args), load_json(args.psi), omega_obj, tol
            )
        else:  # pragma: no cover - argparse enforces choices
            return EXIT_USAGE
    except (KinematicsError, SingularParameterError) as exc:
        print(f"kinematics error: {exc}", file=sys.stderr)
        return EXIT_BAD_KINEMATICS
    except MalformedInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvalidOperatorError as exc:
        print(f"operator error: {exc}", file=sys.stderr)
        return EXIT_BAD_OPERATOR
    return _emit(report, args)


if __name__ == "__main__":
    raise SystemExit(main())
