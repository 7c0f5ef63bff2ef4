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

Each input has one meaning: the kinematics are --mass, --momentum, --theta and --phi
(the report echoes E = sqrt(p^2 + m^2)); --omega names a matrix file, the identity if
left out; a part of an input file is a finite JSON number.  Each command renders json
and text, cayley csv too, and its parser refuses any other format or flag.

What embed and spinor-spaces measure without drawing is computed once per process.

Exit codes
----------
0  all checks passed
1  one or more checks failed
2  command-line usage error, or a report that cannot be written
3  malformed input file
4  invalid kinematics, or a singular parameter (F at p = 0)
5  invalid operator matrix
141  stdout or an --output pipe closed before the report was written (128 + SIGPIPE)
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import nullcontext
from functools import cache, partial

import numpy as np

from . import __version__, checks
from .duals import (
    InvalidOperatorError, KinematicPoint, KinematicsError, _named_operators, closed_form,
    dual_of, named_operator, validate_omega,
)
from .groups import group_from_elements, identify_group, orbit_partition
from .serialize import (
    MalformedInputError, dump_json, load_json, matrix_from_obj, matrix_to_obj,
    multivector_to_obj, spinor_from_obj, spinor_to_obj,
)
from .weyl import GROUP_TOL, IDENTITY_TOL, VALIDATION_TOL

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_BAD_KINEMATICS = 4
EXIT_BAD_OPERATOR = 5

GROUP_CHOICES = ("GF", "GXiDagger")


# -- suites -----------------------------------------------------------------
# Each reads its inputs in a fixed order, so two bad inputs give one error.


def _kinematics(args) -> KinematicPoint:
    return KinematicPoint(args.mass, args.momentum, args.theta, args.phi)


def _report(args, k: KinematicPoint | None, checks: list, payload: dict | None = None) -> dict:
    """The report object that every format renders."""
    # commands without --seed and --trials report seed 0 and 0 trials
    report = {"suite": args.command, "kinematics": k.as_dict() if k else {},
              "seed": getattr(args, "seed", 0), "trials": getattr(args, "trials", 0),
              "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
              "checks": checks}
    if payload:
        report["payload"] = payload
    return report


def _suite_verify_theorems(args) -> dict:
    """Block-structure and fixed-point theorems, closure, inverses."""
    k = _kinematics(args)
    rng, n = np.random.default_rng(args.seed), args.trials
    return _report(args, k, [*checks.block_pattern(rng, n), checks.generic_acceptance(rng, n),
                             *checks.adjoint_fixed_points(rng, n), *checks.closure(rng, n, k)])


def _suite_table1(args) -> dict:
    """Defining expressions of the named operators vs closed forms."""
    k = _kinematics(args)
    rng = np.random.default_rng(args.seed)
    return _report(args, k, checks.operator_residuals(rng, args.trials, k, args.tolerance),
                   {"operators": {name: matrix_to_obj(op) for name, op in _named_operators(k)}})


def _named_group(name: str, k: KinematicPoint, tol: float):
    g = named_operator("G", k)
    if name == "GF":
        f = closed_form("F", k)  # (m/2p)[g0, Xi] cancels to size p/m; this does not
        elements = [np.eye(4, dtype=complex), g, f, f @ g]
        labels = ["I", "G", "F", "FG"]
    else:
        xd = named_operator("XiDagger", k)
        elements = [np.eye(4, dtype=complex), g, xd, g @ xd]
        labels = ["I", "G", "XiDagger", "GXiDagger"]
    return group_from_elements(elements, labels, tol)


def _suite_cayley(args) -> dict:
    """Cayley table of a named operator group, with identification."""
    k = _kinematics(args)
    group = _named_group(args.group, k, args.tolerance)
    ident = identify_group(group)
    # group_from_elements raises unless the elements are closed under products
    return _report(args, k, [checks.verdict("closure", 0, args.tolerance),
                             checks.verdict("identified-K4", ident.name != "K4", 0.0)],
                   {"group": args.group, "name": ident.name, "labels": list(group.labels),
                    "table": group.table.tolist()})


def _suite_classify(args) -> dict:
    """Orbit partition of supplied dual spinors under a group."""
    k = _kinematics(args)
    duals_obj = load_json(args.duals)
    if not isinstance(duals_obj, list):
        raise MalformedInputError("duals JSON must be a list of spinor rows")
    rows = [spinor_from_obj(obj) for obj in duals_obj]
    group = _named_group(args.group, k, args.tolerance)
    partition = orbit_partition(group, rows, tol=args.tolerance)
    divides = all(group.order % s == 0 for s in partition.orbit_sizes)
    return _report(args, k, [checks.verdict("orbit-sizes-divide-order", not divides, 0.0)], {
        "group": args.group,
        "classes": {str(i): cls for i, cls in enumerate(partition.classes)},
        "representatives": partition.representatives,
        "orbit_sizes": partition.orbit_sizes,
    })


def _suite_embed(args) -> dict:
    """Quaternionic embedding suite."""
    rng, n = np.random.default_rng(args.seed), args.trials
    return _report(args, None, [checks.clifford_relations(), checks.gl2h_homomorphism(rng, n),
                                checks.pattern_dimension(), checks.pattern_mistakes(rng, n),
                                checks.invertibility_transported(rng, n),
                                checks.even_block_multiplicativity(rng, n),
                                checks.intertwined_representations(rng, n)])


def _suite_spinor_spaces(args) -> dict:
    """Idempotent, ideal, division-ring and beta suite."""
    spaces = checks.spinor_spaces(np.random.default_rng(args.seed), args.trials)
    # built afresh for each report, from the process's one structure
    fc, fr, _, left, right, basis, ring_c, ring_r, _ = checks.spinor_space_structure()
    return _report(args, None, spaces, {
        "idempotents": {"complex": multivector_to_obj(fc.value),
                        "real": multivector_to_obj(fr.value)},
        "ideal_dimensions": {
            "complex_left": left.dimension,
            "complex_right": right.dimension,
            "real_left": basis.dimension,
        },
        "ideal_basis_real_left": [multivector_to_obj(g) for g in basis.generators],
        "division_rings": {
            "complex": {"name": ring_c.name, "dimension": ring_c.dimension},
            "real": {"name": ring_r.name, "dimension": ring_r.dimension},
        },
    })


def _suite_dual(args) -> dict:
    """Dual spinor psi^dag g0 Xi Omega of a spinor file."""
    omega_obj = None if args.omega is None else load_json(args.omega)
    k = _kinematics(args)
    psi = spinor_from_obj(load_json(args.psi))
    omega = np.eye(4, dtype=complex) if omega_obj is None else matrix_from_obj(omega_obj)
    check = validate_omega(omega, k, args.tolerance)
    return _report(args, k, [checks.verdict("omega-validity", check.residual, args.tolerance)],
                   {"dual": spinor_to_obj(dual_of(psi, omega, k, check=check))})


# -- the command table and argument plumbing ------------------------------------


def _int_at_least(least: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


FLAGS = {
    "--mass": dict(type=float, default=1.0, help="mass m > 0"),
    "--momentum": dict(type=float, default=1.0, help="momentum |p| >= 0"),
    "--theta": dict(type=float, default=0.7, help="polar angle"),
    "--phi": dict(type=float, default=0.3, help="azimuthal angle"),
    "--seed": dict(type=partial(_int_at_least, 0), default=0, help="random seed"),
    "--trials": dict(type=partial(_int_at_least, 1), default=100, help="trial count"),
    "--tolerance": dict(type=_tolerance, help="comparison tolerance (default %(default)g)"),
    "--group": dict(choices=GROUP_CHOICES, default="GF"),
    "--duals": dict(required=True, help="JSON file with a list of duals"),
    "--psi": dict(required=True, help="spinor JSON file"),
    "--omega": dict(help="operator matrix JSON file (default: the identity)"),
}
# argparse reads a token starting with "-" as an option unless it matches
# the parser's negative-number pattern, and the default pattern has no
# exponent form such as -1e-3.  No command has an option that looks like a
# number, so every token this pattern matches is a value.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _as_text(report: dict) -> str:
    return "\n".join([f"suite: {report['suite']}  status: {report['status']}"] + [
        f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
        f"  tolerance={c['tolerance']:.1e}" for c in report["checks"]])


def _as_csv(report: dict) -> str:
    """Cayley's table as csv: a header of labels, then one row per element, each entry the
    label of a product.  The named groups' labels hold no comma or quote to escape."""
    labels, table = report["payload"]["labels"], report["payload"]["table"]
    return "\n".join([",".join(["", *labels])] + [
        ",".join([labels[i], *(labels[j] for j in row)]) for i, row in enumerate(table)])


#: each report format, and what renders a report in it
RENDERERS = {"json": dump_json, "csv": _as_csv, "text": _as_text}
PLAIN = ("json", "text")  # what every command renders; cayley renders csv too

KINEMATICS = ("--mass", "--momentum", "--theta", "--phi")
SEEDED = ("--seed", "--trials")

#: name: (suite, the flags it reads besides --format and --output, its default
#: --tolerance, or None for a command without that flag, and the formats it renders)
COMMANDS = {
    "verify-theorems": (_suite_verify_theorems, KINEMATICS + SEEDED, None, PLAIN),
    "table1": (_suite_table1, KINEMATICS + SEEDED, IDENTITY_TOL, PLAIN),
    "cayley": (_suite_cayley, KINEMATICS + ("--group",), GROUP_TOL, tuple(RENDERERS)),
    "classify": (_suite_classify, KINEMATICS + ("--group", "--duals"), GROUP_TOL, PLAIN),
    "embed": (_suite_embed, SEEDED, None, PLAIN),
    "spinor-spaces": (_suite_spinor_spaces, SEEDED, None, PLAIN),
    "dual": (_suite_dual, KINEMATICS + ("--psi", "--omega"), VALIDATION_TOL, PLAIN),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="verification suites for the spinor-dual laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (suite, flags, tolerance, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=suite.__doc__)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(suite=suite, tolerance=tolerance, parser=p)
        if tolerance is not None:
            flags += ("--tolerance",)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.add_argument("--format", choices=formats, default="json", dest="fmt",
                       help="report format")
        p.add_argument("--output", help="write the report to a file")
    return parser


def _emit(report: dict, args) -> int:
    text = RENDERERS[args.fmt](report)
    try:
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
            fh.write(text.rstrip("\n") + "\n")
            fh.flush()
    except BrokenPipeError:  # no reader; the failed flush leaves none to fail at exit
        return 141
    except OSError as exc:
        print(f"usage error: cannot write {args.output or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report["status"] == "pass" else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # refused by the command's parser, which names the command
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        report = args.suite(args)
    except KinematicsError as exc:
        print(f"kinematics error: {exc}", file=sys.stderr)
        return EXIT_BAD_KINEMATICS
    except (MalformedInputError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InvalidOperatorError as exc:
        print(f"operator error: {exc}", file=sys.stderr)
        return EXIT_BAD_OPERATOR
    return _emit(report, args)


if __name__ == "__main__":
    raise SystemExit(main())
