"""Known defects, refused inputs and valid reports: three tables, and the tests
that hold them.

``REPRODUCERS`` is the one list of the command lines where a verdict is
still wrong, or was wrong and is now refused.  A row is ``label: (argv,
reason)``.  Its reason is its id in the benchmark's ledger,
``perfbench/known_defects.json``, or, for a defect the ledger does not list,
the ROADMAP item that would mend it.  Each test reads its argv from the
table by label and asserts what a correct program does.  A defect's case is
a strict expected failure that fails with an AssertionError while the defect
stands.  A change that mends a defect, or changes its verdict, makes its
case pass unexpectedly, and that fails the suite until the mark is removed.

``REFUSALS`` is the one list of the command lines that must be refused with
a documented exit code from 2 to 5 (README, "Command line").  A row is
``label: (argv, exit code, last stderr line)``.  One test runs every row and
checks its code, an empty stdout, no warning and no traceback, its last
stderr line and, unless argparse refused it, that this is the only line.

``REPORTS`` is the one list of the command lines that must give a report,
and the one place where each command's check names and stated tolerances
are written (``BOUNDS``).  A row is ``label: (argv, status, {check name:
tolerance})``.  One test runs every row and checks its exit code, an empty
stderr, no warning and no traceback, a strict-JSON report of that suite and
status with those checks in that order, a byte-identical rerun, and its text
rendering.

The argvs of all three tables name input files by placeholder (``PSI``,
``BIG``, ``MISSING``, ...); ``write_inputs`` writes them.
``tools/same_outputs.py`` hashes the outputs of every row of the three
tables, in this order.
"""

import contextlib
import io
import json
import re
import runpy
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinorlab.cli import main
from spinorlab.duals import KinematicPoint, delta_to_omega, named_operator, random_delta
from spinorlab.groups import generate_group
from spinorlab.serialize import dump_json, matrix_to_obj, spinor_to_obj

ROOT = Path(__file__).parents[1]
LEDGER = ROOT / "perfbench" / "known_defects.json"


def kinematic_flags(k: KinematicPoint) -> list:
    return ["--mass", repr(k.m), "--momentum", repr(k.p), "--theta", repr(k.theta),
            "--phi", repr(k.phi)]


PSI = np.array([1.0 + 0.5j, -0.3 + 0.2j, 0.7 - 1.1j, 0.1 + 0.4j])
OMEGA_K = KinematicPoint(0.5751532284844632, 34.84283078387758, 1.3466096180838185,
                         3.970597063820425)
DUALS_K = KinematicPoint(1.8384213168348236, 2700.0665423118476, 2.4029433328532512,
                         4.276206332007041)
LARGE_MASS = "ROADMAP item 12: m ** 4 overflows from m of about 1.16e77; the point is refused"
TOLERANCE = ("ROADMAP item 5: cayley's closure is not measured; "
             "group_from_elements raises out of main")

REPRODUCERS = {
    "verify-momentum-1e2": (["verify-theorems", "--momentum", "1e2"],
                            "verify-theorems-absolute-residuals"),
    "verify-seed-0": (["verify-theorems", "--seed", "0"], "verify-theorems-absolute-residuals"),
    "verify-seed-376383645": ([
        "verify-theorems", "--trials", "250", "--seed", "376383645",
        "--mass", "0.5767628745418242", "--momentum", "0.5027562819991213",
        "--theta", "0.8926473955071765", "--phi", "4.161221346488264"],
        "verify-theorems-absolute-residuals"),
    "table1-momentum-3e3": (["table1", "--momentum", "3e3"], "table1-H-rows-absolute-tolerance"),
    "table1-momentum-1e-8": (["table1", "--momentum", "1e-8"],
                             "ROADMAP item 3: table1 rows F and FG fail at p = 1e-8"),
    "dual-identity-1e3": (["dual", "--psi", "PSI", "--momentum", "1e3"],
                          "dual-valid-omega-rejected"),
    "dual-generated-omega": (["dual", "--psi", "PSI", "--omega", "OMEGA",
                              *kinematic_flags(OMEGA_K)], "dual-valid-omega-rejected"),
    "cayley-gxidagger-3e3": (["cayley", "--group", "GXiDagger", "--momentum", "3e3"],
                             "gxidagger-closure-absolute-tolerance"),
    "classify-gxidagger": (["classify", "--group", "GXiDagger", "--duals", "DUALS",
                            *kinematic_flags(DUALS_K)], "classify-gxidagger-orbits-split"),
    "table1-mass-1e-300": (["table1", "--mass", "1e-300"],
                           "ROADMAP item 12: table1 at m = 1e-300 writes bare NaN"),
    "verify-momentum-1e100": (["verify-theorems", "--momentum", "1e100", "--trials", "3"],
                              "ROADMAP item 12: verify-theorems at p = 1e100 writes bare NaN"),
    "verify-mass-1e-200": (["verify-theorems", "--mass", "1e-200", "--trials", "3"],
                           "ROADMAP item 12: verify-theorems at m = 1e-200 writes bare NaN"),
    "cayley-tolerance-0": (["cayley", "--tolerance", "0"], TOLERANCE),
    "classify-tolerance-0": (["classify", "--tolerance", "0", "--duals", "PSI_DUALS"], TOLERANCE),
    "cayley-tolerance-1e300": (["cayley", "--tolerance", "1e300"], TOLERANCE),
    "table1-mass-1e100": (["table1", "--mass", "1e100"], LARGE_MASS),
    "verify-mass-1e100": (["verify-theorems", "--mass", "1e100"], LARGE_MASS),
    "cayley-mass-1e100": (["cayley", "--mass", "1e100"], LARGE_MASS),
    "classify-mass-1e100": (["classify", "--duals", "PSI_DUALS", "--mass", "1e100"], LARGE_MASS),
    "dual-mass-1e100": (["dual", "--psi", "PSI", "--mass", "1e100"], LARGE_MASS),
    "dual-identity-mass-1e-300": (["dual", "--psi", "UNIT", "--mass", "1e-300"],
                                  "ROADMAP item 12: Xi overflows in omega_residual at m = 1e-300"),
    "verify-momentum-1e8": (["verify-theorems", "--momentum", "1e8"],
                            "ROADMAP item 14: verify-theorems raises LinAlgError at p = 1e8"),
    "verify-mass-1e-8": (["verify-theorems", "--mass", "1e-8"],
                         "ROADMAP item 14: verify-theorems raises LinAlgError at m = 1e-8"),
}

SINGULAR = "kinematics error: F and FG are singular at p = 0"
NOT_UTF8 = "input error: invalid JSON in ..."

#: label: (argv, exit code, last stderr line); a line that holds a path or an OS
#: message is matched up to the row's "...".
REFUSALS = {
    "dual-psi-overflow": (["dual", "--psi", "BIG"], 3,
                          "input error: psi is too large: its dual overflows"),
    "dual-psi-not-a-spinor": (["dual", "--psi", "NOT_A_SPINOR"], 3,
                              "input error: spinor JSON must be an array of 4 [re, im] pairs"),
    "dual-psi-missing": (["dual", "--psi", "MISSING"], 3, "input error: cannot read ..."),
    "dual-psi-nan": (["dual", "--psi", "NAN"], 3, "input error: bad numeric value nan"),
    "dual-psi-1e400": (["dual", "--psi", "INF"], 3, "input error: bad numeric value inf"),
    "dual-psi-minus-infinity": (["dual", "--psi", "MINUS_INF"], 3,
                                "input error: bad numeric value -inf"),
    # a part is a finite JSON number: an [num, den] pair is not one
    "dual-psi-exact-pair": (["dual", "--psi", "EXACT_PAIR"], 3,
                            "input error: bad numeric value [1, 3]"),
    "dual-psi-zero-denominator": (["dual", "--psi", "ZERO_DENOMINATOR"], 3,
                                  "input error: bad numeric value [1, 0]"),
    "dual-psi-true": (["dual", "--psi", "TRUE"], 3, "input error: bad numeric value True"),
    "dual-psi-false": (["dual", "--psi", "FALSE"], 3, "input error: bad numeric value False"),
    "dual-psi-true-numerator": (["dual", "--psi", "TRUE_NUMERATOR"], 3,
                                "input error: bad numeric value [True, 1]"),
    "dual-psi-true-denominator": (["dual", "--psi", "TRUE_DENOMINATOR"], 3,
                                  "input error: bad numeric value [1, True]"),
    "dual-psi-big-integer": (["dual", "--psi", "BIG_INT"], 3,
                             "input error: exact value too large for a float"),
    "dual-omega-big-integer": (["dual", "--psi", "PSI", "--omega", "BIG_INT_OMEGA"], 3,
                               "input error: exact value too large for a float"),
    "dual-psi-not-utf8": (["dual", "--psi", "NOT_UTF8"], 3, NOT_UTF8),
    "dual-omega-not-utf8": (["dual", "--psi", "PSI", "--omega", "NOT_UTF8"], 3, NOT_UTF8),
    "classify-duals-not-utf8": (["classify", "--duals", "NOT_UTF8"], 3, NOT_UTF8),
    "dual-psi-nested-deeply": (["dual", "--psi", "DEEP"], 3, "input error: JSON in ..."),
    "classify-duals-object": (["classify", "--duals", "DUALS_OBJECT"], 3,
                              "input error: duals JSON must be a list of spinor rows"),
    # its finite dual has an infinite image under XiDagger, which would match nothing
    "classify-gxidagger-dual-overflow": (["classify", "--group", "GXiDagger", "--duals",
                                          "BIG_DUALS"], 3,
                                         "input error: dual 0 is too large: an image overflows"),
    "dual-energy=9.0": (["dual", "--psi", "PSI", "--energy", "9.0"], 2,
                        "spinorlab dual: error: unrecognized arguments: --energy 9.0"),
    "table1-mass=-2": (["table1", "--mass", "-2"], 4,
                       "kinematics error: mass must be positive, got -2.0"),
    "table1-momentum=-1e-3": (["table1", "--momentum", "-1e-3"], 4,
                              "kinematics error: momentum must be nonnegative, got -0.001"),
    "table1-momentum=0": (["table1", "--momentum", "0"], 4, SINGULAR),
    "cayley-momentum=0": (["cayley", "--momentum", "0"], 4, SINGULAR),
    "classify-momentum=0": (["classify", "--duals", "PSI_DUALS", "--momentum", "0"], 4, SINGULAR),
    **{f"table1-{flag}={value}": (["table1", "--trials", "2", f"--{flag}={value}"], 4,
                                  "kinematics error: kinematics must be finite, got "
                                  f"KinematicPoint({point}, E=None)")
       for flag, value, point in [("momentum", "nan", "m=1.0, p=nan, theta=0.7, phi=0.3"),
                                  ("theta", "inf", "m=1.0, p=1.0, theta=inf, phi=0.3"),
                                  ("phi", "-inf", "m=1.0, p=1.0, theta=0.7, phi=-inf"),
                                  ("mass", "inf", "m=inf, p=1.0, theta=0.7, phi=0.3")]},
    "table1-momentum=1e200": (["table1", "--trials", "2", "--momentum", "1e200"], 4,
                              "kinematics error: energy sqrt(p^2+m^2) overflows at p=1e+200"),
    "table1-energy=nan": (["table1", "--trials", "2", "--energy", "nan"], 2,
                          "spinorlab table1: error: unrecognized arguments: --energy nan"),
    "dual-omega-not-valid": (["dual", "--psi", "PSI", "--omega", "IMAGINARY_OMEGA"], 5,
                             "operator error: not a valid Omega: constraint residual 2.000e+00 "
                             "(tolerance 1.0e-10), |det| = 1.000e+00"),
    "dual-output-unwritable": (["dual", "--psi", "PSI", "--output", "UNWRITABLE"], 2,
                               "usage error: cannot write ..."),
    # only cayley renders csv; Python versions spell the choices differently
    "embed-format=csv": (["embed", "--format", "csv", "--trials", "5"], 2,
                         "spinorlab embed: error: argument --format: invalid choice: 'csv' ..."),
    # argparse writes its usage, then the error line
    **{f"{command}-{flag}={value}": ([command, f"--{flag}", value, *more], 2,
                                     f"spinorlab {command}: error: argument --{flag}: {error}")
       for command, flag, value, more, error in [
           ("verify-theorems", "trials", "0", [], "must be at least 1, got 0"),
           ("embed", "trials", "-3", [], "must be at least 1, got -3"),
           ("verify-theorems", "seed", "-1", ["--trials", "2"], "must be at least 0, got -1"),
           ("table1", "seed", "-1", ["--trials", "2"], "must be at least 0, got -1"),
           ("embed", "seed", "-1", ["--trials", "2"], "must be at least 0, got -1"),
           ("spinor-spaces", "seed", "-1", ["--trials", "2"], "must be at least 0, got -1"),
           ("table1", "seed", "abc", [], "must be an integer, got 'abc'"),
           ("table1", "trials", "1e3", [], "must be an integer, got '1e3'"),
           ("table1", "tolerance", "abc", [], "must be a number, got 'abc'"),
           ("table1", "tolerance", "nan", [], "must be finite and >= 0, got nan"),
           ("table1", "tolerance", "inf", [], "must be finite and >= 0, got inf"),
           ("cayley", "tolerance", "-1e-9", [], "must be finite and >= 0, got -1e-9")]},
    # the last flag of each argv is one its command does not read
    **{f"{argv[0]}-{argv[-2][2:]}-unread": (
        argv, 2, f"spinorlab {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}")
       for argv in [["cayley", "--seed", "3"], ["dual", "--psi", "psi.json", "--trials", "5"],
                    ["embed", "--tolerance", "1e-3"], ["verify-theorems", "--tolerance", "1e-3"],
                    ["classify", "--duals", "duals.json", "--seed", "1"],
                    # the energy is derived, so even the on-shell value is refused
                    ["table1", "--energy", "1.4142135623730951"]]},
}


#: each command's checks in report order, with the tolerance each states at default flags
BOUNDS = {
    "verify-theorems": {
        "block-structure-validation": 1e-10, "block-hermiticity": 1e-12,
        "generic-matrix-rejection": 0.0, "adjoint-fixed-points": 1e-12,
        "adjoint-imaginary-detection": 1e-7, "closure-commuting-products": 1e-9,
        "closure-noncommuting-detection": 1e-6, "inverse-closure-lemma": 1e-9,
        "determinant-transport": 1e-9,
    },
    "table1": {
        "row-G": 1e-9, "row-F": 1e-9, "row-FG": 1e-9, "row-XiDagger": 1e-9,
        "row-GXiDagger": 1e-9, "row-H": 1e-9, "row-Hinv": 1e-9,
    },
    "cayley": {"closure": 1e-9, "identified-K4": 0.0},
    "classify": {"orbit-sizes-divide-order": 0.0},
    "embed": {
        "quaternion-clifford-relations": 0.0, "gl2h-homomorphism": 1e-10, "pattern-dof": 0.0,
        "pattern-detection": 0.0, "invertibility-transport": 0.0,
        "even-block-multiplicativity": 1e-10, "intertwined-representations": 1e-9,
    },
    "spinor-spaces": {
        "complex-idempotency": 1e-12, "complex-projector-rank-1": 0.0,
        "real-idempotency": 1e-12, "ideal-dimension-complex-left": 0.0,
        "ideal-dimension-complex-right": 0.0, "ideal-dimension-real-left": 0.0,
        "division-ring-complex-is-C": 0.0, "division-ring-real-is-H": 0.0,
        "beta-in-ring": 1e-10, "involution-conditions": 0.0,
        "beta-matches-matrix-adjoint": 1e-10,
    },
    "dual": {"omega-validity": 1e-10},
}
KFLAGS = ["--mass", "1", "--momentum", "1", "--theta", "0.7", "--phi", "0.3"]

#: label: (argv, status, {check name: stated tolerance} in report order)
REPORTS = {
    # at each command's stated bounds; the trial counts from 255 up run more than one block
    **{label: (argv, "pass", BOUNDS[argv[0]]) for label, argv in [
        ("verify-theorems-trials-5", ["verify-theorems", "--trials", "5"]),
        ("verify-theorems-seed-3", ["verify-theorems", "--seed", "3", "--trials", "12"]),
        ("verify-theorems-seed-7", ["verify-theorems", "--seed", "7", "--trials", "15"]),
        ("verify-theorems-seed-42", ["verify-theorems", "--seed", "42", "--trials", "40"]),
        ("verify-theorems-trials-257", ["verify-theorems", "--trials", "257"]),
        ("table1-trials-5", ["table1", "--trials", "5"]),
        ("table1-seed-3", ["table1", "--seed", "3", "--trials", "12", *KFLAGS]),
        ("table1-trials-25", ["table1", "--trials", "25", *KFLAGS]),
        *((f"table1-trials-{n}", ["table1", "--trials", n]) for n in ("255", "256", "257", "600")),
        ("cayley-gxidagger", ["cayley", "--group", "GXiDagger"]),
        ("cayley-gxidagger-kinematics", ["cayley", "--group", "GXiDagger", *KFLAGS]),
        # F from its closed form: its defining expression cancels to size p/m
        ("cayley-momentum-1e-8", ["cayley", "--momentum", "1e-8"]),
        ("cayley-mass-1e8", ["cayley", "--mass", "1e8"]),
        ("cayley-mass-1e76", ["cayley", "--mass", "1e76"]),
        ("classify-psi", ["classify", "--duals", "PSI_DUALS"]),
        ("classify-gf-kinematics", ["classify", "--group", "GF", "--duals", "DUALS", *KFLAGS]),
        ("classify-momentum-1e-8", ["classify", "--duals", "PSI_DUALS", "--momentum", "1e-8"]),
        # every image of its large dual under GF is finite, and no warning is raised
        ("classify-gf-large-dual", ["classify", "--duals", "BIG_DUALS"]),
        ("embed-trials-5", ["embed", "--trials", "5"]),
        ("embed-seed-3", ["embed", "--seed", "3", "--trials", "12"]),
        ("embed-trials-30", ["embed", "--trials", "30"]),
        ("embed-trials-257", ["embed", "--trials", "257"]),
        ("spinor-spaces-trials-5", ["spinor-spaces", "--trials", "5"]),
        ("spinor-spaces-seed-3", ["spinor-spaces", "--seed", "3", "--trials", "12"]),
        ("spinor-spaces-trials-20", ["spinor-spaces", "--trials", "20"]),
        ("spinor-spaces-trials-257", ["spinor-spaces", "--trials", "257"]),
        ("dual-psi", ["dual", "--psi", "PSI"]),
        ("dual-psi-kinematics", ["dual", "--psi", "PSI", *KFLAGS])]},
    # a tolerance that rounding alone exceeds
    **{f"table1-tolerance-{text}": (["table1", "--trials", "5", "--tolerance", text], "fail",
                                    dict.fromkeys(BOUNDS["table1"], float(text)))
       for text in ("0", "1e-30")},
}


def write_inputs(tmp: Path) -> tuple:
    """Write each placeholder's file to ``tmp``.  Returns the placeholder-to-path
    map and DUALS's orbits under GXiDagger, as sorted lists of row positions."""
    def write(name, obj):  # text and bytes as they are, anything else as JSON
        path = tmp / name
        if isinstance(obj, bytes):
            path.write_bytes(obj)
        else:
            path.write_text(obj if isinstance(obj, str) else dump_json(obj))
        return str(path)

    # As the benchmark builds its duals: 1-4 images of each of 10 random rows
    # under the group, shuffled.
    g, xd = named_operator("G", DUALS_K), named_operator("XiDagger", DUALS_K)
    elements = [np.eye(4), g, xd, g @ xd]
    rng = np.random.default_rng(0)
    rows, owners = [], []
    for owner in range(10):
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        for i in rng.permutation(4)[: int(rng.integers(1, 5))]:
            rows.append(base @ elements[i])
            owners.append(owner)
    order = rng.permutation(len(rows))
    orbits = {}
    for position, i in enumerate(order):
        orbits.setdefault(owners[i], []).append(position)
    files = {
        "PSI": write("psi.json", spinor_to_obj(PSI)),
        "OMEGA": write("omega.json", matrix_to_obj(delta_to_omega(random_delta(0), OMEGA_K))),
        "DUALS": write("duals.json", [spinor_to_obj(rows[i]) for i in order]),
        "PSI_DUALS": write("psi-duals.json", [spinor_to_obj(PSI)]),
        "UNIT": write("unit.json", [[1, 0], [0, 0], [0, 0], [0, 0]]),
        "BIG": write("big.json", "[[1e308, 0], [1e308, 0], [0, 0], [0, 0]]"),
        "BIG_DUALS": write("big-duals.json", "[[[1e308, 0], [1e308, 0], [1e308, 0], [1e308, 0]], "
                                             "[[1, 0], [0, 0], [0, 0], [0, 0]]]"),
        "NOT_A_SPINOR": write("bad.json", '{"not": "a spinor"}'),
        "MISSING": str(tmp / "missing.json"),  # not written
        "NAN": write("nan.json", "[[NaN, 0], [0, 0], [0, 0], [1, 0]]"),
        "INF": write("inf.json", "[[1e400, 0], [0, 0], [0, 0], [1, 0]]"),
        "MINUS_INF": write("minus-inf.json", "[[1, 0], [0, -Infinity], [0, 0], [1, 0]]"),
        "EXACT_PAIR": write("exact-pair.json", "[[[1, 3], 0], [0, 0], [0, 0], [1, 0]]"),
        "ZERO_DENOMINATOR": write("zero-den.json", "[[[1, 0], 0], [0, 0], [0, 0], [1, 0]]"),
        "TRUE": write("true.json", "[[true, 0], [0, 0], [0, 0], [0, 0]]"),
        "FALSE": write("false.json", "[[0, false], [0, 0], [0, 0], [1, 0]]"),
        "TRUE_NUMERATOR": write("true-num.json", "[[[true, 1], 0], [0, 0], [0, 0], [1, 0]]"),
        "TRUE_DENOMINATOR": write("true-den.json", "[[[1, true], 0], [0, 0], [0, 0], [1, 0]]"),
        "BIG_INT": write("big-int.json", f"[[{10**400}, 0], [0, 0], [0, 0], [1, 0]]"),
        "BIG_INT_OMEGA": write("big-int-omega.json", [
            [[10**400 if i == j == 0 else int(i == j), 0] for j in range(4)] for i in range(4)]),
        "NOT_UTF8": write("not-utf8.json", b"\xff\xfe[[1,0]]"),
        "DEEP": write("deep.json", "[" * 100_000 + "]" * 100_000),
        "DUALS_OBJECT": write("duals-object.json", {"row": spinor_to_obj(np.ones(4))}),
        "IMAGINARY_OMEGA": write("omega-i.json", matrix_to_obj(1j * np.eye(4))),
        "UNWRITABLE": str(tmp / "missing-dir" / "out.json"),  # in no directory
    }
    return files, sorted(orbits.values())


def with_files(argv, files: dict) -> list:
    """``argv`` with each placeholder replaced by its file."""
    return [files.get(arg, arg) for arg in argv]


def run(argv) -> tuple:
    """Exit code, stdout and stderr of one command run in process.  argparse's
    refusal exits with its code; an exception that escapes ``main`` exits 1
    with its traceback, as it does in a process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - an escaped error is the outcome
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_row(label, tmp: Path) -> tuple:
    return run(with_files({**REPRODUCERS, **REFUSALS}[label][0], write_inputs(tmp)[0]))


def strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"bare {constant} in a JSON report")

    return json.loads(text, parse_constant=refuse)


def defects(*labels) -> list:
    """One strict expected failure per label, named by it."""
    return [pytest.param(label, id=label, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=REPRODUCERS[label][1])) for label in labels]


@pytest.mark.parametrize("label", defects(
    "verify-momentum-1e2", "verify-seed-0", "verify-seed-376383645", "table1-momentum-3e3",
    "table1-momentum-1e-8", "dual-identity-1e3", "dual-generated-omega", "cayley-gxidagger-3e3"))
def test_a_valid_input_passes_every_check(label, tmp_path):
    assert run_row(label, tmp_path)[0] == 0


@pytest.mark.parametrize("label", defects("classify-gxidagger"))
def test_classify_finds_the_gxidagger_orbits_at_high_momentum(label, tmp_path):
    files, orbits = write_inputs(tmp_path)
    code, out, _ = run(with_files(REPRODUCERS[label][0], files))
    assert code == 0
    assert sorted(json.loads(out)["payload"]["classes"].values()) == orbits


def test_every_ledgered_reason_is_a_ledger_entry():
    ids = {entry["id"] for entry in json.loads(LEDGER.read_text())}
    ledgered = {reason for _, reason in REPRODUCERS.values() if not reason.startswith("ROADMAP")}
    assert ledgered <= ids
    # Left out: generate_group now raises CapExceeded at the README point,
    # the documented outcome, so this entry no longer reproduces.
    assert "h-certificate-linalgerror" in ids - ledgered


def test_same_outputs_hashes_each_row_once(tmp_path):
    placeholders = write_inputs(tmp_path)[0]
    cases = list(runpy.run_path(str(ROOT / "tools" / "same_outputs.py"))["defect_argvs"](tmp_path))
    labels = [label for label, _ in cases]
    assert labels == [*REPRODUCERS, *REFUSALS, *REPORTS]
    assert len(set(labels)) == len(labels)
    tables = [row[0] for row in [*REPRODUCERS.values(), *REFUSALS.values(), *REPORTS.values()]]
    for (label, argv), table in zip(cases, tables, strict=True):
        assert not set(argv) & set(placeholders), f"{label}: a placeholder is left"
        # every placeholder but the two that name no file became a file
        assert all(Path(arg).is_file() != (was in ("MISSING", "UNWRITABLE"))
                   for arg, was in zip(argv, table) if arg != was), label


# -- refused inputs ---------------------------------------------------------------


@pytest.mark.parametrize("label", REFUSALS)
def test_a_bad_input_is_refused(label, tmp_path):
    _, want_code, want = REFUSALS[label]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_row(label, tmp_path)
    lines = err.splitlines()
    assert "Traceback" not in err, lines[-1]
    assert (code, out, [str(w.message) for w in caught]) == (want_code, "", [])
    assert lines[-1] == want or want.endswith("...") and lines[-1].startswith(want[:-3])
    if want.startswith("spinorlab"):  # argparse's refusal, after its usage lines
        assert not re.search(r"(?<!\w)_\w", err), "a _-prefixed name"
    else:
        assert len(lines) == 1


def test_an_unwritable_output_creates_no_file(tmp_path):
    files = write_inputs(tmp_path)[0]
    err = run(with_files(REFUSALS["dual-output-unwritable"][0], files))[2]
    assert err.startswith(f"usage error: cannot write {files['UNWRITABLE']}: ")
    assert not Path(files["UNWRITABLE"]).exists()


def test_every_documented_refusal_code_has_a_row():
    readme = (ROOT / "README.md").read_text()
    paragraph = re.search(r"^Exit codes:.*?\n\n", readme, re.M | re.S)[0]
    named = {int(code) for code in re.findall(r"`(\d+)`", paragraph)}
    codes = {code for _, code, _ in REFUSALS.values()}
    assert named & set(range(2, 6)) <= codes <= named


# -- valid inputs -----------------------------------------------------------------


@pytest.mark.parametrize("label", REPORTS)
def test_a_valid_input_gives_its_report(label, tmp_path):
    argv, status, bounds = REPORTS[label]
    argv = with_files(argv, write_inputs(tmp_path)[0])
    formats = [[], [], ["--format", "text"]] + [["--format", "csv"]] * (argv[0] == "cayley")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (code, out, err), again, text, *csv = [run(argv + more) for more in formats]
    assert "Traceback" not in err, err.splitlines()[-1]
    assert (code, err, [str(w.message) for w in caught]) == ({"pass": 0, "fail": 1}[status], "", [])
    report = strict_json(out)
    assert (report["suite"], report["status"]) == (argv[0], status)
    assert [(c["name"], c["tolerance"]) for c in report["checks"]] == list(bounds.items())
    assert again == (code, out, err)
    assert text == (code, "\n".join([f"suite: {argv[0]}  status: {status}"] + [
        f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
        f"  tolerance={c['tolerance']:.1e}" for c in report["checks"]]) + "\n", "")
    assert [c[0] for c in csv] == [code] * len(csv)  # cayley's table, as csv


# -- defects the ledger does not list ---------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("label", defects(
    "table1-mass-1e-300", "verify-momentum-1e100", "verify-mass-1e-200"))
def test_a_report_is_strict_json(label, tmp_path):
    strict_json(run_row(label, tmp_path)[1])


@pytest.mark.parametrize("label", [
    "table1-mass-1e100", "verify-mass-1e100", "cayley-mass-1e100", "classify-mass-1e100",
    "dual-mass-1e100"], ids=lambda label: REPRODUCERS[label][0][0])
def test_a_kinematic_command_gives_a_report_or_refuses_a_large_mass(label, tmp_path):
    code, out, _ = run_row(label, tmp_path)
    assert code == 4 or out and strict_json(out), "neither a report nor exit 4"


@pytest.mark.parametrize("label", defects("verify-momentum-1e8", "verify-mass-1e-8"))
def test_verify_theorems_gives_a_report_or_refuses_an_extreme_point(label, tmp_path):
    code, out, err = run_row(label, tmp_path)
    assert "Traceback" not in err, err.splitlines()[-1]
    assert code in (0, 1, 4), f"exit {code}"
    assert out and strict_json(out) or "kinematics error:" in err, "neither a report nor a refusal"


@pytest.mark.parametrize("label", defects("dual-identity-mass-1e-300"))
def test_dual_gives_a_report_or_refuses_a_small_mass(label, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_row(label, tmp_path)[0]
    assert code in (0, 4), f"exit {code}, neither a report nor exit 4"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("label", defects(
    "cayley-tolerance-0", "classify-tolerance-0", "cayley-tolerance-1e300"))
def test_a_tolerance_gives_a_report(label, tmp_path):
    code, out, _ = run_row(label, tmp_path)
    assert code in (0, 1) and out, "no report reached stdout"
    strict_json(out)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: [G, XiDagger] at p = 1e3 generates order 6")
def test_g_and_xidagger_generate_the_klein_group_at_high_momentum():
    k = KinematicPoint(1.0, 1e3, 0.7, 0.3)
    assert generate_group([named_operator("G", k), named_operator("XiDagger", k)]).order == 4
