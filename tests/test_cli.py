"""CLI behavior: commands, report formats, determinism, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from spinorlab import checks, cli, duals, weyl
from spinorlab.cli import (
    EXIT_BAD_INPUT,
    EXIT_BAD_KINEMATICS,
    EXIT_BAD_OPERATOR,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from spinorlab.duals import ELEMENT_NAMES, KinematicPoint, named_operator, xi
from spinorlab.serialize import dump_json, matrix_to_obj, spinor_to_obj
from spinorlab.weyl import GAMMA0

KFLAGS = ["--mass", "1", "--momentum", "1", "--theta", "0.7", "--phi", "0.3"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_theorems_passes(capsys):
    code, out = run(capsys, ["verify-theorems", "--seed", "42", "--trials", "40"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "pass"
    assert {c["name"] for c in report["checks"]} >= {
        "block-structure-validation",
        "adjoint-fixed-points",
        "closure-commuting-products",
        "inverse-closure-lemma",
    }
    assert all(c["status"] == "pass" for c in report["checks"])


def test_reports_are_deterministic(capsys):
    _, out1 = run(capsys, ["verify-theorems", "--seed", "7", "--trials", "15"])
    _, out2 = run(capsys, ["verify-theorems", "--seed", "7", "--trials", "15"])
    assert out1 == out2


def test_parser_is_built_once_and_parsing_leaves_it_unchanged(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, plain = run(capsys, ["table1", "--trials", "5"])
    _, loose = run(capsys, ["table1", "--trials", "5", "--tolerance", "1e-3"])
    assert {c["tolerance"] for c in json.loads(loose)["checks"]} == {1e-3}
    _, again = run(capsys, ["table1", "--trials", "5"])
    assert {c["tolerance"] for c in json.loads(again)["checks"]} == {1e-9}
    assert again == plain
    assert run(capsys, ["dual", "--psi", "missing.json"])[0] == EXIT_BAD_INPUT
    assert run(capsys, ["table1", "--trials", "5"])[1] == plain


def test_table1_suite(capsys):
    code, out = run(capsys, ["table1", "--trials", "25", *KFLAGS])
    assert code == EXIT_OK
    report = json.loads(out)
    assert len(report["checks"]) == 7
    assert all(c["residual"] <= 1e-9 for c in report["checks"])


def test_cayley_csv_reproduces_the_reference_table(capsys):
    code, out = run(capsys, ["cayley", "--group", "GF", "--format", "csv", *KFLAGS])
    assert code == EXIT_OK
    assert out.splitlines() == [
        ",I,G,F,FG",
        "I,I,G,F,FG",
        "G,G,I,FG,F",
        "F,F,FG,I,G",
        "FG,FG,F,G,I",
    ]


def test_cayley_json_identifies_k4(capsys):
    code, out = run(capsys, ["cayley", "--group", "GXiDagger", *KFLAGS])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["payload"]["name"] == "K4"
    assert report["payload"]["labels"] == ["I", "G", "XiDagger", "GXiDagger"]
    assert report["payload"]["table"] == [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]


def test_csv_format_only_for_cayley(capsys):
    code = main(["embed", "--format", "csv", "--trials", "5"])
    assert code == 2


@pytest.mark.parametrize("command", ["verify-theorems", "table1", "embed", "spinor-spaces", "dual"])
def test_csv_format_is_refused_before_the_suite_runs(command, monkeypatch, capsys):
    # No suite runs, so neither a long run nor a missing input file is reached.
    monkeypatch.setattr(cli, "_report", lambda *a: pytest.fail("the suite ran"))
    argv = [command, "--format", "csv"] + (["--psi", "missing.json"] if command == "dual" else [])
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "csv format is only available for cayley\n"


def test_embed_and_spinor_spaces(capsys):
    code, out = run(capsys, ["embed", "--trials", "30", "--format", "text"])
    assert code == EXIT_OK
    assert "FAIL" not in out
    code, out = run(capsys, ["spinor-spaces", "--trials", "20", "--format", "text"])
    assert code == EXIT_OK
    assert "FAIL" not in out


# argv and the status of its report; PSI and DUALS name input files
ONE_OF_EACH = {
    "verify-theorems": (["verify-theorems", "--trials", "5"], "pass"),
    "table1": (["table1", "--trials", "5"], "pass"),
    "cayley": (["cayley", "--group", "GXiDagger"], "pass"),
    "classify": (["classify", "--duals", "DUALS"], "pass"),
    "embed": (["embed", "--trials", "5"], "pass"),
    "spinor-spaces": (["spinor-spaces", "--trials", "5"], "pass"),
    "dual": (["dual", "--psi", "PSI"], "pass"),
    "table1-tolerance-0": (["table1", "--trials", "5", "--tolerance", "0"], "fail"),
}


@pytest.mark.parametrize("argv, status", ONE_OF_EACH.values(), ids=ONE_OF_EACH)
def test_every_format_renders_the_one_report(argv, status, tmp_path, capsys):
    row = spinor_to_obj(np.array([1.0, 0.5j, -0.3, 0.2 - 1j]))
    files = {"PSI": tmp_path / "psi.json", "DUALS": tmp_path / "duals.json"}
    files["PSI"].write_text(dump_json(row))
    files["DUALS"].write_text(dump_json([row]))
    argv = [str(files.get(arg, arg)) for arg in argv]
    code, out = run(capsys, argv)
    report = json.loads(out)
    assert report["status"] == status
    assert code == (EXIT_OK if status == "pass" else EXIT_CHECK_FAILED)
    text = [f"suite: {report['suite']}  status: {status}"] + [
        f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
        f"  tolerance={c['tolerance']:.1e}" for c in report["checks"]]
    assert run(capsys, argv + ["--format", "text"]) == (code, "\n".join(text) + "\n")
    if argv[0] == "cayley":
        assert run(capsys, argv + ["--format", "csv"])[0] == code


def test_dual_command_identity_omega(tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.array([1.0, 0, 0, 0]))))
    code, out = run(
        capsys,
        ["dual", "--psi", str(psi_file), "--omega", "identity",
         "--mass", "1", "--momentum", "1",
         "--theta", str(math.pi / 2), "--phi", "0"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    got = np.array([complex(re, im) for re, im in report["payload"]["dual"]])
    k = KinematicPoint(1.0, 1.0, math.pi / 2, 0.0)
    expected = np.array([1.0, 0, 0, 0]).conj() @ GAMMA0 @ xi(k)
    assert abs(got - expected).max() < 1e-12


def test_dual_command_with_omega_file(tmp_path, capsys):
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.array([0, 1j, 0, 0.5]))))
    omega_file = tmp_path / "omega.json"
    omega_file.write_text(dump_json(matrix_to_obj(np.eye(4))))
    code, out = run(
        capsys, ["dual", "--psi", str(psi_file), "--omega", str(omega_file), *KFLAGS]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    got = np.array([complex(re, im) for re, im in report["payload"]["dual"]])
    expected = np.array([0, 1j, 0, 0.5]).conj() @ GAMMA0 @ xi(k)
    assert abs(got - expected).max() < 1e-12


def test_dual_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a spinor"}')
    assert main(["dual", "--psi", str(bad)]) == EXIT_BAD_INPUT
    missing = tmp_path / "missing.json"
    assert main(["dual", "--psi", str(missing)]) == EXIT_BAD_INPUT


def test_dual_rejects_invalid_omega(tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.ones(4))))
    omega_file = tmp_path / "omega.json"
    omega_file.write_text(dump_json(matrix_to_obj(1j * np.eye(4))))
    code = main(["dual", "--psi", str(psi_file), "--omega", str(omega_file)])
    assert code == EXIT_BAD_OPERATOR


def test_offshell_energy_rejected(tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.ones(4))))
    code = main(["dual", "--psi", str(psi_file), "--energy", "9.0"])
    assert code == EXIT_BAD_KINEMATICS
    assert main(["table1", "--mass", "-2"]) == EXIT_BAD_KINEMATICS


def test_classify_command(tmp_path, capsys):
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    partner = psi @ named_operator("F", k)
    loner = rng.normal(size=4) + 1j * rng.normal(size=4)
    duals_file = tmp_path / "duals.json"
    duals_file.write_text(
        dump_json([spinor_to_obj(v) for v in (psi, partner, loner)])
    )
    code, out = run(
        capsys, ["classify", "--duals", str(duals_file), "--group", "GF", *KFLAGS]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["payload"]["classes"] == {"0": [0, 1], "1": [2]}


def test_output_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["embed", "--trials", "10", "--output", str(target)])
    assert code == EXIT_OK
    report = json.loads(target.read_text())
    assert report["suite"] == "embed"


def test_failing_check_gives_exit_one(tmp_path, capsys):
    # An absurdly tight tolerance forces table1 residuals to fail.
    code = main(["table1", "--trials", "5", "--tolerance", "1e-30"])
    assert code == EXIT_CHECK_FAILED


def test_singular_momentum_is_a_kinematics_error(tmp_path, capsys):
    duals_file = tmp_path / "duals.json"
    duals_file.write_text(dump_json([spinor_to_obj(np.ones(4))]))
    at_rest = ["--momentum", "0"]
    for argv in (
        ["table1", *at_rest],
        ["cayley", "--group", "GF", *at_rest],
        ["classify", "--group", "GF", "--duals", str(duals_file), *at_rest],
    ):
        assert main(argv) == EXIT_BAD_KINEMATICS
        assert "kinematics error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["verify-theorems", "--trials", "0"], ["embed", "--trials", "-3"]]
)
def test_nonpositive_trials_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-theorems", "table1", "embed", "spinor-spaces"])
def test_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1", "--trials", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    code = "import spinorlab, spinorlab.cli, sys; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.fixture
def input_files(tmp_path):
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    psi = np.array([0.3, 1j, -0.5, 0.2])
    duals = [psi, psi @ named_operator("F", k), np.array([1.0, 2.0, 0.5j, 0])]
    files = {"psi": tmp_path / "psi.json", "duals": tmp_path / "duals.json"}
    files["psi"].write_text(dump_json(spinor_to_obj(psi)))
    files["duals"].write_text(dump_json([spinor_to_obj(v) for v in duals]))
    return {name: str(path) for name, path in files.items()}


SUITE_ARGV = {
    "verify-theorems": ["--seed", "3", "--trials", "12"],
    "table1": ["--seed", "3", "--trials", "12", *KFLAGS],
    "cayley": ["--group", "GXiDagger", *KFLAGS],
    "classify": ["--group", "GF", "--duals", "{duals}", *KFLAGS],
    "embed": ["--seed", "3", "--trials", "12"],
    "spinor-spaces": ["--seed", "3", "--trials", "12"],
    "dual": ["--psi", "{psi}", *KFLAGS],
}

CHECK_NAMES = {
    "verify-theorems": [
        "block-structure-validation", "block-hermiticity", "generic-matrix-rejection",
        "adjoint-fixed-points", "adjoint-imaginary-detection",
        "closure-commuting-products", "closure-noncommuting-detection",
        "inverse-closure-lemma", "determinant-transport",
    ],
    "table1": [
        "row-G", "row-F", "row-FG", "row-XiDagger", "row-GXiDagger", "row-H", "row-Hinv",
    ],
    "cayley": ["closure", "identified-K4"],
    "classify": ["orbit-sizes-divide-order"],
    "embed": [
        "quaternion-clifford-relations", "gl2h-homomorphism", "pattern-dof",
        "pattern-detection", "invertibility-transport", "even-block-multiplicativity",
        "intertwined-representations",
    ],
    "spinor-spaces": [
        "complex-idempotency", "complex-projector-rank-1", "real-idempotency",
        "ideal-dimension-complex-left", "ideal-dimension-complex-right",
        "ideal-dimension-real-left", "division-ring-complex-is-C",
        "division-ring-real-is-H", "beta-in-ring", "involution-conditions",
        "beta-matches-matrix-adjoint",
    ],
    "dual": ["omega-validity"],
}


#: the tolerance each check states at default flags
STATED_BOUNDS = {
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


@pytest.mark.parametrize("command", list(SUITE_ARGV))
def test_every_stated_bound_is_pinned(command, input_files, capsys):
    argv = [command] + [a.format(**input_files) for a in SUITE_ARGV[command]]
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    bounds = {c["name"]: c["tolerance"] for c in json.loads(out)["checks"]}
    assert bounds == STATED_BOUNDS[command]


@pytest.mark.parametrize("command", list(SUITE_ARGV))
def test_every_command_reruns_byte_identically_with_pinned_checks(
    command, input_files, capsys
):
    argv = [command] + [a.format(**input_files) for a in SUITE_ARGV[command]]
    code, out = run(capsys, argv)
    assert run(capsys, argv) == (code, out)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suite"] == command
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["cayley", "--seed", "3"],
        ["dual", "--psi", "psi.json", "--trials", "5"],
        ["embed", "--tolerance", "1e-3"],
        ["verify-theorems", "--tolerance", "1e-3"],
        ["classify", "--duals", "duals.json", "--seed", "1"],
        ["table1", "--tolerance", "nan"],
        ["table1", "--tolerance", "inf"],
        ["cayley", "--tolerance=-1e-9"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "flags",
    [
        ["--momentum", "nan"],
        ["--theta", "inf"],
        ["--phi=-inf"],
        ["--mass", "inf"],
        ["--momentum", "1e200"],
        ["--energy", "nan"],
    ],
)
def test_non_finite_kinematics_exit_4(flags, capsys):
    assert main(["table1", "--trials", "2", *flags]) == EXIT_BAD_KINEMATICS
    assert "kinematics error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "psi_text",
    [
        "[[NaN, 0], [0, 0], [0, 0], [1, 0]]",
        "[[1e400, 0], [0, 0], [0, 0], [1, 0]]",
        "[[1, 0], [0, -Infinity], [0, 0], [1, 0]]",
        "[[[1, 0], 0], [0, 0], [0, 0], [1, 0]]",
    ],
)
def test_non_finite_or_zero_denominator_spinor_exits_3(psi_text, tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(psi_text)
    assert main(["dual", "--psi", str(psi_file)]) == EXIT_BAD_INPUT
    assert "input error:" in capsys.readouterr().err


def test_a_finite_psi_whose_dual_overflows_exits_3(tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text("[[1e308, 0], [1e308, 0], [0, 0], [0, 0]]")
    assert main(["dual", "--psi", str(psi_file)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err == "input error: psi is too large: its dual overflows\n"
    assert captured.out == ""


def test_the_overflow_exit_writes_one_line_to_stderr(tmp_path):
    # No numpy warning precedes the error: in a process, warnings reach stderr.
    psi_file = tmp_path / "psi.json"
    psi_file.write_text("[[1e308, 0], [1e308, 0], [0, 0], [0, 0]]")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "spinorlab.cli", "dual", "--psi", str(psi_file)]
    result = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_BAD_INPUT, b"", b"input error: psi is too large: its dual overflows\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_fails_its_check(capsys):
    # At |p| = 1e80 every commuting product overflows to a NaN residual.
    code, out = run(capsys, ["verify-theorems", "--trials", "5", "--momentum", "1e80"])
    assert code == EXIT_CHECK_FAILED
    check = {c["name"]: c for c in json.loads(out)["checks"]}
    assert check["closure-commuting-products"]["status"] == "fail"
    assert math.isnan(check["closure-commuting-products"]["residual"])


def test_a_report_renders_each_kind_of_check():
    report, _ = cli._report(argparse.Namespace(command="demo"), None, [
        checks.verdict("small", np.float64(1e-14), 1e-12),  # a bound, read as a float
        checks.verdict("nan", [np.array([0.0, np.nan]), 1e-15], 1e-9),
        checks.verdict("detection", [np.array([0.5, 2.0]), 0.7], 1e-6, above=True),
        checks.verdict("flag", True, 0.0),  # a yes/no check that failed
    ])
    # repr pins each value's type and the NaN, and the items the key order
    assert [[(key, repr(value)) for key, value in c.items()]
            for c in report["checks"]] == [
        [("name", "'small'"), ("status", "'pass'"), ("residual", "1e-14"),
         ("tolerance", "1e-12")],
        [("name", "'nan'"), ("status", "'fail'"), ("residual", "nan"), ("tolerance", "1e-09")],
        [("name", "'detection'"), ("status", "'pass'"), ("residual", "0.5"),
         ("tolerance", "1e-06")],
        [("name", "'flag'"), ("status", "'fail'"), ("residual", "1.0"), ("tolerance", "0.0")],
    ]
    assert cli._as_text(report).splitlines() == [
        "suite: demo  status: fail",
        "  PASS  small  residual=1.000e-14  tolerance=1.0e-12",
        "  FAIL  nan  residual=nan  tolerance=1.0e-09",
        "  PASS  detection  residual=5.000e-01  tolerance=1.0e-06",
        "  FAIL  flag  residual=1.000e+00  tolerance=0.0e+00",
    ]
    assert report["status"] == "fail"


@pytest.mark.parametrize("blocks, above, status, residual", [
    (False, False, "pass", 0.0),  # a yes/no check that holds
    (1e-9, False, "pass", 1e-9),  # a bound passes at its tolerance
    ([np.array([1e-10, 2e-9]), 0.0], False, "fail", 2e-9),  # the largest over the blocks
    (1e-9, True, "fail", 1e-9),  # a detection fails at its tolerance
    ([np.array([3e-9, 2e-9]), 5e-9], True, "pass", 2e-9),  # the smallest over the blocks
    ([np.array([2e-9, np.nan]), 5e-9], True, "fail", math.nan),
    (np.int64(0), False, "pass", 0.0),
])
def test_a_verdict_reduces_its_blocks_in_the_direction_it_compares(blocks, above, status, residual):
    check = checks.verdict("demo", blocks, 1e-9, above=above)
    assert list(check) == ["name", "status", "residual", "tolerance"]
    assert (check["name"], check["status"], check["tolerance"]) == ("demo", status, 1e-9)
    assert type(check["residual"]) is float and repr(check["residual"]) == repr(residual)


@pytest.mark.parametrize("command", ["embed", "spinor-spaces"])
def test_a_changed_check_reaches_no_later_report(command, capsys):
    argv = [command, "--seed", "3", "--trials", "4"]
    first = run(capsys, argv)
    args = cli.build_parser().parse_args(argv)
    for check in args.suite(args)[0]["checks"]:
        check.update(status="fail", residual=-1.0, tolerance=-1.0)
    assert run(capsys, argv) == first


@pytest.mark.parametrize("flag", ["--psi", "--omega"])
def test_integer_too_large_for_a_float_exits_3(flag, tmp_path, capsys):
    big = [10**400, 0]
    psi = [[1, 0], [0, 0], [0, 0], [1, 0]]
    omega = [[[int(i == j), 0] for j in range(4)] for i in range(4)]
    if flag == "--psi":
        psi[0] = big
    else:
        omega[0][0] = big
    psi_file, omega_file = tmp_path / "psi.json", tmp_path / "omega.json"
    psi_file.write_text(json.dumps(psi))
    omega_file.write_text(json.dumps(omega))
    code = main(["dual", "--psi", str(psi_file), "--omega", str(omega_file)])
    assert code == EXIT_BAD_INPUT
    assert "input error:" in capsys.readouterr().err


def test_dual_validates_omega_once(tmp_path, monkeypatch, capsys):
    calls = []
    real_validate = duals.validate_omega

    def counting_validate(*args, **kwargs):
        calls.append(args)
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(duals, "validate_omega", counting_validate)
    monkeypatch.setattr(cli, "validate_omega", counting_validate)
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.ones(4))))
    code, out = run(capsys, ["dual", "--psi", str(psi_file)])
    assert code == EXIT_OK
    assert len(calls) == 1
    check = json.loads(out)["checks"][0]
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    assert check["name"] == "omega-validity"
    assert check["residual"] == real_validate(np.eye(4), k, 1e-10).residual

    calls.clear()
    omega_file = tmp_path / "omega.json"
    omega_file.write_text(dump_json(matrix_to_obj(1j * np.eye(4))))
    code = main(["dual", "--psi", str(psi_file), "--omega", str(omega_file)])
    assert code == EXIT_BAD_OPERATOR
    assert len(calls) == 1
    assert "not a valid Omega: constraint residual" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text, value", [
    ("--phi", "-1e-3", -1e-3),
    ("--theta", "-2.5e-1", -0.25),
    ("--phi", "-2E+0", -2.0),
    ("--theta", "-.5e1", -5.0),
])
def test_exponent_form_negative_numbers_are_values(flag, text, value, capsys):
    code, out = run(capsys, ["table1", "--trials", "2", flag, text])
    assert code == EXIT_OK
    assert json.loads(out)["kinematics"][flag[2:]] == value


def test_every_kinematic_flag_takes_an_exponent_form_negative(capsys):
    # Negative mass and momentum are kinematics errors, not usage errors.
    for flag in ("--mass", "--momentum"):
        assert main(["table1", flag, "-1e-3"]) == EXIT_BAD_KINEMATICS
    assert main(["table1", "--energy", "-1e0"]) == EXIT_BAD_KINEMATICS
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--phi", "-x"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--psi", "--omega", "--duals"])
def test_non_utf8_input_file_exits_3(flag, tmp_path, capsys):
    good_psi = tmp_path / "psi.json"
    good_psi.write_text(dump_json(spinor_to_obj(np.ones(4))))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[[1,0]]")
    if flag == "--duals":
        argv = ["classify", "--duals", str(bad)]
    else:
        argv = ["dual", "--psi", str(good_psi), flag, str(bad)]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.out == ""


def test_too_deeply_nested_input_file_exits_3(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["dual", "--psi", str(deep)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("psi_text", [
    "[[true, 0], [0, 0], [0, 0], [0, 0]]",
    "[[0, false], [0, 0], [0, 0], [1, 0]]",
    "[[[true, 1], 0], [0, 0], [0, 0], [1, 0]]",
    "[[[1, true], 0], [0, 0], [0, 0], [1, 0]]",
])
def test_boolean_spinor_entry_exits_3(psi_text, tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(psi_text)
    assert main(["dual", "--psi", str(psi_file)]) == EXIT_BAD_INPUT
    assert "input error:" in capsys.readouterr().err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.ones(4))))
    target = tmp_path / "missing-dir" / "out.json"
    code = main(["dual", "--psi", str(psi_file), "--output", str(target)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["table1"],  # a report that fits in the pipe's buffer, so only the flush fails
    ["cayley", "--format", "csv"],
    ["verify-theorems", "--trials", "2", "--seed", "1"],
    ["table1", "--output", "/dev/stdout"],  # the same pipe, opened by path
])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # The reader's end is closed before the command starts, so every write to
    # stdout fails with EPIPE however fast the command runs.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "spinorlab.cli", *argv], stdout=write,
                                stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error_without_a_traceback():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "spinorlab.cli", "table1"], stdout=full,
                                stderr=subprocess.PIPE, env=env, timeout=120)
    assert (result.returncode, result.stderr) == (
        EXIT_USAGE, b"usage error: cannot write stdout: [Errno 28] No space left on device\n")


def test_duals_object_instead_of_a_list_exits_3(tmp_path, capsys):
    duals_file = tmp_path / "duals.json"
    duals_file.write_text(dump_json({"row": spinor_to_obj(np.ones(4))}))
    assert main(["classify", "--duals", str(duals_file), *KFLAGS]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: duals JSON must be a list of spinor rows\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--seed", "abc", "must be an integer, got 'abc'"),
    ("--trials", "1e3", "must be an integer, got '1e3'"),
    ("--tolerance", "abc", "must be a number, got 'abc'"),
])
def test_an_unreadable_number_is_a_usage_error_that_names_no_helper(flag, text, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", flag, text])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: {message}\n")
    assert not re.search(r"(?<!\w)_\w", err)  # no _-prefixed name


# -- fixed work is done once per process ------------------------------------------


@pytest.fixture
def fresh_structure():
    """The cached spinor-space structure and quaternionic Clifford relations,
    computed anew inside the test and forgotten after it."""
    checks.spinor_space_structure.cache_clear()
    checks.quaternion_clifford_relations.cache_clear()
    yield checks.spinor_space_structure
    checks.spinor_space_structure.cache_clear()
    checks.quaternion_clifford_relations.cache_clear()


def test_a_second_call_recomputes_no_fixed_structure(fresh_structure, monkeypatch, capsys):
    calls = Counter()

    def counted(name):
        real = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda *a: calls.update([name]) or real(*a))

    for name in ("ideal_basis", "division_ring_identify", "verify_involution_conditions"):
        counted(name)
    first = {"ideal_basis": 3, "division_ring_identify": 2, "verify_involution_conditions": 3}
    for seed in ("1", "2"):
        for command in ("spinor-spaces", "embed"):
            assert run(capsys, [command, "--seed", seed, "--trials", "4"])[0] == EXIT_OK
        assert calls == first
        assert checks.quaternion_clifford_relations.cache_info().misses == 1
    assert fresh_structure.cache_info().misses == 1


@pytest.mark.parametrize("command, seeded", [
    ("spinor-spaces", {"beta-in-ring", "beta-matches-matrix-adjoint"}),
    ("embed", {"gl2h-homomorphism", "pattern-detection", "invertibility-transport",
               "even-block-multiplicativity", "intertwined-representations"}),
])
def test_a_new_seed_changes_only_the_seeded_residuals(command, seeded, fresh_structure, capsys):
    one, two = (json.loads(run(capsys, [command, "--seed", s, "--trials", "20"])[1])
                for s in ("1", "2"))
    assert (one.pop("seed"), two.pop("seed")) == (1, 2)
    checks_one, checks_two = one.pop("checks"), two.pop("checks")
    assert one == two  # payload and status included
    assert [c["name"] for c in checks_one] == [c["name"] for c in checks_two]
    changed = {a["name"] for a, b in zip(checks_one, checks_two) if a != b}
    assert changed and changed <= seeded


def test_each_spinor_spaces_report_builds_its_own_payload(fresh_structure):
    args = cli.build_parser().parse_args(["spinor-spaces", "--trials", "2"])
    first = cli._suite_spinor_spaces(args)[0]["payload"]
    want = json.loads(json.dumps(first))
    first["ideal_dimensions"]["real_left"] = -1
    first["ideal_basis_real_left"].clear()
    first["idempotents"]["real"].clear()
    first["division_rings"]["real"]["name"] = "R"
    assert cli._suite_spinor_spaces(args)[0]["payload"] == want


def test_a_patched_tolerance_reaches_the_structure_once_its_cache_is_cleared(
    fresh_structure, monkeypatch
):
    # h = 1 and h = g0 have |det| 1, below a DET_TOL of 2: both are singular.
    assert fresh_structure()[-1]  # the involution conditions hold
    monkeypatch.setattr(weyl, "DET_TOL", 2.0)
    assert fresh_structure()[-1]  # the process's structure does not see the patch
    fresh_structure.cache_clear()
    with pytest.raises(ZeroDivisionError):
        fresh_structure()


@pytest.mark.parametrize("momentum", ["0.001", "1", "3000"])
def test_table1_payload_is_each_named_operator_bit_for_bit(momentum, capsys):
    _, out = run(capsys, ["table1", "--trials", "3", "--momentum", momentum])
    operators = json.loads(out)["payload"]["operators"]
    assert list(operators) == list(ELEMENT_NAMES)
    k = KinematicPoint(1.0, float(momentum), 0.7, 0.3)
    for name in ELEMENT_NAMES:
        want = np.array(matrix_to_obj(named_operator(name, k)))
        assert np.array(operators[name]).tobytes() == want.tobytes(), name


def test_table1_forms_xi_once_per_block_and_once_for_its_payload(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(duals, "xi", lambda k: calls.append(1) or xi(k))
    trials = checks._BLOCK + 10  # with the point itself, two blocks
    assert run(capsys, ["table1", "--trials", str(trials)])[0] == EXIT_OK
    assert len(calls) == 3
