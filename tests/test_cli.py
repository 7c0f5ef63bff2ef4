"""CLI behavior: commands, report formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinorlab.cli import (
    EXIT_BAD_INPUT,
    EXIT_BAD_KINEMATICS,
    EXIT_BAD_OPERATOR,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from spinorlab.duals import KinematicPoint, named_operator, xi
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


def test_embed_and_spinor_spaces(capsys):
    code, out = run(capsys, ["embed", "--trials", "30", "--format", "text"])
    assert code == EXIT_OK
    assert "FAIL" not in out
    code, out = run(capsys, ["spinor-spaces", "--trials", "20", "--format", "text"])
    assert code == EXIT_OK
    assert "FAIL" not in out


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_fails_its_check(capsys):
    # At |p| = 1e80 every commuting product overflows to a NaN residual.
    code, out = run(capsys, ["verify-theorems", "--trials", "5", "--momentum", "1e80"])
    assert code == EXIT_CHECK_FAILED
    check = {c["name"]: c for c in json.loads(out)["checks"]}
    assert check["closure-commuting-products"]["status"] == "fail"
    assert math.isnan(check["closure-commuting-products"]["residual"])
