"""CLI behavior: commands, report formats, determinism, exit codes.

Each refused input, exit 2 to 5, is a row of ``REFUSALS`` in
``tests/test_known_defects.py``; the checks here are those that fit no row.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from spinorlab import checks, cli, duals, ideals, weyl
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
from test_known_defects import REPORTS, with_files, write_inputs

KFLAGS = ["--mass", "1", "--momentum", "1", "--theta", "0.7", "--phi", "0.3"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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


@pytest.mark.parametrize("group", ["GF", "GXiDagger"])
def test_cayley_csv_is_rendered_from_the_json_report(group, capsys):
    argv = ["cayley", "--group", group, *KFLAGS]
    payload = json.loads(run(capsys, argv)[1])["payload"]
    labels, table = payload["labels"], payload["table"]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["", *labels])
    writer.writerows([labels[i], *(labels[j] for j in row)] for i, row in enumerate(table))
    assert run(capsys, argv + ["--format", "csv"]) == (EXIT_OK, want.getvalue())


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


@pytest.mark.parametrize("command", ["verify-theorems", "table1", "embed", "spinor-spaces", "dual"])
def test_csv_format_is_refused_before_the_suite_runs(command, monkeypatch, capsys):
    # The command's parser refuses it, so neither a long run nor a missing input file is reached.
    monkeypatch.setattr(cli, "_report", lambda *a: pytest.fail("the suite ran"))
    argv = [command, "--format", "csv"] + (["--psi", "missing.json"] if command == "dual" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"spinorlab {command}: error: argument --format: invalid choice: 'csv'")
    assert last.endswith(("(choose from 'json', 'text')", "(choose from json, text)"))


def test_dual_command_identity_omega(tmp_path, capsys):
    psi_file = tmp_path / "psi.json"
    psi_file.write_text(dump_json(spinor_to_obj(np.array([1.0, 0, 0, 0]))))
    code, out = run(
        capsys,
        ["dual", "--psi", str(psi_file),
         "--mass", "1", "--momentum", "1",
         "--theta", str(math.pi / 2), "--phi", "0"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    got = np.array([complex(re, im) for re, im in report["payload"]["dual"]])
    k = KinematicPoint(1.0, 1.0, math.pi / 2, 0.0)
    expected = np.array([1.0, 0, 0, 0]).conj() @ GAMMA0 @ xi(k)
    assert abs(got - expected).max() < 1e-12


def test_omega_identity_names_a_file(tmp_path, monkeypatch, capsys):
    # --omega is always a path: a file called "identity" is read, not shadowed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "psi.json").write_text(dump_json(spinor_to_obj(np.array([1.0, 0, 0, 0]))))
    (tmp_path / "identity").write_text(dump_json(matrix_to_obj(2 * np.eye(4))))
    duals = [json.loads(run(capsys, ["dual", "--psi", "psi.json", *more])[1])["payload"]["dual"]
             for more in ([], ["--omega", "identity"])]
    assert np.array(duals[1]).tolist() == (2 * np.array(duals[0])).tolist()


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


def test_import_does_not_load_scipy():
    code = "import spinorlab, spinorlab.cli, sys; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


#: each command's row of ``REPORTS`` at a pinned seed or kinematic point
PINNED = {
    "verify-theorems": "verify-theorems-seed-3", "table1": "table1-seed-3",
    "cayley": "cayley-gxidagger-kinematics", "classify": "classify-gf-kinematics",
    "embed": "embed-seed-3", "spinor-spaces": "spinor-spaces-seed-3",
    "dual": "dual-psi-kinematics",
}


@pytest.mark.parametrize("command", PINNED)
def test_every_stated_bound_is_pinned(command, tmp_path, capsys):
    argv, _, bounds = REPORTS[PINNED[command]]
    code, out = run(capsys, with_files(argv, write_inputs(tmp_path)[0]))
    assert code == EXIT_OK
    assert {c["name"]: c["tolerance"] for c in json.loads(out)["checks"]} == bounds


@pytest.mark.parametrize("command", PINNED)
def test_every_command_reruns_byte_identically_with_pinned_checks(command, tmp_path, capsys):
    argv, _, bounds = REPORTS[PINNED[command]]
    argv = with_files(argv, write_inputs(tmp_path)[0])
    code, out = run(capsys, argv)
    assert run(capsys, argv) == (code, out)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suite"] == command
    assert [c["name"] for c in report["checks"]] == list(bounds)


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
    report = cli._report(argparse.Namespace(command="demo"), None, [
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
    for check in args.suite(args)["checks"]:
        check.update(status="fail", residual=-1.0, tolerance=-1.0)
    assert run(capsys, argv) == first


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
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--phi", "-x"])
    assert exc.value.code == EXIT_USAGE


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
    first = cli._suite_spinor_spaces(args)["payload"]
    want = json.loads(json.dumps(first))
    first["ideal_dimensions"]["real_left"] = -1
    first["ideal_basis_real_left"].clear()
    first["idempotents"]["real"].clear()
    first["division_rings"]["real"]["name"] = "R"
    assert cli._suite_spinor_spaces(args)["payload"] == want


def rank_and_involutions(structure):
    """The complex projector's rank and whether the involution conditions hold,
    or the error that building the structure raised."""
    try:
        built = structure()
    except ZeroDivisionError as exc:
        return type(exc)
    return built[2], built[-1]


@pytest.mark.parametrize("module, name, value, patched", [
    # weyl._invertible reads DET_TOL when called: h = 1 and h = g0 have |det| 1,
    # below a DET_TOL of 2, so both are singular
    (weyl, "DET_TOL", 2.0, ZeroDivisionError),
    # every other threshold is bound where it is imported: checks reads its own RANK_TOL
    (checks, "RANK_TOL", 10.0, (0, True)),
], ids=["DET_TOL", "RANK_TOL"])
def test_a_patched_tolerance_reaches_the_structure_once_its_cache_is_cleared(
    module, name, value, patched, fresh_structure, monkeypatch
):
    assert rank_and_involutions(fresh_structure) == (1, True)
    monkeypatch.setattr(module, name, value)
    # the process's structure does not see the patch
    assert rank_and_involutions(fresh_structure) == (1, True)
    fresh_structure.cache_clear()
    assert rank_and_involutions(fresh_structure) == patched


def test_a_broken_involution_condition_is_reported_not_raised(fresh_structure, monkeypatch,
                                                              capsys):
    argv = ["spinor-spaces", "--trials", "20"]
    assert main(argv) == EXIT_OK
    want = json.loads(capsys.readouterr().out)["checks"]
    monkeypatch.setattr(ideals, "INVOLUTION_TOL", -1.0)  # below every residual, 0 included
    fresh_structure.cache_clear()
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_CHECK_FAILED, "")
    got = json.loads(out)["checks"]
    for before, after in zip(want, got, strict=True):
        if after["name"] == "involution-conditions":
            assert (before["status"], after["status"]) == ("pass", "fail")
        else:  # the two beta checks measure their residuals as before
            assert after == before


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
