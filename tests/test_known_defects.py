"""Known defects, one strict expected failure per reproducer.

Each case asserts what a correct program does and fails with an
AssertionError while the defect stands.  The ``reason`` of a case is its
id in the benchmark's ledger, ``perfbench/known_defects.json``, or, for a
defect the ledger does not list, the ROADMAP item that would mend it.  The
marks are strict: a change that mends a defect, or changes its verdict,
makes its case pass unexpectedly, and that fails the suite until the mark
is removed.
"""

import contextlib
import io
import json
import traceback
from pathlib import Path

import numpy as np
import pytest

from spinorlab.cli import main
from spinorlab.duals import KinematicPoint, delta_to_omega, named_operator, random_delta
from spinorlab.groups import generate_group
from spinorlab.serialize import dump_json, matrix_to_obj, spinor_to_obj

LEDGER = Path(__file__).parents[1] / "perfbench" / "known_defects.json"


def defect(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def run(argv) -> tuple:
    """Exit code and stdout of one command run in process; an exception that
    escapes ``main`` exits 1 with its traceback, as it does in a process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # noqa: BLE001 - an escaped error is the outcome
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def kinematic_flags(k: KinematicPoint) -> list:
    return ["--mass", repr(k.m), "--momentum", repr(k.p), "--theta", repr(k.theta),
            "--phi", repr(k.phi)]


def strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"bare {constant} in a JSON report")

    return json.loads(text, parse_constant=refuse)


def write(path: Path, obj) -> str:
    path.write_text(dump_json(obj))
    return str(path)


PSI = np.array([1.0 + 0.5j, -0.3 + 0.2j, 0.7 - 1.1j, 0.1 + 0.4j])

LEDGERED = {
    "verify-theorems-absolute-residuals": [
        ["verify-theorems", "--momentum", "1e2"],
        ["verify-theorems", "--seed", "0"],
        ["verify-theorems", "--trials", "250", "--seed", "376383645",
         "--mass", "0.5767628745418242", "--momentum", "0.5027562819991213",
         "--theta", "0.8926473955071765", "--phi", "4.161221346488264"],
    ],
    "table1-H-rows-absolute-tolerance": [["table1", "--momentum", "3e3"]],
}


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=defect(reason), id=f"{reason}-{i}")
    for reason, reproducers in LEDGERED.items() for i, argv in enumerate(reproducers)
])
def test_a_valid_input_passes_every_check(argv):
    assert run(argv)[0] == 0


@defect("dual-valid-omega-rejected")
def test_dual_accepts_the_identity_at_high_momentum(tmp_path):
    psi = write(tmp_path / "psi.json", spinor_to_obj(PSI))
    assert run(["dual", "--psi", psi, "--momentum", "1e3"])[0] == 0


@defect("dual-valid-omega-rejected")
def test_dual_accepts_a_generated_omega(tmp_path):
    k = KinematicPoint(0.5751532284844632, 34.84283078387758, 1.3466096180838185,
                       3.970597063820425)
    psi = write(tmp_path / "psi.json", spinor_to_obj(PSI))
    omega = write(tmp_path / "omega.json", matrix_to_obj(delta_to_omega(random_delta(0), k)))
    assert run(["dual", "--psi", psi, "--omega", omega, *kinematic_flags(k)])[0] == 0


@defect("gxidagger-closure-absolute-tolerance")
def test_cayley_closes_gxidagger_at_high_momentum():
    code, out = run(["cayley", "--group", "GXiDagger", "--momentum", "3e3"])
    assert code == 0
    assert json.loads(out)["payload"]["name"] == "K4"


@defect("classify-gxidagger-orbits-split")
def test_classify_finds_the_gxidagger_orbits_at_high_momentum(tmp_path):
    # As the benchmark builds its duals: 1-4 images of each of 10 random
    # rows under the group, shuffled.
    k = KinematicPoint(1.8384213168348236, 2700.0665423118476, 2.4029433328532512,
                       4.276206332007041)
    g, xd = named_operator("G", k), named_operator("XiDagger", k)
    elements = [np.eye(4), g, xd, g @ xd]
    rng = np.random.default_rng(0)
    rows, owners = [], []
    for owner in range(10):
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        for i in rng.permutation(4)[: int(rng.integers(1, 5))]:
            rows.append(base @ elements[i])
            owners.append(owner)
    order = rng.permutation(len(rows))
    duals = write(tmp_path / "duals.json", [spinor_to_obj(rows[i]) for i in order])
    code, out = run(["classify", "--group", "GXiDagger", "--duals", duals, *kinematic_flags(k)])
    assert code == 0
    orbits = {}
    for position, i in enumerate(order):
        orbits.setdefault(owners[i], []).append(position)
    want = sorted(orbits.values())
    assert sorted(json.loads(out)["payload"]["classes"].values()) == want


def test_every_ledgered_reason_is_a_ledger_entry():
    ids = {entry["id"] for entry in json.loads(LEDGER.read_text())}
    ledgered = {"dual-valid-omega-rejected", "gxidagger-closure-absolute-tolerance",
                "classify-gxidagger-orbits-split", *LEDGERED}
    assert ledgered <= ids
    # Left out: generate_group now raises CapExceeded at the README point,
    # the documented outcome, so this entry no longer reproduces.
    assert "h-certificate-linalgerror" in ids - ledgered


# -- defects the ledger does not list ---------------------------------------------


@defect("ROADMAP item 3: table1 rows F and FG fail at p = 1e-8")
def test_table1_passes_at_small_momentum():
    assert run(["table1", "--momentum", "1e-8"])[0] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    pytest.param(["table1", "--mass", "1e-300"],
                 marks=defect("ROADMAP item 3: table1 at m = 1e-300 writes bare NaN")),
    pytest.param(["verify-theorems", "--momentum", "1e100", "--trials", "3"],
                 marks=defect("ROADMAP item 3: verify-theorems at p = 1e100 writes bare NaN")),
])
def test_a_report_is_strict_json(argv):
    strict_json(run(argv)[1])


@defect("ROADMAP item 5: cayley's closure is not measured; group_from_elements raises out of main")
@pytest.mark.parametrize("argv", [
    ["cayley", "--tolerance", "0"],
    ["classify", "--tolerance", "0", "--duals", "DUALS"],
    ["cayley", "--tolerance", "1e300"],
], ids=["cayley-0", "classify-0", "cayley-1e300"])
def test_a_tolerance_gives_a_report(argv, tmp_path):
    duals = write(tmp_path / "duals.json", [spinor_to_obj(PSI)])
    code, out = run([duals if arg == "DUALS" else arg for arg in argv])
    assert code in (0, 1) and out, "no report reached stdout"
    strict_json(out)


@defect("ROADMAP item 1: [G, XiDagger] at p = 1e3 generates order 6")
def test_g_and_xidagger_generate_the_klein_group_at_high_momentum():
    k = KinematicPoint(1.0, 1e3, 0.7, 0.3)
    assert generate_group([named_operator("G", k), named_operator("XiDagger", k)]).order == 4
