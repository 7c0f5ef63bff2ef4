"""Print one sha256 line per case of what a source tree shows its users.

    python3 tools/same_outputs.py TREE > outputs.txt

TREE is a checkout of this repository.  Its ``src`` and ``perfbench``
directories go first on ``sys.path``.  Diff the listings of two checkouts
to see whether a change altered any of these cases:

* ``cli``: each argv that the cli-cold and suites-warm workloads serve in
  cycles 0-3 of seeds 1-10 (480 argvs), run in process through
  ``spinorlab.cli.main``.  Its stdout, its stderr, the warnings it raised
  (category and text) and its exit code or exception text are hashed.
  Input files go to a temporary directory.  That directory's path and
  TREE's path are replaced by placeholders.
* ``demo``: the stdout of each script in ``TREE/demos``.
* ``groups``: the first 100 jobs of the groups workload for seeds 1-10.
  Each value is hashed with the bits of its arrays, or the error text.
* ``exact``: the first 100 requests of the exact-algebra workload for seeds
  1-10, hashed as the groups jobs are; a multivector's repr names the type
  of each coefficient, so a slot that turns complex changes its line.
* ``text``: each suites-warm argv of cycle 0, run again with
  ``--format text``.
* ``defects``: each argv that ``tests/test_known_defects.py`` runs, with
  its input files built as that test builds them,
  ``verify-theorems --mass 1e-200 --trials 3``, and ``dual`` on a finite
  psi whose dual overflows, as ``tests/test_cli.py`` writes it.  These are
  the overflow, underflow and tolerance regimes, where a change of
  arithmetic shows first.

The script writes nothing under TREE: bytecode is not cached.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SEEDS = range(1, 11)
CYCLES = 4
GROUP_JOBS = 100
EXACT_JOBS = 100


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def canonical(value):
    """A comparable form of a job's value: arrays by dtype, shape and bits,
    dataclasses field by field, everything else by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, *(canonical(getattr(value, f.name))
                                       for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return type(value).__name__, *map(canonical, value)
    return repr(value)


def run_cli(main, argv, places: dict) -> str:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            end = f"exit {main(argv)}"
        except SystemExit as exc:
            end = f"exit {exc.code}"
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            end = f"{type(exc).__name__}: {exc}"
    texts = [out.getvalue(), err.getvalue(), end,
             [f"{w.category.__name__}: {w.message}" for w in caught]]
    for path, name in places.items():
        texts = [t.replace(path, name) if isinstance(t, str) else t for t in texts]
    return digest(*texts)


def defect_argvs(tmp: Path) -> list:
    """(label, argv) of each defect reproducer, writing its input files to ``tmp``."""
    from spinorlab.duals import KinematicPoint, delta_to_omega, named_operator, random_delta
    from spinorlab.serialize import dump_json, matrix_to_obj, spinor_to_obj

    def flags(k):
        return ["--mass", repr(k.m), "--momentum", repr(k.p), "--theta", repr(k.theta),
                "--phi", repr(k.phi)]

    def write(name, obj):
        (tmp / name).write_text(dump_json(obj))
        return str(tmp / name)

    psi_row = np.array([1.0 + 0.5j, -0.3 + 0.2j, 0.7 - 1.1j, 0.1 + 0.4j])
    psi = write("psi.json", spinor_to_obj(psi_row))
    k = KinematicPoint(0.5751532284844632, 34.84283078387758, 1.3466096180838185,
                       3.970597063820425)
    omega = write("omega.json", matrix_to_obj(delta_to_omega(random_delta(0), k)))
    # 1-4 images of each of 10 random rows under the GXiDagger group, shuffled
    kc = KinematicPoint(1.8384213168348236, 2700.0665423118476, 2.4029433328532512,
                        4.276206332007041)
    g, xd = named_operator("G", kc), named_operator("XiDagger", kc)
    elements = [np.eye(4), g, xd, g @ xd]
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(10):
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        rows += [base @ elements[i] for i in rng.permutation(4)[: int(rng.integers(1, 5))]]
    duals = write("duals.json", [spinor_to_obj(rows[i]) for i in rng.permutation(len(rows))])
    psi_duals = write("psi-duals.json", [spinor_to_obj(psi_row)])
    (tmp / "big.json").write_text("[[1e308, 0], [1e308, 0], [0, 0], [0, 0]]")
    return [
        ("verify-momentum-1e2", ["verify-theorems", "--momentum", "1e2"]),
        ("verify-seed-0", ["verify-theorems", "--seed", "0"]),
        ("verify-seed-376383645", [
            "verify-theorems", "--trials", "250", "--seed", "376383645",
            "--mass", "0.5767628745418242", "--momentum", "0.5027562819991213",
            "--theta", "0.8926473955071765", "--phi", "4.161221346488264"]),
        ("table1-momentum-3e3", ["table1", "--momentum", "3e3"]),
        ("dual-identity-1e3", ["dual", "--psi", psi, "--momentum", "1e3"]),
        ("dual-generated-omega", ["dual", "--psi", psi, "--omega", omega, *flags(k)]),
        ("cayley-gxidagger-3e3", ["cayley", "--group", "GXiDagger", "--momentum", "3e3"]),
        ("classify-gxidagger", ["classify", "--group", "GXiDagger", "--duals", duals,
                                *flags(kc)]),
        ("table1-momentum-1e-8", ["table1", "--momentum", "1e-8"]),
        ("table1-mass-1e-300", ["table1", "--mass", "1e-300"]),
        ("verify-momentum-1e100", ["verify-theorems", "--momentum", "1e100", "--trials", "3"]),
        ("verify-mass-1e-200", ["verify-theorems", "--mass", "1e-200", "--trials", "3"]),
        ("dual-psi-overflow", ["dual", "--psi", str(tmp / "big.json")]),
        ("cayley-tolerance-0", ["cayley", "--tolerance", "0"]),
        ("classify-tolerance-0", ["classify", "--tolerance", "0", "--duals", psi_duals]),
        ("cayley-tolerance-1e300", ["cayley", "--tolerance", "1e300"]),
    ]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py TREE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads as W
    from spinorlab.cli import main as cli_main

    text_runs = []  # (seed, request) of each suites-warm argv in cycle 0
    with tempfile.TemporaryDirectory() as tmp:
        places = {tmp: "<tmp>", str(tree): "<tree>"}
        for name, seed in itertools.product(("cli-cold", "suites-warm"), SEEDS):
            workload = W.WORKLOADS[name](seed, Path(tmp), dict(os.environ))
            if name != "cli-cold":
                workload.warmup()  # the benchmark draws it before serving
            for c in range(CYCLES):
                for req in workload.cycle(c):
                    print(f"cli {name} {seed} {c} {req.kind}", run_cli(cli_main, req.argv, places))
                    if name == "suites-warm" and c == 0:
                        text_runs.append((seed, req))

    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for demo in sorted((tree / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              timeout=300)
        print(f"demo {demo.name}", digest(proc.stdout, proc.returncode))

    for seed in SEEDS:
        workload = W.WORKLOADS["groups"](seed, None, {})
        workload.warmup()
        for i, req in enumerate(itertools.islice(workload.requests(), GROUP_JOBS)):
            out = W.run(workload, req)
            print(f"groups {seed} {i} {req.kind}", digest(out.error, canonical(out.value)))

    for seed in SEEDS:
        workload = W.WORKLOADS["exact-algebra"](seed, None, {})
        workload.warmup()
        for i, req in enumerate(itertools.islice(workload.requests(), EXACT_JOBS)):
            out = W.run(workload, req)
            print(f"exact {seed} {i} {req.kind}", digest(out.error, canonical(out.value)))

    for seed, req in text_runs:
        argv = req.argv + ["--format", "text"]
        print(f"text {seed} {req.kind}", run_cli(cli_main, argv, places))

    with tempfile.TemporaryDirectory() as tmp:
        places = {tmp: "<tmp>", str(tree): "<tree>"}
        for label, argv in defect_argvs(Path(tmp)):
            print(f"defects {label}", run_cli(cli_main, argv, places))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
