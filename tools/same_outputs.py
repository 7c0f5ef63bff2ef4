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
* ``defects``: each row of the three tables of ``tests/test_known_defects.py``,
  in their order, with the input files that file writes: the reproducers,
  then the refused inputs, the first of them ``dual`` on a finite psi whose
  dual overflows, then the valid reports.  The tables come from this
  script's own checkout, so the listings of two trees run the same argvs.
  The reproducers are the overflow, underflow and tolerance regimes, where a
  change of arithmetic shows first; the refusals are every exit from 2 to 5,
  where a change of message or of code shows; the reports include
  ``table1`` at ``--trials`` 255, 256, 257 and 600, and ``verify-theorems``,
  ``embed`` and ``spinor-spaces`` at 257, so that each seeded suite runs
  more than one block of trials, which no argv of the sets above does (they
  run at most 251 points).
* ``text cli-cold``: each cli-cold argv of cycle 0 for seeds 1-10, drawn
  again with its input files and run with ``--format text``, so that every
  command, ``cayley``, ``classify`` and ``dual`` included, reaches the text
  renderer.  A cayley argv asked for csv gives its text report instead.

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


def fields(value) -> tuple:
    """The field names of a record, in order: a NamedTuple's, a dataclass's (as
    older trees define records) or the slots of a class whose slots are all
    public.  Anything else has none, a multivector with its private ``_c`` too."""
    if dataclasses.is_dataclass(value):
        return tuple(f.name for f in dataclasses.fields(value))
    names = getattr(value, "_fields", None) or getattr(type(value), "__slots__", ())
    return () if any(n.startswith("_") for n in names) else tuple(names)


def canonical(value):
    """A comparable form of a job's value: arrays by dtype, shape and bits,
    records field by field, so a record that changed kind reads the same,
    everything else by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if fields(value):
        return type(value).__name__, *(canonical(getattr(value, f)) for f in fields(value))
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


def defect_argvs(tmp: Path):
    """(label, argv) of each reproducer, then of each refusal, then of each
    report, writing their input files to ``tmp``."""
    from test_known_defects import REFUSALS, REPORTS, REPRODUCERS, with_files, write_inputs

    files, _ = write_inputs(tmp)
    for label, (argv, *_) in [*REPRODUCERS.items(), *REFUSALS.items(), *REPORTS.items()]:
        yield label, with_files(argv, files)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py TREE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    tests = Path(__file__).resolve().parents[1] / "tests"
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench"), str(tests)]
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

    # Each cli-cold workload numbers its input files from 1, so a seed's
    # files are written again just before its argvs run.
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            places = {tmp: "<tmp>", str(tree): "<tree>"}
            workload = W.WORKLOADS["cli-cold"](seed, Path(tmp), dict(os.environ))
            for i, req in enumerate(workload.cycle(0)):
                argv = req.argv + ["--format", "text"]
                print(f"text cli-cold {seed} {i} {req.kind}", run_cli(cli_main, argv, places))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
