"""Compare two commits of this repository on one workload, in fresh copies.

    python3 tools/bench.py PARENT CHANGE --workload W [--pairs N] [--seed S]

PARENT and CHANGE name commits of the repository this script sits in
(``git stash create`` names uncommitted work).  Each is unpacked with ``git
archive`` into a fresh directory, ``parent`` and ``change``, siblings in one
temporary directory, so the two paths have the same length.  N pairs of runs
then alternate between the copies, the parent first in even pairs and the
change first in odd ones; both runs of pair i use seed S + i.  Every process
is started with this interpreter itself (``sys.executable``), not with a shim
on ``PATH``.

* W a workload of ``perfbench/run.py``: a run is ``perfbench/run.py
  --workload W --seed S+i --seconds T --trace 0`` in the copy, with T the
  ``run_seconds`` of ``BENCHMARK.json``; its metrics are the end-to-end
  metrics of its result object, the last line it prints.
* W ``cold-start``: a run is two fresh processes on one CPU, with
  ``PYTHONDONTWRITEBYTECODE=1`` in a temporary directory, so each compiles the
  package and writes nothing under the copy: one imports numpy, then times
  ``import spinorlab.cli`` in process with ``time.perf_counter``; the other is
  a whole ``python -m spinorlab.cli table1`` process, timed from start to exit.

The script prints, per metric, the parent's median [first quartile, third
quartile], the change's median and the number of pairs in which the change
read better: lower, or higher where ``BENCHMARK.json`` says so.  Then it prints
how many runs of each copy were correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT = ("import time, numpy; t = time.perf_counter(); import spinorlab.cli; "
          "print(time.perf_counter() - t)")


def archive(rev: str, dest: Path) -> Path:
    """A fresh copy of commit ``rev`` at ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                         capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def perfbench(copy: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(metric values, correct) of one ``perfbench/run.py`` run in ``copy``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=copy, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}, result["correct"]


def cold_start(copy: Path, cwd: str) -> tuple:
    """(import and table1 seconds, correct) of one fresh process each, for ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    imported = subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=cwd, check=True,
                              capture_output=True, text=True).stdout
    start = time.perf_counter()
    table1 = subprocess.run([sys.executable, "-m", "spinorlab.cli", "table1"], env=env, cwd=cwd,
                            capture_output=True)
    return ({"import_s": float(imported), "table1_s": time.perf_counter() - start},
            table1.returncode == 0)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs=2, metavar="REV", help="PARENT and CHANGE commits")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or cold-start")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    if args.workload == "cold-start":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {name: archive(rev, Path(tmp) / name) for name, rev in zip(runs, args.revs)}
        (Path(tmp) / "cwd").mkdir()
        for pair in range(args.pairs):
            for name in list(runs)[::-1] if pair % 2 else runs:
                if args.workload == "cold-start":
                    runs[name].append(cold_start(copies[name], str(Path(tmp) / "cwd")))
                else:
                    runs[name].append(perfbench(copies[name], args.workload,
                                                args.seed + pair, benchmark["run_seconds"]))
    parent, change = ([values for values, _ in runs[name]] for name in runs)
    print(f"{args.workload}: {args.pairs} pairs from seed {args.seed}; parent median "
          "[Q1, Q3], change median, pairs the change read better")
    for key in parent[0]:
        a, b = [v[key] for v in parent], [v[key] for v in change]
        sign = -1 if better.get(key, "lower") == "higher" else 1
        won = sum(sign * y < sign * x for x, y in zip(a, b))
        q1, median, q3 = statistics.quantiles(a, n=4)
        print(f"  {key:16} {median:.4g} [{q1:.4g}, {q3:.4g}]  {statistics.median(b):.4g}"
              f"  {won}/{args.pairs}")
    print("  correct runs: " + ", ".join(f"{name} {sum(ok for _, ok in runs[name])}"
                                         f"/{args.pairs}" for name in runs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
