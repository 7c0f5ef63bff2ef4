"""Compare the cold start of two source trees, in fresh processes on one CPU.

    python3 tools/cold_start.py TREE_A TREE_B [--runs N]

TREE_A and TREE_B are checkouts of this repository.  Each run starts, for
each tree in turn, and in alternating order from run to run:

* ``import``: a process that imports numpy, then times ``import spinorlab.cli``
  in process with ``time.perf_counter``;
* ``table1``: a whole ``python -m spinorlab.cli table1`` process, timed from
  outside, from start to exit.

Every process inherits this script's CPU affinity, pinned to one CPU, and runs
with ``PYTHONDONTWRITEBYTECODE=1`` in a temporary directory, so it compiles the
package as a benchmark's fresh process does and writes nothing under either
tree.  The script prints the median [first quartile, third quartile] of each
time per tree, in ms, and the runs in which TREE_B was faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT = ("import time, numpy; t = time.perf_counter(); import spinorlab.cli; "
          "print(time.perf_counter() - t)")


def times(tree: Path, cwd: str) -> tuple:
    """(import, table1) seconds of one fresh process each, for ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    imported = subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=cwd, check=True,
                              capture_output=True, text=True).stdout
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "spinorlab.cli", "table1"], env=env, cwd=cwd,
                   check=True, capture_output=True)
    return float(imported), time.perf_counter() - start


def summary(values: list) -> str:
    q1, median, q3 = statistics.quantiles([1e3 * v for v in values], n=4)
    return f"{median:.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--runs", type=int, default=15, help="processes per tree and time")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    got = {tree: [] for tree in trees}
    with tempfile.TemporaryDirectory() as cwd:
        for run in range(args.runs):
            for tree in trees if run % 2 == 0 else trees[::-1]:
                got[tree].append(times(tree, cwd))
    a, b = (got[tree] for tree in trees)
    print(f"{args.runs} runs per tree, pinned to one CPU; ms, median [quartiles]")
    for i, name in enumerate(("import spinorlab.cli", "table1 process")):
        faster = sum(y[i] < x[i] for x, y in zip(a, b))
        print(f"{name:22} A {summary([x[i] for x in a])}  B {summary([y[i] for y in b])}"
              f"  B faster in {faster}/{args.runs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
