"""spinorlab benchmark: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

Workloads (see BENCHMARK.json for why each exists):

    cli-cold       a fresh ``python -m spinorlab.cli`` process per request
    suites-warm    ``spinorlab.cli.main(argv)`` in one long-lived process
    groups         group generation, infinite-group certificates, orbits, Spin
    exact-algebra  exact int and Fraction multivector arithmetic

``--seconds`` sets how much work a run serves: as many cycles of the
workload's request mix as take that long on a slow 2-vCPU host (see
``cycle_s`` in workloads.py).  The count does not depend on the timing, so
two runs with the same seed attempt the same requests and fail the same
ones.  With ``--trace 0`` the run measures set-up, then serves the
requests in a closed loop and prints the end-to-end metrics.  Their times
are scaled to a host of fixed speed (see HostSpeed); the report line
before the result also gives them unscaled.  With ``--trace 1`` it replays
a fixed request list without and with spans around spinorlab's public
functions, a fixed number of times, and prints per-function calls, self
time and errors, the import layer from ``python -X importtime`` and the
tracing overhead.  Every output is checked against the oracles in
``oracles.py``; failures that match the ledger in ``known_defects.json``
are counted but do not make the run incorrect.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark starts no threads, and 4x4 products gain nothing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

import oracles as O
import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: set-ups per run; a cold set-up costs a third of a warm one, so it
#: affords more samples, and its times come in 50 ms steps on small VMs
SETUP_REPEATS = {"cold": 15, "warm": 9}
NPROC = len(os.sched_getaffinity(0))  # before run_workload pins one CPU
IMPORT_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s", "request_s.p50": "s", "request_s.p90": "s",
    "requests_per_s": "1/s", "pass_ratio": "ratio", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": NPROC,
        "seed": seed,
    }


# -- host speed ----------------------------------------------------------------------

#: Wall time of reference_task() on a 2-vCPU Intel Xeon virtual machine
#: (Python 3.11, numpy 2.4) when it ran fastest; only the scale of the
#: reported times depends on it.
REFERENCE_S = 0.0052
PROBE_EVERY_S = 0.2
_REF_MV = {m: Fraction(m + 1, 7) for m in range(16)}
_REF_MATRIX = np.eye(4, dtype=complex) * (1 + 1e-3j)


def reference_task() -> float:
    """Fixed work of the program's two kinds, exact blade products in
    Python and small numpy products, using no spinorlab code."""
    t0 = time.perf_counter()
    for _ in range(4):
        O.mv_mul(_REF_MV, _REF_MV)
    m = _REF_MATRIX
    for _ in range(300):
        m = m @ _REF_MATRIX
    return time.perf_counter() - t0


class HostSpeed:
    """Scales wall times to a host of fixed speed.

    On a shared 2-vCPU host the same code runs up to twice as slow, and
    the speed changes within a second.  The reference task slows by about
    the same factor.  It is timed after each PROBE_EVERY_S of recorded
    times, and each time is multiplied by REFERENCE_S over the mean of the
    probes just before and just after it.  Over eight seeds of
    suites-warm in such a period, p50 spread (IQR over median) 0.47 raw,
    0.10 scaled by the median of the last five probes and 0.04 scaled by
    the two around each time.  Raw times are reported beside the scaled
    ones.
    """

    def __init__(self):
        reference_task()  # the first call pays for cold caches
        self.last = reference_task()
        self.pending, self.scaled, self.raw, self.factors = [], [], [], []

    def add(self, raw: float):
        """Record a wall time; probe once PROBE_EVERY_S are unscaled."""
        self.pending.append(raw)
        if sum(self.pending) >= PROBE_EVERY_S:
            self.probe()

    def probe(self):
        """Time the reference task and scale the times recorded since the
        previous probe."""
        now = reference_task()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.raw += self.pending
        self.scaled += [t * factor for t in self.pending]
        self.factors += [factor] * len(self.pending)
        self.pending = []

    def take(self) -> tuple:
        """The scaled and the raw times recorded since the last take."""
        if self.pending:
            self.probe()
        taken = self.scaled, self.raw
        self.scaled, self.raw = [], []
        return taken


# -- set-up --------------------------------------------------------------------------


def cold_setup(env: dict, host: HostSpeed) -> tuple:
    """Median time of a fresh ``python -c "import spinorlab"``, scaled
    and raw."""
    cmd = [sys.executable, "-c", "import spinorlab"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # fills the bytecode cache
    for _ in range(SETUP_REPEATS["cold"]):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        host.add(time.perf_counter() - t0)
    scaled, raw = host.take()
    return statistics.median(scaled), statistics.median(raw)


def warm_setup(name: str, seed: int, env: dict, host: HostSpeed) -> tuple:
    """Median time from starting a process until it has imported spinorlab
    and served the workload's warm-up request, scaled and raw."""
    for _ in range(SETUP_REPEATS["warm"]):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup", name, str(seed)],
            env=env, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed")
        host.add(elapsed)  # probes only after the child has exited
    scaled, raw = host.take()
    return statistics.median(scaled), statistics.median(raw)


# -- serving -------------------------------------------------------------------------


class Tally:
    """Checks outcomes as they arrive and keeps only the counts.

    Each output is checked right after its request returns and then
    dropped, so the serving process's memory does not grow with the run.
    For the CLI workloads the second run of an argv must repeat the first
    byte for byte.
    """

    def __init__(self, workload, ledger):
        self.workload = workload
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.unknown = []
        self.first_of_pair = None

    def add(self, out):
        out.problems = self.workload.check(out)
        if self.workload.pair == 2:
            if self.first_of_pair is None:
                self.first_of_pair = out.value
            else:
                first, self.first_of_pair = self.first_of_pair, None
                if (first.code, first.stdout) != (out.value.code, out.value.stdout):
                    out.problems.append("output differs from the earlier run of this argv")
        self.attempted += 1
        if out.problems:
            self.failed += 1
            symptom = self.workload.symptom(out)
            defect = match_defect(symptom, self.ledger)
            if defect is None:
                self.unknown.append({"argv": out.request.argv, **symptom})
            else:
                self.known[defect] += 1
        out.value = None


def match_defect(symptom: dict, ledger: list):
    """The id of the ledger entry that explains a failed request, if any.

    An entry names the commands, and optionally the exit code, the prefix
    of the last stderr line or exception, the failing report checks and
    the oracle's other findings it covers; checks and findings must then
    be a nonempty subset of those listed, and absent otherwise.
    """
    def fits(found, allowed):
        return set(found) <= set(allowed) and bool(found) == bool(allowed)

    for entry in ledger:
        m = entry["match"]
        if (
            symptom["command"] in m["commands"]
            and ("exit" not in m or symptom["exit"] == m["exit"])
            and symptom["error"].startswith(m.get("error", ""))
            and fits(symptom["checks"], m.get("checks", ()))
            and fits(symptom["other"], m.get("other", ()))
        ):
            return entry["id"]
    return None


def cycles(workload, seconds: float, per_cycle: float = 1.0) -> int:
    """Whole cycles (of ``per_cycle`` times the workload's cycle) that take
    ``seconds`` at the workload's nominal speed; at least one."""
    return max(1, round(seconds / (per_cycle * workload.cycle_s)))


def serve(workload, tally, seconds: float, host: HostSpeed) -> tuple:
    """Closed loop over whole cycles of the request mix, as many as
    ``seconds`` asks for, so every run with a seed serves the same
    requests; returns the scaled and the raw request times."""
    stream = workload.requests()
    for _ in range(cycles(workload, seconds) * workload.cycle_len):
        out = W.run(workload, next(stream))
        host.add(out.seconds)
        tally.add(out)
    return host.take()


def replay(workload, tally, requests, tracer=None) -> float:
    """Serve a fixed request list; returns its serving time."""
    busy = 0.0
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        out = W.run(workload, req)
        busy += out.seconds
        tally.add(out)
    return busy


def percentiles(times):
    if len(times) == 1:
        return times[0], times[0]
    q = statistics.quantiles(times, n=10, method="inclusive")
    return q[4], q[8]


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, tally, seed, seconds, env) -> tuple:
    """The end-to-end metrics, and the same times unscaled for the report."""
    host = HostSpeed()
    if workload.name == "cli-cold":
        setup, setup_raw = cold_setup(env, host)
    else:
        setup, setup_raw = warm_setup(workload.name, seed, env, host)
        W.run(workload, workload.warmup())
    times, raw = serve(workload, tally, seconds, host)
    rss = peak_rss_mb(workload.name)
    values = {"setup_s": setup}
    unscaled = {"setup_s": setup_raw}
    for out, t in ((values, times), (unscaled, raw)):
        out["request_s.p50"], out["request_s.p90"] = percentiles(t)
        out["requests_per_s"] = len(t) / sum(t)
    values["pass_ratio"] = 1.0 - tally.failed / tally.attempted
    values["peak_rss_mb"] = rss
    unscaled["host_speed"] = statistics.median(host.factors)
    return values, unscaled


def traced(workload, tally, seconds, env, workdir) -> dict:
    """Untraced and traced passes over the same fixed request list, as
    many pairs as fit ``seconds`` at the workload's nominal speed with
    spans doubling the cost; counts come from the first pass."""
    imports = T.measure_imports(env, IMPORT_REPEATS)
    if workload.name != "cli-cold":
        W.run(workload, workload.warmup())
    stream = workload.requests()
    requests = [next(stream) for _ in range(workload.trace_requests)]
    summaries, overheads = [], []
    for _ in range(cycles(workload, seconds, 3 * workload.trace_requests / workload.cycle_len)):
        t_plain = replay(workload, tally, requests)
        if workload.name == "cli-cold":
            spans_dir = Path(tempfile.mkdtemp(dir=workdir))
            workload.trace_dir = spans_dir
            t_spanned = replay(workload, tally, requests)
            workload.trace_dir = None
            summaries.append(T.merge(
                json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))
            ))
            if len(summaries) == 1:
                keep = OUT / "spans-cli-cold"
                shutil.rmtree(keep, ignore_errors=True)
                shutil.copytree(spans_dir, keep)
        else:
            tr = T.Tracer()
            with tr.installed():
                t_spanned = replay(workload, tally, requests, tr)
            summaries.append(tr.summary())
            if len(summaries) == 1:
                tr.dump(OUT / f"spans-{workload.name}.npz")
        overheads.append((t_spanned - t_plain, t_plain))

    first = summaries[0]
    values = dict(imports)
    for name, (calls, _, errors) in first["functions"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = float(
            np.median([s["functions"][name][1] for s in summaries])
        )
        if name in T.RAISING:
            values[f"{name}.errors"] = errors
    values["groups.generate_group.elements"] = first["elements"]
    values["trace.spans"] = first["spans"]
    extra = float(np.median([d for d, _ in overheads]))
    values["trace.overhead_s"] = extra / len(requests)
    values["trace.overhead_ratio"] = extra / float(np.median([b for _, b in overheads]))
    return values


def per_layer_units() -> dict:
    units = {f"import.{k}_s": "s" for k in ("total", "numpy", "scipy", "spinorlab")}
    for name in T.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in T.RAISING:
            units[f"{name}.errors"] = "count"
    units["groups.generate_group.elements"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- entry points --------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # One CPU for this process and every child: the reference task then
    # times the same CPU the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import spinorlab

    if Path(spinorlab.__file__).resolve().parent != SRC / "spinorlab":
        print(f"error: imported spinorlab from {spinorlab.__file__}", file=sys.stderr)
        return 2
    ledger = json.loads((HERE / "known_defects.json").read_text())
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = W.WORKLOADS[name](seed, workdir, env)
        tally = Tally(workload, ledger)
        if trace:
            values, unscaled = traced(workload, tally, seconds, env, workdir), {}
            units = per_layer_units()
        else:
            values, unscaled = end_to_end(workload, tally, seed, seconds, env)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report = {
        "workload": name,
        "env": environment(seed),
        "seconds": seconds,
        "trace": int(trace),
        "samples": tally.attempted,
        "unscaled": unscaled,
        "fail_ratio": tally.failed / tally.attempted,
        "known_defects": dict(sorted(tally.known.items())),
        "unknown_failures": tally.unknown[:5],
    }
    print("report " + json.dumps(report))
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.unknown,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table, one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinorlab" / "__init__.py").is_file():
        print(f"error: no spinorlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
