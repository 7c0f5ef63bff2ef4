"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Runs every workload briefly, with tracing off and on, and checks that the
result line carries exactly the metrics BENCHMARK.json names, with their
units.  Feeds planted wrong outputs to the checker and checks that each is
counted as failed and not explained away by the known-defect ledger.
Checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_metric_present_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload["name"], "--seed", "7",
                         "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _checker():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spinorlab  # noqa: F401
    import run
    import workloads

    ledger = json.loads((HERE / "known_defects.json").read_text())
    return run, workloads, ledger


def test_planted_wrong_outputs_count_as_failed():
    run, workloads, ledger = _checker()
    import oracles

    # an exact product with one coefficient changed
    exact = workloads.ExactAlgebra(0, None, None)
    out = workloads.run(exact, exact.warmup())
    tally = run.Tally(exact, ledger)
    ab = out.value[0]["ab"]
    mask, value = ab.items()[0]
    out.value[0]["ab"] = type(ab)({**dict(ab.items()), mask: value + 1})
    tally.add(out)
    assert (tally.attempted, tally.failed, len(tally.unknown)) == (1, 1, 1)

    # a Cayley table in CSV with two entries swapped, then a correct one
    cli = workloads.SuitesWarm(0, None, None)
    req = workloads.Request("cayley", {"group": "GF", "fmt": "csv"}, ["cayley"])
    good = oracles.cayley_csv("GF")
    bad = good.replace("\nG,G,I,", "\nG,I,G,", 1)
    assert bad != good
    tally = run.Tally(cli, ledger)
    for text in (bad, bad, good, good):
        tally.add(workloads.Outcome(req, 0.1, workloads.CliOutput(0, text.encode(), "")))
    assert (tally.attempted, tally.failed, len(tally.unknown)) == (4, 2, 2)

    # the same argv giving different bytes on its second run
    tally = run.Tally(cli, ledger)
    for text in (good, good + " "):
        tally.add(workloads.Outcome(req, 0.1, workloads.CliOutput(0, text.encode(), "")))
    assert (tally.failed, len(tally.unknown)) == (1, 1)


def test_known_defect_is_counted_but_explained():
    run, workloads, ledger = _checker()
    groups = workloads.Groups(0, None, None)
    req = workloads.Request("h-certificate", {"cap": 1024, "kin": workloads.README_POINT})
    tally = run.Tally(groups, ledger)
    tally.add(workloads.run(groups, req))
    assert tally.failed == 1 and not tally.unknown
    assert tally.known == {"h-certificate-linalgerror": 1}


def test_refuses_to_run_without_sources():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "groups", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
