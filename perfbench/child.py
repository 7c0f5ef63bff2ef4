"""Child processes started by run.py.

    child.py setup <workload> <seed>
        import spinorlab, serve the workload's warm-up request, print "ready"
    child.py trace <dir> <n> <spinorlab argv...>
        run spinorlab.cli.main(argv) with spans on, like ``python -m
        spinorlab.cli``; write the span summary to <dir>/<n>.json and the
        raw spans to <dir>/<n>.npz
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def setup(name: str, seed: str) -> int:
    import spinorlab  # noqa: F401  (import is part of set-up)
    import workloads

    workload = workloads.WORKLOADS[name](int(seed), None, None)
    workloads.run(workload, workload.warmup())
    print("ready", flush=True)
    return 0


def trace(directory: str, n: str, argv: list) -> int:
    import spinorlab.cli
    import tracer

    spans = tracer.Tracer()
    spans.request_id = int(n)
    try:
        with spans.installed():
            return spinorlab.cli.main(argv)
    finally:
        Path(directory, f"{n}.json").write_text(json.dumps(spans.summary()))
        spans.dump(Path(directory, f"{n}.npz"))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    sys.exit(trace(rest[0], rest[1], rest[2:]))
