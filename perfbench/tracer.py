"""Spans around spinorlab's public functions, recorded from outside src/.

The tracer rebinds each wrapped function in every spinorlab module that
holds it (``cli``, ``groups``, ``ideals``, ``quaternions`` and ``weyl``
import names with ``from .x import f``) and patches ``Multivector``
methods on the class, so no call escapes its span.  Spans (name, start,
end, parent, request id, raised) are kept in flat arrays and reduced to
per-function calls, self time and errors at the end.
"""

from __future__ import annotations

import functools
import importlib
import re
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (layer module, function label, attribute); an attribute "Multivector.x"
#: names a method patched on the class.
WRAPPED = [
    ("multivector", "mul", "Multivector.__mul__"),
    ("multivector", "add", "Multivector.__add__"),
    ("multivector", "sub", "Multivector.__sub__"),
    ("multivector", "grade_involution", "Multivector.grade_involution"),
    ("multivector", "reversion", "Multivector.reversion"),
    ("multivector", "clifford_conjugation", "Multivector.clifford_conjugation"),
    ("multivector", "complex_conjugate", "Multivector.complex_conjugate"),
    ("multivector", "random_multivector", "random_multivector"),
    ("multivector", "coefficient_distance", "coefficient_distance"),
    ("weyl", "to_matrix", "to_matrix"),
    ("weyl", "from_matrix", "from_matrix"),
    ("weyl", "dirac_dagger_dual", "dirac_dagger_dual"),
    ("weyl", "multivector_inverse", "multivector_inverse"),
    ("duals", "xi", "xi"),
    ("duals", "named_operator", "named_operator"),
    ("duals", "closed_form", "closed_form"),
    ("duals", "validate_delta", "validate_delta"),
    ("duals", "validate_omega", "validate_omega"),
    ("duals", "delta_to_omega", "delta_to_omega"),
    ("duals", "random_delta", "random_delta"),
    ("duals", "block_decompose", "block_decompose"),
    ("duals", "dual_of", "dual_of"),
    ("groups", "generate_group", "generate_group"),
    ("groups", "group_from_elements", "group_from_elements"),
    ("groups", "identify_group", "identify_group"),
    ("groups", "orbit_partition", "orbit_partition"),
    ("groups", "membership", "membership"),
    ("groups", "twisted_adjoint", "twisted_adjoint"),
    ("groups", "exp_bivector", "exp_bivector"),
    ("quaternions", "gl2h_embed", "gl2h_embed"),
    ("quaternions", "mv_to_m2h", "mv_to_m2h"),
    ("quaternions", "even_to_m2c", "even_to_m2c"),
    ("quaternions", "is_quaternionic_pattern", "is_quaternionic_pattern"),
    ("quaternions", "intertwiner", "intertwiner"),
    ("ideals", "ideal_basis", "ideal_basis"),
    ("ideals", "division_ring_identify", "division_ring_identify"),
    ("ideals", "beta_inner_product", "beta_inner_product"),
    ("ideals", "ring_membership_residual", "ring_membership_residual"),
    ("serialize", "dump_json", "dump_json"),
    ("serialize", "load_json", "load_json"),
    ("serialize", "spinor_from_obj", "spinor_from_obj"),
    ("serialize", "matrix_to_obj", "matrix_to_obj"),
    ("cli", "main", "main"),
]
SPAN_NAMES = [f"{layer}.{fn}" for layer, fn, _ in WRAPPED]

#: functions that can raise on the inputs the workloads send
RAISING = [
    "weyl.multivector_inverse", "duals.named_operator", "duals.block_decompose",
    "duals.dual_of", "groups.generate_group", "groups.group_from_elements",
    "groups.twisted_adjoint", "groups.exp_bivector", "serialize.load_json",
    "serialize.spinor_from_obj", "cli.main",
]


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.request_id = -1
        self.elements = 0  # group elements materialised by generate_group

    def wrap(self, name_id: int, fn):
        start, end, names = self.start, self.end, self.name
        parents, requests, raised, stack = self.parent, self.request, self.raised, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def count_elements(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                group = fn(*args, **kwargs)
            except Exception as exc:
                self.elements += getattr(exc, "count", 0)
                raise
            self.elements += len(group.elements)
            return group

        return counted

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        for layer in {w[0] for w in WRAPPED}:
            importlib.import_module(f"spinorlab.{layer}")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "spinorlab" or name.startswith("spinorlab.")
        }
        undo = []
        for name_id, (layer, _, attr) in enumerate(WRAPPED):
            home = modules[f"spinorlab.{layer}"]
            if attr.startswith("Multivector."):
                cls, meth = home.Multivector, attr.split(".", 1)[1]
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name_id, original))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name_id, original)
            if attr == "generate_group":
                wrapped = self.count_elements(wrapped)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def summary(self) -> dict:
        """calls, self_s and errors per span name, plus element count."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        errors = np.bincount(
            names, weights=np.frombuffer(self.raised, dtype=np.int8, count=n), minlength=k
        )
        return {
            "spans": n,
            "elements": self.elements,
            "functions": {
                SPAN_NAMES[i]: [int(calls[i]), float(selfs[i]), int(errors[i])]
                for i in range(k)
            },
        }

    def dump(self, path):
        """Write the raw spans, one array per field."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )


def merge(summaries) -> dict:
    out = {"spans": 0, "elements": 0, "functions": {n: [0, 0.0, 0] for n in SPAN_NAMES}}
    for s in summaries:
        out["spans"] += s["spans"]
        out["elements"] += s["elements"]
        for name, (calls, self_s, errors) in s["functions"].items():
            acc = out["functions"][name]
            acc[0] += calls
            acc[1] += self_s
            acc[2] += errors
    return out


# -- import layer -------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of spinorlab and of numpy and scipy in it.

    ``-X importtime`` prints a module after its children, indented by
    depth, so a line's parent is the next line with a smaller depth.  A
    numpy or scipy module counts toward its package unless an ancestor is
    already numpy or scipy.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    parent = [-1] * len(rows)
    stack: list[int] = []
    for i in range(len(rows) - 1, -1, -1):
        while stack and rows[stack[-1]][0] >= rows[i][0]:
            stack.pop()
        parent[i] = stack[-1] if stack else -1
        stack.append(i)

    def package(name):
        top = name.split(".", 1)[0]
        return top if top in ("numpy", "scipy") else None

    totals = {"numpy": 0.0, "scipy": 0.0}
    total = 0.0
    for i, (depth, name, cum) in enumerate(rows):
        if name == "spinorlab" and depth == 0:
            total = cum
        pkg = package(name)
        if pkg is None:
            continue
        j = parent[i]
        while j >= 0 and package(rows[j][1]) is None:
            j = parent[j]
        if j < 0:
            totals[pkg] += cum
    return {
        "import.total_s": total,
        "import.numpy_s": totals["numpy"],
        "import.scipy_s": totals["scipy"],
        "import.spinorlab_s": total - totals["numpy"] - totals["scipy"],
    }


def measure_imports(env: dict, repeats: int) -> dict:
    """Median of ``repeats`` fresh ``python -X importtime -c "import spinorlab"``."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spinorlab"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: float(np.median([r[key] for r in runs])) for key in runs[0]}
