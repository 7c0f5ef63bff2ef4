"""The four workloads: seeded request streams, execution and output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one returns.  Requests come in cycles with a fixed mix,
so the share of each request kind in a run does not depend on the seed;
the seed picks the inputs.  A run serves a fixed number of cycles, set
by ``--seconds`` and the workload's ``cycle_s`` (the seconds one cycle
took on a 2-vCPU Intel Xeon virtual machine in its slow periods), so the
same seed always gives the same requests, failures included, however
fast the host runs.  Continuous inputs are drawn from a Kronecker
(low-discrepancy) sequence with seeded offsets, so every run covers the
stated ranges evenly, including the regimes where known defects show.

A check returns the problems it found; an empty list means the output is
right.  ``symptom`` summarises a failed request for the known-defect
ledger.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles as O

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}
REL_TOL = 1e-9
#: irrational steps of the Kronecker sequence, one per input dimension
STEPS = (math.sqrt(2) % 1, math.sqrt(3) % 1, math.sqrt(5) % 1, math.sqrt(7) % 1)
README_POINT = {"mass": 1.0, "momentum": 1.0, "theta": 0.7, "phi": 0.3}


class Kronecker:
    """Seeded Kronecker sequence in [0, 1)^4."""

    def __init__(self, rng):
        self.offsets = [float(x) for x in rng.uniform(0.0, 1.0, len(STEPS))]
        self.k = 0

    def next(self) -> list:
        self.k += 1
        return [(o + self.k * a) % 1.0 for o, a in zip(self.offsets, STEPS)]


def kinematics(u, log_momentum=None) -> dict:
    """Generic on-shell point; momentum log-uniform over ``log_momentum``
    decades, otherwise in the O(1) regime of ``random_kinematics``."""
    if log_momentum is None:
        p = 0.5 + 1.5 * u[1]
    else:
        lo, hi = log_momentum
        p = 10.0 ** (lo + (hi - lo) * u[1])
    return {
        "mass": 0.5 + 1.5 * u[0],
        "momentum": p,
        "theta": 0.05 + (math.pi - 0.1) * u[2],
        "phi": 2.0 * math.pi * u[3],
    }


def kin_argv(kin: dict) -> list:
    return [
        "--mass", repr(kin["mass"]), "--momentum", repr(kin["momentum"]),
        "--theta", repr(kin["theta"]), "--phi", repr(kin["phi"]),
    ]


def spinorlab():
    return sys.modules["spinorlab"]


@dataclass
class Request:
    kind: str
    spec: dict = field(default_factory=dict)
    argv: list = field(default_factory=list)


@dataclass
class Outcome:
    request: Request
    seconds: float
    value: object = None
    error: str = ""  # "Type: message" of an exception the program raised
    problems: list = field(default_factory=list)


# -- the two CLI workloads ------------------------------------------------------------


@dataclass
class CliOutput:
    code: int
    stdout: bytes
    stderr: str


class CliWorkload:
    """Shared checks of CLI reports; every argv runs twice in a row."""

    pair = 2

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = env

    def requests(self):
        cycle = 0
        while True:
            for req in self.cycle(cycle):
                yield req
                yield req
            cycle += 1

    def check(self, out: Outcome) -> list:
        req, res = out.request, out.value
        problems = []
        if "Traceback" in res.stderr:
            problems.append("traceback")
        if res.code not in DOCUMENTED_EXITS:
            problems.append(f"undocumented exit {res.code}")
        elif res.code != 0:
            problems.append(f"exit {res.code}")
        if res.code not in (0, 1) or not res.stdout:
            return problems or ["no report"]
        text = res.stdout.decode()
        if req.spec.get("fmt") == "csv":
            if text != O.cayley_csv(req.spec["group"]):
                problems.append("csv table differs from the Klein-four table")
            return problems
        try:
            report = O.strict_json(text)
        except ValueError as exc:
            return problems + [f"non-strict JSON: {exc}"]
        failing = [c["name"] for c in report.get("checks", []) if c["status"] != "pass"]
        if failing:
            problems.append("failed checks " + ",".join(failing))
        if report.get("suite") != req.kind:
            problems.append(f"suite {report.get('suite')!r}")
        problems += self.check_payload(req, report)
        return problems

    def check_payload(self, req: Request, report: dict) -> list:
        kin = req.spec.get("kin")
        problems = []
        if kin is not None:
            echo = report["kinematics"]
            if any(echo[k] != kin[k] for k in ("mass", "momentum", "theta", "phi")):
                problems.append("kinematics not echoed")
            want_e = O.energy(kin["mass"], kin["momentum"])
            if abs(echo["energy"] - want_e) > 1e-12 * want_e:
                problems.append("energy off shell")
        payload = report.get("payload", {})
        check = getattr(self, "payload_" + req.kind.replace("-", "_"), None)
        if check is not None:
            problems += check(req, payload)
        return problems

    def payload_table1(self, req, payload) -> list:
        k = req.spec["kin"]
        m, x = k["mass"], O.xi(k["mass"], k["momentum"], k["theta"], k["phi"])
        xd = x.conj().T
        g, f = O.op_g(k["phi"]), O.op_f(k["theta"], k["phi"])
        want = {
            "G": g, "F": f, "FG": f @ g, "XiDagger": xd, "GXiDagger": g @ xd,
            "H": m * m * (x @ xd), "Hinv": (xd @ x) / (m * m),
        }
        ops = payload.get("operators", {})
        return [
            f"operator {name} differs from its definition" for name, mat in want.items()
            if name not in ops or not O.close(O.matrix_of(ops[name]), mat, REL_TOL)
        ]

    def payload_cayley(self, req, payload) -> list:
        group = req.spec["group"]
        if (payload.get("group"), payload.get("name")) != (group, "K4"):
            return ["group not identified as K4"]
        if payload.get("labels") != O.LABELS[group] or payload.get("table") != O.K4_TABLE:
            return ["Cayley table differs from the Klein-four table"]
        return []

    def payload_classify(self, req, payload) -> list:
        classes = req.spec["classes"]
        problems = []
        if payload.get("classes") != {str(i): c for i, c in enumerate(classes)}:
            problems.append("orbit classes differ from the generated orbits")
        if payload.get("representatives") != [c[0] for c in classes]:
            problems.append("wrong representatives")
        sizes = payload.get("orbit_sizes", [])
        if len(sizes) != len(classes):
            problems.append("one orbit size per class expected")
        if any(4 % s for s in sizes):
            problems.append("orbit sizes do not divide the group order")
        return problems

    def payload_spinor_spaces(self, req, payload) -> list:
        problems = []
        idem = {k: O.mv_of(v) for k, v in payload.get("idempotents", {}).items()}
        for name, f in idem.items():
            if not f or O.mv_distance(O.mv_mul(f, f), f) > 1e-12:
                problems.append(f"{name} idempotent is not idempotent")
        if payload.get("ideal_dimensions") != {
            "complex_left": 4, "complex_right": 4, "real_left": 8,
        }:
            problems.append("wrong ideal dimensions")
        rings = payload.get("division_rings", {})
        if rings != {"complex": {"name": "C", "dimension": 1},
                     "real": {"name": "H", "dimension": 4}}:
            problems.append("wrong division rings")
        basis = [O.mv_of(g) for g in payload.get("ideal_basis_real_left", [])]
        fr = idem.get("real", {})
        if len(basis) != 8 or any(
            O.mv_distance(O.mv_mul(g, fr), g) > 1e-9 for g in basis
        ):
            problems.append("ideal basis not in the left ideal of the real idempotent")
        return problems

    def payload_dual(self, req, payload) -> list:
        k = req.spec["kin"]
        x = O.xi(k["mass"], k["momentum"], k["theta"], k["phi"])
        want = req.spec["psi"].conj() @ O.GAMMA0 @ x @ req.spec["omega"]
        got = np.array([O.pair(v) for v in payload.get("dual", [])])
        return [] if O.close(got, want, REL_TOL) else ["dual differs from psi^dag g0 Xi Omega"]

    def symptom(self, out: Outcome) -> dict:
        res = out.value
        lines = res.stderr.strip().splitlines()
        failing, other = [], []
        for p in out.problems:
            if p.startswith("failed checks "):
                failing = p[len("failed checks "):].split(",")
            elif p not in ("traceback", f"exit {res.code}", "no report"):
                other.append(p)
        return {
            "command": out.request.kind,
            "exit": res.code,
            "checks": failing,
            "error": lines[-1] if lines else "",
            "other": other,
        }


class CliCold(CliWorkload):
    """Each request is a fresh ``python -m spinorlab.cli`` process."""

    name = "cli-cold"
    cycle_len = trace_requests = 16
    cycle_s = 9.0

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.sequences = {
            cmd: Kronecker(self.rng)
            for cmd in ("verify-theorems", "table1", "cayley", "classify", "dual")
        }
        self.count = 0
        self.trace_dir = None
        self.traced = 0

    def point(self, cmd) -> dict:
        return kinematics(self.sequences[cmd].next(), log_momentum=(-3.0, 4.0))

    def seed_arg(self) -> list:
        return ["--seed", str(int(self.rng.integers(0, 2**31)))]

    def cycle(self, c: int) -> list:
        odd = c % 2
        return [
            self.kin_request("verify-theorems", self.seed_arg()),
            self.kin_request("table1", self.seed_arg()),
            self.cayley("GF", "csv" if odd else "json"),
            self.classify("GXiDagger" if odd else "GF"),
            Request("embed", {}, ["embed", *self.seed_arg()]),
            self.cayley("GXiDagger", "json" if odd else "csv"),
            Request("spinor-spaces", {}, ["spinor-spaces", *self.seed_arg()]),
            self.dual(generated_omega=bool(odd)),
        ]

    def kin_request(self, cmd, extra, kin=None, spec=None) -> Request:
        kin = kin or self.point(cmd)
        return Request(cmd, {"kin": kin, **(spec or {})}, [cmd, *kin_argv(kin), *extra])

    def cayley(self, group, fmt) -> Request:
        return self.kin_request(
            "cayley", ["--group", group, "--format", fmt],
            spec={"group": group, "fmt": fmt},
        )

    def file(self, obj) -> str:
        self.count += 1
        path = self.workdir / f"input-{self.count}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def classify(self, group) -> Request:
        kin = self.point("classify")
        rows, classes = orbit_rows(self.rng, O.group_elements(group, kin), bases=10)
        duals = [[[v.real, v.imag] for v in row] for row in rows]
        return self.kin_request(
            "classify", ["--group", group, "--duals", self.file(duals)], kin,
            {"group": group, "classes": classes},
        )

    def dual(self, generated_omega: bool) -> Request:
        kin = self.point("dual")
        psi = self.rng.normal(size=4) + 1j * self.rng.normal(size=4)
        omega = O.IDENTITY
        extra = ["--psi", self.file([[v.real, v.imag] for v in psi])]
        if generated_omega:
            omega = O.omega_from_delta(O.random_delta(self.rng), kin)
            extra += ["--omega", self.file([[[v.real, v.imag] for v in r] for r in omega])]
        return self.kin_request("dual", extra, kin, {"psi": psi, "omega": omega})

    def execute(self, req: Request):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "spinorlab.cli"]
        else:  # the same CLI call with spans on, written to trace_dir
            self.traced += 1
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "trace",
                   str(self.trace_dir), str(self.traced)]
        proc = subprocess.run(
            [*cmd, *req.argv], env=self.env, capture_output=True, timeout=120,
        )
        return CliOutput(proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"))


class SuitesWarm(CliWorkload):
    """One process calls ``spinorlab.cli.main(argv)`` with stdout captured."""

    name = "suites-warm"
    cycle_len = trace_requests = 8
    cycle_s = 2.2
    trials = "250"

    def __init__(self, seed, workdir, env):
        super().__init__(seed, workdir, env)
        self.points = Kronecker(self.rng)

    def cycle(self, c: int) -> list:
        def seeded(cmd, kin=None):
            argv = [cmd, "--trials", self.trials, "--seed", str(int(self.rng.integers(0, 2**31)))]
            return Request(cmd, {"kin": kin}, argv + (kin_argv(kin) if kin else []))

        return [
            seeded("verify-theorems", kinematics(self.points.next())),
            seeded("table1", kinematics(self.points.next())),
            seeded("embed"),
            seeded("spinor-spaces"),
        ]

    def warmup(self) -> Request:
        return self.cycle(-1)[0]

    def execute(self, req: Request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = importlib.import_module("spinorlab.cli").main(req.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        return CliOutput(code, out.getvalue().encode(), err.getvalue())


def orbit_rows(rng, elements, bases: int, images: int = 0):
    """Shuffled rows made of ``images`` (default: a random number of)
    images of each base row under right multiplication; returns the rows
    and the expected classes."""
    rows, owner = [], []
    for b in range(bases):
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        for g in rng.permutation(4)[: images or int(rng.integers(1, 5))]:
            rows.append(base @ elements[g])
            owner.append(b)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    owner = [owner[i] for i in order]
    classes: dict = {}
    for i, b in enumerate(owner):
        classes.setdefault(b, []).append(i)
    return rows, sorted(classes.values(), key=lambda c: c[0])


# -- groups ------------------------------------------------------------------------------


class Groups:
    """A seeded mix of group jobs in one long-lived process."""

    name = "groups"
    pair = 1
    #: Jobs in one cycle, fastest first; the seed shuffles their order.  The
    #: multiplicities put each percentile inside a band of jobs of similar
    #: cost rather than on a gap between two: p50 falls among the Spin
    #: batches and gammas-32 (40-60 % of jobs), p90 among the three cap-1024
    #: certificates at the README point (80-95 %).  Random points run at
    #: caps 64 and 256 only: at cap 1024 whether a point reaches the cap
    #: (1-2 s) or raises early (0.02-0.4 s) is erratic, so a few such jobs
    #: would decide a run's p90 and throughput.
    MIX = (
        ("h-certificate", 64, "readme"), *[("h-certificate", 64, "random")] * 4,
        *[("orbits", 100)] * 3,
        ("gammas", 32), *[("spin", 50)] * 3,
        ("h-certificate", 256, "readme"), *[("h-certificate", 256, "random")] * 2,
        ("orbits", 400),
        *[("h-certificate", 1024, "readme")] * 3,
        ("gammas", 64),
    )

    cycle_len = trace_requests = len(MIX)
    cycle_s = 3.2

    def __init__(self, seed, workdir, env):
        self.rng = np.random.default_rng(seed)
        self.points = Kronecker(self.rng)

    def warmup(self) -> Request:
        return self.job(("gammas", 32))

    def requests(self):
        while True:
            for i in self.rng.permutation(len(self.MIX)):
                yield self.job(self.MIX[i])

    def job(self, mix) -> Request:
        kind, size = mix[0], mix[1]
        if kind == "gammas":
            gens = list(O.GAMMAS) + ([1j * O.IDENTITY] if size == 64 else [])
            return Request(kind, {"order": size, "generators": gens,
                                  "pairs": self.rng.integers(0, size, (16, 2))})
        if kind == "h-certificate":
            kin = README_POINT if mix[2] == "readme" else kinematics(self.points.next())
            return Request(kind, {"cap": size, "kin": kin})
        if kind == "orbits":
            group = ("GF", "GXiDagger")[int(self.rng.integers(2))]
            kin = kinematics(self.points.next())
            rows, classes = orbit_rows(
                self.rng, O.group_elements(group, kin), size // 4, images=4
            )
            return Request(kind, {"group": group, "kin": kin, "rows": rows,
                                  "classes": classes})
        bivectors = self.rng.uniform(-1.0, 1.0, (size, 6))
        return Request(kind, {"bivectors": bivectors})

    def execute(self, req: Request):
        sl = spinorlab()
        s = req.spec
        if req.kind == "gammas":
            return sl.generate_group(s["generators"])
        if req.kind == "h-certificate":
            k = s["kin"]
            point = sl.KinematicPoint(k["mass"], k["momentum"], k["theta"], k["phi"])
            return sl.generate_group([sl.named_operator("H", point)], s["cap"])
        if req.kind == "orbits":
            k = s["kin"]
            point = sl.KinematicPoint(k["mass"], k["momentum"], k["theta"], k["phi"])
            g = sl.named_operator("G", point)
            other = sl.named_operator("F" if s["group"] == "GF" else "XiDagger", point)
            group = sl.group_from_elements(
                [np.eye(4, dtype=complex), g, other, other @ g], O.LABELS[s["group"]]
            )
            return sl.identify_group(group).name, sl.orbit_partition(group, s["rows"])
        out = []
        for coeffs in s["bivectors"]:
            b = sl.Multivector({m: float(v) for m, v in zip(BIVECTOR_MASKS, coeffs)})
            rotor = sl.exp_bivector(b)
            out.append((sl.membership(rotor), sl.twisted_adjoint(rotor)))
        return out

    def check(self, out: Outcome) -> list:
        s, v = out.request.spec, out.value
        kind = out.request.kind
        if kind == "h-certificate":
            if out.error.startswith("CapExceeded") and f"cap {s['cap']} " in out.error:
                return []
            return [f"expected CapExceeded, got {out.error or 'a finite group'}"]
        if out.error:
            return [f"raised {out.error}"]
        if kind == "gammas":
            return check_group(v, s["order"], s["pairs"])
        if kind == "orbits":
            name, part = v
            problems = [] if name == "K4" else [f"identified {name}, not K4"]
            if part.classes != s["classes"]:
                problems.append("orbit classes differ from the generated orbits")
            if any(4 % size for size in part.orbit_sizes):
                problems.append("orbit sizes do not divide the group order")
            return problems
        problems = []
        for record, lam in v:
            if not record.in_spin_plus:
                problems.append("rotor not in Spin+")
            if not np.allclose(lam.T @ O.MINKOWSKI @ lam, O.MINKOWSKI, rtol=0, atol=1e-9):
                problems.append("Lambda^T g Lambda != g")
            if abs(np.linalg.det(lam) - 1) > 1e-9 or lam[0, 0] < 1 - 1e-9:
                problems.append("Lambda not proper orthochronous")
        return sorted(set(problems))

    def symptom(self, out: Outcome) -> dict:
        return {"command": out.request.kind, "exit": None, "checks": [],
                "error": out.error, "other": [] if out.error else out.problems}


BIVECTOR_MASKS = (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)


def check_group(group, order: int, pairs) -> list:
    """Order, Latin-square table and spot products against the elements."""
    problems = []
    n = len(group.elements)
    if n != order:
        problems.append(f"order {n}, expected {order}")
    table = np.asarray(group.table)
    full = np.arange(n)
    if table.shape != (n, n) or any(
        not np.array_equal(np.sort(r), full) for r in list(table) + list(table.T)
    ):
        return problems + ["Cayley table is not a Latin square"]
    for i, j in pairs:
        i, j = i % n, j % n
        prod = group.elements[i] @ group.elements[j]
        if not O.close(prod, group.elements[table[i, j]], REL_TOL):
            problems.append("Cayley table contradicts the products")
            break
    return problems


# -- exact algebra -----------------------------------------------------------------------


class ExactAlgebra:
    """Exact int and Fraction multivector arithmetic on sparse operands."""

    name = "exact-algebra"
    pair = cycle_len = 1
    cycle_s = 0.019
    trace_requests = 40
    BATCH = 10  # triples per request; 3 * BATCH operands, a multiple of 5
    NNZ = (1, 2, 4, 8, 16)

    def __init__(self, seed, workdir, env):
        self.rng = np.random.default_rng(seed)

    def warmup(self) -> Request:
        return next(self.requests())

    def requests(self):
        kinds = ("int", "fraction")
        while True:
            # every nonzero count appears equally often in each request
            nnz = np.concatenate(
                [self.rng.permutation(self.NNZ) for _ in range(3 * self.BATCH // 5)]
            )
            triples = [
                tuple(self.operand(int(nnz[3 * t + i]), kinds[(t + i) % 2]) for i in range(3))
                for t in range(self.BATCH)
            ]
            pairs = self.rng.integers(0, 4, (self.BATCH, 2))
            yield Request("exact", {"triples": triples, "pairs": pairs})

    def operand(self, nnz: int, kind: str) -> dict:
        masks = self.rng.choice(16, nnz, replace=False)
        nums = self.rng.integers(1, 10, nnz) * self.rng.choice((-1, 1), nnz)
        if kind == "int":
            return {int(m): int(v) for m, v in zip(masks, nums)}
        dens = self.rng.integers(1, 13, nnz)
        return {int(m): Fraction(int(v), int(d)) for m, v, d in zip(masks, nums, dens)}

    def execute(self, req: Request):
        sl = spinorlab()
        mv, dist, gamma = sl.Multivector, sl.coefficient_distance, sl.gamma
        out = []
        for (a, b, c), (mu, nu) in zip(req.spec["triples"], req.spec["pairs"]):
            a, b, c = mv(a), mv(b), mv(c)
            ab, bc = a * b, b * c
            out.append({
                "ab": ab, "bc": bc, "ab_c": ab * c, "a_bc": a * bc,
                "sum": a + b, "diff": a - b,
                "grade": a.grade_involution(), "rev": a.reversion(),
                "conj": a.clifford_conjugation(),
                "rev_ab": ab.reversion(), "revb_reva": b.reversion() * a.reversion(),
                "anti": gamma(int(mu)) * gamma(int(nu)) + gamma(int(nu)) * gamma(int(mu)),
                "dist": dist(a, b),
            })
        return out

    def check(self, out: Outcome) -> list:
        if out.error:
            return [f"raised {out.error}"]
        problems = set()
        for (a, b, c), (mu, nu), r in zip(
            out.request.spec["triples"], out.request.spec["pairs"], out.value
        ):
            got = {k: dict(v.items()) for k, v in r.items() if k != "dist"}
            ab = O.mv_mul(a, b)
            want = {
                "ab": ab, "bc": O.mv_mul(b, c), "ab_c": O.mv_mul(ab, c),
                "sum": O.mv_add(a, b), "diff": O.mv_add(a, b, -1),
                "grade": O.grade_involution(a), "rev": O.reversion(a),
                "conj": O.clifford_conjugation(a), "rev_ab": O.reversion(ab),
                "anti": O.anticommutator(int(mu), int(nu)),
            }
            problems.update(f"{k} differs from the blade table" for k, w in want.items()
                            if got[k] != w)
            if got["a_bc"] != got["ab_c"]:
                problems.add("product not associative")
            if got["revb_reva"] != got["rev_ab"]:
                problems.add("reversion not an anti-automorphism")
            if r["dist"] != O.mv_distance(a, b):
                problems.add("coefficient_distance differs")
            if not all(O.is_exact(v) for v in got.values()):
                problems.add("exact coefficients became inexact")
        return sorted(problems)

    def symptom(self, out: Outcome) -> dict:
        return {"command": "exact", "exit": None, "checks": [], "error": out.error,
                "other": out.problems}


WORKLOADS = {w.name: w for w in (CliCold, SuitesWarm, Groups, ExactAlgebra)}


def run(workload, req: Request) -> Outcome:
    """Execute one request; an exception from the program is recorded."""
    t0 = time.perf_counter()
    try:
        value, error = workload.execute(req), ""
    except Exception as exc:  # the program's failure is the measurement
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(req, time.perf_counter() - t0, value, error)
