"""The public surface: one tolerance table, one invertibility test, fixed
tolerances, and every name the benchmark's tracer wraps."""

import ast
import copy
import dataclasses
import importlib
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinorlab
from spinorlab import duals, groups, ideals, multivector, quaternions, serialize, weyl
from spinorlab.duals import KinematicPoint, _delta_from, random_delta, validate_delta, validate_omega
from spinorlab.groups import CapExceeded, generate_group
from spinorlab.ideals import canonical_idempotent
from spinorlab.multivector import Multivector, blade, gamma, scalar
from spinorlab.quaternions import (
    Q_I, Q_ONE, QuatMatrix2, Quaternion, intertwiner, mv_to_m2h, quaternionic_gamma,
)
from spinorlab.weyl import DET_TOL, multivector_inverse

#: (module, function, parameter) that are fixed values, not options
FIXED = [
    (weyl, "multivector_inverse", "det_tol"),
    (duals, "validate_delta", "tol"),
    (duals, "block_decompose", "tol"),
    (duals, "dual_of", "tol"),
    (groups, "check_abelian_closure", "tol"),
    (groups, "generate_group", "tol"),
    (groups, "orbit_partition", "action"),
    (groups, "twisted_adjoint", "tol"),
    (ideals, "verify_involution_conditions", "tol"),
    (ideals, "beta_inner_product", "tol"),
    (quaternions, "is_quaternionic_pattern", "tol"),
    (quaternions, "mv_to_m2h", "tol"),
    (quaternions, "even_to_m2c", "tol"),
    (multivector, "blade", "coeff"),
    (serialize, "dump_json", "path"),
]


@pytest.mark.parametrize("module, name, param", FIXED)
def test_fixed_values_are_not_parameters(module, name, param):
    assert param not in inspect.signature(getattr(module, name)).parameters


@pytest.fixture
def fresh_intertwiner():
    intertwiner.cache_clear()
    yield intertwiner
    intertwiner.cache_clear()


@pytest.mark.parametrize("tol, invertible", [(0.05, True), (2.0, False)])
def test_one_patch_reaches_every_invertibility_decision(
    monkeypatch, fresh_intertwiner, tol, invertible
):
    # Only weyl.DET_TOL is patched.  I has det 1, the intertwiner S has
    # |det S| = 0.0625, and seed 2's first Delta draw has |det| 0.63: each
    # is on one side of 0.05 and the other side of 2.0.
    monkeypatch.setattr(weyl, "DET_TOL", tol)
    eye, k = np.eye(4, dtype=complex), KinematicPoint(1.0, 1.0, 0.7, 0.3)
    assert bool(validate_delta(eye)) == invertible
    assert bool(validate_omega(eye, k)) == invertible
    first_draw = _delta_from(np.random.default_rng(2).uniform(-1, 1, 16))
    resampled = random_delta(2)
    assert abs(np.linalg.det(resampled)) > tol
    assert np.array_equal(resampled, first_draw) == invertible
    if invertible:
        multivector_inverse(scalar(1))
        assert generate_group([eye]).order == 1
        assert abs(np.linalg.det(fresh_intertwiner())) == pytest.approx(0.0625)
    else:
        with pytest.raises(ZeroDivisionError):
            multivector_inverse(scalar(1))
        with pytest.raises(ValueError, match="not invertible"):
            generate_group([eye])
        with pytest.raises(RuntimeError, match="singular"):
            fresh_intertwiner()


def test_a_nan_determinant_is_singular_at_every_decision():
    # Every decision is the one comparison |det| > DET_TOL, which NaN fails.
    nan = float("nan")
    with np.errstate(invalid="ignore"):
        assert not validate_delta(nan * np.eye(4)).ok
        with pytest.raises(ZeroDivisionError):
            multivector_inverse(scalar(nan))
        with pytest.raises(ValueError, match="not invertible"):
            generate_group([nan * np.eye(4)], cap=4)


def _threshold_problems(name: str, tree) -> list:
    """Small float literals, ``*_TOL`` assignments and DET_TOL reads in one
    module.  weyl.py may hold them in its tolerance table (its top-level
    ``NAME = <float>`` lines), and read DET_TOL in ``_invertible`` only."""
    problems = []
    for top in tree.body:
        if name == "weyl.py" and isinstance(top, ast.Assign) and isinstance(
                top.value, ast.Constant) and type(top.value.value) is float:
            continue
        for n in ast.walk(top):
            where = f"{name}:{getattr(n, 'lineno', top.lineno)}"
            if isinstance(n, ast.Constant) and type(n.value) is float and 0 < n.value < 1e-5:
                problems.append(f"{where} literal {n.value!r}")
            if isinstance(n, (ast.Assign, ast.AnnAssign)) and name != "weyl.py":
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                problems += [f"{where} assigns {t.id}" for t in targets
                             if isinstance(t, ast.Name) and t.id.endswith("_TOL")]
            read = (n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                    else None)
            if isinstance(n, ast.ImportFrom) and "DET_TOL" in [a.name for a in n.names]:
                read = "DET_TOL"
            if read == "DET_TOL" and (name, getattr(top, "name", None)) != ("weyl.py", "_invertible"):
                problems.append(f"{where} reads DET_TOL")
    return problems


def test_every_threshold_lives_in_the_tolerance_table():
    paths = sorted(Path(spinorlab.__file__).parent.glob("*.py"))
    assert any(p.name == "weyl.py" for p in paths)
    problems = [problem for path in paths
                for problem in _threshold_problems(path.name, ast.parse(path.read_text()))]
    assert not problems


def _defined_names(tree) -> list:
    """(name, line) for each top-level def, class and assignment target of
    one module; loop targets and imports define nothing here."""
    defined = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            defined.append((top.name, top.lineno))
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            defined += [(n.id, top.lineno) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    return defined


def _read_in_the_package() -> set:
    """The identifiers that the package's modules load, by themselves or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for path in sorted(Path(spinorlab.__file__).parent.glob("*.py"))
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def test_every_module_level_name_is_read_or_exported():
    # A name is read where it is loaded, by itself or as an attribute, anywhere
    # in the package; the package's __init__ re-exports what it imports.
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(Path(spinorlab.__file__).parent.glob("*.py"))}
    read = _read_in_the_package()
    exported = {a.asname or a.name for n in trees["__init__.py"].body
                if isinstance(n, ast.ImportFrom) for a in n.names}
    unread = [f"{name}:{line} {ident}" for name, tree in trees.items()
              for ident, line in _defined_names(tree) if ident not in read | exported]
    assert not unread


def _members(cls) -> list:
    """Non-dunder methods, properties and fields that spinorlab defines on ``cls``
    or its package bases.  A field is annotated (a NamedTuple's) or slotted; what
    a NamedTuple generates, such as ``_asdict`` and ``_replace``, is not counted."""
    own = [vars(c) for c in cls.__mro__ if c.__module__.startswith("spinorlab")]
    members = {name for body in own for name, value in body.items() if _spinorlab_code(value)}
    members |= {name for body in own
                for name in [*body.get("__annotations__", ()), *body.get("__slots__", ())]}
    return sorted(m for m in members if not (m.startswith("__") and m.endswith("__")))


def _spinorlab_code(value) -> bool:
    """Whether a class attribute is a method or property whose code spinorlab holds."""
    code = getattr(value, "__func__", getattr(value, "fget", value))
    return (callable(value) or isinstance(value, (property, classmethod, staticmethod))) \
        and getattr(code, "__module__", "").startswith("spinorlab")


ROOT = Path(__file__).parents[1]


def _reads(tops) -> set:
    """The identifiers loaded as an attribute in the Python files under
    ``tops``.  Each part of a string literal that names a dotted identifier
    (getattr, monkeypatch, the tracer's "Class.method") counts as one."""
    attributes = set()
    for path in sorted(p for top in tops for p in (ROOT / top).rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attributes.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and all(
                    part.isidentifier() for part in n.value.split(".")):
                attributes.update(n.value.split("."))
    return attributes


def test_every_member_of_an_exported_class_is_read():
    # A member is read where it is loaded as an attribute, or where a string
    # literal names it.  The records count too, exported or not.
    read = _reads(("src", "tests", "demos", "perfbench"))
    classes = {value for name, value in vars(spinorlab).items()
               if inspect.isclass(value) and not name.startswith("_")} | set(records())
    assert len(classes) > 10
    unread = [f"{cls.__name__}.{member}" for cls in classes
              for member in _members(cls) if member not in read]
    assert not unread


#: why a name that the benchmark's tracer wraps stays, though nothing else may need it
TRACED = "perfbench/tracer.py wraps it; ROADMAP item 0(e) removes it once the tracer can lose it"

#: exported names that no demo, benchmark or tool takes from the package, and why
UNTAKEN_EXPORTS = {
    "GAMMA0": "the documented gamma0 convention, which the tests compare against",
    "hermitian_blade": "tests/test_acceptance.py perturbs a self-adjoint multivector along it",
    **dict.fromkeys(["random_multivector", "dirac_dagger_dual", "from_matrix", "block_decompose",
                     "even_to_m2c", "mv_to_m2h", "beta_inner_product",
                     "ring_membership_residual"], TRACED),
}


def _taken_from_the_package(tops) -> set:
    """The names that the Python files under ``tops`` take from the package:
    ``from spinorlab import X``, ``spinorlab.X``, or ``sl.X``, the benchmark's
    name for the package."""
    taken = set()
    for path in sorted(p for top in tops for p in (ROOT / top).rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ImportFrom) and n.module == "spinorlab" and not n.level:
                taken.update(a.name for a in n.names)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in ("spinorlab", "sl"):
                taken.add(n.attr)
    return taken


def test_every_exported_name_is_read_outside_the_tests():
    # The package's __init__ only re-exports; a name that only tests read is
    # surface that no demo, benchmark or tool needs.  An exception class stays,
    # so that a caller can catch what an exported function raises.
    init = ROOT / "src" / "spinorlab" / "__init__.py"
    exported = [a.asname or a.name for n in ast.parse(init.read_text()).body
                if isinstance(n, ast.ImportFrom) for a in n.names]
    assert len(exported) > 50
    taken = _taken_from_the_package(("demos", "perfbench", "tools"))
    assert set(UNTAKEN_EXPORTS) <= set(exported) - taken
    caught = {name for name in exported if inspect.isclass(getattr(spinorlab, name))
              and issubclass(getattr(spinorlab, name), Exception)}
    assert [name for name in exported if name not in taken | caught | set(UNTAKEN_EXPORTS)] == []


#: names that a demo takes though no module of the package reads them and no benchmark
#: or tool takes them, and why; a name that perfbench/tracer.py wraps may be one (TRACED)
DEMO_ONLY = {"check_abelian_closure": "ROADMAP item 18 makes it cayley's commutation check"}


def test_every_name_a_demo_takes_is_run_outside_the_demos():
    # A demo narrates what a command runs, through the functions that the command
    # runs; a helper that only a demo takes is code that no suite needs.
    taken = _taken_from_the_package(("demos",))
    assert len(taken) > 30
    elsewhere = _read_in_the_package() | _taken_from_the_package(("perfbench", "tools"))
    assert set(DEMO_ONLY) <= taken - elsewhere
    traced = {attr for _, _, attr in _traced_names()}
    assert sorted(taken - elsewhere - traced - set(DEMO_ONLY)) == []


@pytest.mark.parametrize("side, invertible", [(0.5, False), (2.0, True)])
def test_every_invertibility_decision_uses_det_tol(side, invertible):
    # c I is a valid Delta and a valid Omega for real c, with det c^4; put
    # c^4 a factor of 2 on either side of the threshold.
    c = (side * DET_TOL) ** 0.25
    m = c * np.eye(4)
    assert (abs(np.linalg.det(m)) > DET_TOL) == invertible
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    assert bool(validate_delta(m)) == invertible
    assert bool(validate_omega(m, k)) == invertible
    if invertible:
        multivector_inverse(scalar(c))
        with pytest.raises(CapExceeded):  # c I generates an infinite group
            generate_group([m], cap=4)
    else:
        with pytest.raises(ZeroDivisionError):
            multivector_inverse(scalar(c))
        with pytest.raises(ValueError, match="not invertible"):
            generate_group([m], cap=4)


def _traced_names() -> list:
    """WRAPPED from perfbench/tracer.py, read as a literal, not imported."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAPPED list")


@pytest.mark.parametrize("layer, label, attr", _traced_names())
def test_every_traced_name_resolves(layer, label, attr):
    # perfbench/run.py --trace 1 wraps these; a missing one is an AttributeError there.
    module = importlib.import_module(f"spinorlab.{layer}")
    if attr.startswith("Multivector."):
        assert callable(module.Multivector.__dict__[attr.split(".", 1)[1]])
    else:
        assert callable(getattr(module, attr))


def test_a_quat_matrix_multiplies_only_a_quat_matrix():
    # A quaternion keeps its real-scalar product: it is a tuple, so without
    # it -1 * q and 2 * q would be tuple repetition.
    m = QuatMatrix2(Quaternion(1, 2, 3, 4), Quaternion(0.5, -1, 0, 2),
                    Quaternion(-3, 0, 1, 1), Quaternion(0, 0, -2, 0.25))
    for product in (lambda: m * Q_I, lambda: Q_I * m, lambda: m * 2, lambda: 2 * m,
                    lambda: m * "2", lambda: Q_I * 1j, lambda: Q_I * "2"):
        with pytest.raises(TypeError):
            product()
    assert isinstance(m * m, QuatMatrix2)
    assert 2 * Q_I == Q_I * 2 == Q_I * np.float64(2) == np.float64(2) * Q_I == Quaternion(0, 2)
    assert -1 * Q_ONE == -Q_ONE == Quaternion(-1.0)


def test_the_weyl_module_arrays_are_read_only():
    # GAMMA0 and the blade matrices are shared by every Delta and Omega
    # validation; an in-place edit by a caller must not reach them.
    shared = [v for v in vars(weyl).values() if isinstance(v, np.ndarray)]
    shared += [a for v in vars(weyl).values() if isinstance(v, tuple) for a in v]
    assert len(shared) >= 14 and not any(a.flags.writeable for a in shared)
    with pytest.raises(ValueError):
        spinorlab.GAMMA0[0, 0] = 5
    g = weyl.weyl_gamma(0)
    g[0, 0] = 5  # a copy, the caller's own
    assert spinorlab.GAMMA0[0, 0] == 0


@pytest.mark.parametrize("call, stop, message", [
    (gamma, 4, "gamma index 4 out of range"),
    (weyl.weyl_gamma, 4, "gamma index 4 out of range"),
    (quaternionic_gamma, 4, "gamma index 4 out of range"),
    (lambda i: blade((0, i)), 4, "gamma index 4 out of range"),
    (lambda i: Multivector({i: 1}), 16, "blade mask 16 out of range"),
    (lambda i: (gamma(0) + 2 * gamma(1)).coefficient(i), 16, None),  # no such blade: 0
], ids=["gamma", "weyl_gamma", "quaternionic_gamma", "blade", "Multivector", "coefficient"])
def test_an_index_is_read_as_an_integer(call, stop, message):
    for bad in (1.0, 1.5, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="is not an integer"):
            call(bad)
    for good in (np.int64(1), np.uint8(1), True):
        assert repr(call(good)) == repr(call(1))
    if message is None:
        assert call(np.int64(stop)) == 0
    else:
        with pytest.raises(ValueError, match=message):
            call(np.int64(stop))


def test_quaternionic_images_are_read_only():
    # The generator and blade images are shared and cached; an in-place edit
    # by a caller must not reach mv_to_m2h.
    for image in (quaternionic_gamma(1), mv_to_m2h(scalar(1)), QuatMatrix2.identity()):
        with pytest.raises(ValueError):
            image.q[0, 0, 0] = 7.0
    components = np.zeros((2, 2, 4))
    QuatMatrix2._of(components)
    components[0, 0, 0] = 1.0  # wrapping does not freeze the caller's array


# -- result records: NamedTuples, so importing spinorlab builds no dataclass ------------------


def records() -> dict:
    """One instance of each result record, made as spinorlab makes it."""
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    f = canonical_idempotent("real")
    group = generate_group([weyl.weyl_gamma(0)])
    return {
        KinematicPoint: (k, ("m", "p", "theta", "phi", "E")),
        duals.OperatorValidation: (validate_delta(random_delta(0)),
                                   ("kind", "ok", "residual", "det", "tolerance")),
        duals.DeltaBlocks: (duals.block_decompose(random_delta(0)), ("A", "B", "C")),
        groups.ClosureReport: (groups.check_abelian_closure([np.eye(4)], k),
                               ("commutes", "worst_norm", "worst_pair", "tolerance")),
        groups.FiniteMatrixGroup: (group, ("elements", "labels", "table")),
        groups.GroupIdentification: (groups.identify_group(group), ("name", "order")),
        groups.OrbitPartition: (groups.orbit_partition(group, [np.ones(4)]),
                                ("classes", "representatives", "orbit_sizes")),
        groups.MembershipRecord: (groups.membership(gamma(0)), (
            "even", "invertible", "in_gamma", "in_pin", "in_spin", "in_spin_plus", "norm")),
        ideals.Idempotent: (f, ("value",)),
        ideals.IdealBasis: (ideals.ideal_basis(f), ("generators", "side", "scalars")),
        ideals.RingReport: (ideals.division_ring_identify(f),
                            ("name", "dimension", "primitive", "profile_ok", "basis")),
        Quaternion: (Q_I, ("a", "b", "c", "d")),
        quaternions.PatternReport: (quaternions.is_quaternionic_pattern(np.eye(4)),
                                    ("matches", "residual")),
    }


def test_no_exported_class_is_a_dataclass():
    classes = {v for v in vars(spinorlab).values() if inspect.isclass(v)}
    assert set(records()) - classes == {  # returned, not exported
        duals.OperatorValidation, duals.DeltaBlocks, groups.ClosureReport,
        groups.FiniteMatrixGroup, groups.GroupIdentification, groups.OrbitPartition,
        groups.MembershipRecord, ideals.IdealBasis, ideals.RingReport, quaternions.PatternReport}
    assert not [cls.__name__ for cls in classes | set(records()) if dataclasses.is_dataclass(cls)]


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, spinorlab.cli; print(sorted({'dataclasses', 'spinorlab'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "['spinorlab']"


def test_importing_the_package_loads_no_json_layer():
    loaded = "print(sorted({'json', 'spinorlab.serialize'} & set(sys.modules)))"
    code = f"import sys, spinorlab; {loaded}\nimport spinorlab.cli; {loaded}"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.splitlines() == ["[]", "['json', 'spinorlab.serialize']"]


def test_the_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == spinorlab.__version__


def test_each_record_keeps_its_fields_in_order_and_refuses_assignment():
    for cls, (record, fields) in records().items():
        assert type(record) is cls
        assert tuple(getattr(cls, "_fields", None) or cls.__slots__) == fields, cls
        if cls is groups.FiniteMatrixGroup:  # a mutable record, as it always was
            continue
        assert tuple(record) == tuple(getattr(record, name) for name in fields), cls
        for name in fields + (("residual",) if cls is ideals.Idempotent else ()):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_a_report_is_truthy_only_when_it_passed():
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    g, f = duals.named_operator("G", k), duals.named_operator("F", k)
    embedded = quaternions.gl2h_embed(QuatMatrix2(Q_I, Q_I, Q_I, Q_I))
    for passed, failed in [
        (validate_delta(random_delta(0)), validate_delta(np.zeros((4, 4)))),
        (groups.check_abelian_closure([g, f], k),
         groups.check_abelian_closure([g, duals.delta_to_omega(random_delta(1), k)], k)),
        (quaternions.is_quaternionic_pattern(embedded),
         quaternions.is_quaternionic_pattern(np.diag([1, 2, 3, 4]))),
    ]:
        assert type(passed) is type(failed)
        assert bool(passed) is True and bool(failed) is False, type(passed)


def test_a_value_type_refuses_the_tuple_operations_it_never_had():
    with pytest.raises(TypeError):
        Q_I + Q_I
    with pytest.raises(TypeError):
        Q_I < Quaternion(0.0, 2.0)
    assert np.float64(2) * Q_I == Quaternion(0.0, 2.0)  # not numpy's array of components
    with pytest.raises(TypeError):
        len(generate_group([weyl.weyl_gamma(0)]))


@pytest.mark.parametrize("args, message", [
    ((float("nan"), 1.0, 0.7, 0.3),
     "kinematics must be finite, got KinematicPoint(m=nan, p=1.0, theta=0.7, phi=0.3, E=None)"),
    ((1.0, 1.0, float("inf"), 0.3),
     "kinematics must be finite, got KinematicPoint(m=1.0, p=1.0, theta=inf, phi=0.3, E=None)"),
    ((0.0, 1.0, 0.7, 0.3), "mass must be positive, got 0.0"),
    ((1.0, -1.0, 0.7, 0.3), "momentum must be nonnegative, got -1.0"),
    ((1e200, 1.0, 0.7, 0.3), "energy sqrt(p^2+m^2) overflows at p=1.0"),
    ((1.0, 1e200, 0.7, 0.3), "energy sqrt(p^2+m^2) overflows at p=1e+200"),
    ((1e100, 1.0, 0.7, 0.3), "m^4 at m=1e+100 is outside the representable range"),
])
def test_a_kinematic_point_refuses_with_its_message(args, message):
    with pytest.raises(duals.KinematicsError) as caught:
        KinematicPoint(*args)
    assert str(caught.value) == message


def test_a_kinematic_point_takes_masses_up_to_where_m4_overflows():
    # Python's m ** 4 raises past the edge; below it the point keeps its terms
    edge = math.pow(sys.float_info.max, 0.25)
    refused = 0
    for m in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
        try:
            fourth = m ** 4
        except OverflowError:
            with pytest.raises(duals.KinematicsError, match="outside the representable range"):
                KinematicPoint(m, 1.0, 0.7, 0.3)
            refused += 1
        else:
            assert duals._terms(KinematicPoint(m, 1.0, 0.7, 0.3))[-1] == fourth
    assert 0 < refused < 3


def test_replacing_a_field_checks_the_record_again():
    k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
    with pytest.raises(duals.KinematicsError, match="mass must be positive, got -1.0"):
        k._replace(m=-1.0)
    assert k._replace(p=2.0).E == math.sqrt(5)  # E is derived again, never carried over
    assert KinematicPoint._make([3.0, 4.0, 0.7, 0.3]) == (3.0, 4.0, 0.7, 0.3, 5.0)
    assert copy.copy(k) == k and pickle.loads(pickle.dumps(k)) == k
    f = canonical_idempotent("real")
    with pytest.raises(ValueError, match="not idempotent"):
        f._replace(value=gamma(1))
    assert ideals.Idempotent._make([f.value]).residual == f.residual
