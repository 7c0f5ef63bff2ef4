"""The public surface: one tolerance table, one invertibility test, fixed
tolerances, and every name the benchmark's tracer wraps."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import spinorlab
from spinorlab import duals, groups, ideals, multivector, quaternions, serialize, weyl
from spinorlab.duals import KinematicPoint, _delta_from, random_delta, validate_delta, validate_omega
from spinorlab.groups import CapExceeded, generate_group
from spinorlab.multivector import gamma, grade_projection, scalar
from spinorlab.quaternions import (
    Q_I, QuatMatrix2, Quaternion, intertwiner, mv_to_m2h, quaternionic_gamma,
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
    (ideals, "find_adjoint_element", "tries"),
    (ideals, "find_adjoint_element", "seed"),
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


def test_every_module_level_name_is_read_or_exported():
    # A name is read where it is loaded, by itself or as an attribute, anywhere
    # in the package; the package's __init__ re-exports what it imports.
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(Path(spinorlab.__file__).parent.glob("*.py"))}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}
    exported = {a.asname or a.name for n in trees["__init__.py"].body
                if isinstance(n, ast.ImportFrom) for a in n.names}
    unread = [f"{name}:{line} {ident}" for name, tree in trees.items()
              for ident, line in _defined_names(tree) if ident not in read | exported]
    assert not unread


def _members(cls) -> list:
    """Non-dunder methods, properties and dataclass fields of ``cls``, its
    package bases included."""
    own = [vars(c) for c in cls.__mro__ if c.__module__.startswith("spinorlab")]
    members = {name for body in own for name, value in body.items()
               if callable(value) or isinstance(value, (property, classmethod, staticmethod))}
    if dataclasses.is_dataclass(cls):
        members |= {f.name for f in dataclasses.fields(cls)}
    return sorted(m for m in members if not (m.startswith("__") and m.endswith("__")))


ROOT = Path(__file__).parents[1]


def _reads(tops, skip=()) -> tuple:
    """(attributes, names): the identifiers loaded as an attribute and as a
    bare name in the Python files under ``tops``, less ``skip``.  Each part
    of a string literal that names a dotted identifier (getattr, monkeypatch,
    the tracer's "Class.method") counts as an attribute."""
    attributes, names = set(), set()
    for path in sorted(p for top in tops for p in (ROOT / top).rglob("*.py")):
        if path in skip:
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                attributes.add(n.attr)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and all(
                    part.isidentifier() for part in n.value.split(".")):
                attributes.update(n.value.split("."))
    return attributes, names


def test_every_member_of_an_exported_class_is_read():
    # A member is read where it is loaded as an attribute, or where a string
    # literal names it.
    read, _ = _reads(("src", "tests", "demos", "perfbench"))
    classes = [(name, value) for name, value in vars(spinorlab).items()
               if inspect.isclass(value) and not name.startswith("_")]
    assert len(classes) > 10
    unread = [f"{name}.{member}" for name, cls in classes
              for member in _members(cls) if member not in read]
    assert not unread


def test_every_exported_name_is_read_outside_the_tests():
    # The package's __init__ only re-exports; a name that only tests read is
    # surface that no command, demo, benchmark or tool needs.
    init = ROOT / "src" / "spinorlab" / "__init__.py"
    exported = [a.asname or a.name for n in ast.parse(init.read_text()).body
                if isinstance(n, ast.ImportFrom) for a in n.names]
    assert len(exported) > 80
    attributes, names = _reads(("src", "demos", "perfbench", "tools"), skip={init})
    assert [name for name in exported if name not in attributes | names] == []


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


def test_quat_matrix_times_a_quaternion_multiplies_each_entry_on_the_right():
    m = QuatMatrix2(Quaternion(1, 2, 3, 4), Quaternion(0.5, -1, 0, 2),
                    Quaternion(-3, 0, 1, 1), Quaternion(0, 0, -2, 0.25))
    product = m * Q_I
    assert isinstance(product, QuatMatrix2)
    assert product.entries() == tuple(q * Q_I for q in m.entries())
    assert (m * 2).entries() == (2 * m).entries() == tuple(q * 2 for q in m.entries())
    with pytest.raises(TypeError):
        m * "2"


def test_a_quaternion_times_a_quat_matrix_multiplies_each_entry_on_the_left():
    m = QuatMatrix2(Quaternion(1, 2, 3, 4), Quaternion(0.5, -1, 0, 2),
                    Quaternion(-3, 0, 1, 1), Quaternion(0, 0, -2, 0.25))
    product = Q_I * m
    assert isinstance(product, QuatMatrix2)
    assert product.entries() == tuple(Q_I * q for q in m.entries())
    assert product.entries() != (m * Q_I).entries()
    for bad in (1j, "2"):
        with pytest.raises(TypeError):
            Q_I * bad
    assert 2 * Q_I == Q_I * 2 == Q_I * np.float64(2) == Quaternion(0, 2)
    assert (2.5 * m).entries() == (m * 2.5).entries() == tuple(q * 2.5 for q in m.entries())


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
    (lambda i: grade_projection(gamma(0) + gamma(1) * gamma(2), i), 5,
     "grade 5 out of range 0..4"),
    (lambda i: (gamma(0) + 2 * gamma(1)).coefficient(i), 16, None),  # no such blade: 0
], ids=["gamma", "weyl_gamma", "quaternionic_gamma", "grade_projection", "coefficient"])
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
