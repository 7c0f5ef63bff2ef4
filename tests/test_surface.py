"""The public surface: one invertibility threshold, fixed tolerances, and
every name the benchmark's tracer wraps."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from spinorlab import checks, duals, groups, ideals, multivector, quaternions, serialize, weyl
from spinorlab.duals import KinematicPoint, validate_delta, validate_omega
from spinorlab.groups import CapExceeded, generate_group
from spinorlab.multivector import scalar
from spinorlab.quaternions import Q_I, QuatMatrix2, Quaternion, mv_to_m2h, quaternionic_gamma
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
    (multivector, "basis_blade", "coeff"),
    (multivector, "blade", "coeff"),
    (serialize, "dump_json", "path"),
]


@pytest.mark.parametrize("module, name, param", FIXED)
def test_fixed_values_are_not_parameters(module, name, param):
    assert param not in inspect.signature(getattr(module, name)).parameters


def test_det_tol_is_defined_once():
    assert duals.DET_TOL is DET_TOL and groups.DET_TOL is DET_TOL
    assert checks.DET_TOL is DET_TOL and quaternions.DET_TOL is DET_TOL


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


def test_quaternionic_images_are_read_only():
    # The generator and blade images are shared and cached; an in-place edit
    # by a caller must not reach mv_to_m2h.
    for image in (quaternionic_gamma(1), mv_to_m2h(scalar(1)), QuatMatrix2.identity()):
        with pytest.raises(ValueError):
            image.q[0, 0, 0] = 7.0
    components = np.zeros((2, 2, 4))
    QuatMatrix2._of(components)
    components[0, 0, 0] = 1.0  # wrapping does not freeze the caller's array
