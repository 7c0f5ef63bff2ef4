"""The public surface: one invertibility threshold, and fixed tolerances."""

import inspect

import numpy as np
import pytest

from spinorlab import checks, duals, groups, ideals, multivector, quaternions, serialize, weyl
from spinorlab.duals import KinematicPoint, validate_delta, validate_omega
from spinorlab.groups import CapExceeded, generate_group
from spinorlab.multivector import scalar
from spinorlab.weyl import DET_TOL, multivector_inverse

#: (module, function, parameter) that are fixed values, not options
FIXED = [
    (weyl, "multivector_inverse", "det_tol"),
    (duals, "validate_delta", "tol"),
    (duals, "block_decompose", "tol"),
    (groups, "check_abelian_closure", "tol"),
    (groups, "generate_group", "tol"),
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
    assert checks.DET_TOL is DET_TOL


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
