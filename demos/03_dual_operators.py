"""Dual operators at a kinematic point: Xi, the named family, Delta/Omega.

A dual spinor generalizes psi^dag gamma0 by an extra operator insertion.
The admissible insertions come in two equivalent parameterizations
(Delta and Omega), each pinned down by one matrix identity.
"""

import numpy as np

from spinorlab import (
    ELEMENT_NAMES,
    KinematicPoint,
    block_decompose,
    closed_form,
    delta_to_omega,
    dual_of,
    named_operator,
    omega_to_delta,
    random_delta,
    validate_delta,
    validate_omega,
    xi,
    xi_dagger,
)

np.set_printoptions(precision=3, suppress=True)

k = KinematicPoint(m=1.0, p=1.0, theta=np.pi / 2, phi=0.0)
print("on-shell point:", k.as_dict())

# Xi is an involution on shell and g0-conjugate to its own adjoint.
x = xi(k)
print("\nXi^2 = I residual:", abs(x @ x - np.eye(4)).max())
print("Xi^dagger:")
print(xi_dagger(k))

# Each named operator is defined by an expression in gamma0 and Xi and
# has an entrywise closed form; the two agree at every on-shell point.
for name in ELEMENT_NAMES:
    residual = abs(named_operator(name, k) - closed_form(name, k)).max()
    print(f"{name:>10s}: expression vs closed form residual {residual:.2e}")

# Delta matrices carry a block pattern [[A, B], [C, A^dag]] with B, C
# Hermitian; random_delta samples it directly.
delta = random_delta(7)
print("\nrandom Delta validates:", bool(validate_delta(delta)))
blocks = block_decompose(delta)
print("block hermiticity residual:", blocks.hermiticity_residual())
print("degrees of freedom:", blocks.degrees_of_freedom())

# The Omega picture is related by Delta = g0 Omega g0 Xi; conversions
# preserve validity and determinants.
omega = delta_to_omega(delta, k)
print("converted Omega validates:", bool(validate_omega(omega, k)))
print("roundtrip residual:", abs(omega_to_delta(omega, k) - delta).max())

# Finally the dual map itself: a row covector psi^dag g0 Xi Omega.
psi = np.array([1.0, 0.0, 0.0, 0.0])
dual = dual_of(psi, np.eye(4), k)
print("\ndual of (1,0,0,0) with Omega = I:", dual)
print("pairing with (0,0,1,0):", complex(dual @ np.array([0, 0, 1.0, 0])))
