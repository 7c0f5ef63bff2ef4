"""Dual operators at a kinematic point: Xi, the named family, Delta/Omega.

A dual spinor generalizes psi^dag gamma0 by an extra operator insertion.
The admissible insertions come in two equivalent parameterizations
(Delta and Omega), each pinned down by one matrix identity.  The checks
below are those of ``spinorlab table1``, ``verify-theorems`` and ``dual``
at their defaults, so their residuals are the commands' own.
"""

import numpy as np

from spinorlab import (
    KinematicPoint,
    checks,
    dual_of,
    named_operator,
    random_delta,
    validate_delta,
    validate_omega,
    xi,
    xi_dagger,
)
from spinorlab.weyl import IDENTITY_TOL, VALIDATION_TOL

np.set_printoptions(precision=3, suppress=True)


def show(*verdicts):
    for c in verdicts:
        print(f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
              f"  tolerance={c['tolerance']:.1e}")


k = KinematicPoint(m=1.0, p=1.0, theta=0.7, phi=0.3)  # the commands' default point
print("on-shell point:", k.as_dict())

# Xi is an involution on shell and g0-conjugate to its own adjoint.
x = xi(k)
print("\nXi^2 = I residual:", abs(x @ x - np.eye(4)).max())
print("Xi^dagger:")
print(xi_dagger(k))

# Each named operator is defined by an expression in gamma0 and Xi and
# has an entrywise closed form; table1 compares the two at k and at 100
# drawn on-shell points, and reports the operators at k.
print("\ntable1:")
show(*checks.operator_residuals(np.random.default_rng(0), 100, k, IDENTITY_TOL))
print("G at k:")
print(named_operator("G", k))

# Delta matrices carry a block pattern [[A, B], [C, A^dag]] with B, C
# Hermitian; random_delta samples it directly, and a generic complex
# matrix is no Delta.
print("\nrandom Delta validates:", bool(validate_delta(random_delta(7))))
print("verify-theorems, block pattern:")
rng = np.random.default_rng(0)
show(*checks.block_pattern(rng, 100), checks.generic_acceptance(rng, 100))
checks.adjoint_fixed_points(rng, 100)  # drawn next in the command; demo 02 shows them

# The Omega picture is related by Delta = g0 Omega g0 Xi.  Products of
# commuting Omegas and inverses stay valid, a non-commuting product is
# detected, and the conversion keeps determinants.  At seed 0 the inverse
# check fails, a known defect: its tolerance is absolute, and the inverse of
# one ill-conditioned drawn Omega exceeds it (the verify-seed-0 row of
# tests/test_known_defects.py).
print("verify-theorems, closure:")
show(*checks.closure(rng, 100, k))

# Finally the dual map itself, as the dual command computes it: Omega is
# validated, then the row covector psi^dag g0 Xi Omega is formed.
psi, omega = np.array([1.0, 0.0, 0.0, 0.0]), np.eye(4, dtype=complex)
check = validate_omega(omega, k, VALIDATION_TOL)
print("\ndual:")
show(checks.verdict("omega-validity", check.residual, VALIDATION_TOL))
dual = dual_of(psi, omega, k, check=check)
print("dual of (1,0,0,0) with Omega = I:", dual)
print("pairing with (0,0,1,0):", complex(dual @ np.array([0, 0, 1.0, 0])))
