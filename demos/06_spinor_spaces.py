"""Algebraic spinor spaces: ideals over idempotents and the beta product.

A primitive idempotent f carves out a minimal left ideal Cl·f (the spinor
space); f·Cl·f is its ring of scalars, and a compatible involution alpha
with element h defines the inner product beta(psi, phi) = h alpha(psi) phi f.
The values and checks below are those of ``spinorlab spinor-spaces`` at its
default seed 0 and 100 trials, so their residuals are the command's own.
"""

import numpy as np

from spinorlab import (
    Idempotent,
    checks,
    division_ring_identify,
    gamma,
    scalar,
    verify_involution_conditions,
)


def show(*names):
    for name in names:
        c = verdicts[name]
        print(f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
              f"  tolerance={c['tolerance']:.1e}")


verdicts = {c["name"]: c for c in checks.spinor_spaces(np.random.default_rng(0), 100)}
(fc, fr, rank, complex_left, complex_right, real_left, ring_c, ring_r,
 involutions) = checks.spinor_space_structure()

print("complex idempotent:", fc.value)
print("its Weyl matrix has rank", rank)
print("real idempotent:   ", fr.value)
show("complex-idempotency", "complex-projector-rank-1", "real-idempotency")

# Ideal dimensions: 4 over C for the rank-1 projector, 8 over R for the
# real idempotent.
print("\ndim_C Cl*fc =", complex_left.dimension)
print("dim_C fc*Cl =", complex_right.dimension)
print("dim_R Cl*fr =", real_left.dimension, "with basis")
for g in real_left.generators:
    print("   ", g)
show("ideal-dimension-complex-left", "ideal-dimension-complex-right",
     "ideal-dimension-real-left")

# The spinor scalars: C for the complex idempotent, quaternions for the
# real one, and the unit element is not primitive at all.
print("\nring of fc over C:", ring_c.name)
print("ring of fr over R:", ring_r.name, "(dimension", ring_r.dimension, ")")
print("f = 1 over R:     ", division_ring_identify(Idempotent(scalar(1)), "real").name)
show("division-ring-complex-is-C", "division-ring-real-is-H")

# Adjoint involutions: reversion pairs with h = 1 or h = gamma0 for the
# real idempotent; the grade involution does not pair with h = 1.
one = scalar(1)
print("\n(reversion, h=1) compatible:     ", verify_involution_conditions("reversion", one, fr))
print("(grade, h=1) compatible:         ", verify_involution_conditions("grade", one, fr))
print("(reversion, h=gamma0) compatible:", verify_involution_conditions("reversion", gamma(0), fr))
show("involution-conditions")

# beta lands in the scalar ring, and for the gamma0-adjoint with h = gamma0
# it reduces to psi^dag h phi f in the matrix picture; psi and phi are drawn
# from the left ideal of fr.
show("beta-in-ring", "beta-matches-matrix-adjoint")
