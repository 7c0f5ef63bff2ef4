"""Groups of dual mappings and orbit classification of dual spinors.

Sets of Omega operators close into a group exactly when they commute.
Two order-4 Klein groups arise from the named operators; the H family
generates an infinite group, which the trace of H proves at once.
"""

import numpy as np

from spinorlab import (
    CapExceeded,
    KinematicPoint,
    blade,
    check_abelian_closure,
    delta_to_omega,
    exp_bivector,
    gamma,
    generate_group,
    group_from_elements,
    identify_group,
    membership,
    named_operator,
    orbit_partition,
    random_delta,
    twisted_adjoint,
)

k = KinematicPoint(1.0, 1.0, 0.7, 0.3)
g = named_operator("G", k)
f = named_operator("F", k)

# Commutation is the whole story for closure.
print("does {I, G, F, FG} commute pairwise?",
      bool(check_abelian_closure([np.eye(4), g, f, f @ g], k)))
om1 = delta_to_omega(random_delta(0), k)
om2 = delta_to_omega(random_delta(1), k)
print("do two random valid Omegas commute? ",
      bool(check_abelian_closure([om1, om2], k)))

# Generate from {G, F} and identify the result.
group = generate_group([g, f], labels=["G", "F"])
ident = identify_group(group)
print(f"\ngenerated group: order {group.order}, identified as {ident.name}")

labeled = group_from_elements([np.eye(4), g, f, f @ g], ["I", "G", "F", "FG"])
print("Cayley table of", labeled.labels)
print(labeled.table)

# |tr H| > 4, so H has infinite order and generation stops with a witness.
try:
    generate_group([named_operator("H", k)], cap=64, labels=["H"])
except CapExceeded as stop:
    print("H family:", stop)

# Orbits: duals related by a group element share a class.
rng = np.random.default_rng(2)
psi = rng.normal(size=4) + 1j * rng.normal(size=4)
duals = [psi, psi @ f, rng.normal(size=4) + 0j]
partition = orbit_partition(labeled, duals)
print("\norbit classes:", partition.classes)
print("orbit sizes:  ", partition.orbit_sizes)

# The Clifford group hierarchy, probed with a rotor.
rotor = exp_bivector(0.4 * blade((1, 2)) + 0.2 * blade((0, 3)))
flags = membership(rotor)
print("\nrotor membership:", flags)
print("its Lorentz matrix:")
print(np.round(twisted_adjoint(rotor), 3))
print("x and -x project to the same matrix:",
      np.allclose(twisted_adjoint(rotor), twisted_adjoint(-1 * rotor)))
g0_flags = membership(gamma(0))
print("gamma0 is Pin but not Spin:", g0_flags.in_pin and not g0_flags.in_spin)
