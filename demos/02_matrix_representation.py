"""The isomorphism with 4x4 complex matrices, and the gamma0-adjoint.

The Weyl (chiral) representation sends each generator to a
block-antidiagonal matrix built from Pauli blocks; every multivector
then becomes a dense matrix.  The adjoint fixed-point checks of
``spinorlab verify-theorems`` rest on this representation.
"""

import numpy as np

from spinorlab import blade, checks, gamma, scalar, to_matrix, weyl_gamma

np.set_printoptions(precision=3, suppress=True)

print("gamma^0 in the Weyl representation:")
print(weyl_gamma(0).real)
print("\ngamma^3 (Pauli blocks on the antidiagonal):")
print(weyl_gamma(3).real)

# The chiral element lands on the chirality projector's diagonal form.
print("\nmatrix of i*e0123:", np.diag(to_matrix(1j * blade((0, 1, 2, 3)))).real)

# to_matrix is an algebra homomorphism.
a = scalar(0.5) + gamma(1) - 2j * blade((0, 2)) + 0.25 * blade((1, 2, 3))
b = gamma(0) + 3 * blade((2, 3)) + 1j * blade((0, 1, 2, 3))
hom = abs(to_matrix(a * b) - to_matrix(a) @ to_matrix(b)).max()
print("\nhomomorphism residual on a mixed pair:", hom)

# The gamma0-adjoint a -> g0 a^dag g0 fixes exactly the real span of the
# self-adjoint blades (plain blades on grades 0, 1, 4; i times the blades
# on grades 2 and 3).  verify-theorems draws 100 such combinations at its
# default seed 0 and measures how far the adjoint moves each; it then adds
# 1e-6 i times a second one, which the adjoint must be seen to move.  Its
# block-pattern checks draw first (demo 03 shows them), so this draws them
# too, and the residuals are the command's own.
rng = np.random.default_rng(0)
checks.block_pattern(rng, 100)
checks.generic_acceptance(rng, 100)
print("\nverify-theorems, adjoint fixed points:")
for c in checks.adjoint_fixed_points(rng, 100):
    print(f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
          f"  tolerance={c['tolerance']:.1e}")
