"""The quaternionic picture: Cl(1,3) as 2x2 quaternionic matrices.

Quaternions embed in M2(C), quaternionic 2x2 matrices embed in M4(C),
and real multivectors have a faithful quaternionic image.  A single
change of basis relates that image to the Weyl representation.  The
checks below are those of ``spinorlab embed``, drawn in its order at its
default seed 0 and 100 trials, so their residuals are the command's own.
"""

import numpy as np

from spinorlab import (
    QuatMatrix2,
    checks,
    gamma,
    gl2h_embed,
    intertwiner,
    is_quaternionic_pattern,
    pattern_dof,
    quaternionic_gamma,
    scalar,
    to_matrix,
)

np.set_printoptions(precision=3, suppress=True)


def show(*verdicts):
    for c in verdicts:
        print(f"  {c['status'].upper()}  {c['name']}  residual={c['residual']:.3e}"
              f"  tolerance={c['tolerance']:.1e}")


rng = np.random.default_rng(0)

# Real multivectors map to M2(H) through generator images
# g0 -> diag(1,-1), gk -> offdiag(i/j/k); the relations hold exactly.
print("quaternionic gamma0:", repr(quaternionic_gamma(0)))
show(checks.clifford_relations())

# The scalar embedding H -> M2(C) sends i to diag(i, -i) and j to
# [[0, 1], [-1, 0]]; blockwise, GL(2,H) lands inside GL(4,C), and the
# embedding is multiplicative.
embedded = gl2h_embed(QuatMatrix2([[(0, 1, 0, 0), (0, 0, 1, 0)], [(0, 0, 0, 0), (1, 0, 0, 0)]]))
print("\nembedded [[i, j], [0, 1]]:")
print(embedded)
show(checks.gl2h_homomorphism(rng, 100))

# The image has a conjugate-pair pattern, which a generic complex matrix
# does not.
print("\nmatches the conjugate-pair pattern:", bool(is_quaternionic_pattern(embedded)))
print("pattern degrees of freedom:", pattern_dof())
show(checks.pattern_dimension(), checks.pattern_mistakes(rng, 100))

# Invertibility transports across the embedding; zero divisors stay singular.
zero_divisor = scalar(1) + gamma(0)
print("\ndet of (1 + gamma0) in M4(C):", abs(np.linalg.det(to_matrix(zero_divisor))))
show(checks.invertibility_transported(rng, 100))

# The even subalgebra is block diagonal in the Weyl representation, and
# its upper 2x2 block alone is a faithful image of it in M2(C).
show(checks.even_block_multiplicativity(rng, 100))

# One fixed change of basis aligns the two 4x4 pictures.
print("\nintertwiner S:")
print(intertwiner())
show(checks.intertwined_representations(rng, 100))
