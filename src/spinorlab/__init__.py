"""spinorlab: a computational laboratory for generalized spinor duals.

Multivector arithmetic in C ⊗ Cl(1,3), the Weyl matrix representation,
momentum-dependent dual operators with their validity laws, Abelian
mapping groups and orbit classification, quaternionic embeddings, and
algebraic spinor spaces.

The package exports the names that the demos and the benchmark take from it,
and the exceptions that its functions raise, so that a caller can catch them.
A few more stay exported though no demo takes them: the functions that the
benchmark's tracer wraps and nothing in the package calls, which go once the
tracer can lose them, ``hermitian_blade``, which the acceptance tests use, and
``GAMMA0``, the documented gamma0 convention; ``tests/test_surface.py`` lists
each with its reason.  Everything else is imported from its module, so
``spinorlab.serialize.load_json`` needs ``import spinorlab.serialize`` first.
"""

__version__ = "0.1.0"

from .multivector import (
    Multivector,
    blade,
    coefficient_distance,
    gamma,
    hermitian_blade,
    involution,
    random_multivector,
    scalar,
)
from .weyl import (
    GAMMA0,
    dirac_dagger_dual,
    from_matrix,
    to_matrix,
    weyl_gamma,
)
from .duals import (
    InvalidOperatorError,
    KinematicPoint,
    KinematicsError,
    block_decompose,
    delta_to_omega,
    dual_of,
    named_operator,
    random_delta,
    validate_delta,
    validate_omega,
    xi,
    xi_dagger,
)
from .groups import (
    CapExceeded,
    check_abelian_closure,
    exp_bivector,
    generate_group,
    group_from_elements,
    identify_group,
    membership,
    orbit_partition,
    twisted_adjoint,
)
from .quaternions import (
    QuatMatrix2,
    even_to_m2c,
    gl2h_embed,
    intertwiner,
    is_quaternionic_pattern,
    mv_to_m2h,
    pattern_dof,
    quaternionic_gamma,
)
from .ideals import (
    Idempotent,
    InvolutionConditionError,
    beta_inner_product,
    division_ring_identify,
    ring_membership_residual,
    verify_involution_conditions,
)
