"""spinorlab: a computational laboratory for generalized spinor duals.

Multivector arithmetic in C ⊗ Cl(1,3), the Weyl matrix representation,
momentum-dependent dual operators with their validity laws, Abelian
mapping groups and orbit classification, quaternionic embeddings, and
algebraic spinor spaces.  The package exports what the demos and the
benchmark use; everything else is imported from its module, so
``spinorlab.serialize.load_json`` needs ``import spinorlab.serialize`` first.
"""

__version__ = "0.1.0"

from .multivector import (
    Multivector,
    blade,
    coefficient_distance,
    gamma,
    gamma5_chiral,
    grade_projection,
    hermitian_blade,
    involution,
    pseudoscalar,
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
    ELEMENT_NAMES,
    InvalidOperatorError,
    KinematicPoint,
    KinematicsError,
    SingularParameterError,
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
    Q_I,
    Q_J,
    Q_ONE,
    QuatMatrix2,
    Quaternion,
    even_to_m2c,
    gl2h_embed,
    intertwiner,
    is_quaternionic_pattern,
    mv_to_m2h,
    pattern_dof,
    quat_to_m2c,
    quaternionic_gamma,
)
from .ideals import (
    Idempotent,
    InvolutionConditionError,
    beta_inner_product,
    canonical_idempotent,
    division_ring_identify,
    find_adjoint_element,
    ideal_basis,
    project_onto_ideal,
    ring_membership_residual,
    verify_involution_conditions,
)
