"""Lorentz/Mobius group decompositions and horizontal motion planning for
spherical snake configurations."""

from .lorentz import (
    LieElement,
    Membership,
    basis_Omega,
    block_l1_norm,
    boost_decompose,
    bracket,
    classify,
    embed,
    embed_lie,
    exp_h,
    factorize,
    kak_decompose,
    log_boost,
    lorentz_product,
    pseudo_adjoint,
)
from .planner import (
    GroupPath,
    LiftPath,
    SteerPath,
    act,
    boost_leg,
    commutator_probe,
    horizontal_lift,
    infinitesimal_action,
    lift_history,
    plan_group_path,
    rotation_leg,
    steer_config,
    steer_history,
    su11_geodesic,
)
from .rotations import RotationBlocks, skew_spectral, so_exp_blocks, so_log
from .snake import (
    SnakeConfig,
    critical_radii,
    differential_endpoint,
    endpoint,
    fit_horizontal,
    is_singular,
    snake_curve,
    snake_curve_matrix,
)
from .sphere import (
    INFINITY,
    bracket_rotation_flow,
    hyperbolic_distance,
    lorentz_to_hyperbolic,
    reflect_plane,
    reflect_sphere,
    stereographic,
    stereographic_inv,
    xi_bracket,
    xi_field,
)

__version__ = "0.1.0"
