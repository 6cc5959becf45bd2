"""Poncelet billiard twist map, rotation numbers of its invariant circles,
n-Poncelet pair counting, and continued-fraction growth estimates for
generic monotone twist families."""

from .confrac import (
    FIB_RECIP,
    ApproximationPair,
    ContinuedFractionExpansion,
    RemainderRecord,
    cf_expand,
    fibonacci_reciprocal_sum,
    find_balanced_pairs,
    gauss_map,
    k_epsilon,
    remainder_series,
    second_order_bound,
)
from .families import MonotoneCircleFamily, arnold_family, poncelet_family, rigid_family
from .geometry import (
    PonceletConfig,
    area_twist_check,
    generating_potential,
    invariant_circle_phi,
    poncelet_map_analytic,
    poncelet_map_geometric,
    twist_map,
)
from .kernels import BACKEND
from .lifts import ArnoldLift, CircleLift, FunctionLift, PonceletLift, RigidLift
from .rotation import (
    CountReport,
    PonceletPair,
    RotationEstimate,
    count_poncelet_pairs,
    detect_rational_lock,
    euler_totient,
    rotation_number,
    solve_rotation,
    staircase,
    verify_closure,
)
from .twistfam import (
    comparison_check,
    proposition1_check,
    second_order_estimate,
    separation_alpha,
    twist_margin,
)

__version__ = "0.1.0"
