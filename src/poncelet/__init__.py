"""Poncelet billiard twist map, rotation numbers of its invariant circles,
n-Poncelet pair counting, and continued-fraction growth estimates for
generic monotone twist families.

The public names below are resolved lazily (PEP 562): `import poncelet`
loads no submodule, and the first read of a name imports only the
submodule that defines it (`poncelet.cf_expand` loads `confrac` alone).
Only `twistfam` imports numpy at module level; elsewhere the functions
that build arrays load it, so counting pairs never does.  `twistfam`'s
import is kept on purpose: the benchmark's workers import `cli`,
`families`, `rotation` and `twistfam` after they report ready and before
their first timed operation, so numpy's import falls in no timed
staircase or growth operation and in no set-up sample, only in each
worker's peak memory.  A name is looked up on its submodule at each
read, so it is always that module's object.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in (
    ("confrac", ("FIB_RECIP", "ApproximationPair",
                 "ContinuedFractionExpansion", "RemainderRecord",
                 "cf_expand", "fibonacci_reciprocal_sum",
                 "find_balanced_pairs", "gauss_map", "k_epsilon",
                 "remainder_series", "second_order_bound")),
    ("families", ("MonotoneCircleFamily", "arnold_family",
                  "poncelet_family", "rigid_family")),
    ("geometry", ("PonceletConfig", "area_twist_check",
                  "generating_potential", "invariant_circle_phi",
                  "poncelet_map_analytic", "poncelet_map_geometric",
                  "twist_map")),
    ("kernels", ("BACKEND",)),
    ("lifts", ("ArnoldLift", "CircleLift", "FunctionLift", "PonceletLift",
               "RigidLift")),
    ("rotation", ("CountReport", "PonceletPair", "RotationEstimate",
                  "count_poncelet_pairs", "detect_rational_lock",
                  "euler_totient", "rotation_number", "solve_rotation",
                  "staircase", "verify_closure")),
    ("twistfam", ("comparison_check", "proposition1_check",
                  "second_order_estimate", "separation_alpha",
                  "twist_margin")),
) for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
