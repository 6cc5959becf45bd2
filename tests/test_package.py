"""The package's public names: resolved on first use, each the object its
submodule defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poncelet

# the names `poncelet` exported when its __init__ imported every submodule
PUBLIC = {
    "confrac": ["FIB_RECIP", "ApproximationPair",
                "ContinuedFractionExpansion", "RemainderRecord", "cf_expand",
                "fibonacci_reciprocal_sum", "find_balanced_pairs",
                "gauss_map", "k_epsilon", "remainder_series",
                "second_order_bound"],
    "families": ["MonotoneCircleFamily", "arnold_family", "poncelet_family",
                 "rigid_family"],
    "geometry": ["PonceletConfig", "area_twist_check", "generating_potential",
                 "invariant_circle_phi", "poncelet_map_analytic",
                 "poncelet_map_geometric", "twist_map"],
    "kernels": ["BACKEND"],
    "lifts": ["ArnoldLift", "CircleLift", "FunctionLift", "PonceletLift",
              "RigidLift"],
    "rotation": ["CountReport", "PonceletPair", "RotationEstimate",
                 "count_poncelet_pairs", "detect_rational_lock",
                 "euler_totient", "rotation_number", "solve_rotation",
                 "staircase", "verify_closure"],
    "twistfam": ["comparison_check", "proposition1_check",
                 "second_order_estimate", "separation_alpha", "twist_margin"],
}
NAMES = sorted((module, name) for module, names in PUBLIC.items()
               for name in names)


@pytest.mark.parametrize("module, name", NAMES,
                         ids=[name for _, name in NAMES])
def test_public_name_is_its_submodules_object(module, name):
    home = importlib.import_module(f"poncelet.{module}")
    assert getattr(poncelet, name) is getattr(home, name)


def test_public_names_are_listed():
    names = {name for _, name in NAMES}
    assert set(poncelet.__all__) == names
    assert names <= set(dir(poncelet))
    assert "__version__" in dir(poncelet)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        poncelet.no_such_name


def test_import_loads_no_numpy_until_a_numeric_name_is_read():
    code = ("import sys, poncelet\n"
            "print('numpy' in sys.modules)\n"
            "poncelet.cf_expand\n"
            "print('numpy' in sys.modules)\n"
            "print(poncelet.rotation_number(poncelet.RigidLift(0.5)).lock)\n"
            "print('numpy' in sys.modules)\n")
    # a fresh process importing the same package as this test run
    src = Path(poncelet.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout.split("\n")[:4] == ["False", "False", "(1, 2)", "True"]
