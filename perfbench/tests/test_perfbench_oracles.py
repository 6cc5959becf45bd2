"""The benchmark's oracle checker flags deliberately wrong results.

Run with: python -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from poncelet.families import poncelet_family  # noqa: E402
from poncelet.lifts import RigidLift  # noqa: E402
from poncelet.rotation import count_poncelet_pairs, rotation_number  # noqa: E402

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_rigid_estimate_against_shifted_value_is_flagged():
    locked = rotation_number(RigidLift(0.3))
    assert locked.error_radius == 0.0
    assert oracles.check_estimate(locked.value, 0.0, 0.3) is None
    assert oracles.check_estimate(locked.value, 0.0, 0.3 + 1e-9) is not None

    birkhoff = rotation_number(RigidLift(GOLDEN), tol=1e-4)
    radius = birkhoff.error_radius
    assert radius > 0.0
    assert oracles.check_estimate(birkhoff.value, radius, GOLDEN) is None
    assert oracles.check_estimate(birkhoff.value, radius,
                                  GOLDEN + 2.0 * radius) is not None


def test_pair_count_off_by_one_is_flagged():
    report = count_poncelet_pairs(poncelet_family(1.0, 0.3), 5)
    pairs = [(p.t, p.p, p.closure_residual) for p in report.pairs]
    assert oracles.check_count(1.0, 0.3, 5, pairs) is None
    assert oracles.check_count(1.0, 0.3, 5, pairs[:-1]) is not None
    assert oracles.check_count(1.0, 0.3, 5, pairs + pairs[:1]) is not None


def test_closure_residual_and_closed_form_radius_are_checked():
    t3 = oracles.euler_radius(1.0, 0.3)
    assert oracles.check_count(1.0, 0.3, 3, [(t3, 1, 1e-15)]) is None
    assert oracles.check_count(1.0, 0.3, 3, [(t3, 1, 2e-8)]) is not None
    assert oracles.check_count(1.0, 0.3, 3, [(t3 * (1 + 1e-6), 1, 0.0)]) \
        is not None
    t4 = oracles.fuss_radius(1.0, 0.3)
    assert oracles.check_count(1.0, 0.3, 4, [(t4, 1, 0.0)]) is None
    assert oracles.check_count(1.0, 0.3, 4, [(t3, 1, 0.0)]) is not None


def test_exit_code_1_where_2_is_documented_is_flagged():
    assert oracles.check_exit(oracles.EXIT_CONFIG, 2) is None
    assert oracles.check_exit(oracles.EXIT_CONFIG, 1) is not None
    cli = workloads.WORKLOADS["cli"]
    assert cli._check("cf-x-inf", 1, b"") is not None
    assert cli._check("staircase-points-1", 2, b"") is None


def test_staircase_false_tangency_lock_is_a_known_failure():
    c = 0.3
    points = [(0.0, "start", 0.5, 0.0),
              (oracles.euler_radius(1.0, c), "triangle", 1 / 3, 0.0),
              (1.0 - c, "end", 1 / 25, 0.0)]
    problems = oracles.check_staircase(1.0, c, points, [])
    assert problems[:2] == [None, None]
    assert problems[2] is not None
    case = {"c": c, "t": 1.0 - c, "label": "end"}
    assert oracles.known_defect("staircase", case, problems[2]) is not None
    interior = {"c": c, "t": 0.2, "label": "interior"}
    assert oracles.known_defect("staircase", interior, "wrong") is None


def test_monotone_violation_is_charged_to_its_later_point():
    points = [(0.0, "start", 0.5, 0.0), (0.5, "interior", 0.38, 1e-4),
              (0.6, "interior", 0.42, 1e-4)]
    problems = oracles.check_staircase(1.0, 0.3, points,
                                       [(0.5, 0.6, -0.04)])
    assert problems[:2] == [None, None]
    assert problems[2] is not None


def test_concentric_interior_uses_arccos_oracle():
    t = 0.37
    exact = math.acos(t) / math.pi
    ok = oracles.check_staircase(1.0, 0.0, [(t, "interior", exact, 1e-4)],
                                 [])
    bad = oracles.check_staircase(1.0, 0.0,
                                  [(t, "interior", exact + 3e-4, 1e-4)], [])
    assert ok == [None]
    assert bad[0] is not None


def test_cli_failures_other_than_documented_tracebacks_are_unexpected():
    problem = oracles.check_exit(oracles.EXIT_CONFIG, 1)
    assert oracles.known_defect(
        "cli", {"label": "cf-x-inf", "exit": 1}, problem) is not None
    assert oracles.known_defect(
        "cli", {"label": "orbit", "exit": 1}, problem) is None
    assert oracles.known_defect(
        "cli", {"label": "cf-x-inf", "exit": 3}, problem) is None


def test_growth_failure_is_known_only_for_the_tangency_image_error():
    case = {"label": "poncelet", "c": 0.19}
    image = ("raised NoSolutionError: target 0.38 outside estimated image "
             "[0.39, 0.5]")
    assert oracles.known_defect("growth", case, image) is not None
    assert oracles.known_defect("growth", case, "status 'inapplicable'") \
        is None
    assert oracles.known_defect("growth", {"label": "arnold"}, image) is None


def test_orbit_residual_column_is_checked():
    header = "k,theta,phi,x,y,residual"
    good = "\r\n".join([header, "0,0,0,0,0,0", "1,1,1,1,1,1e-12"])
    bad = "\r\n".join([header, "0,0,0,0,0,0", "1,1,1,1,1,1e-6"])
    assert oracles.check_orbit_csv(good, 1) is None
    assert oracles.check_orbit_csv(bad, 1) is not None
    assert oracles.check_orbit_csv(good, 2) is not None


def test_growth_must_apply_and_pass():
    assert oracles.check_growth("ok", True) is None
    assert oracles.check_growth("ok", False) is not None
    assert oracles.check_growth("inapplicable", False) is not None


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
        assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)
