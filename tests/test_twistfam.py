"""Twist-in-parameter analysis: margins, separations, comparison checks,
monotonicity, and the second-order growth estimate."""

import math
import warnings

import numpy as np
import pytest

from poncelet.confrac import second_order_bound
from poncelet.families import (
    MonotoneCircleFamily,
    arnold_family,
    poncelet_family,
    rigid_family,
)
from poncelet import twistfam
from poncelet.lifts import ArnoldLift, LiftContractError, RigidLift
from poncelet.twistfam import (
    SEPARATION_X_SAMPLES,
    TwistConditionError,
    comparison_check,
    proposition1_check,
    second_order_estimate,
    separation_alpha,
    twist_margin,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ------------------------------------------------------------- twist margin

def test_arnold_margin_is_one():
    family = arnold_family(0.6)
    margin = twist_margin(family, np.linspace(family.a, family.b, 17))
    assert margin == 1.0


def test_quadratic_rigid_margin():
    # alpha(t) = t^2 + t, inf of 2t + 1 on [0, 1] is 1
    def lift(t):
        return RigidLift(t * t + t)

    family = MonotoneCircleFamily(0.0, 1.0, lift, lift,
                                  dgdt=lambda t, x: 2.0 * t + 1.0)
    assert twist_margin(family, np.linspace(family.a, family.b, 17)) == \
        pytest.approx(1.0, abs=1e-12)


def test_poncelet_reversed_margin_matches_arccos_derivative():
    # reversed concentric family: g_s(x) = x + arccos((1 - s))/pi, so
    # dg/ds = 1/(pi sqrt(1 - (1-s)^2))
    family = poncelet_family(1.0, 0.0, reverse=True)
    for s in (0.3, 0.5, 0.8):
        want = 1.0 / (math.pi * math.sqrt(1.0 - (1.0 - s) ** 2))
        got = family.dgdt(s, 0.1)
        assert got == pytest.approx(want, rel=1e-12)
    margin = twist_margin(family,
                          t_grid=np.linspace(0.2, 1.0, 9))
    assert margin == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("R, c, t", [(1.0, 0.3, 0.4), (2.0, 0.9, 0.7),
                                     (1.5, 0.2, 1.1), (1.0, 0.6, 0.05)])
def test_poncelet_dgdt_matches_centred_difference(R, c, t, reverse):
    family = poncelet_family(R, c, reverse=reverse)
    xs = np.array([0.0, 0.1, 0.37, 0.5, 0.8])
    h = 1e-6
    want = [(family.lift(t + h)(x) - family.lift(t - h)(x)) / (2.0 * h)
            for x in xs]
    assert family.dgdt(t, xs) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("c", [0.0, 0.3, 0.9])
def test_reversed_family_is_the_forward_one_at_r_minus_c_minus_s(c):
    # parameter s of the reversed family is inner radius t = R - c - s:
    # the same lift, bit for bit, and exactly the negated dg/dt.  Forward,
    # the parameter is the inner radius itself, signed zeros included.
    R, b = 1.0, 1.0 - c
    forward = poncelet_family(R, c)
    flipped = poncelet_family(R, c, reverse=True)
    for t in (-0.0, 0.0, 0.3 * b, b):
        assert forward.lift(t).cfg.t.hex() == t.hex()
    grid = [0.0, 0.375, -0.7, 1.9, 123.456]
    xs = np.linspace(0.0, 1.0, 512, endpoint=False)
    for s in (0.0, 0.1 * b, 0.5 * b, 0.77 * b, b):
        g, h = flipped.lift(s), forward.lift(b - s)
        assert g.cfg == (R, c, b - s)
        assert [g(x).hex() for x in grid] == [h(x).hex() for x in grid]
        assert g.orbit_table(xs, 8).tobytes() == h.orbit_table(xs, 8).tobytes()
        assert [v.hex() for v in flipped.dgdt(s, xs).tolist()] == \
            [(-v).hex() for v in forward.dgdt(b - s, xs).tolist()]


def test_poncelet_dgdt_is_infinite_at_tangency():
    # S = 0 at x = 0 on internal tangency, and at every x when c = 0
    xs = np.linspace(0.0, 1.0, 8, endpoint=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poncelet_family(1.0, 0.3, reverse=True).dgdt(0.0, 0.0) \
            == math.inf
        assert poncelet_family(1.0, 0.3).dgdt(0.7, 0.0) == -math.inf
        # a grid end rounded past R - c is clamped, as the lift is
        assert poncelet_family(1.0, 0.3).dgdt(0.7 + 1e-13, 0.0) == -math.inf
        assert np.all(poncelet_family(1.0, 0.0, reverse=True).dgdt(0.0, xs)
                      == math.inf)


@pytest.mark.parametrize("family", [poncelet_family(1e-200, 0.0),
                                    rigid_family(0.0, 1e-20),
                                    rigid_family()],
                         ids=["poncelet-1e-200", "rigid-1e-20", "rigid-1"])
def test_lift_slack_is_relative_to_the_interval_width(family):
    # a parameter within 1e-12 (b - a) outside [a, b] is clamped onto it;
    # an absolute 1e-12 would take in all of a 1e-200-wide interval
    w = family.b - family.a
    for end, side in ((family.a, -1.0), (family.b, 1.0)):
        assert family.lift(end + side * 0.5e-12 * w)(0.25) == \
            family.lift(end)(0.25)
        with pytest.raises(ValueError, match="outside"):
            family.lift(end + side * 2e-12 * w)
    if w < 1e-12:
        with pytest.raises(ValueError, match="outside"):
            family.lift(1e-13)


FAMILIES = {f"poncelet-{c}{'-reversed' * reverse}":
            poncelet_family(1.0, c, reverse=reverse)
            for c in (0.0, 0.3, 0.9) for reverse in (False, True)}
FAMILIES.update({"arnold-0.5": arnold_family(0.5),
                 "arnold-0.9": arnold_family(0.9), "rigid": rigid_family()})


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_family_step_is_the_lifts_step(family):
    # step(t) is the bare scalar step that lift(t) wraps: the same bits
    xs = np.linspace(-0.7, 1.9, 27).tolist()
    for t in (family.a, 0.37 * family.a + 0.63 * family.b, family.b):
        step, g = family.step(t), family.lift(t)
        assert [step(x).hex() for x in xs] == [g(x).hex() for x in xs]


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_step_and_dgdt_reject_the_parameters_the_lift_rejects(family):
    # one range check serves all three; dgdt used to clamp any t, and gave
    # nan for a nan t
    w = family.b - family.a
    for t in (family.a - 2e-12 * w, family.b + 2e-12 * w, -1.0, 5.0,
              math.nan):
        with pytest.raises(ValueError, match="outside") as want:
            family.lift(t)
        for method in (family.step, lambda t: family.dgdt(t, 0.25)):
            with pytest.raises(ValueError) as got:
                method(t)
            assert str(got.value) == str(want.value)


def test_margin_rejects_a_parameter_outside_the_interval():
    # t = 5.0 was read as b = 0.7 (margin 0.2449), and a nan t as a nan
    # sample, reported as a failed twist condition
    family = poncelet_family(1.0, 0.3, reverse=True)
    for t in (5.0, math.nan):
        with pytest.raises(ValueError, match="outside"):
            twist_margin(family, [0.1, t])


def test_arnold_family_rejects_an_invalid_k_up_front():
    # its step does not check K, so the family does, as the lift would
    with pytest.raises(LiftContractError, match="0 <= K <= 1"):
        arnold_family(1.5)


def test_margin_rejects_non_twist_family():
    def lift(t):
        return RigidLift(-t)

    family = MonotoneCircleFamily(0.0, 1.0, lift, lift,
                                  dgdt=lambda t, x: -1.0)
    with pytest.raises(TwistConditionError):
        twist_margin(family, np.linspace(family.a, family.b, 17))


def test_margin_rejects_nan_samples():
    family = MonotoneCircleFamily(
        0.0, 1.0, RigidLift, RigidLift,
        lambda t, x: np.where(x > 0.5, math.nan, 1.0))
    with pytest.raises(TwistConditionError):
        twist_margin(family, np.linspace(family.a, family.b, 17))


def test_margin_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        twist_margin(rigid_family(), t_grid=[])


# -------------------------------------------------------------- separation

def test_rigid_separation_is_shift_difference():
    assert separation_alpha(RigidLift(0.3), RigidLift(0.5)) == \
        pytest.approx(0.2, abs=1e-15)


def test_arnold_separation_is_parameter_difference():
    assert separation_alpha(ArnoldLift(0.2, 0.5), ArnoldLift(0.35, 0.5)) == \
        pytest.approx(0.15, abs=1e-15)


def test_separation_rejects_unordered_pair():
    with pytest.raises(TwistConditionError):
        separation_alpha(RigidLift(0.5), RigidLift(0.3))


def test_separation_rejects_nan_image():
    with pytest.raises(TwistConditionError):
        separation_alpha(RigidLift(0.3), RigidLift(math.nan))


def test_lower_separation_inequality():
    # g_{t2}(x) - g_{t1}(x) >= m (t2 - t1) on sampled pairs
    family = poncelet_family(1.0, 0.0, reverse=True)
    m = twist_margin(family, np.linspace(family.a, family.b, 17))
    for t1, t2 in [(0.1, 0.3), (0.25, 0.7), (0.5, 0.95)]:
        sep = separation_alpha(family.lift(t1), family.lift(t2))
        assert sep >= m * (t2 - t1) - 1e-9


# -------------------------------------------------------------- comparison

def test_rigid_golden_comparison_sandwich():
    report = comparison_check(RigidLift(GOLDEN), RigidLift(GOLDEN + 0.01))
    assert report.alpha == pytest.approx(0.01, abs=1e-15)
    assert report.weak_ok
    assert report.excess is not None
    p, q = report.excess
    assert q > 100
    assert GOLDEN < p / q <= GOLDEN + 0.01 + 1e-9
    assert report.sandwich_ok


def test_rational_shift_keeps_weak_inequality():
    report = comparison_check(RigidLift(1.0 / 3.0),
                              RigidLift(1.0 / 3.0 + 0.02))
    assert report.weak_ok
    assert report.r1.lock == (1, 3)


def test_arnold_comparison_is_ordered():
    report = comparison_check(ArnoldLift(0.2, 0.3), ArnoldLift(0.25, 0.3))
    assert report.weak_ok
    if report.r1.lock is None or report.r2.lock is None:
        assert report.r1.value < report.r2.value + \
            report.r1.error_radius + report.r2.error_radius


# ----------------------------------------------------- second-order growth

def test_rigid_family_passes_with_room():
    report = second_order_estimate(rigid_family(), GOLDEN, tol=1e-5)
    assert report.status == "ok"
    assert report.passed
    # r(t) = t makes each quotient roughly 1/(t2 - t1), far above the bound
    assert report.best_ratio > 1.0
    assert report.bound == pytest.approx(second_order_bound(report.margin),
                                         rel=1e-12)


def test_best_ratio_is_running_max_of_brackets():
    report = second_order_estimate(rigid_family(), GOLDEN, tol=1e-5)
    assert report.brackets
    assert report.best_ratio == max(q for _, _, q in report.brackets)
    for t1, t2, _ in report.brackets:
        assert t1 < report.tau < t2


def test_plateau_center_is_inapplicable():
    report = second_order_estimate(arnold_family(0.8), 0.5, tol=1e-5)
    assert report.status == "inapplicable"
    assert math.isnan(report.best_ratio)
    assert not report.passed


def test_tau_must_be_interior():
    with pytest.raises(ValueError):
        second_order_estimate(rigid_family(), 0.0, tol=1e-5)


SEPARATION_CASES = [
    pytest.param(family, tau, q, side, id=f"{name}-q{q}-side{side:+d}")
    for name, family, tau in (("rigid", rigid_family(), GOLDEN),
                              ("arnold", arnold_family(0.8), 0.3))
    for q in (13, 34, 89)
    for side in (-1, 1)
]


@pytest.mark.parametrize("family, tau, q, side", SEPARATION_CASES)
def test_separation_solve_ends_where_separation_reaches_target(
        monkeypatch, family, tau, q, side):
    x_grid = np.linspace(0.0, 1.0, SEPARATION_X_SAMPLES, endpoint=False)
    g_tau = family.lift(tau).orbit_table(x_grid, 1)[1]

    def separation(t):
        g_t = family.lift(t).orbit_table(x_grid, 1)[1]
        return float(np.min(side * (g_t - g_tau)))

    target = 1.0 / q
    e_far = separation(tau + side * 0.1) - target
    images = []
    image = twistfam._image
    monkeypatch.setattr(twistfam, "_image",
                        lambda *args: images.append(args) or image(*args))
    t = twistfam._solve_separation(family, tau, g_tau, target, side, 0.1,
                                   e_far, x_grid)
    assert side * (t - tau) > 0
    assert separation(t) >= target
    if separation(t) != target:
        assert separation(math.nextafter(t, tau)) < target
    # bisection to the float grid takes about 60
    assert len(images) <= 20


# ------------------------------------------------------------ monotonicity

def test_rigid_family_strictly_increases():
    report = proposition1_check(rigid_family(), np.linspace(0.05, 0.95, 13),
                                tol=1e-5)
    assert report.ok
    assert not report.strict_violations


def test_arnold_staircase_is_nondecreasing():
    report = proposition1_check(arnold_family(0.9),
                                np.linspace(0.0, 1.0, 21), tol=1e-4)
    assert report.result.monotone_ok
    assert not report.strict_violations


def test_flat_family_fails_strict_increase():
    # r = GOLDEN for every t: weakly monotone, but no estimate is a lock,
    # so every pair of neighbours should have increased strictly
    def lift(t):
        return RigidLift(GOLDEN)

    family = MonotoneCircleFamily(0.0, 1.0, lift, lift, lambda t, x: 0.0)
    report = proposition1_check(family, [0.2, 0.4, 0.6], tol=1e-5)
    assert report.result.direction == "flat"
    assert report.result.monotone_ok
    assert report.strict_violations == [(0.2, 0.4), (0.4, 0.6)]
    assert not report.ok


def test_monotonicity_check_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        proposition1_check(rigid_family(), [], tol=1e-5)


def test_reversed_poncelet_family_increases():
    family = poncelet_family(1.0, 0.0, reverse=True)
    report = proposition1_check(family, np.linspace(0.1, 0.9, 9), tol=1e-4)
    assert report.ok
    assert report.result.direction == "increasing"
