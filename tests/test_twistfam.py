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
from poncelet.rotation import find_parameter_for_value
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


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0), (-0.0, 0.7),
                                  (2.0, 3.0), (0.0, 1e-200)])
def test_clamp_is_the_builtin_min_of_max(a, b):
    # value and sign of zero, on both sides of each end and inside
    family = MonotoneCircleFamily(a, b, None, None, None)
    w = b - a
    for t in (a, b, -0.0, 0.0, 0, a - 0.5e-12 * w, b + 0.5e-12 * w,
              0.5 * a + 0.5 * b, math.nextafter(a, b), math.nextafter(b, a)):
        if family._t_min <= t <= family._t_max:
            want = min(max(t, family.a), family.b)
            got = family._clamp(t)
            assert (got, math.copysign(1.0, got), type(got)) == \
                (want, math.copysign(1.0, want), type(want)), t


FAMILIES = {f"poncelet-{c}{'-reversed' * reverse}":
            poncelet_family(1.0, c, reverse=reverse)
            for c in (0.0, 0.3, 0.9) for reverse in (False, True)}
FAMILIES.update({"arnold-0.5": arnold_family(0.5),
                 "arnold-0.9": arnold_family(0.9), "rigid": rigid_family()})


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_family_step_is_the_lifts_step(family):
    # orbit(t, xs, n) iterates the step that lift(t) wraps: the same bits,
    # one column per start
    xs = np.linspace(-0.7, 1.9, 27).tolist()
    for t in (family.a, 0.37 * family.a + 0.63 * family.b, family.b):
        g = family.lift(t)
        want = []
        for x in xs:
            column = [x]
            for _ in range(3):
                column.append(g(column[-1]))
            want.append([y.hex() for y in column])
        assert [[y.hex() for y in column]
                for column in family.orbit(t, xs, 3)] == want


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_step_and_dgdt_reject_the_parameters_the_lift_rejects(family):
    # one range check serves lift, orbit and dgdt; dgdt used to clamp any
    # t, and gave nan for a nan t
    w = family.b - family.a
    for t in (family.a - 2e-12 * w, family.b + 2e-12 * w, -1.0, 5.0,
              math.nan):
        with pytest.raises(ValueError, match="outside") as want:
            family.lift(t)
        for method in (lambda t: family.orbit(t, [0.25], 1),
                       lambda t: family.dgdt(t, 0.25)):
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


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.7, 0.2), (math.nan, 1.0),
                                  (0.0, math.nan)])
def test_family_rejects_an_empty_or_nan_interval(a, b):
    with pytest.raises(ValueError, match="b > a"):
        MonotoneCircleFamily(a, b, RigidLift, RigidLift,
                             lambda t, x: 1.0)


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


@pytest.mark.parametrize("g1, g2, lock", [
    (ArnoldLift(0.0, 0.5), ArnoldLift(0.05, 0.5), (0, 1)),
    (RigidLift(0.0), RigidLift(0.01), (0, 1)),
    (ArnoldLift(0.98, 0.9), ArnoldLift(0.999, 0.9), (1, 1)),
], ids=["arnold-0", "rigid-0", "arnold-1"])
def test_comparison_at_an_integer_lock_has_no_excess(g1, g2, lock):
    # r1's float is ulps from an integer, so its expansion certifies no
    # integer part and there is no convergent to sandwich
    report = comparison_check(g1, g2)
    assert report.r1.lock == lock
    assert report.weak_ok
    assert report.excess is None and report.sandwich_ok is None


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


def assert_pinned(report, best_ratio, bound, r_tau, text):
    """The report's status is "ok"; its best ratio, its bound, r(tau)'s
    value and radius (as float.hex) and its repr are pinned."""
    assert report.status == "ok" and report.passed
    assert (report.best_ratio, report.bound) == (best_ratio, bound)
    assert (report.estimate.value.hex(),
            report.estimate.error_radius.hex()) == r_tau
    assert repr(report) == text


# the parameter find_parameter_for_value(arnold_family(0.7), GOLDEN,
# tol=1e-5) places, and the report the estimator gave before it estimated
# each parameter once
ARNOLD_TAU = float.fromhex("0x1.392d9f46f0110p-1")
ARNOLD_RATIO = 26335.049776518616
ARNOLD_BOUND = 1.753370028095087e-09
# r(tau): 0.6180349610818803 +- 2.17419663434361e-06
ARNOLD_R_TAU = ("0x1.3c6f1413433aep-1", "0x1.23d0d3d82149fp-19")
ARNOLD_REPORT = (
    "SecondOrderReport(tau=0.611676194581408, estimate=RotationEstimate("
    "bracket=((377, 610), (233, 377)), iterations=1024), "
    "margin=1.0, brackets=["
    "(0.5822644298755254, 0.6592952422004558, 13.640146806431883), "
    "(0.6004402395252281, 0.6298580127632264, 37.61813951578063), "
    "(0.6004402395252281, 0.6186206390258526, 60.72141180490192), "
    "(0.6073843490878456, 0.6143287144753073, 158.77033014253814), "
    "(0.6106630233554706, 0.6143287144753073, 300.54972238690243), "
    "(0.6106630233554706, 0.6124093324113202, 629.3656746168526), "
    "(0.6112508436669032, 0.6124093324113202, 948.5252772048075), "
    "(0.6115113413008274, 0.611945373585446, 2534.6770875636544), "
    "(0.6115113413008274, 0.6117784336162718, 4093.2095057299675), "
    "(0.6116130911548918, 0.6117152144034778, 10588.94543007553), "
    "(0.6116520836712209, 0.6117152144034778, 16965.59803884157), "
    "(0.6116520836712209, 0.6116910970447854, 26335.049776518616)])")


def test_each_parameter_is_estimated_once(monkeypatch):
    # deltas that choose the same pair solve to the same t1 or t2: the 12
    # brackets and tau name 18 distinct parameters among 25 estimates
    inner = twistfam.rotation_number
    omegas = []

    def counted(g, tol):
        omegas.append(g.omega)
        return inner(g, tol=tol)

    monkeypatch.setattr(twistfam, "rotation_number", counted)
    report = second_order_estimate(arnold_family(0.7), ARNOLD_TAU, tol=1e-5)
    assert len(omegas) == len(set(omegas)) == 18
    assert_pinned(report, ARNOLD_RATIO, ARNOLD_BOUND, ARNOLD_R_TAU,
                  ARNOLD_REPORT)


# what a default `prop2 --family poncelet` runs: the concentric family,
# reversed, at the parameter where r = 1 - GOLDEN, and the report it gave
# while each concentric step still ran the general formula
CONCENTRIC_TAU = "0x1.46769f49edd50p-1"
CONCENTRIC_RATIO = 10040.938162941638
CONCENTRIC_BOUND = 1.968632259596629e-10
# r(tau): 0.3819663826465361 +- 8.304682179812979e-07
CONCENTRIC_R_TAU = ("0x1.872232068d9d1p-2", "0x1.bddaaeca16547p-21")
CONCENTRIC_REPORT = (
    "SecondOrderReport(tau=0.6376237657304191, estimate=RotationEstimate("
    "bracket=((377, 987), (233, 610)), iterations=1024), "
    "margin=0.3350776874733415, brackets=["
    "(0.6173778326880472, 0.6707422737620721, 6.383113884417703), "
    "(0.6173778326880472, 0.6502231247579578, 10.414035056327375), "
    "(0.6298696879289503, 0.6424286562039209, 27.109002929337336), "
    "(0.6357909899467021, 0.6424286562039209, 51.32201178705624), "
    "(0.6357909899467021, 0.638950849486559, 107.71669637434348), "
    "(0.6368541563344465, 0.638950849486559, 162.44143309788035), "
    "(0.6368541563344465, 0.6381109329134963, 270.88154105040957), "
    "(0.6373254588198163, 0.6378087889548105, 675.6988334071681), "
    "(0.6375095738180767, 0.6378087889548105, 1058.4316578983162), "
    "(0.6375801340035723, 0.6376943786924291, 2746.4511221241064), "
    "(0.6375801340035723, 0.6376507340108108, 4517.640743178689), "
    "(0.6376070990387376, 0.6376340664813729, 10040.938162941638)])")


def test_concentric_growth_report_is_pinned():
    family = poncelet_family(1.0, 0.0, reverse=True)
    tau = find_parameter_for_value(family, 1.0 - GOLDEN, tol=1e-5)
    assert tau.hex() == CONCENTRIC_TAU
    assert_pinned(second_order_estimate(family, tau, tol=1e-5),
                  CONCENTRIC_RATIO, CONCENTRIC_BOUND, CONCENTRIC_R_TAU,
                  CONCENTRIC_REPORT)


# what a default `prop2 --family rigid` runs: r(t) = t, at tau = GOLDEN.
# Its 12 deltas give 11 brackets: the sixth and seventh choose the same
# convergent pair, which is bracketed once
RIGID_RATIO = 23547.13436213351
RIGID_BOUND = 1.753370028095087e-09
# r(tau): 0.6180336173534638 +- 8.304682179812979e-07
RIGID_R_TAU = ("0x1.3c6ee6fcb9317p-1", "0x1.bddaaeca16547p-21")
RIGID_REPORT = (
    "SecondOrderReport(tau=0.6180339887498949, estimate=RotationEstimate("
    "bracket=((377, 610), (610, 987)), iterations=1024), "
    "margin=1.0, brackets=["
    "(0.5886222240440124, 0.6656530363689426, 12.981018611838957), "
    "(0.6067980336937151, 0.6362158069317132, 33.98876386024059), "
    "(0.6067980336937151, 0.6249784331943394, 54.994406371000906), "
    "(0.6137421432563326, 0.6206865086437942, 143.6731771077704), "
    "(0.6163946444875996, 0.6206865086437942, 232.12907261404806), "
    "(0.6175808849891335, 0.6186601628262882, 923.3196185810651), "
    "(0.6178676270796237, 0.6182968699276027, 2322.1455289201904), "
    "(0.6178676270796237, 0.6181358736199918, 3706.4316428460897), "
    "(0.6179708015895258, 0.6180729887888952, 9074.79760303553), "
    "(0.6180098731881227, 0.6180729887888952, 15028.394181051664), "
    "(0.6180098731881227, 0.6180488901029378, 23547.13436213351)])")


def test_rigid_growth_report_is_pinned():
    report = second_order_estimate(rigid_family(), GOLDEN, tol=1e-5)
    assert_pinned(report, RIGID_RATIO, RIGID_BOUND, RIGID_R_TAU,
                  RIGID_REPORT)
    assert len(set(report.brackets)) == len(report.brackets) == 11


@pytest.mark.parametrize("delta_seq", [
    [], [0.0], [-0.0], [-0.01], [math.nan], [math.inf], [0.05, 0.0],
    [0.05, math.nan]])
def test_deltas_must_be_positive_and_finite(delta_seq):
    with pytest.raises(ValueError, match="delta_seq"):
        second_order_estimate(rigid_family(), GOLDEN, delta_seq=delta_seq,
                              tol=1e-5)


def generator(values):
    return (value for value in values)


# each sequence argument is read once, as a list: an ndarray, a tuple and a
# generator give the list's report, and a one-element array its bits
@pytest.mark.parametrize("deltas, make", [
    ([0.05, 0.025], np.array), ([0.05, 0.025], tuple),
    ([0.05, 0.025], generator), ([0.05], np.array)],
    ids=["ndarray", "tuple", "generator", "one-element-ndarray"])
def test_delta_sequences_give_the_lists_report(deltas, make):
    def report(delta_seq):
        return second_order_estimate(rigid_family(), 0.618,
                                     delta_seq=delta_seq, tol=1e-3)

    want = report(deltas)
    assert want.status == "ok"
    assert repr(report(make(deltas))) == repr(want)


@pytest.mark.parametrize("make", [np.array, generator])
def test_empty_delta_sequence_is_rejected(make):
    with pytest.raises(ValueError, match="delta_seq must hold"):
        second_order_estimate(rigid_family(), GOLDEN, delta_seq=make([]),
                              tol=1e-3)


@pytest.mark.parametrize("make", [np.array, tuple, generator],
                         ids=["ndarray", "tuple", "generator"])
def test_margin_sequences_give_the_lists_margin(make):
    family = poncelet_family(1.0, 0.3, reverse=True)
    grid = [float(t) for t in np.linspace(0.2, 0.6, 9)]
    assert twist_margin(family, make(grid)).hex() == \
        twist_margin(family, grid).hex()
    with pytest.raises(ValueError, match="non-empty"):
        twist_margin(family, make([]))


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
