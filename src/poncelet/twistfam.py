"""Twist-in-parameter analysis of monotone lift families: twist margin,
pointwise comparison checks, and the second-order growth estimate of the
rotation number around heuristically-irrational parameters.  The reports
are `NamedTuple` classes.
"""

import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .confrac import (PrecisionExhaustedError, cf_expand, find_balanced_pairs,
                      second_order_bound)
from .rotation import (RotationEstimate, StaircaseResult, rotation_number,
                       shrink_bracket, staircase)

MARGIN_X_SAMPLES = 32      # x samples per parameter in twist_margin
COMPARISON_TOL = 1e-5      # rotation-number tolerance of comparison_check
PAIR_EPS = 0.5             # eps of second_order_estimate's balanced pairs
SEPARATION_X_SAMPLES = 128  # x samples of second_order_estimate's separations
ALPHA_X_SAMPLES = 256      # x samples of separation_alpha


class TwistConditionError(ValueError):
    """A sampled parameter-derivative (or separation) was not positive."""


def twist_margin(family, t_grid):
    """Sampled infimum m of d g_t(x) / d t; every sample must be > 0."""
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("twist_margin needs a non-empty t_grid")
    x_grid = np.linspace(0.0, 1.0, MARGIN_X_SAMPLES, endpoint=False)
    m = math.inf
    for t in t_grid:
        d = np.broadcast_to(family.dgdt(t, x_grid), x_grid.shape)
        if not np.all(d > 0):  # a nan fails too
            i = np.argmin(d > 0)
            raise TwistConditionError(
                f"dg/dt = {d[i]:.3g} is not > 0 at (t={t}, x={x_grid[i]})")
        m = min(m, float(np.min(d)))
    return m


def separation_alpha(g1, g2):
    """Sampled infimum of g2 - g1 over one period; must be positive."""
    x_grid = np.linspace(0.0, 1.0, ALPHA_X_SAMPLES, endpoint=False)
    diff = g2.orbit_table(x_grid, 1)[1] - g1.orbit_table(x_grid, 1)[1]
    alpha = float(np.min(diff))
    if not alpha > 0:
        raise TwistConditionError(
            f"ordering violation: min(g2 - g1) = {alpha:.3g} <= 0"
        )
    return alpha


class ComparisonReport(NamedTuple):
    """r1 = r(g1) and r2 = r(g2) for g1 below g2, alpha their sampled
    separation.  `excess` is the first excess convergent p/q of r1 with
    q > 1/alpha, `weak_ok` is r1 <= r2 and `sandwich_ok` is r1 < p/q <= r2,
    each within the error radii.  At an r1 whose expansion certifies no
    integer part (a lock at an integer) excess and sandwich_ok are None."""

    r1: RotationEstimate
    r2: RotationEstimate
    alpha: float

    @property
    def excess(self):
        try:
            convergents = cf_expand(self.r1.value).convergents
        except PrecisionExhaustedError:
            # r1 within ulps of an integer: no integer part is certified, so
            # there is no convergent to sandwich
            return None
        # odd truncations over-approximate
        return next(((p, q) for p, q in convergents[1::2]
                     if q > 1.0 / self.alpha), None)

    @property
    def weak_ok(self):
        slack = self.r1.error_radius + self.r2.error_radius
        return self.r1.value <= self.r2.value + slack

    @property
    def sandwich_ok(self):
        excess = self.excess
        if excess is None:
            return None
        p, q = excess
        return (self.r1.value - self.r1.error_radius < p / q
                <= self.r2.value + self.r2.error_radius)


def comparison_check(g1, g2):
    """Check r1 <= r2 and, via an excess convergent p/q of r1 with
    q > 1/alpha, alpha = separation_alpha(g1, g2), the sandwich
    r1 < p/q <= r2 (see ComparisonReport)."""
    return ComparisonReport(alpha=separation_alpha(g1, g2),
                            r1=rotation_number(g1, tol=COMPARISON_TOL),
                            r2=rotation_number(g2, tol=COMPARISON_TOL))


class SecondOrderReport(NamedTuple):
    """The growth test's evidence; margin, bound and quotients take t in
    units of the interval's width b - a, so the family's scale drops out.
    bound, status, best_ratio and passed are read off it: the bound is
    second_order_bound of the margin, "inapplicable" (tau is locked) and
    "no-brackets" (no delta admitted a balanced pair) test nothing, and
    best_ratio is the largest quotient, nan with none."""

    tau: float
    estimate: RotationEstimate   # r(tau), whose expansion gave the pairs
    margin: float
    brackets: Sequence[Tuple[float, float, float]] = ()  # t1, t2, quotient

    @property
    def bound(self):
        return second_order_bound(m=self.margin)

    @property
    def status(self):
        if self.estimate.lock is not None:
            return "inapplicable"
        return "ok" if self.brackets else "no-brackets"

    @property
    def best_ratio(self):
        return max((q for _, _, q in self.brackets), default=math.nan)

    @property
    def passed(self):
        return self.status == "ok" and self.best_ratio >= self.bound


def _image(family, t, x_grid):
    """g_t over x_grid."""
    return family.lift(t).orbit_table(x_grid, 1)[1]


def _separation(family, t, side, g_tau, x_grid):
    """inf_x side * (g_t - g_tau) over x_grid: the separation of g_t from
    g_tau, for t on the side = -1 / +1 of tau."""
    return float(np.min(side * (_image(family, t, x_grid) - g_tau)))


def _solve_separation(family, tau, g_tau, target, side, delta, e_far,
                      x_grid):
    """Find t with inf_x separation from g_tau equal to target, searching
    t in [tau - delta, tau] (side = -1) or [tau, tau + delta] (side = +1).

    Returns the end nearer tau of the machine-thin bracket on which the
    separation reaches target, or an exact solution.  e_far >= 0 is the
    separation at the far end tau + side * delta, less target."""

    def excess(t):
        return _separation(family, t, side, g_tau, x_grid) - target

    # the excess at tau itself is exactly -target
    far = tau + side * delta
    if side < 0:
        far, e_far, near, e_near = shrink_bracket(excess, far, e_far,
                                                  tau, -target)
    else:
        near, e_near, far, e_far = shrink_bracket(excess, tau, -target,
                                                  far, e_far)
    return near if e_near >= 0 else far


def second_order_estimate(family, tau, delta_seq=None, *, tol):
    """Quotients (r(t2) - r(t1)) / ((t2 - t1) / w)^2 over shrinking brackets
    around tau, against the bound m^2 / (e^{2F} (1 + e^{2F})^2), with
    m = w inf dg/dt: everything is in units of the interval width
    w = b - a, and so are the default deltas 0.1 w 2^-k, k = 1..12.

    Brackets follow the proof construction: t1 and t2 are placed so the
    pointwise separations from g_tau equal 1/q' and 1/q for an excess /
    defect convergent pair of r(tau), whose estimate the report keeps; a
    locked tau gets none.  The quotient is evaluated conservatively (error
    radii subtracted), so finite sampling can only under-report, never
    falsely pass.  Each balanced pair is bracketed once: a delta that
    chooses a pair already bracketed adds nothing.  Each parameter's
    rotation number is estimated once per call: consecutive pairs share a
    convergent on one side, so they solve to the same t1 or t2.
    delta_seq is read once, as a list; an empty one, or a delta that is
    not positive and finite, raises ValueError.
    """
    if not family.a < tau < family.b:
        raise ValueError("tau must be interior to the parameter interval")
    w = family.b - family.a
    if delta_seq is None:
        delta_seq = [0.1 * w * 2.0 ** (-k) for k in range(1, 13)]
    delta_seq = [float(d) for d in delta_seq]
    if not delta_seq or not all(0.0 < d < math.inf for d in delta_seq):
        raise ValueError("delta_seq must hold at least one delta, each "
                         f"positive and finite, got {delta_seq!r}")
    delta_max = min(max(delta_seq), tau - family.a, family.b - tau)
    delta_seq = sorted({min(d, delta_max) for d in delta_seq}, reverse=True)

    estimates = {}  # t.hex() -> r(t): -0.0 and 0.0 are kept apart

    def estimate(t):
        key = float(t).hex()
        if key not in estimates:
            estimates[key] = rotation_number(family.lift(t), tol=tol)
        return estimates[key]

    est_tau = estimate(tau)
    margin = w * twist_margin(
        family, np.linspace(tau - delta_max, tau + delta_max, 9))
    if est_tau.lock is not None:
        return SecondOrderReport(tau=tau, estimate=est_tau, margin=margin)

    x_grid = np.linspace(0.0, 1.0, SEPARATION_X_SAMPLES, endpoint=False)
    g_tau = _image(family, tau, x_grid)
    # per balanced pair, the separations 1/q' at t1 (side -1), 1/q at t2
    targets = [(1.0 / pair.defect.denominator, 1.0 / pair.excess.denominator)
               for pair in find_balanced_pairs(cf_expand(est_tau.value),
                                               eps=PAIR_EPS)]
    brackets = {}  # chosen pair -> (t1, t2, quotient): each pair once
    for delta in delta_seq:
        seps = [_separation(family, tau + side * delta, side, g_tau, x_grid)
                for side in (-1, 1)]
        chosen = next((pair for pair in targets
                       if pair[0] <= seps[0] and pair[1] <= seps[1]), None)
        if chosen is None or chosen in brackets:
            continue
        t1, t2 = [_solve_separation(family, tau, g_tau, target, side, delta,
                                    sep - target, x_grid)
                  for side, sep, target in zip((-1, 1), seps, chosen)]
        r1, r2 = estimate(t1), estimate(t2)
        num = (r2.value - r1.value) - (r1.error_radius + r2.error_radius)
        brackets[chosen] = (t1, t2, num / ((t2 - t1) / w) ** 2)

    return SecondOrderReport(tau=tau, estimate=est_tau, margin=margin,
                             brackets=list(brackets.values()))


class MonotonicityReport(NamedTuple):
    """Proposition 1's check of a staircase: `strict_violations` are the
    (t_i, t_j) of the steps with either end lock-free (the
    heuristic-irrational proxy) that do not strictly increase, or strictly
    decrease on a decreasing staircase."""

    result: StaircaseResult

    @property
    def strict_violations(self):
        sign = -1.0 if self.result.direction == "decreasing" else 1.0
        pts = self.result.points
        return [(t1, t2) for (t1, e1), (t2, e2) in zip(pts, pts[1:])
                if (e1.lock is None or e2.lock is None)
                and not sign * (e2.value - e1.value) > 0]

    @property
    def ok(self):
        return self.result.monotone_ok and not self.strict_violations


def proposition1_check(family, t_grid, tol):
    """Staircase over t_grid: nondecreasing within error radii, strictly
    increasing across sample pairs where either endpoint is lock-free
    (the heuristic-irrational proxy)."""
    return MonotonicityReport(result=staircase(family, t_grid, tol=tol))
