"""Twist-in-parameter analysis of monotone lift families: twist margin,
pointwise comparison checks, and the second-order growth estimate of the
rotation number around heuristically-irrational parameters.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .confrac import cf_expand, find_balanced_pairs, second_order_bound
from .rotation import (RotationEstimate, rotation_number, shrink_bracket,
                       staircase)

MARGIN_X_SAMPLES = 32      # x samples per parameter in twist_margin
COMPARISON_TOL = 1e-5      # rotation-number tolerance of comparison_check
PAIR_EPS = 0.5             # eps of second_order_estimate's balanced pairs
SEPARATION_X_SAMPLES = 128  # x samples of second_order_estimate's separations
ALPHA_X_SAMPLES = 256      # x samples of separation_alpha


class TwistConditionError(ValueError):
    """A sampled parameter-derivative (or separation) was not positive."""


def twist_margin(family, t_grid):
    """Sampled infimum m of d g_t(x) / d t; every sample must be > 0."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
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


@dataclass(frozen=True)
class ComparisonReport:
    r1: RotationEstimate
    r2: RotationEstimate
    alpha: float
    excess: Optional[Tuple[int, int]]   # p/q with q > 1/alpha, or None
    weak_ok: bool                        # r1 <= r2 within error radii
    sandwich_ok: Optional[bool]          # r1 < p/q <= r2 within error radii


def comparison_check(g1, g2):
    """Check r1 <= r2 and, via an excess convergent p/q of r1 with
    q > 1/alpha, alpha = separation_alpha(g1, g2), the sandwich
    r1 < p/q <= r2."""
    alpha = separation_alpha(g1, g2)
    r1 = rotation_number(g1, tol=COMPARISON_TOL)
    r2 = rotation_number(g2, tol=COMPARISON_TOL)
    slack = r1.error_radius + r2.error_radius
    weak_ok = r1.value <= r2.value + slack

    excess = None
    sandwich_ok = None
    exp = cf_expand(r1.value)
    for n in range(1, len(exp) + 1):
        if n % 2 != 1:      # odd truncations over-approximate
            continue
        p, q = exp.convergents[n]
        if q > 1.0 / alpha:
            excess = (p, q)
            pq = p / q
            sandwich_ok = (r1.value - r1.error_radius < pq
                           <= r2.value + r2.error_radius)
            break
    return ComparisonReport(r1=r1, r2=r2, alpha=alpha, excess=excess,
                            weak_ok=weak_ok, sandwich_ok=sandwich_ok)


@dataclass(frozen=True)
class SecondOrderReport:
    """Margin, bound and bracket quotients take t in units of the
    parameter interval's width b - a, so the family's scale drops out.
    Status "inapplicable" (tau is locked) and "no-brackets" (no delta
    admitted a balanced pair) test nothing: best_ratio is nan."""

    tau: float
    status: str                  # "ok" | "inapplicable" | "no-brackets"
    best_ratio: float
    bound: float
    margin: float
    brackets: List[Tuple[float, float, float]] = field(default_factory=list)
    # (t1, t2, conservative quotient)

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


def second_order_estimate(family, tau, delta_seq=None, tol=1e-5):
    """Best observed (r(t2) - r(t1)) / ((t2 - t1) / w)^2 over shrinking
    brackets around tau, against the bound m^2 / (e^{2F} (1 + e^{2F})^2),
    with m = w inf dg/dt: everything is in units of the interval width
    w = b - a, and so are the default deltas 0.1 w 2^-k, k = 1..12.

    Brackets follow the proof construction: t1 and t2 are placed so the
    pointwise separations from g_tau equal 1/q' and 1/q for an excess /
    defect convergent pair of r(tau).  The quotient is evaluated
    conservatively (error radii subtracted), so finite sampling can only
    under-report, never falsely pass.
    """
    if not family.a < tau < family.b:
        raise ValueError("tau must be interior to the parameter interval")
    w = family.b - family.a
    if delta_seq is None:
        delta_seq = [0.1 * w * 2.0 ** (-k) for k in range(1, 13)]
    delta_max = min(max(delta_seq), tau - family.a, family.b - tau)
    delta_seq = sorted({min(d, delta_max) for d in delta_seq}, reverse=True)

    est_tau = rotation_number(family.lift(tau), tol=tol)
    margin = w * twist_margin(
        family,
        t_grid=np.linspace(tau - delta_max, tau + delta_max, 9),
    )
    bound = second_order_bound(m=margin)
    if est_tau.is_rational_lock:
        return SecondOrderReport(tau=tau, status="inapplicable",
                                 best_ratio=math.nan, bound=bound,
                                 margin=margin)

    x_grid = np.linspace(0.0, 1.0, SEPARATION_X_SAMPLES, endpoint=False)
    g_tau = _image(family, tau, x_grid)
    pairs = find_balanced_pairs(cf_expand(est_tau.value), eps=PAIR_EPS)

    brackets = []
    for delta in delta_seq:
        sep_minus = _separation(family, tau - delta, -1, g_tau, x_grid)
        sep_plus = _separation(family, tau + delta, +1, g_tau, x_grid)
        chosen = None
        for pair in pairs:
            q_exc = pair.excess.denominator
            q_def = pair.defect.denominator
            if 1.0 / q_def <= sep_minus and 1.0 / q_exc <= sep_plus:
                chosen = (q_def, q_exc)
                break
        if chosen is None:
            continue
        q_def, q_exc = chosen
        t1 = _solve_separation(family, tau, g_tau, 1.0 / q_def, -1, delta,
                               sep_minus - 1.0 / q_def, x_grid)
        t2 = _solve_separation(family, tau, g_tau, 1.0 / q_exc, +1, delta,
                               sep_plus - 1.0 / q_exc, x_grid)
        if t2 - t1 <= 0:
            continue
        r1 = rotation_number(family.lift(t1), tol=tol)
        r2 = rotation_number(family.lift(t2), tol=tol)
        num = (r2.value - r1.value) - (r1.error_radius + r2.error_radius)
        quotient = num / ((t2 - t1) / w) ** 2
        brackets.append((t1, t2, quotient))

    if not brackets:
        return SecondOrderReport(tau=tau, status="no-brackets",
                                 best_ratio=math.nan, bound=bound,
                                 margin=margin)
    return SecondOrderReport(tau=tau, status="ok",
                             best_ratio=max(q for _, _, q in brackets),
                             bound=bound, margin=margin, brackets=brackets)


@dataclass(frozen=True)
class MonotonicityReport:
    result: object                      # StaircaseResult
    strict_violations: List[Tuple[float, float]]

    @property
    def ok(self):
        return self.result.monotone_ok and not self.strict_violations


def proposition1_check(family, t_grid, tol=1e-5):
    """Staircase over t_grid: nondecreasing within error radii, strictly
    increasing across sample pairs where either endpoint is lock-free
    (the heuristic-irrational proxy)."""
    result = staircase(family, t_grid, tol=tol)
    sign = -1.0 if result.direction == "decreasing" else 1.0
    strict = []
    pts = result.points
    for (t1, e1), (t2, e2) in zip(pts, pts[1:]):
        heuristically_irrational = not (e1.is_rational_lock
                                        and e2.is_rational_lock)
        if heuristically_irrational and not sign * (e2.value - e1.value) > 0:
            strict.append((t1, t2))
    return MonotonicityReport(result=result, strict_violations=strict)
