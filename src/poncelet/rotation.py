"""Rotation numbers of circle-map lifts and the Poncelet-pair counting
pipeline.

The estimator reads a Farey bracket off one orbit.  For a lift g and any
q >= 1, g^q(x0) >= x0 + k forces r(g) >= k/q, and g^q(x0) < x0 + k + 1
forces r(g) <= (k + 1)/q (Katok and Hasselblatt, ch. 11), so the orbit's
first n steps give

    r(g) in [max_q k_lo/q, min_q k_hi/q],   q = 1..n,

with k_lo and k_hi the floors of g^q(x0) - x0.  Its width is ~1/n^2
between Farey neighbours of order n, and never more than 2/n.  A
rational-lock scan comes first: an exact zero or a sign change of
g^q(x) - x - p on a periodic grid certifies the exact rotation number p/q.

The floors are read off a float orbit, each widened by a rounding
allowance (FLOOR_SLACK plus an ulp of the coordinate per step) that is not
yet a certified rounding budget.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .geometry import TWO_PI

LOCK_GRID = 512       # points of the periodic lock-scan grid
Q_MAX = 64            # largest lock denominator rotation_number tries
ROUGH_STEPS = 1024    # steps of the orbit that the first bracket reads
CHUNK_MAX = 1 << 16   # most steps one extension of that orbit adds
# Rounding allowance on the bracket's floors: a displacement g^q(x0) - x0
# within FLOOR_SLACK, plus q ulps of the orbit's coordinate, of an integer
# k counts as either side of it.  It is a guess at the float orbit's error,
# not a certified rounding budget.
FLOOR_SLACK = 1e-9
X_REF = 0.375         # start point of solve_rotation's lock residual
CLOSURE_STARTS = 20   # random start points of verify_closure
CLOSE_TOL = 1e-8      # largest closure residual (radians) accepted
EARLY_TOL = 1e-4      # an earlier return this close (radians) is rejected


class NoSolutionError(ValueError):
    """Requested rotation value is outside the image of r."""


class ResidualFailureError(RuntimeError):
    """The solve converged but the rational lock could not be confirmed."""


@dataclass(frozen=True)
class RotationEstimate:
    """A rotation number with an error radius.  A lock (p, q) gives value
    p/q with radius 0, certified by the lock scan.  Off a lock the radius
    is half the Farey bracket's width, whose floors rest on the FLOOR_SLACK
    plus ulp rounding allowance: a guess at the orbit's error, not a
    certified rounding budget."""

    value: float
    error_radius: float
    iterations: int
    lock: Optional[Tuple[int, int]] = None  # (p, q), gcd = 1

    @property
    def is_rational_lock(self):
        return self.lock is not None


@dataclass(frozen=True)
class PonceletPair:
    t: float
    n: int
    p: int
    closure_residual: float


@dataclass(frozen=True)
class StaircaseResult:
    points: List[Tuple[float, RotationEstimate]]
    direction: str  # "increasing" | "decreasing" | "flat"
    violations: List[Tuple[float, float, float]]  # (t_i, t_j, defect)

    @property
    def monotone_ok(self):
        return not self.violations


@dataclass(frozen=True)
class CountReport:
    n: int
    pairs: List[PonceletPair]
    expected: int
    missing: List[Tuple[int, str]]  # (p, reason) of each uncertified pair

    @property
    def ok(self):
        return len(self.pairs) == self.expected


def euler_totient(n):
    """Euler's totient by trial factorization."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def detect_rational_lock(g, p, q):
    """Search for a root of d(x) = g^q(x) - x - p on a periodic grid.

    Returns the left grid point of the first cell whose ends hold an exact
    zero of d or a sign change, so the cell holds a root; None if there is
    none.  Absence on the grid is heuristic evidence only, not a proof.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be reduced, got {p}/{q}")
    xs = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
    d = g.orbit_table(xs, q)[q] - xs - p
    return _lock_from_grid(xs, d)


def _lock_from_grid(xs, d):
    # d(x + 1) = d(x), so the last cell closes on d[0]; a nan end has
    # sign nan and certifies nothing
    signs = np.sign(d)
    hits = np.flatnonzero(signs * np.roll(signs, -1) <= 0)
    return float(xs[hits[0]]) if hits.size else None


def _bracket(x0, xs, q):
    """The Farey bracket ((k_lo, q_lo), (k_hi, q_hi)) of the orbit points
    xs = g^q(x0) over the float array of steps q: r(g) >= k_lo/q_lo and
    r(g) <= k_hi/q_hi.  Each floor of d = xs - x0 is widened by the
    rounding allowance FLOOR_SLACK plus an ulp of the running coordinate
    per step, so a d that close to an integer widens its q's term by one
    lap."""
    d = xs - x0
    slack = FLOOR_SLACK + q * np.spacing(np.abs(xs) + abs(x0))
    k_lo = np.floor(d - slack)
    k_hi = np.floor(d + slack) + 1.0
    i = int(np.argmax(k_lo / q))
    j = int(np.argmin(k_hi / q))
    return (int(k_lo[i]), int(q[i])), (int(k_hi[j]), int(q[j]))


def _ratio(fraction):
    # any k/q that rounds low or high is still a sound (looser) bound
    return fraction[0] / fraction[1]


def rotation_number(g, x0=0.0, tol=1e-4):
    """Estimate r(g) with an error radius.

    A rough pass of ROUGH_STEPS steps from x0 gives the Farey bracket of
    the module docstring.  The lock candidates are the reduced p/q,
    q <= Q_MAX, inside it; the lock scan builds the LOCK_GRID-point orbit
    table as deep as the deepest candidate and reads row q of each, in
    ascending q.  A detected rational lock p/q gives the exact value
    (error radius 0).  Otherwise the orbit is extended (doubling, at most
    CHUNK_MAX steps at a time) until half the bracket's width is at most
    tol, and the bracket's midpoint is returned with that radius.  The
    scan runs once, before any extension: near a low-order rational the
    bracket narrows only like 1/n.

    The floors are read off a float orbit with the allowance FLOOR_SLACK
    plus an ulp of the coordinate per step, which is not yet a certified
    rounding budget.  An orbit that lands on x0 + k exactly is not taken
    as a lock: in floating point it need not be one.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    g.validate(samples=16)

    n = ROUGH_STEPS
    orbit = g.orbit_table([x0], n)[:, 0]
    lo, hi = _bracket(x0, orbit[1:], np.arange(1.0, n + 1.0))

    (a, b), (c, d) = lo, hi
    candidates = [(p, q) for q in range(1, Q_MAX + 1)
                  for p in range(-(-a * q // b), c * q // d + 1)
                  if math.gcd(p, q) == 1]
    if candidates:
        xs = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
        table = g.orbit_table(xs, candidates[-1][1])
        for p, q in candidates:
            if _lock_from_grid(xs, table[q] - xs - p) is not None:
                return RotationEstimate(value=p / q, error_radius=0.0,
                                        iterations=n, lock=(p, q))

    end = float(orbit[n])
    while True:
        # midpoint and half-width of [a/b, c/d], each rounded once
        (a, b), (c, d) = lo, hi
        den = 2 * b * d
        radius = (c * b - a * d) / den
        if radius <= tol:
            return RotationEstimate(value=(a * d + c * b) / den,
                                    error_radius=radius, iterations=n)
        m = min(n, CHUNK_MAX)
        column = g.orbit_table([end], m)[1:, 0]
        more_lo, more_hi = _bracket(x0, column,
                                    np.arange(n + 1.0, n + m + 1.0))
        lo = max(lo, more_lo, key=_ratio)
        hi = min(hi, more_hi, key=_ratio)
        end = float(column[-1])
        n += m


def staircase(family, t_grid, tol=1e-4):
    """Sample r(t) over a sorted grid and check weak monotonicity."""
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be sorted ascending")
    points = [(t, rotation_number(family.lift(t), tol=tol)) for t in t_grid]

    r_first = points[0][1].value
    r_last = points[-1][1].value
    if r_last > r_first:
        sign, direction = 1.0, "increasing"
    elif r_last < r_first:
        sign, direction = -1.0, "decreasing"
    else:
        sign, direction = 0.0, "flat"

    violations = []
    for (t1, e1), (t2, e2) in zip(points, points[1:]):
        slack = 2.0 * (e1.error_radius + e2.error_radius) + 1e-12
        defect = sign * (e2.value - e1.value)
        if defect < -slack:
            violations.append((t1, t2, float(defect)))
    return StaircaseResult(points=points, direction=direction,
                           violations=violations)


def shrink_bracket(f, lo, f_lo, hi, f_hi):
    """Shrink the bracket lo < hi of a sign change of f, whose end values
    f_lo = f(lo) and f_hi = f(hi) have opposite signs, to an exact zero of
    f or two adjacent floats.  Returns (lo, f_lo, hi, f_hi).

    Regula falsi on weighted ends with the Illinois rule (Dowell and
    Jarratt 1971): when the same end is kept twice in a row, its weight is
    halved, so the secant point soon lands on its side of the root and
    neither end stalls.  A secant point that rounds onto an end steps to
    that end's float neighbour inward instead.  A nan value of f raises
    ValueError: every later secant point would be nan."""
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        raise ValueError(f"no sign change: f({lo}) = {f_lo}, f({hi}) = {f_hi}")
    w_lo, w_hi = f_lo, f_hi
    kept = 0  # +1 / -1: hi / lo was kept on the last step
    while f_lo != 0.0 and f_hi != 0.0:
        inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
        if inner_lo == hi:
            break
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if not x > lo:
            x = inner_lo
        elif not x < hi:
            x = inner_hi
        f_x = f(x)
        if math.isnan(f_x):
            raise ValueError(f"f({x}) is nan inside the bracket [{lo}, {hi}]")
        if (f_x > 0) == (f_lo > 0):
            lo, f_lo, w_lo = x, f_x, f_x
            if kept > 0:
                w_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, w_hi = x, f_x, f_x
            if kept < 0:
                w_lo *= 0.5
            kept = -1
    return lo, f_lo, hi, f_hi


def solve_rotation(family, target):
    """Find t* with r(t*) = target = p/q on the lock residual
    s(t) = g_t^q(X_REF) - X_REF - p over the family's interval, which is
    monotone in t for a monotone family.

    shrink_bracket takes the sign-change bracket [family.a, family.b] to
    an exact zero or two adjacent floats, and t* is the end with the
    smaller residual.  X_REF is an exact lock point when s(t*) = 0, and
    otherwise the opposite-signed residuals on the machine-thin bracket
    around t* are the certificate."""
    target = Fraction(target)
    p, q = target.numerator, target.denominator

    def s(t):
        return family.lift(t).advance(X_REF, q) - X_REF - p

    a, b = family.a, family.b
    s_a, s_b = s(a), s(b)
    if s_a * s_b > 0:
        raise NoSolutionError(
            f"target {p}/{q} not bracketed on [{a}, {b}] "
            f"(residuals {s_a:.3g}, {s_b:.3g})"
        )
    lo, s_lo, hi, s_hi = shrink_bracket(s, a, s_a, b, s_b)
    # the opposite-signed residuals on the machine-thin bracket certify a
    # parameter with lock p/q inside it (the displacement is continuous in
    # t and vanishes exactly at the lock)
    t_star = lo if abs(s_lo) <= abs(s_hi) else hi
    if s_lo != 0.0 and s_hi != 0.0 and (s_lo > 0) == (s_hi > 0):
        raise ResidualFailureError(
            f"no rational lock {p}/{q} confirmed at t = {t_star}"
        )
    return t_star


def find_parameter_for_value(family, target_value, iters=48, tol=1e-5):
    """Bisect for a parameter tau with r(tau) close to target_value.

    Useful for placing tau at a heuristically-irrational rotation value;
    unlike solve_rotation there is no lock certificate, only estimates.
    """
    lo, hi = family.a, family.b
    v_lo = rotation_number(family.lift(lo), tol=tol).value
    v_hi = rotation_number(family.lift(hi), tol=tol).value
    increasing = v_hi >= v_lo
    if not min(v_lo, v_hi) <= target_value <= max(v_lo, v_hi):
        raise NoSolutionError(
            f"target {target_value} outside estimated image "
            f"[{min(v_lo, v_hi)}, {max(v_lo, v_hi)}]"
        )
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        v = rotation_number(family.lift(mid), tol=tol).value
        if (v < target_value) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def verify_closure(g, n, seed=0):
    """Closure residual of the lift g after n steps from CLOSURE_STARTS
    seeded random start points.

    Returns the max angular distance (radians) to the start; raises
    ResidualFailureError if it is CLOSE_TOL or more, or if an orbit comes
    back within EARLY_TOL before step n.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    xs = rng.random(CLOSURE_STARTS)
    table = g.orbit_table(xs, n)
    # angular distance to the start of each point of rows 1..n
    dist = TWO_PI * np.abs((table[1:] - xs + 0.5) % 1.0 - 0.5)
    early = np.flatnonzero(np.min(dist[:-1], axis=1) <= EARLY_TOL)
    if early.size:
        k = int(early[0]) + 1
        raise ResidualFailureError(
            f"orbit returned after {k} < {n} steps "
            f"(distance {float(np.min(dist[k - 1])):.3g})"
        )
    residual = float(np.max(dist[-1]))
    if residual >= CLOSE_TOL:
        raise ResidualFailureError(
            f"orbit failed to close after {n} steps "
            f"(residual {residual:.3g})"
        )
    return residual


def count_poncelet_pairs(family, n, seed=0):
    """All inner radii t for which (K, L_t) is an n-Poncelet pair.

    r(t) falls from exactly 1/2 at t = 0 to exactly 0 at internal
    tangency, so the candidates are the reduced fractions p/n < 1/2, one
    pair each: euler_totient(n)/2 of them (the family's theorem check).
    Each is certified by solve_rotation and verify_closure; a pair that
    fails either is recorded in `missing` with the reason, and the report
    comes up short.
    """
    if n < 3:
        raise ValueError("counting starts at n = 3")
    pairs = []
    missing = []
    for p in range(1, (n + 1) // 2):
        if math.gcd(p, n) != 1:
            continue
        try:
            g = family.lift(solve_rotation(family, Fraction(p, n)))
            residual = verify_closure(g, n, seed=seed)
        except (NoSolutionError, ResidualFailureError) as err:
            missing.append((p, str(err)))
            continue
        pairs.append(PonceletPair(t=g.cfg.t, n=n, p=p,
                                  closure_residual=residual))
    return CountReport(n=n, pairs=pairs, expected=euler_totient(n) // 2,
                       missing=missing)
