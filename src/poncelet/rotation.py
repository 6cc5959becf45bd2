"""Rotation numbers of circle-map lifts and the Poncelet-pair counting
pipeline.

The estimator reads a Farey bracket off the orbit of 0.  For a lift g
and any q >= 1, g^q(0) >= k forces r(g) >= k/q, and g^q(0) < k + 1 forces
r(g) <= (k + 1)/q (Katok and Hasselblatt, ch. 11), so the orbit's first n
steps give

    r(g) in [max_q k_lo/q, min_q k_hi/q],   q = 1..n,

with k_lo and k_hi the floors of g^q(0).  Its width is ~1/n^2 between
Farey neighbours of order n, and never more than 2/n.  The start 0 is
the exact fixed point of the Poncelet lift at internal tangency.  A
rational-lock scan comes first: an exact zero or a sign change of
g^q(x) - x - p on a periodic grid certifies the exact rotation number p/q.

One loop runs the orbit in chunks, scans for locks in stages up to
ROUGH_STEPS steps, and stops at a lock, at a radius of at most tol, or
with ValueError once the bracket stops narrowing (near 1e-11 in floats)
or at MAX_STEPS steps.  At n steps the scan tries the p/q inside the
bracket with q <= Q_MAX n / ROUGH_STEPS not tried at an earlier stage:
q <= 4 after the first chunk of FIRST_CHUNK steps, so the low-order locks
of a staircase (1/2, 1/3, 1/4, 0/1) cost 64 steps and a 4-row table.
Brackets only narrow, and row q of a lock table has the same bits at any
depth, so the stages find the lock one scan at ROUGH_STEPS would.

In exact arithmetic the bracket [a/b, c/d] of n steps has b, d <= n, so
the mediant (a + c)/(b + d), which lies strictly inside it, is read by
step 2n: a doubling of n that leaves the bracket unchanged means the
floors are lost in the rounding allowance.  The parameter search asks
it only on which side of a target r lies; the bracket narrows as the
orbit grows and holds the estimate, so each bisection step stops at the
first bracket that excludes the target.

The floors are read off a float orbit, each widened by a rounding
allowance (FLOOR_SLACK plus an ulp of the coordinate per step) that is not
yet a certified rounding budget.

The estimator's orbit columns, brackets and lock table are numpy arrays,
imported where they are built.  The pair count needs none, and builds no
lift: solve_rotation's residual and verify_closure's starts iterate one
float at a time on the family's scalar step, `family.step(t)`.  The
records are `NamedTuple` classes.
"""

import math
import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .geometry import TWO_PI

LOCK_GRID = 512       # points of the periodic lock-scan grid
Q_MAX = 64            # largest lock denominator rotation_number tries
ROUGH_STEPS = 1024    # steps by which the lock scan has tried q <= Q_MAX
FIRST_CHUNK = 64      # first prefix read, and first lock scan (q <= 4)
CHUNK_MAX = 1 << 16   # most steps one extension of that orbit adds
MAX_STEPS = 1 << 20   # most steps an estimate runs before it gives up
# Rounding allowance on the bracket's floors: an orbit point g^q(0) within
# FLOOR_SLACK, plus q ulps of its coordinate, of an integer k counts as
# either side of it.  It is a guess at the float orbit's error, not a
# certified rounding budget.
FLOOR_SLACK = 1e-9
X_REF = 0.375         # start point of solve_rotation's lock residual
CLOSURE_STARTS = 20   # random start points of verify_closure
CLOSE_TOL = 1e-8      # largest closure residual (radians) accepted
EARLY_TOL = 1e-4      # an earlier return this close (radians) is rejected


class NoSolutionError(ValueError):
    """Requested rotation value is outside the image of r."""


class ResidualFailureError(RuntimeError):
    """The solve converged but the rational lock could not be confirmed."""


class RotationEstimate(NamedTuple):
    """A rotation number with an error radius.  A lock (p, q) gives value
    p/q with radius 0, certified by the lock scan.  Off a lock the radius
    is half the Farey bracket's width, whose floors rest on the FLOOR_SLACK
    plus ulp rounding allowance: a guess at the orbit's error, not a
    certified rounding budget.  `iterations` is the number of orbit steps
    read: FIRST_CHUNK for a lock certified from the first chunk."""

    value: float
    error_radius: float
    iterations: int
    lock: Optional[Tuple[int, int]] = None  # (p, q), gcd = 1


class PonceletPair(NamedTuple):
    """An n-Poncelet pair: the family parameter t at which r(t) = p/n,
    which on poncelet_family(R, c) is the inner radius."""

    t: float
    p: int
    closure_residual: float


class StaircaseResult(NamedTuple):
    points: List[Tuple[float, RotationEstimate]]
    direction: str  # "increasing" | "decreasing" | "flat"
    violations: List[Tuple[float, float, float]]  # (t_i, t_j, defect)

    @property
    def monotone_ok(self):
        return not self.violations


class CountReport(NamedTuple):
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
    if q < 1:
        raise ValueError(f"p/q needs q >= 1, got {p}/{q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be reduced, got {p}/{q}")
    lock = _first_lock(g, [(p, q)])
    return None if lock is None else lock[1]


def _first_lock(g, candidates):
    """((p, q), x) for the first (p, q) of candidates with a root cell of
    d = g^q(x) - x - p on the LOCK_GRID-point grid, x its left end; None
    if none has one.  One orbit table serves every candidate."""
    if not candidates:
        return None
    import numpy as np

    xs = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
    table = g.orbit_table(xs, max(q for _, q in candidates))
    for p, q in candidates:
        # d(x + 1) = d(x), so the last cell closes on d[0]; a nan end has
        # sign nan and certifies nothing
        signs = np.sign(table[q] - xs - p)
        hits = np.flatnonzero(signs * np.roll(signs, -1) <= 0)
        if hits.size:
            return (p, q), float(xs[hits[0]])
    return None


def _bracket(xs, q):
    """The Farey bracket ((k_lo, q_lo), (k_hi, q_hi)) of the orbit points
    xs = g^q(0) over the float array of steps q: r(g) >= k_lo/q_lo and
    r(g) <= k_hi/q_hi.  Each floor of xs is widened by the rounding
    allowance FLOOR_SLACK plus an ulp of the running coordinate per step,
    so a point that close to an integer widens its q's term by one lap."""
    import numpy as np

    slack = FLOOR_SLACK + q * np.spacing(np.abs(xs))
    k_lo = np.floor(xs - slack)
    k_hi = np.floor(xs + slack) + 1.0
    i = int(np.argmax(k_lo / q))
    j = int(np.argmin(k_hi / q))
    return (int(k_lo[i]), int(q[i])), (int(k_hi[j]), int(q[j]))


def _ratio(fraction):
    # any k/q that rounds low or high is still a sound (looser) bound
    return fraction[0] / fraction[1]


def rotation_number(g, tol=1e-4):
    """Estimate r(g) with an error radius.

    The orbit of 0 runs FIRST_CHUNK steps, then on to ROUGH_STEPS, and
    gives the Farey bracket of the module docstring.  After each of the
    two chunks the lock scan tries the reduced p/q inside the bracket,
    q <= 4 after the first and 5 <= q <= Q_MAX after the second, in
    ascending q, on one LOCK_GRID-point orbit table as deep as the
    deepest; a detected lock p/q gives the exact value (error radius 0).
    The scan is done before any extension: near a low-order rational the
    bracket narrows only like 1/n.  Otherwise the orbit is extended
    (doubling, at most CHUNK_MAX steps at a time) until half the
    bracket's width is at most tol, and the bracket's midpoint is
    returned with that radius.  A tol not reached when a doubling of the
    orbit leaves the bracket unchanged (the float bracket stops narrowing
    near 1e-11), or by MAX_STEPS steps, raises ValueError.

    The floors are read off a float orbit with the allowance FLOOR_SLACK
    plus an ulp of the coordinate per step, which is not yet a certified
    rounding budget.  An orbit that lands on an integer exactly is not taken
    as a lock: in floating point it need not be one.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return _estimate(g, tol, None)


def _estimate(g, tol, target):
    """The Farey-bracket loop: the estimate of rotation_number, or given a
    target, whether it lies below the target.

    The orbit of 0 runs in chunks of FIRST_CHUNK steps, then of as
    many steps as ran before, at most CHUNK_MAX each, and each chunk's
    bracket narrows the running one; an estimate (no target) runs its
    second chunk straight on to ROUGH_STEPS.  At each n <= ROUGH_STEPS
    the lock scan tries the p/q inside the bracket with
    q <= Q_MAX n / ROUGH_STEPS that it has not tried yet.  A lock, or the
    midpoint once the radius is at most tol, is the estimate, which lies
    in every bracket, so the first one to exclude a target gives its
    side.  From ROUGH_STEPS on, it gives up with ValueError at the first
    doubling of n that leaves the bracket unchanged, or at MAX_STEPS.
    (The rigid lift's closed-form rows round differently when continued
    from a chunk's last row, by ulps that move a floor only within ulps of
    the allowance's edge.)"""
    import numpy as np

    g.validate(samples=16)
    lo, hi = (-math.inf, 1), (math.inf, 1)  # the bracket of no steps
    n, end, m = 0, 0.0, FIRST_CHUNK
    n_ref, ref = 0, None  # the bracket the next doubling of n must narrow
    while True:
        column = g.orbit_table([end], m)[1:, 0]
        more = _bracket(column, np.arange(n + 1.0, n + m + 1.0))
        lo, hi = max(lo, more[0], key=_ratio), min(hi, more[1], key=_ratio)
        n, end = n + m, float(column[-1])
        if target is not None and not _ratio(lo) <= target <= _ratio(hi):
            return _ratio(hi) < target
        (a, b), (c, d) = lo, hi
        if n <= ROUGH_STEPS:
            # the q the last stage scanned, at n - m steps, are not retried
            lock = _first_lock(g, [
                (p, q) for q in range(Q_MAX * (n - m) // ROUGH_STEPS + 1,
                                      Q_MAX * n // ROUGH_STEPS + 1)
                for p in range(-(-a * q // b), c * q // d + 1)
                if math.gcd(p, q) == 1])
            if lock is not None:
                (p, q), _ = lock
                est = RotationEstimate(value=p / q, error_radius=0.0,
                                       iterations=n, lock=(p, q))
                break
        if n >= ROUGH_STEPS:
            # midpoint and half-width of [a/b, c/d], each rounded once
            den = 2 * b * d
            radius = (c * b - a * d) / den
            if radius <= tol:
                est = RotationEstimate(value=(a * d + c * b) / den,
                                       error_radius=radius, iterations=n)
                break
            doubled = n >= 2 * n_ref
            if doubled and (lo, hi) == ref or n >= MAX_STEPS:
                raise ValueError(
                    f"the bracket's radius {radius:.3g} is still above "
                    f"tol = {tol:.3g} after {n} steps")
            if doubled:
                n_ref, ref = n, (lo, hi)
        if target is None and n < ROUGH_STEPS:
            m = ROUGH_STEPS - n
        else:
            m = min(n, CHUNK_MAX)
    return est if target is None else est.value < target


def staircase(family, t_grid, tol):
    """Sample r(t) over a sorted grid and check weak monotonicity: a
    step against the direction from the first value to the last is a
    violation, and with equal ends (a "flat" staircase, which is weakly
    monotone only if constant) so is any step."""
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
        step = e2.value - e1.value
        defect = sign * step if sign else -abs(step)
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
    monotone in t for a monotone family.  Each residual iterates the
    family's scalar step `family.step(t)` q times: no lift is built.

    shrink_bracket takes the sign-change bracket [family.a, family.b] to
    an exact zero or two adjacent floats, and t* is the end with the
    smaller residual.  X_REF is an exact lock point when s(t*) = 0, and
    otherwise the opposite-signed residuals on the machine-thin bracket
    around t* are the certificate.  A denominator above MAX_STEPS (the
    float 0.1 is 3602879701896397/2^55) raises ValueError at once."""
    target = Fraction(target)
    p, q = target.numerator, target.denominator
    if q > MAX_STEPS:
        raise ValueError(f"target {target} has denominator {q} > MAX_STEPS"
                         f" = {MAX_STEPS}: each residual would run {q} steps"
                         " (give a float target as Fraction(p, q))")

    def s(t):
        step, x = family.step(t), X_REF
        for _ in range(q):
            x = step(x)
        return x - X_REF - p

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


def find_parameter_for_value(family, target_value, iters=48, *, tol):
    """Bisect for a parameter tau with r(tau) close to target_value.

    Useful for placing tau at a heuristically-irrational rotation value;
    unlike solve_rotation there is no lock certificate, only estimates.
    The ends are rotation_number estimates.  Each bisection step asks only
    on which side of target_value r(mid) lies, and reads the answer off
    the shortest doubling prefix of the orbit whose Farey bracket excludes
    the target, or that certifies a lock; only a target inside the
    ROUGH_STEPS-step bracket is still decided by the estimate.  Each side
    is the one `rotation_number(lift, tol=tol).value < target_value`
    gives, so tau is the one bisection on the estimates gives.  A step whose target stays
    inside a bracket wider than 2 tol for MAX_STEPS steps raises ValueError.
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
        if _estimate(family.lift(mid), tol, target_value) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def verify_closure(step, n, seed):
    """Closure residual of the one-float map `step` (a family's scalar
    step, or a lift) after n steps from CLOSURE_STARTS start points drawn
    from random.Random(seed), each iterated one float at a time.

    Returns the max angular distance (radians) to the start; raises
    ResidualFailureError if it is CLOSE_TOL or more (or nan), or if an
    orbit comes back within EARLY_TOL before step n: the error names the
    smallest such step over all starts, and the least distance there.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = random.Random(seed)
    early = None  # (k, distance) of the earliest return before step n
    ends = []
    for _ in range(CLOSURE_STARTS):
        x0 = x = rng.random()
        for k in range(1, n + 1):
            x = step(x)
            # angular distance to the start
            dist = TWO_PI * abs((x - x0 + 0.5) % 1.0 - 0.5)
            if k < n and dist <= EARLY_TOL:
                if early is None or k < early[0]:
                    early = (k, dist)
                elif k == early[0]:
                    early = (k, min(early[1], dist))
                break
        ends.append(dist)
    if early is not None:
        k, dist = early
        raise ResidualFailureError(
            f"orbit returned after {k} < {n} steps (distance {dist:.3g})"
        )
    # a nan distance counts as the largest
    residual = max(ends, key=lambda d: (math.isnan(d), d))
    if not residual < CLOSE_TOL:
        raise ResidualFailureError(
            f"orbit failed to close after {n} steps "
            f"(residual {residual:.3g})"
        )
    return residual


def count_poncelet_pairs(family, n, seed=0):
    """All parameters t of the family for which (K, L_t) is an
    n-Poncelet pair: on poncelet_family(R, c), the inner radii.

    r(t) falls from exactly 1/2 at t = 0 to exactly 0 at internal
    tangency, so the candidates are the reduced fractions p/n < 1/2, one
    pair each: euler_totient(n)/2 of them (the family's theorem check).
    Each is certified by solve_rotation and by verify_closure on the
    family's scalar step at the solved t, and reported with that t; a pair
    that fails either is recorded in `missing` with the reason, and the
    report comes up short.  No lift is built.
    """
    if n < 3:
        raise ValueError("counting starts at n = 3")
    pairs = []
    missing = []
    for p in range(1, (n + 1) // 2):
        if math.gcd(p, n) != 1:
            continue
        try:
            t = solve_rotation(family, Fraction(p, n))
            residual = verify_closure(family.step(t), n, seed=seed)
        except (NoSolutionError, ResidualFailureError) as err:
            missing.append((p, str(err)))
            continue
        pairs.append(PonceletPair(t=t, p=p, closure_residual=residual))
    return CountReport(pairs=pairs, expected=euler_totient(n) // 2,
                       missing=missing)
