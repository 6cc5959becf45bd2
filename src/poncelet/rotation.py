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
of a staircase (1/2, 1/3, 1/4, 0/1) cost 64 steps and a few q-step orbits
of one float.
Each p/q is scanned on its own table, and brackets only narrow, so the
stages find the lock one scan at ROUGH_STEPS would.  Below
q = ceil((b + d) / (b c - a d)) only the ends of the bracket [a/b, c/d]
can be candidates, so a stage loops over no smaller q (see _candidates).
The first stage scans the LOCK_SUBGRID-point subgrid of the grid before
the grid itself, one point at a time off the lift's one-float orbits
(`g.advance`), and stops at its first root cell; only a miss builds the
grid's table.  One scan, `_root_cell`, reads both: the subgrid's d_i as
they are computed, and the grid's as its table's row.

In exact arithmetic the bracket [a/b, c/d] of n steps has b, d <= n, so
the mediant (a + c)/(b + d), which lies strictly inside it, is read by
step 2n: a doubling of n that leaves the bracket unchanged means the
floors are lost in the rounding allowance.  The parameter search asks
it only on which side of a target r lies; the bracket narrows as the
orbit grows and holds the estimate, so each bisection step stops at the
first bracket that excludes the target and takes that bracket's
midpoint as its estimate.

The floors are read off a float orbit, each widened by a rounding
allowance (FLOOR_SLACK plus an ulp of the coordinate per step) that is not
yet a certified rounding budget.  An estimate is the interval it
certifies, kept as integers: the bracket [a/b, c/d], or the point p/q
of a lock; its value, radius and lock are read off it.  Floors that
contradict each other (a/b >= c/d: the orbit's rounding beat the
allowance, seen at R = 1 only with R - c and (R - c - t) / (R - c) both
below 1e-4, near internal tangency) raise ValueError.

The estimator's orbit columns, brackets and lock grid's table are numpy
arrays, imported where they are built; the root-cell scan reads floats,
the grid's row as a list.  The pair count needs none, and builds no
lift: its lap residual G(t) = g_t^n(X_REF) - X_REF and verify_closure's
starts are read off the family's one-point orbit,
`family.orbit(t, starts, n)`, which runs the map's loop with no python
call per step.  Every p/n of one n is solved
on G - p, with G at the bracket's ends evaluated once per n
(solve_rotation runs the same solve on its own q), and each count draws
its seeded closure starts once and hands the same starts to
verify_closure for every pair, which reads all their columns from one
orbit call.  Both read their n through the kernels' `read_count`, the one
reader of every count argument, which `orbit_table`, `family.orbit`,
`euler_totient` and the parameter search's iters share.
The records are `NamedTuple` classes.
"""

import functools
import math
import random
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from . import kernels
from .geometry import TWO_PI

LOCK_GRID = 512       # points of the periodic lock-scan grid
# Points of its subgrid, every 16th, which the first-stage scan tries before
# the grid, one point at a time: a lock's root cell turns up almost anywhere
# on the grid, so the scan mostly stops after two or three points.
LOCK_SUBGRID = 32
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
CLOSURE_STARTS = 20   # seeded start points the count closes each pair from
CLOSE_TOL = 1e-8      # largest closure residual (radians) accepted
EARLY_TOL = 1e-4      # an earlier return this close (radians) is rejected
# verify_closure's prefilter on the signed lap offset v of an earlier
# return: TWO_PI |v| <= EARLY_TOL, rounded, forces |v| below this bound
_EARLY_LAPS = EARLY_TOL / TWO_PI * (1 + 1e-9)
# the magnitudes of ends and weights (or zero) for which shrink_bracket's
# secant point needs no power-of-two scaling to keep its bits
_SECANT_MIN, _SECANT_MAX = 2.0 ** -240, 2.0 ** 240


class NoSolutionError(ValueError):
    """No root is bracketed: the ends handed to shrink_bracket hold no sign
    change (or a nan), or a requested rotation value lies outside the
    estimated image of r."""


class ResidualFailureError(RuntimeError):
    """verify_closure found an orbit that does not close after n steps,
    or that comes back before step n."""


class RotationEstimate(NamedTuple):
    """The interval a/b <= r <= c/d that holds a rotation number r, as
    `bracket = ((a, b), (c, d))` of integers, with b, d >= 1 and a d < c b:
    the Farey bracket of the orbit's floors, which rest on the FLOOR_SLACK
    plus ulp rounding allowance (a guess at the orbit's error, not a
    certified rounding budget).  A lock p/q certified by the lock scan is
    the point ((p, q), (p, q)), gcd(p, q) = 1.  `value` and `error_radius`
    are the interval's midpoint and half-width, each rounded once from
    the integers (p/q and 0.0 on a point), and `lock` is the point's
    (p, q), None off a lock: a Farey bracket never has two equal ends.
    `iterations` is the number of orbit steps read: FIRST_CHUNK for a
    lock certified from the first chunk."""

    bracket: Tuple[Tuple[int, int], Tuple[int, int]]
    iterations: int

    @property
    def value(self):
        (a, b), (c, d) = self.bracket
        return (a * d + c * b) / (2 * b * d)

    @property
    def error_radius(self):
        (a, b), (c, d) = self.bracket
        return (c * b - a * d) / (2 * b * d)

    @property
    def lock(self):
        lo, hi = self.bracket
        return lo if lo == hi else None


class PonceletPair(NamedTuple):
    """An n-Poncelet pair: the family parameter t at which r(t) = p/n,
    which on poncelet_family(R, c) is the inner radius."""

    t: float
    p: int
    closure_residual: float


class StaircaseResult(NamedTuple):
    """r(t) sampled over a sorted grid, as (t, estimate) points.
    `direction` runs from the first value to the last ("increasing",
    "decreasing" or "flat"), and `violations` are the (t_i, t_j, defect)
    of the steps against it beyond the error radii: with equal ends (a
    "flat" staircase, which is weakly monotone only if constant) any
    step."""

    points: List[Tuple[float, RotationEstimate]]

    @property
    def direction(self):
        r_first, r_last = self.points[0][1].value, self.points[-1][1].value
        if r_last > r_first:
            return "increasing"
        return "decreasing" if r_last < r_first else "flat"

    @property
    def violations(self):
        sign = {"increasing": 1.0, "decreasing": -1.0}.get(self.direction, 0.0)
        violations = []
        for (t1, e1), (t2, e2) in zip(self.points, self.points[1:]):
            slack = 2.0 * (e1.error_radius + e2.error_radius) + 1e-12
            step = e2.value - e1.value
            defect = sign * step if sign else -abs(step)
            if defect < -slack:
                violations.append((t1, t2, float(defect)))
        return violations

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
    """Euler's totient of the integer n >= 1, by trial factorization; n is
    read by `kernels.read_count`."""
    n = kernels.read_count(n, 1, "n")
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

    Returns the left grid point of the first cell of the LOCK_GRID-point
    grid whose ends hold an exact zero of d or a sign change, so the cell
    holds a root; None if there is none.  Absence on the grid is heuristic
    evidence only, not a proof.  p and q are read by `kernels.read_count`,
    p with no lower bound.
    """
    p = kernels.read_count(p, -math.inf, "p")
    q = kernels.read_count(q, 1, "q")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be reduced, got {p}/{q}")
    return _lock_point(g, _lock_grid(), p, q)


def _lock_grid():
    """The LOCK_GRID-point lock grid i / LOCK_GRID on [0, 1), built where
    it is scanned."""
    import numpy as np

    return np.arange(LOCK_GRID) / LOCK_GRID


def _root_cell(d):
    """Index of the first cell of a periodic grid whose ends hold an exact
    zero of d or a sign change, or None.  d is an iterable of the grid's
    values in order, read up to that cell's right end.  d(x + 1) = d(x), so
    the last cell closes on d[0]; a nan end certifies nothing."""
    values = iter(d)
    first = last = next(values)
    cell = 0
    for value in values:
        if last <= 0.0 <= value or value <= 0.0 <= last:
            return cell
        last, cell = value, cell + 1
    return cell if last <= 0.0 <= first or first <= 0.0 <= last else None


def _lock_point(g, xs, p, q):
    """The lock certificate of p/q on the periodic grid xs: the left point
    of the first root cell of d = g^q(x) - x - p there, or None."""
    cell = _root_cell((g.orbit_table(xs, q)[q] - xs - p).tolist())
    return None if cell is None else float(xs[cell])


def _subgrid_root_cell(g, p, q):
    """The first root cell of d = g^q(x) - x - p on the LOCK_SUBGRID-point
    subgrid x_i = i / LOCK_SUBGRID of the lock grid, or None.  Each d_i is
    read off the lift's one-float orbit `g.advance(x_i, q)`, in grid order,
    and none past the right end of that cell."""
    return _root_cell(g.advance(i / LOCK_SUBGRID, q) - i / LOCK_SUBGRID - p
                      for i in range(LOCK_SUBGRID))


def _first_lock(g, candidates):
    """The first (p, q) of candidates with a root cell of d = g^q(x) - x - p
    on the LOCK_GRID-point grid; None if none has one.

    Each candidate is scanned on its own table, in order.  One of the
    first stage (q <= Q_MAX FIRST_CHUNK / ROUGH_STEPS) is scanned on the
    LOCK_SUBGRID-point subgrid first, one point at a time, up to its first
    root cell (see _subgrid_root_cell), and only a miss builds the grid's
    table.  Both scans are `_root_cell`, the one rule of a root cell: the
    subgrid's on the lift's one-float orbits, which are the `math` step
    that g(x) and the orbit of 0 run, and the grid's on its table's row,
    whose numpy ufuncs can round otherwise, so the two can differ only
    where d is within rounding of 0.  Deeper candidates go straight to the
    grid: they are almost always rejections, which the subgrid cannot
    give."""
    for p, q in candidates:
        if (q <= Q_MAX * FIRST_CHUNK // ROUGH_STEPS
                and _subgrid_root_cell(g, p, q) is not None
                or _lock_point(g, _lock_grid(), p, q) is not None):
            return p, q
    return None


def _bracket(xs, q):
    """The Farey bracket ((k_lo, q_lo), (k_hi, q_hi)) of the orbit points
    xs = g^q(0) over the float array of steps q: r(g) >= k_lo/q_lo and
    r(g) <= k_hi/q_hi.  Each floor of xs is widened by the rounding
    allowance FLOOR_SLACK plus an ulp of the running coordinate per step,
    so a point that close to an integer widens its q's term by one lap."""
    import numpy as np

    # FLOOR_SLACK + q * spacing(|xs|) and the floors, formed in place; the
    # ndarray methods skip np.argmax's Python wrapper
    slack = np.abs(xs)
    np.spacing(slack, out=slack)
    slack *= q
    slack += FLOOR_SLACK
    k_lo = xs - slack
    np.floor(k_lo, out=k_lo)
    k_hi = np.add(xs, slack, out=slack)
    np.floor(k_hi, out=k_hi)
    k_hi += 1.0
    ratio = k_lo / q
    i = int(ratio.argmax())
    j = int(np.divide(k_hi, q, out=ratio).argmin())
    return (int(k_lo[i]), int(q[i])), (int(k_hi[j]), int(q[j]))


def _candidates(lo, hi, q_first, q_last):
    """The reduced p/q in [a/b, c/d] = [lo, hi] (b, d >= 1) with
    q_first <= q <= q_last, in ascending q, then p.

    A p/q strictly inside has p b - a q >= 1 and c q - p d >= 1, so
    (b c - a d) q >= b + d: below q = ceil((b + d) / (b c - a d)) only the
    ends' reduced forms can be candidates, and the loop over q starts
    there.  Off a lock, the bracket at ROUGH_STEPS is usually a Farey pair
    (b c - a d = 1) with b + d > ROUGH_STEPS, and the loop runs no q."""
    (a, b), (c, d) = lo, hi
    width = b * c - a * d
    q_min = -(-(b + d) // width) if width else q_last + 1
    ends = sorted({(q // math.gcd(k, q), k // math.gcd(k, q))  # (q, p)
                   for k, q in (lo, hi)})
    return [(p, q) for q, p in ends
            if q_first <= q < min(q_min, q_last + 1)] + [
        (p, q) for q in range(max(q_first, q_min), q_last + 1)
        for p in range(-(-a * q // b), c * q // d + 1)
        if math.gcd(p, q) == 1]


def _ratio(fraction):
    # any k/q that rounds low or high is still a sound (looser) bound
    return fraction[0] / fraction[1]


def rotation_number(g, tol=1e-4):
    """Estimate r(g) with an error radius.

    g is a lift whose contract holds, which is not checked here: the
    library's lifts check it where they are built, and `FunctionLift` is
    the checked wrapper of an arbitrary callable.

    The orbit of 0 runs FIRST_CHUNK steps, then on to ROUGH_STEPS, and
    gives the Farey bracket of the module docstring.  After each of the
    two chunks the lock scan tries the reduced p/q inside the bracket,
    q <= 4 after the first and 5 <= q <= Q_MAX after the second, in
    ascending q, each on its own q-step orbit table of the LOCK_GRID-point
    grid (q <= 4 on its LOCK_SUBGRID-point subgrid first, off one-float
    orbits, see _first_lock); a detected lock p/q gives the exact value
    (error radius 0).
    The scan is done before any extension: near a low-order rational the
    bracket narrows only like 1/n.  Otherwise the orbit is extended
    (doubling, at most CHUNK_MAX steps at a time) until half the
    bracket's width is at most tol, and the bracket's midpoint is
    returned with that radius.  A tol not reached when a doubling of the
    orbit leaves the bracket unchanged (the float bracket stops narrowing
    near 1e-11), or by MAX_STEPS steps, raises ValueError.

    The floors are read off a float orbit with the allowance FLOOR_SLACK
    plus an ulp of the coordinate per step, which is not yet a certified
    rounding budget.  Floors that contradict each other, a bracket
    [a/b, c/d] with a/b >= c/d, raise ValueError.  An orbit that lands on
    an integer exactly is not taken as a lock: in floating point it need
    not be one.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return _estimate(g, tol, None)


def _estimate(g, tol, target):
    """The Farey-bracket loop of rotation_number and of the parameter
    search's side test; it returns a RotationEstimate on every path.

    The orbit of 0 runs in chunks of FIRST_CHUNK steps, then of as
    many steps as ran before, at most CHUNK_MAX each, and each chunk's
    bracket narrows the running one; an estimate (no target) runs its
    second chunk straight on to ROUGH_STEPS.  After every chunk the
    estimate is RotationEstimate((lo, hi), n), the running bracket with
    the steps read so far, built of integers alone; before any target or
    lock test, a bracket [a/b, c/d] with a/b >= c/d (radius <= 0: the
    floors contradict each other) raises ValueError with n and both
    ends.  At each n <= ROUGH_STEPS the lock scan tries the p/q inside the
    bracket with q <= Q_MAX n / ROUGH_STEPS that it has not tried yet, and
    a lock p/q is the estimate, the point ((p, q), (p, q)).  Otherwise the
    estimate is returned once its radius is at most tol, or, given a
    target, at the first bracket that excludes the target: the final
    estimate lies in every bracket, and rounding is monotone, so
    `value < target` is the final estimate's side.  From ROUGH_STEPS on,
    it gives up with ValueError at the first doubling of n that leaves the
    bracket unchanged, or at MAX_STEPS.  (The rigid lift's closed-form
    rows round differently when continued from a chunk's last row, by ulps
    that move a floor only within ulps of the allowance's edge.)"""
    import numpy as np

    lo, hi = (-math.inf, 1), (math.inf, 1)  # the bracket of no steps
    n, end, m = 0, 0.0, FIRST_CHUNK
    n_ref, ref = 0, None  # the bracket the next doubling of n must narrow
    while True:
        column = g.orbit_table([end], m)[1:, 0]
        more = _bracket(column, np.arange(n + 1.0, n + m + 1.0))
        lo, hi = max(lo, more[0], key=_ratio), min(hi, more[1], key=_ratio)
        n, end = n + m, float(column[-1])
        est = RotationEstimate((lo, hi), n)
        if est.error_radius <= 0.0:  # rounding beat the allowance
            raise ValueError(f"after {n} steps the orbit's floors contradict "
                             f"each other: {lo[0]}/{lo[1]} >= {hi[0]}/{hi[1]}")
        if target is not None and not _ratio(lo) <= target <= _ratio(hi):
            return est
        if n <= ROUGH_STEPS:
            # the q the last stage scanned, at n - m steps, are not retried
            lock = _first_lock(g, _candidates(
                lo, hi, Q_MAX * (n - m) // ROUGH_STEPS + 1,
                Q_MAX * n // ROUGH_STEPS))
            if lock is not None:
                return RotationEstimate((lock, lock), n)
        if n >= ROUGH_STEPS:
            if est.error_radius <= tol:
                return est
            doubled = n >= 2 * n_ref
            if doubled and (lo, hi) == ref or n >= MAX_STEPS:
                raise ValueError(
                    f"the bracket's radius {est.error_radius:.3g} is still "
                    f"above tol = {tol:.3g} after {n} steps")
            if doubled:
                n_ref, ref = n, (lo, hi)
        if target is None and n < ROUGH_STEPS:
            m = ROUGH_STEPS - n
        else:
            m = min(n, CHUNK_MAX)


def staircase(family, t_grid, tol):
    """Sample r(t) over a sorted grid; the result's `direction` and
    `violations` check weak monotonicity."""
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be sorted ascending")
    return StaircaseResult(points=[
        (t, rotation_number(family.lift(t), tol=tol)) for t in t_grid])


def shrink_bracket(f, lo, f_lo, hi, f_hi):
    """Shrink the bracket lo < hi of a sign change of f, whose end values
    f_lo = f(lo) and f_hi = f(hi) have opposite signs (or one is an exact
    zero), to an exact zero of f or two adjacent floats.  Returns
    (lo, f_lo, hi, f_hi), whose values keep opposite signs or hold an
    exact zero.  This is the one check of a bracket: ends without a sign
    change, or with a nan value, raise NoSolutionError.

    Regula falsi on weighted ends with the Illinois rule (Dowell and
    Jarratt 1971): when the same end is kept twice in a row, its weight is
    halved, so the secant point soon lands on its side of the root and
    neither end stalls.  Each secant point is formed on the ends scaled by
    the power of two that takes the larger into [1/4, 1/2), and on the
    weights scaled by the one that takes their difference into [1/2, 1):
    they have opposite signs, so that takes the larger |w| into [1/4, 1).
    The scalings are exact short of the subnormal range, so the point has
    the unscaled formula's bits wherever those products are normal, and
    at any scale of the bracket or of f's values it keeps the products
    lo * w_hi and hi * w_lo finite and off the subnormal range, where the
    point would round onto an end and each step move the bracket by one
    float.

    Where both ends and both weights are zero or lie in
    [_SECANT_MIN, _SECANT_MAX] = [2^-240, 2^240] in magnitude, the point
    is formed unscaled, (lo w_hi - hi w_lo) / (w_hi - w_lo), to the same
    bits.  There the scalings' exponents e and s have |e|, |s| <= 242, the
    products are zero or in [2^-480, 2^480], a nonzero difference of them
    is a multiple of 2^-532, and the quotient, a weighted mean of the
    ends, is zero or at least 2^-532 / 2^241.  So every intermediate of
    either formula, unscaled or scaled by 2^-e, 2^-s or 2^-(e + s), is an
    exact zero or a normal float no larger than 2^965, and rounding
    commutes with the scalings.  A secant point that rounds onto an end
    steps to that end's float neighbour inward instead.  A nan value of f
    inside the bracket raises ValueError: every later secant point would
    be nan."""
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        raise NoSolutionError(
            f"no sign change: f({lo}) = {f_lo}, f({hi}) = {f_hi}")
    w_lo, w_hi = f_lo, f_hi
    kept = 0  # +1 / -1: hi / lo was kept on the last step
    tiny, huge = _SECANT_MIN, _SECANT_MAX
    while f_lo != 0.0 and f_hi != 0.0:
        inner_lo = math.nextafter(lo, hi)
        if inner_lo == hi:
            break
        if ((tiny <= abs(lo) <= huge or lo == 0.0)
                and (tiny <= abs(hi) <= huge or hi == 0.0)
                and (tiny <= abs(w_lo) <= huge or w_lo == 0.0)
                and (tiny <= abs(w_hi) <= huge or w_hi == 0.0)):
            x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        else:
            e = math.frexp(max(abs(lo), abs(hi)))[1] + 1
            s = math.frexp(w_hi - w_lo)[1]
            u, v = math.ldexp(w_hi, -s), math.ldexp(w_lo, -s)
            x = math.ldexp((math.ldexp(lo, -e) * u - math.ldexp(hi, -e) * v)
                           / (u - v), e)
        if not x > lo:
            x = inner_lo
        elif not x < hi:
            x = math.nextafter(hi, lo)
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
    monotone in t for a monotone family.  Each residual reads g_t^q(X_REF)
    off the family's one-point orbit `family.orbit(t, (X_REF,), q)`: no
    lift is built.

    shrink_bracket checks the bracket [family.a, family.b] (residuals
    without a sign change, the target outside the image of r, raise its
    NoSolutionError) and takes it to an exact zero or two adjacent floats,
    and t* is the end with the smaller residual.  X_REF is an exact lock
    point when s(t*) = 0, and otherwise the opposite-signed residuals on
    the machine-thin bracket around t* are the certificate: the
    displacement is continuous in t and vanishes exactly at the lock.  A
    denominator above MAX_STEPS (the float 0.1 is 3602879701896397/2^55)
    raises ValueError at once.  The solve is the one count_poncelet_pairs
    runs for each p/n, on the lap residual of _lap."""
    target = Fraction(target)
    p, q = target.numerator, target.denominator
    if q > MAX_STEPS:
        raise ValueError(f"target {target} has denominator {q} > MAX_STEPS"
                         f" = {MAX_STEPS}: each residual would run {q} steps"
                         " (give a float target as Fraction(p, q))")
    lap = _lap(family.orbit, q)
    return _solve_lap(lap, family.a, lap(family.a), family.b, lap(family.b),
                      p)


def _lap(orbit, q):
    """The lap residual G(t) = g_t^q(X_REF) - X_REF, the last point of the
    family's one-point orbit `orbit(t, (X_REF,), q)` of X_REF; G(t) - p is
    s(t) of solve_rotation, to the bit, as `x - X_REF - p` subtracts left
    to right."""
    return lambda t: orbit(t, (X_REF,), q)[0][-1] - X_REF


def _solve_lap(lap, a, lap_a, b, lap_b, p):
    """t* with lap(t*) = p on [a, b], given the ends' values lap_a = lap(a)
    and lap_b = lap(b): shrink_bracket on lap - p, and the end with the
    smaller residual."""
    lo, s_lo, hi, s_hi = shrink_bracket(lambda t: lap(t) - p,
                                        a, lap_a - p, b, lap_b - p)
    return lo if abs(s_lo) <= abs(s_hi) else hi


def find_parameter_for_value(family, target_value, iters=48, *, tol):
    """Bisect for a parameter tau with r(tau) close to target_value.

    Useful for placing tau at a heuristically-irrational rotation value;
    unlike solve_rotation there is no lock certificate, only estimates.
    The ends are rotation_number estimates.  Each bisection step asks only
    on which side of target_value r(mid) lies, and reads the answer off
    the shortest doubling prefix of the orbit whose Farey bracket excludes
    the target, or that certifies a lock; only a target inside the
    ROUGH_STEPS-step bracket is still decided by the estimate.  The side
    is `value < target_value` of the estimate that step stopped at, the
    one `rotation_number(lift, tol=tol)` gives, so tau is the one
    bisection on the estimates gives.  A step whose target stays inside a
    bracket wider than 2 tol for MAX_STEPS steps, or whose orbit's floors
    contradict each other, raises ValueError.  The midpoints halve each
    end before adding, so they do not overflow near the float maximum.  A
    negative or non-integer iters raises at once, from `kernels.read_count`.
    """
    iters = kernels.read_count(iters, 0, "iters")
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
        mid = 0.5 * lo + 0.5 * hi
        est = _estimate(family.lift(mid), tol, target_value)
        if (est.value < target_value) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def verify_closure(orbit, n, starts):
    """Closure residual of a one-float map after n steps from each float of
    the sequence `starts`, read off its one-point orbit: `orbit(starts, n)`
    is one column [x, g(x), ..., g^n(x)] per start x, such as a family's
    `functools.partial(family.orbit, t)`, called once.  n is read by
    `kernels.read_count`: a non-integer n raises TypeError, and an n below
    1, or no starts, ValueError, before any orbit runs.

    Returns the max angular distance (radians) to the start; raises
    ResidualFailureError if it is CLOSE_TOL or more (or nan), or if an
    orbit comes back within EARLY_TOL before step n: the error names the
    smallest such step over all starts, and the least distance there.
    Each of the first n - 1 steps is tested on the signed lap offset v
    first, against the bound _EARLY_LAPS a hair above EARLY_TOL / TWO_PI,
    and only a v that passes on the exact TWO_PI |v| <= EARLY_TOL, so the
    prefilter changes no decision; the n-th point is read after that loop.
    Each column runs all n steps, so an error the map raises after an
    early return passes through.
    """
    n = kernels.read_count(n, 1, "n")
    if len(starts) == 0:
        raise ValueError("starts must hold at least one start point")
    early = None  # (k, distance) of the earliest return before step n
    ends = []
    low, high = -_EARLY_LAPS, _EARLY_LAPS  # the prefilter's bounds on v
    for x0, column in zip(starts, orbit(starts, n)):
        for k in range(1, n):
            v = (column[k] - x0 + 0.5) % 1.0 - 0.5  # laps to the start
            if low <= v <= high:
                dist = TWO_PI * abs(v)  # angular distance to the start
                if dist <= EARLY_TOL:
                    # the smallest step, then the least distance there
                    early = min(early or (k, dist), (k, dist))
                    break
        else:
            ends.append(TWO_PI * abs((column[n] - x0 + 0.5) % 1.0 - 0.5))
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
    Each is solved as solve_rotation solves p/n, on the one lap residual
    G(t) = g_t^n(X_REF) - X_REF of this n: G(family.a) and G(family.b)
    are evaluated once, and each p solves G - p on the bracket they end.
    Each pair is then certified by verify_closure on the family's orbit
    at the solved t, every pair from the same CLOSURE_STARTS starts,
    drawn once per call from random.Random(seed), and reported with that
    t; a pair that fails either (NoSolutionError, a nan residual at an end
    among them, or ResidualFailureError) is recorded in `missing` with the
    reason, and the report comes up short.
    n is read by `kernels.read_count`: a non-integer n raises TypeError,
    and an n below 3 or above MAX_STEPS ValueError, before any residual
    runs.  No lift is built.
    """
    n = kernels.read_count(n, 3, "n")
    if n > MAX_STEPS:
        raise ValueError(f"n = {n} > MAX_STEPS = {MAX_STEPS}: each residual"
                         f" would run {n} steps")
    rng = random.Random(seed)
    starts = [rng.random() for _ in range(CLOSURE_STARTS)]
    lap = _lap(family.orbit, n)
    a, b = family.a, family.b
    lap_a, lap_b = lap(a), lap(b)
    pairs, missing = [], []
    for p in range(1, (n + 1) // 2):
        if math.gcd(p, n) != 1:
            continue
        try:
            t = _solve_lap(lap, a, lap_a, b, lap_b, p)
            residual = verify_closure(functools.partial(family.orbit, t), n,
                                      starts)
        except (NoSolutionError, ResidualFailureError) as err:
            missing.append((p, str(err)))
            continue
        pairs.append(PonceletPair(t=t, p=p, closure_residual=residual))
    return CountReport(pairs=pairs, expected=euler_totient(n) // 2,
                       missing=missing)
