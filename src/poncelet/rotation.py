"""Rotation numbers of circle-map lifts and the Poncelet-pair counting
pipeline.

The estimator is the plain Birkhoff quotient (g^n(x) - x)/n with the
rigorous error radius 1/n, preceded by a rational-lock scan: a sign change
of g^q(x) - x - p on a grid certifies the exact rotation number p/q.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .geometry import TWO_PI, PonceletConfig
from .lifts import PonceletLift

LOCK_GRID = 512
LOCK_RESIDUAL = 1e-12


class NoSolutionError(ValueError):
    """Requested rotation value is outside the image of r."""


class ResidualFailureError(RuntimeError):
    """Bisection converged but the rational lock could not be confirmed."""


@dataclass(frozen=True)
class RotationEstimate:
    value: float
    error_radius: float
    iterations: int
    lock: Optional[Tuple[int, int]] = None  # (p, q), gcd = 1
    lock_point: Optional[float] = None

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


def _refine_lock(g, p, q, lo, hi, d_lo):
    """Bisect d(x) = g^q(x) - x - p on a sign-change bracket."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = g.advance(mid, q) - mid - p
        if abs(d_mid) < LOCK_RESIDUAL or hi - lo < 1e-16:
            return mid
        if (d_mid > 0) == (d_lo > 0):
            lo = mid
            d_lo = d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_rational_lock(g, p, q, grid=LOCK_GRID):
    """Search for x0 with g^q(x0) = x0 + p; returns x0 or None.

    Absence on the grid is heuristic evidence only, not a proof.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q must be reduced, got {p}/{q}")
    xs = np.linspace(0.0, 1.0, grid, endpoint=False)
    d = g.orbit_table(xs, q)[q] - xs - p
    return _lock_from_grid(g, p, q, xs, d)


def _lock_from_grid(g, p, q, xs, d):
    i = int(np.argmin(np.abs(d)))
    if abs(d[i]) < LOCK_RESIDUAL:
        return float(xs[i])
    # sign change across the (periodic) grid
    d_ring = np.append(d, d[0])
    x_ring = np.append(xs, xs[0] + 1.0)
    signs = np.sign(d_ring)
    for j in range(len(xs)):
        if signs[j] != signs[j + 1]:
            # the sign change already certifies a root of the continuous
            # displacement; bisection only sharpens its location.  Near
            # internal tangency d has huge slope, so |d| at the refined
            # point may stay large even though the bracket is machine-thin.
            x0 = _refine_lock(g, p, q, x_ring[j], x_ring[j + 1], d_ring[j])
            return float(x0)
    return None


def rotation_number(g, x0=0.0, tol=1e-4, q_max=64):
    """Estimate r(g) with a sound error radius.

    A rough pass of n0 = 1024 steps from x0 picks the candidates p/q,
    q <= q_max, within 1.5/n0 of its quotient.  The lock scan builds the
    LOCK_GRID-point orbit table only as deep as the deepest candidate and
    reads row q of each candidate, in ascending q; with no candidate it
    builds none.  A detected rational lock p/q gives the exact value
    (error radius 0); otherwise the Birkhoff quotient over
    n = ceil(1/tol) iterations is returned with error radius 1/n.  For
    n <= n0 that orbit is the rough pass's, read at step n.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    g.validate(samples=16)

    n0 = 1024
    orbit = g.orbit_table([x0], n0)[:, 0].tolist()
    rough = (orbit[n0] - x0) / n0

    candidates = []
    for q in range(1, q_max + 1):
        p = round(q * rough)
        if math.gcd(p, q) == 1 and abs(p / q - rough) <= 1.5 / n0:
            candidates.append((p, q))
    if candidates:
        xs = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
        table = g.orbit_table(xs, candidates[-1][1])
        for p, q in candidates:
            d = table[q] - xs - p
            x_lock = _lock_from_grid(g, p, q, xs, d)
            if x_lock is not None:
                return RotationEstimate(
                    value=p / q, error_radius=0.0, iterations=n0,
                    lock=(p, q), lock_point=x_lock,
                )

    n = max(1, math.ceil(1.0 / tol))
    # a continuation of the rough pass would round differently from one
    # run of n steps (RigidLift.advance is x + n * alpha)
    end = orbit[n] if n <= n0 else g.advance(x0, n)
    value = (end - x0) / n
    return RotationEstimate(value=value, error_radius=1.0 / n, iterations=n)


def staircase(family, t_grid, tol=1e-4):
    """Sample r(t) over a sorted grid and check weak monotonicity."""
    t_grid = list(t_grid)
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


def _lock_displacement(g, x0, q, p):
    return g.advance(x0, q) - x0 - p


def solve_rotation(family, target, bracket=None, x_ref=0.375):
    """Find t* with r(t*) = target = p/q by bisection on the lock residual
    s(t) = g_t^q(x_ref) - x_ref - p, which is monotone in t for a monotone
    family.  Returns (t*, x_ref): x_ref is an exact lock point when
    s(t*) = 0, and otherwise the opposite-signed residuals on the
    machine-thin bracket around t* are the certificate."""
    target = Fraction(target)
    p, q = target.numerator, target.denominator
    a, b = bracket if bracket is not None else (family.a, family.b)

    s_a = _lock_displacement(family.lift(a), x_ref, q, p)
    s_b = _lock_displacement(family.lift(b), x_ref, q, p)
    for t_end, s_end in ((a, s_a), (b, s_b)):
        if s_end == 0.0:
            return t_end, x_ref
    if s_a * s_b > 0:
        raise NoSolutionError(
            f"target {p}/{q} not bracketed on [{a}, {b}] "
            f"(residuals {s_a:.3g}, {s_b:.3g})"
        )
    lo, hi, s_lo, s_hi = a, b, s_a, s_b
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s_mid = _lock_displacement(family.lift(mid), x_ref, q, p)
        if s_mid == 0.0:
            return mid, x_ref
        if (s_mid > 0) == (s_lo > 0):
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    # the opposite-signed residuals on the machine-thin bracket certify a
    # parameter with lock p/q inside it (the displacement is continuous in
    # t and vanishes exactly at the lock)
    t_star = lo if abs(s_lo) <= abs(s_hi) else hi
    if (s_lo > 0) == (s_hi > 0):
        raise ResidualFailureError(
            f"no rational lock {p}/{q} confirmed at t = {t_star}"
        )
    return t_star, x_ref


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


def verify_closure(pair, base_cfg, starts=20, seed=0,
                   close_tol=1e-8, early_tol=1e-4):
    """Closure residual of an n-Poncelet pair from random start angles.

    Iterates the geometric map n steps; returns the max angular distance
    (radians) to the start and asserts no earlier return within early_tol.
    """
    cfg = PonceletConfig(base_cfg.R, base_cfg.c, pair.t)
    lift = PonceletLift(cfg)
    rng = np.random.default_rng(seed)
    xs = rng.random(starts)
    table = lift.orbit_table(xs, pair.n)

    def ang_dist(row):
        frac = np.abs((row - xs + 0.5) % 1.0 - 0.5)
        return TWO_PI * frac

    for k in range(1, pair.n):
        early = float(np.min(ang_dist(table[k])))
        if early <= early_tol:
            raise ResidualFailureError(
                f"orbit returned after {k} < {pair.n} steps "
                f"(distance {early:.3g})"
            )
    residual = float(np.max(ang_dist(table[pair.n])))
    if residual >= close_tol:
        raise ResidualFailureError(
            f"orbit failed to close after {pair.n} steps "
            f"(residual {residual:.3g})"
        )
    return residual


def count_poncelet_pairs(family, n, starts=20, seed=0):
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
            t_star, _ = solve_rotation(family, Fraction(p, n))
            t_inner = family.inner_radius(t_star)
            pair = PonceletPair(t=t_inner, n=n, p=p,
                                closure_residual=math.nan)
            residual = verify_closure(pair, family.base_cfg, starts=starts,
                                      seed=seed)
        except (NoSolutionError, ResidualFailureError) as err:
            missing.append((p, str(err)))
            continue
        pairs.append(PonceletPair(t=t_inner, n=n, p=p,
                                  closure_residual=residual))
    return CountReport(n=n, pairs=pairs, expected=euler_totient(n) // 2,
                       missing=missing)
