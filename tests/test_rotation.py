"""Rotation-number estimation, lock detection, the parameter solver, and
the Poncelet-pair counting pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.families import (
    MonotoneCircleFamily,
    arnold_family,
    poncelet_family,
    rigid_family,
)
from poncelet.geometry import PonceletConfig
from poncelet.lifts import ArnoldLift, CircleLift, PonceletLift, RigidLift
from poncelet.rotation import (
    CHUNK_MAX,
    FIRST_CHUNK,
    FLOOR_SLACK,
    MAX_STEPS,
    Q_MAX,
    ROUGH_STEPS,
    X_REF,
    NoSolutionError,
    ResidualFailureError,
    _bracket,
    _estimate,
    _first_lock,
    _ratio,
    count_poncelet_pairs,
    detect_rational_lock,
    euler_totient,
    find_parameter_for_value,
    rotation_number,
    shrink_bracket,
    solve_rotation,
    staircase,
    verify_closure,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -------------------------------------------------------------- estimation

def test_rigid_rotation_number_is_alpha():
    est = rotation_number(RigidLift(0.3176), tol=1e-6)
    assert est.lock is None
    assert abs(est.value - 0.3176) <= est.error_radius <= 1e-6


def test_rigid_rational_alpha_locks_exactly():
    est = rotation_number(RigidLift(1.0 / 3.0))
    assert est.lock == (1, 3)
    assert est.error_radius == 0.0
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_concentric_half_radius_locks_at_one_third():
    est = rotation_number(PonceletLift(PonceletConfig(1.0, 0.0, 0.5)))
    assert est.lock == (1, 3)
    assert est.value == 1.0 / 3.0


def test_concentric_irrational_radius_matches_arccos():
    t = 0.27
    est = rotation_number(PonceletLift(PonceletConfig(1.0, 0.0, t)), tol=1e-5)
    assert abs(est.value - math.acos(t) / math.pi) <= est.error_radius + 1e-9


def test_arnold_estimate_is_self_consistent():
    # doubling n until successive estimates differ by < 2 tol
    g = ArnoldLift(0.25, 0.4)
    tol = 1e-4
    prev = rotation_number(g, tol=tol).value
    cur = rotation_number(g, tol=tol / 2.0).value
    assert abs(cur - prev) < 2.0 * tol


def test_estimate_rejects_bad_tolerance():
    for tol in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError):
            rotation_number(RigidLift(0.3), tol=tol)


# (c / R, t / (R - c)): 1 is internal tangency
SCALE_POINTS = [(c, u) for c in (0.0, 0.3, 0.6, 0.9)
                for u in (0.0, 0.25, 0.5, 1.0)] + [
    (0.2, 0.375), (0.45, 0.02), (0.9, 0.5), (0.6, 0.75), (0.3, 0.3),
    (0.75, 0.4), (0.1, 0.999)]


@pytest.mark.parametrize("R", [2.0 ** -600, 1e-200, 1.3, 1e200, 2.0 ** 600],
                         ids=["2^-600", "1e-200", "1.3", "1e200", "2^600"])
def test_poncelet_estimates_do_not_depend_on_the_scale(R):
    # the kernel works in units of R, so S^2 neither underflows (R = 1e-200
    # read 0/1 at t = 0) nor overflows (R = 1e200 failed the periodicity
    # check), and it forms R - c - t before dividing, so a t one ulp below
    # R - c keeps r ~ 0.03 instead of the tangency lock 0/1
    xs = np.linspace(0.05, 0.95, 7)
    for c, u in SCALE_POINTS:
        gap = R - c * R
        for t in {u * gap, math.nextafter(gap, 0.0) if u == 1.0 else 0.0}:
            est = rotation_number(PonceletLift(PonceletConfig(R, c * R, t)))
            r = exact_r(R, c * R, t)
            assert abs(est.value - r) <= est.error_radius + 1e-15, (c, t)
        np.testing.assert_allclose(
            R * poncelet_family(R, c * R).dgdt(u * gap, xs),
            poncelet_family(1.0, c).dgdt(u * (1.0 - c), xs), rtol=1e-13)
    for n in range(3, 9):
        assert count_poncelet_pairs(poncelet_family(R, 0.3 * R), n).ok, n


def test_conjugation_invariance():
    # rotation number is invariant under conjugation by a circle homeo
    g = ArnoldLift(0.37, 0.5)

    def h(x):
        return x + 0.08 * math.sin(2.0 * math.pi * x)

    def h_inv(y):
        x = y
        for _ in range(60):
            x = y - 0.08 * math.sin(2.0 * math.pi * x)
        return x

    class Conjugated:
        def __call__(self, x):
            return h_inv(g(h(x)))

        def orbit_table(self, xs, depth):
            xs = np.asarray(xs, dtype=float)
            out = np.empty((depth + 1, xs.size))
            out[0] = xs
            for k in range(1, depth + 1):
                out[k] = [self(v) for v in out[k - 1]]
            return out

        def validate(self, samples=64, tol=1e-12):
            return None

    r_g = rotation_number(g, tol=1e-4)
    r_c = rotation_number(Conjugated(), tol=1e-4)
    assert abs(r_g.value - r_c.value) <= r_g.error_radius + r_c.error_radius


def _carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F by duplication."""
    while True:
        mu = (x + y + z) / 3.0
        dx, dy, dz = 1.0 - x / mu, 1.0 - y / mu, 1.0 - z / mu
        if max(abs(dx), abs(dy), abs(dz)) < 1e-3:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
            - 3.0 * e2 * e3 / 44.0) / math.sqrt(mu)


def exact_r(R, c, t):
    """r(t) of the circle pair from its invariant measure, with no orbit.

    The map preserves dphi / sqrt(a + b sin^2 phi), phi = theta/2,
    a = (R-c-t)(R-c+t), b = 4Rc, whose integral from 0 to phi <= pi/2 is
    F(phi) = sin phi R_F(a cos^2 phi, a + b sin^2 phi, a).  The chord from
    theta = pi ends at 2 pi - 2 beta, sin beta = t/(R+c), so by symmetry
    about phi = pi/2, r = 1/2 - F(beta) / (2 F(pi/2)).  R_F is homogeneous,
    so a and b are taken in units of R^2, which neither under- nor
    overflows for R far from 1."""
    a = ((R - c - t) / R) * ((R - c + t) / R)
    if a == 0.0:
        return 0.0
    b = 4.0 * c / R
    sb = t / (R + c)
    cb2 = (1.0 - sb) * (1.0 + sb)
    return 0.5 - sb * _carlson_rf(a * cb2, a + b * sb * sb, a) / (
        2.0 * _carlson_rf(0.0, a + b, a))


def test_exact_r_matches_closed_forms():
    for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
        assert exact_r(1.0, 0.0, t) == pytest.approx(
            math.acos(t) / math.pi, abs=2e-16)
    for R, c in ((1.0, 0.2), (1.0, 0.3), (1.0, 0.6), (1.0, 0.9), (2.0, 0.7)):
        euler = (R * R - c * c) / (2.0 * R)
        fuss = (R * R - c * c) / math.sqrt(2.0 * (R * R + c * c))
        assert exact_r(R, c, euler) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert exact_r(R, c, fuss) == pytest.approx(0.25, abs=1e-15)
        assert exact_r(R, c, 0.0) == 0.5
        assert exact_r(R, c, R - c) == 0.0


# Every field of the estimate: (lift, tol, value, error_radius, lock).
# Each Poncelet row must also lie within its radius of exact_r; at internal
# tangency (t = 0.8 for c = 0.2) that is the lock r = 0.  Off a lock the
# value is the midpoint of the Farey bracket read off the first 1024 steps,
# so tol = 1e-4 and 1e-3 can give the same bracket (rows 2 and 3).
TRIANGLE_02 = (1.0 - 0.2 ** 2) / 2.0
PINNED_ESTIMATES = [
    (PonceletLift(PonceletConfig(1.0, 0.0, 0.0)), 1e-4,
     "0x1.0000000000000p-1", "0x0.0p+0", (1, 2)),
    (PonceletLift(PonceletConfig(1.0, 0.2, TRIANGLE_02)), 1e-4,
     "0x1.5555555555555p-2", "0x0.0p+0", (1, 3)),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.3)), 1e-4,
     "0x1.9924e569e61a9p-2", "0x1.4c8306210a44fp-20", None),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.3)), 1e-3,
     "0x1.9924e569e61a9p-2", "0x1.4c8306210a44fp-20", None),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.55)), 1e-3,
     "0x1.38081c06f2176p-2", "0x1.5c459c5dd7f5dp-19", None),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.8)), 1e-4,
     "0x0.0p+0", "0x0.0p+0", (0, 1)),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.8)), 1e-3,
     "0x0.0p+0", "0x0.0p+0", (0, 1)),
    (ArnoldLift(0.3, 0.8), 1e-4,
     "0x1.200cfdaceded0p-2", "0x1.514f9ccc2c0cep-20", None),
    (ArnoldLift(0.5, 0.8), 1e-4,
     "0x1.0000000000000p-1", "0x0.0p+0", (1, 2)),
    (ArnoldLift(GOLDEN, 0.8), 1e-3,
     "0x1.4124c5cc2fb05p-1", "0x1.9c1858f04131ep-20", None),
    (RigidLift(GOLDEN), 1e-4,
     "0x1.3c6ee6fcb9317p-1", "0x1.bddaaeca16547p-21", None),
    (RigidLift(math.sqrt(2.0) - 1.0), 1e-3,
     "0x1.a827d4a9c7ab1p-2", "0x1.4df981f44f463p-20", None),
    # below the first bracket's radius: the orbit is extended to 4096 steps
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.3)), 1e-7,
     "0x1.9924befffaefcp-2", "0x1.7cfe89c44e979p-25", None),
]


@pytest.mark.parametrize("case", range(len(PINNED_ESTIMATES)))
def test_estimates_are_pinned_bit_for_bit(case):
    g, tol, value, radius, lock = PINNED_ESTIMATES[case]
    est = rotation_number(g, tol=tol)
    assert (float.hex(est.value), float.hex(est.error_radius), est.lock) \
        == (value, radius, lock)
    if isinstance(g, PonceletLift):
        # within the radius of the orbit-free value (plus its own rounding)
        r = exact_r(g.cfg.R, g.cfg.c, g.cfg.t)
        assert abs(est.value - r) <= est.error_radius + 1e-15


def _near_rational_cases():
    # t at and within 1e-11 of the triangle and square radii, and near 0 at
    # c = 0.9: r lies within ~1e-11 of 1/3, 1/4 or 1/2, so d = g^q(x) - x - p
    # is tiny, yet it can keep one sign on the whole grid, which certifies
    # no lock
    cases = []
    for c in (0.0, 0.3, 0.6):
        triangle = (1.0 - c * c) / 2.0
        square = (1.0 - c * c) / math.sqrt(2.0 * (1.0 + c * c))
        for t in (triangle, square):
            cases += [(c, t + dt) for dt in
                      (0.0, 1e-14, -1e-14, 1e-13, -1e-13, 1e-12, -1e-12,
                       1e-11)]
    return cases + [(0.9, t) for t in (1e-13, 5.06e-13, 2e-12)]


def test_near_rational_estimates_hold_the_exact_value():
    wrong = []
    for c, t in _near_rational_cases():
        est = rotation_number(PonceletLift(PonceletConfig(1.0, c, t)))
        r = exact_r(1.0, c, t)
        if abs(est.value - r) > est.error_radius + 1e-15:
            wrong.append((c, t, est.lock, est.value - r))
    assert wrong == []


class RecordingLift:
    """A lift that records the (points, depth) of each orbit table."""

    def __init__(self, g):
        self.g = g
        self.tables = []

    def validate(self, samples=64):
        self.g.validate(samples)

    def advance(self, x, n):
        return self.g.advance(x, n)

    def orbit_table(self, xs, depth):
        self.tables.append((len(xs), depth))
        return self.g.orbit_table(xs, depth)


def test_lock_table_is_as_deep_as_the_deepest_candidate():
    # r = 1/2 at t = 0: g(x) = x + 1/2, so the first chunk's bracket is
    # [31/63, 32/63] and its only candidate with q <= 4 is 1/2, certified
    # before the orbit runs on to ROUGH_STEPS
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.0, 0.0)))
    est = rotation_number(g, tol=1e-4)
    assert (est.lock, est.iterations) == ((1, 2), 64)
    assert g.tables == [(1, 64), (512, 2)]


def test_no_lock_table_without_a_candidate():
    # no p/q with q <= 4 lies in the 64-step bracket around 0.1234, and
    # none with q <= 64 in the 1024-step one
    g = RecordingLift(RigidLift(0.1234))
    est = rotation_number(g, tol=1e-4)
    assert (est.lock, est.iterations) == (None, 1024)
    assert g.tables == [(1, 64), (1, 960)]


def test_a_bracket_from_zero_scans_zero_after_the_first_chunk():
    # 64 steps of 0.0123 stay below 1, so the first chunk's bracket starts
    # at 0/1: its candidate 0/1 is scanned, with no lock, before the orbit
    # runs on to ROUGH_STEPS, whose bracket holds no p/q with q <= 64
    g = RecordingLift(RigidLift(0.0123))
    est = rotation_number(g, tol=1e-4)
    assert (est.lock, est.iterations) == (None, 1024)
    assert g.tables == [(1, 64), (512, 1), (1, 960)]


@pytest.mark.parametrize("g", [
    PonceletLift(PonceletConfig(1.0, 0.2, 0.3)),
    ArnoldLift(GOLDEN, 0.8),
    RigidLift(math.sqrt(2.0) - 1.0),
], ids=["poncelet", "arnold", "rigid"])
def test_bracket_ends_are_read_off_one_advance(g):
    # each end is k/q with k the floor of one q-step advance of 0, widened
    # by FLOOR_SLACK and q ulps; the value and radius are the bracket's
    # midpoint and half-width, each rounded once
    est = rotation_number(g, tol=1e-3)
    n = est.iterations
    assert est.lock is None and n == 1024
    los, his = [], []
    for q in range(1, n + 1):
        x = g.advance(0.0, q)
        slack = FLOOR_SLACK + q * math.ulp(abs(x))
        los.append(Fraction(math.floor(x - slack), q))
        his.append(Fraction(math.floor(x + slack) + 1, q))
    lo, hi = max(los), min(his)
    assert (est.value, est.error_radius) == \
        (float((lo + hi) / 2), float((hi - lo) / 2))


@settings(max_examples=80, deadline=None)
@given(c=st.floats(0.0, 0.95), u=st.floats(0.0, 1.0),
       tol=st.sampled_from([1e-3, 1e-4, 1e-5]))
def test_estimate_holds_the_exact_value(c, u, tol):
    t = u * (1.0 - c)
    est = rotation_number(PonceletLift(PonceletConfig(1.0, c, t)), tol=tol)
    assert abs(est.value - exact_r(1.0, c, t)) <= est.error_radius + 1e-15
    assert est.lock is not None or 0.0 < est.error_radius <= tol


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), tol=st.sampled_from([1e-3, 1e-4, 1e-5]))
def test_rigid_estimate_holds_alpha(alpha, tol):
    est = rotation_number(RigidLift(alpha), tol=tol)
    assert abs(est.value - alpha) <= est.error_radius + 1e-15
    assert est.lock is not None or 0.0 < est.error_radius <= tol


def test_radius_is_positive_and_within_tol_off_a_lock():
    lifts = [PonceletLift(PonceletConfig(1.0, c, t))
             for c, t in _near_rational_cases()]
    lifts += [ArnoldLift(w, K) for K in (0.5, 0.9)
              for w in np.linspace(0.0, 1.0, 21)]
    for g in lifts:
        for tol in (1e-3, 1e-5):
            est = rotation_number(g, tol=tol)
            if est.lock is None:
                assert 0.0 < est.error_radius <= tol
            else:
                assert est.error_radius == 0.0


def test_lock_scan_runs_before_any_extension():
    # near the Fuss radius at c = 0 the bracket narrows only like 1/n, so
    # extending first would run 16,384 steps before the scan finds 1/4;
    # with q = 4 the lock is certified from the first chunk
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.0,
                                                  math.sqrt(0.5))))
    est = rotation_number(g, tol=1e-5)
    assert (est.lock, est.iterations) == ((1, 4), 64)
    assert g.tables == [(1, 64), (512, 4)]


@pytest.mark.parametrize("estimate", [
    lambda g: rotation_number(g, tol=1e-12),
    lambda g: _estimate(g, 1e-12, exact_r(1.0, 0.2, 0.3)),
], ids=["rotation_number", "side_test"])
def test_estimate_stops_below_the_bracket_floor(estimate):
    # the float orbit's bracket stops narrowing near a radius of 2.5e-11
    # here, so tol 1e-12 is never met: the orbit runs in chunks of at most
    # CHUNK_MAX steps and gives up by MAX_STEPS
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.2, 0.3)))
    with pytest.raises(ValueError, match="above tol = 1e-12"):
        estimate(g)
    depths = [depth for points, depth in g.tables if points == 1]
    assert max(depths) <= CHUNK_MAX and sum(depths) <= MAX_STEPS


@pytest.mark.parametrize("lift", [
    PonceletLift(PonceletConfig(1.0, 0.2, 0.3)),
    ArnoldLift(GOLDEN, 0.8),
], ids=["poncelet", "arnold"])
def test_estimate_gives_up_when_a_doubling_leaves_the_bracket(lift):
    # the bracket's radius is the same to the bit at 2^18, 2^19 and 2^20
    # steps (2.51e-11 and 2.78e-11): the doubling to 2^19 that reads no
    # narrower bracket ends the estimate, half of MAX_STEPS
    g = RecordingLift(lift)
    with pytest.raises(ValueError, match="above tol = 1e-12"):
        rotation_number(g, tol=1e-12)
    assert sum(depth for points, depth in g.tables if points == 1) \
        == MAX_STEPS // 2


def _one_scan_estimate(g, tol, first, target):
    """The estimator before its lock scan was staged, kept as the
    reference: chunks of first, first, 2 first, ... steps and one lock scan
    of every q <= Q_MAX, at ROUGH_STEPS steps."""
    g.validate(samples=16)
    lo, hi = (-math.inf, 1), (math.inf, 1)
    n, end, m = 0, 0.0, first
    n_ref, ref = 0, None
    while True:
        column = g.orbit_table([end], m)[1:, 0]
        more = _bracket(column, np.arange(n + 1.0, n + m + 1.0))
        lo, hi = max(lo, more[0], key=_ratio), min(hi, more[1], key=_ratio)
        n, end = n + m, float(column[-1])
        if target is not None and not _ratio(lo) <= target <= _ratio(hi):
            return _ratio(hi) < target
        (a, b), (c, d) = lo, hi
        if n == ROUGH_STEPS:
            lock = _first_lock(g, [
                (p, q) for q in range(1, Q_MAX + 1)
                for p in range(-(-a * q // b), c * q // d + 1)
                if math.gcd(p, q) == 1])
            if lock is not None:
                (p, q), _ = lock
                est = (p / q, 0.0, (p, q))
                break
        if n >= ROUGH_STEPS:
            den = 2 * b * d
            radius = (c * b - a * d) / den
            if radius <= tol:
                est = ((a * d + c * b) / den, radius, None)
                break
            doubled = n >= 2 * n_ref
            if doubled and (lo, hi) == ref or n >= MAX_STEPS:
                raise ValueError(f"above tol = {tol:.3g} after {n} steps")
            if doubled:
                n_ref, ref = n, (lo, hi)
        m = min(n, CHUNK_MAX)
    return est if target is None else est[0] < target


@st.composite
def _poncelet_lifts(draw):
    # a random radius, or one of the locks t = 0 (1/2), Euler's (1/3),
    # Fuss's (1/4) and internal tangency (0/1)
    c = draw(st.floats(0.0, 0.95))
    t = draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda u: u * (1.0 - c)),
        st.sampled_from([0.0, (1.0 - c * c) / 2.0,
                         (1.0 - c * c) / math.sqrt(2.0 * (1.0 + c * c)),
                         1.0 - c])))
    return PonceletLift(PonceletConfig(1.0, c, t))


# omega at p/q with q <= 4, where the low-order plateaus start at K = 0
STAGED_LIFTS = st.one_of(
    _poncelet_lifts(),
    st.builds(ArnoldLift,
              st.one_of(st.floats(0.0, 1.0),
                        st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3])),
              st.floats(0.0, 1.0)),
    st.builds(RigidLift, st.one_of(
        st.floats(-2.0, 2.0),
        st.builds(lambda p, q: p / q, st.integers(-8, 8),
                  st.integers(1, 8)))),
)


@settings(max_examples=200, deadline=None)
@given(g=STAGED_LIFTS, tol=st.sampled_from([1e-3, 1e-4, 1e-5]))
def test_staged_lock_scan_gives_the_one_scan_estimate(g, tol):
    # brackets only narrow and row q of a lock table has the same bits at
    # any depth, so scanning q <= 4 after the first chunk changes only
    # the steps an early lock reports
    est = rotation_number(g, tol=tol)
    value, radius, lock = _one_scan_estimate(g, tol, ROUGH_STEPS, None)
    assert (float.hex(est.value), float.hex(est.error_radius), est.lock) \
        == (float.hex(value), float.hex(radius), lock)
    if lock is None:
        assert est.iterations >= ROUGH_STEPS
    else:
        assert est.iterations == (FIRST_CHUNK if lock[1] <= 4
                                  else ROUGH_STEPS)


@settings(max_examples=150, deadline=None)
@given(g=STAGED_LIFTS, tol=st.sampled_from([1e-3, 1e-4, 1e-5]),
       u=st.floats(-1.0, 1.0), scale=st.integers(1, 15))
def test_staged_side_test_gives_the_one_scan_side(g, tol, u, scale):
    v = rotation_number(g, tol=tol).value
    targets = (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf),
               v + u * 10.0 ** -scale, u)
    assert [_estimate(g, tol, target) for target in targets] \
        == [_one_scan_estimate(g, tol, FIRST_CHUNK, target)
            for target in targets]


# ----------------------------------------------------------- lock detection

def test_lock_everywhere_for_rational_rigid_rotation():
    x0 = detect_rational_lock(RigidLift(1.0 / 3.0), 1, 3)
    assert x0 is not None


def test_no_lock_for_golden_rotation():
    g = RigidLift(GOLDEN)
    for q in range(1, 65):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            if abs(p / q - GOLDEN) > 0.02:
                continue
            assert detect_rational_lock(g, p, q) is None


def test_concentric_two_fifths_lock():
    t = math.cos(2.0 * math.pi / 5.0)
    g = PonceletLift(PonceletConfig(1.0, 0.0, t))
    x0 = detect_rational_lock(g, 2, 5)
    assert x0 is not None
    assert abs(g.advance(x0, 5) - x0 - 2) < 1e-12


def test_lock_point_is_the_left_end_of_a_root_cell():
    # inside Arnold's 1/2 tongue at K = 0.8, off its centre: the roots of
    # d = g^2(x) - x - 1 lie strictly inside grid cells
    g = ArnoldLift(0.51, 0.8)
    x0 = detect_rational_lock(g, 1, 2)
    assert (x0 * 512).is_integer()
    cell = np.array([x0, x0 + 1.0 / 512])
    d = g.orbit_table(cell, 2)[-1] - cell - 1
    assert d[0] * d[1] <= 0.0


def test_lock_rejects_unreduced_fraction():
    with pytest.raises(ValueError):
        detect_rational_lock(RigidLift(0.5), 2, 4)


@pytest.mark.parametrize("p, q", [(1, 0), (1, -1)])
def test_lock_rejects_a_denominator_below_one(p, q):
    with pytest.raises(ValueError, match=f"got {p}/{q}$"):
        detect_rational_lock(RigidLift(0.5), p, q)


# ---------------------------------------------------------------- staircase

def test_concentric_staircase_matches_arccos_oracle():
    family = poncelet_family(1.0, 0.0)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    result = staircase(family, grid, tol=1e-5)
    expected = [0.5, math.acos(0.25) / math.pi, 1.0 / 3.0,
                math.acos(0.75) / math.pi, 0.0]
    assert result.direction == "decreasing"
    assert result.monotone_ok
    for (t, est), want in zip(result.points, expected):
        assert abs(est.value - want) <= est.error_radius + 1e-9
    values = [est.value for _, est in result.points]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_offcenter_staircase_endpoints():
    family = poncelet_family(1.0, 0.3)
    r0 = rotation_number(family.lift(0.0), tol=1e-4)
    rb = rotation_number(family.lift(family.b), tol=1e-4)
    assert abs(r0.value - 0.5) <= r0.error_radius + 1e-9
    # at internal tangency x = 0 is an exact fixed point
    assert (rb.value, rb.error_radius, rb.lock) == (0.0, 0.0, (0, 1))


def test_arnold_staircase_has_wide_half_plateau():
    family = arnold_family(0.8)
    result = staircase(family, np.linspace(0.42, 0.58, 9), tol=1e-4)
    assert result.monotone_ok
    locked = [t for t, est in result.points if est.lock == (1, 2)]
    assert len(locked) >= 2
    assert max(locked) - min(locked) > 0.0


def test_staircase_flags_a_fall():
    # alpha(t) = min(t, 1 - t) rises to 1/2 and falls back: not a monotone
    # family, so the falls show as violations
    def lift(t):
        return RigidLift(min(t, 1.0 - t))

    family = MonotoneCircleFamily(0.0, 1.0, lift, lift,
                                  lambda t, x: 1.0 if t < 0.5 else -1.0)
    result = staircase(family, [0.1, 0.3, 0.5, 0.7, 0.8], tol=1e-4)
    assert result.direction == "increasing"
    assert not result.monotone_ok
    assert [(t1, t2) for t1, t2, _ in result.violations] == \
        [(0.5, 0.7), (0.7, 0.8)]
    assert [d for _, _, d in result.violations] == \
        pytest.approx([-0.2, -0.1], abs=1e-3)


def test_staircase_with_equal_ends_flags_any_step():
    # r rises from 0.164 to 0.264 and falls back: the ends are equal, so a
    # weakly monotone staircase would be constant, and every step of
    # 0.05 is a violation
    def lift(t):
        return RigidLift(0.15 + 0.2 * min(t, 1.0 - t) + 0.01 * math.sqrt(2.0))

    family = MonotoneCircleFamily(0.0, 1.0, lift, lift,
                                  lambda t, x: 1.0 if t < 0.5 else -1.0)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    result = staircase(family, grid, tol=1e-4)
    assert result.direction == "flat"
    assert not result.monotone_ok
    assert [(t1, t2) for t1, t2, _ in result.violations] == \
        list(zip(grid, grid[1:]))
    assert [d for _, _, d in result.violations] == \
        pytest.approx([-0.05] * 4, abs=1e-5)


def test_staircase_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        staircase(rigid_family(), [0.3, 0.1], tol=1e-4)


def test_staircase_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        staircase(rigid_family(), [], tol=1e-4)


# ------------------------------------------------------------------- solver

def test_solve_one_third_gives_half_radius():
    family = poncelet_family(1.0, 0.0)
    t_star = solve_rotation(family, Fraction(1, 3))
    assert t_star == pytest.approx(0.5, abs=1e-11)
    assert abs(family.lift(t_star).advance(X_REF, 3) - X_REF - 1) < 1e-9


def test_solve_two_fifths_closed_form():
    family = poncelet_family(1.0, 0.0)
    t_star = solve_rotation(family, Fraction(2, 5))
    assert t_star == pytest.approx(math.cos(2.0 * math.pi / 5.0), abs=1e-11)


def test_solve_half_hits_boundary():
    family = poncelet_family(1.0, 0.0)
    t_star = solve_rotation(family, Fraction(1, 2))
    assert t_star == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("target", [0.1, 1.0 / 3.0])
def test_solve_rejects_a_denominator_above_max_steps(target):
    # a float is a dyadic fraction: Fraction(0.1) has denominator 2^55, and
    # each residual would run that many steps
    family = poncelet_family(1.0, 0.3)

    def step(t):
        raise AssertionError(f"a residual ran, at t = {t}")

    family.step = step
    q = Fraction(target).denominator
    assert q > MAX_STEPS
    with pytest.raises(ValueError, match=f"denominator {q} > MAX_STEPS"):
        solve_rotation(family, target)


@pytest.mark.parametrize("target", [Fraction(1, 3), 0.25])
def test_solve_takes_a_target_with_a_small_denominator(target):
    family = poncelet_family(1.0, 0.3)
    t_star = solve_rotation(family, target)
    p, q = Fraction(target).as_integer_ratio()
    assert abs(family.lift(t_star).advance(X_REF, q) - X_REF - p) < 1e-9


def test_solve_outside_image_raises():
    family = poncelet_family(1.0, 0.0)
    with pytest.raises(NoSolutionError):
        solve_rotation(family, Fraction(3, 4))


def test_find_parameter_rejects_value_outside_estimated_image():
    family = rigid_family(a=0.2, b=0.4)
    with pytest.raises(NoSolutionError, match="outside estimated image"):
        find_parameter_for_value(family, GOLDEN, tol=1e-5)


# family, target value, tol -> tau, as float.hex
PINNED_PARAMETERS = [
    (arnold_family(0.7), GOLDEN, 1e-5, "0x1.392d9f46f0110p-1"),
    (arnold_family(0.4), GOLDEN, 1e-4, "0x1.3b3ed45654610p-1"),
    (poncelet_family(1.0, 0.3, reverse=True), 1.0 - GOLDEN, 1e-4,
     "0x1.76ce40467e7e8p-2"),
    (poncelet_family(1.0, 0.1, reverse=True), 1.0 - GOLDEN, 1e-3,
     "0x1.14dde15efd34ep-1"),
    (rigid_family(0.2, 0.9), GOLDEN, 1e-5, "0x1.3c6f02da61a44p-1"),
]


@pytest.mark.parametrize("case", range(len(PINNED_PARAMETERS)))
def test_parameters_are_pinned_bit_for_bit(case):
    family, target, tol, tau = PINNED_PARAMETERS[case]
    assert float.hex(find_parameter_for_value(family, target, tol=tol)) \
        == tau


def test_search_runs_under_half_the_rough_passes():
    # 2 end estimates and 20 bisection steps, each a ROUGH_STEPS-step rough
    # pass, would iterate 22 * ROUGH_STEPS narrow point-steps; most steps
    # are decided by a shorter prefix of the orbit
    family = arnold_family(0.7)
    lifts = []
    lift = family.lift
    family.lift = lambda t: lifts.append(RecordingLift(lift(t))) or lifts[-1]
    find_parameter_for_value(family, GOLDEN, iters=20, tol=1e-3)
    narrow = sum(points * depth for g in lifts
                 for points, depth in g.tables if points == 1)
    assert len(lifts) == 22
    assert narrow <= 22 * ROUGH_STEPS // 2


LIFTS = st.one_of(
    st.builds(RigidLift, st.floats(-2.0, 2.0)),
    st.builds(ArnoldLift, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(lambda c, u: PonceletLift(PonceletConfig(1.0, c, u * (1.0 - c))),
              st.floats(0.0, 0.95), st.floats(0.0, 1.0)),
)


@settings(max_examples=150, deadline=None)
@given(g=LIFTS, tol=st.sampled_from([1e-3, 1e-4, 1e-5]),
       u=st.floats(-1.0, 1.0), scale=st.integers(1, 15))
def test_side_test_takes_the_estimates_side(g, tol, u, scale):
    # the rigid lift's closed-form orbit rounds differently when continued
    # from a chunk's last row than in one call; every other lift iterates
    # the same floats
    est = rotation_number(g, tol=tol)
    v, radius = est.value, est.error_radius
    targets = (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf),
               v - radius, v + radius, v + u * 10.0 ** -scale)
    assert [_estimate(g, tol, target) for target in targets] \
        == [v < target for target in targets]


def test_shrink_bracket_ends_on_adjacent_floats():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    lo, f_lo, hi, f_hi = shrink_bracket(f, 1.0, -1.0, 2.0, 2.0)
    assert math.nextafter(lo, hi) == hi
    assert f_lo < 0.0 < f_hi
    assert (f_lo, f_hi) == (f(lo), f(hi))
    assert lo <= math.sqrt(2.0) <= hi
    assert len(calls) <= 12


def test_shrink_bracket_stops_at_an_exact_zero():
    lo, f_lo, hi, f_hi = shrink_bracket(lambda x: x - 0.5, 0.0, -0.5,
                                        2.0, 1.5)
    assert (lo, f_lo) == (0.5, 0.0)
    assert f_hi > 0.0
    # a zero end needs no step
    assert shrink_bracket(None, 0.0, 0.0, 1.0, 1.0) == (0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("f_lo, f_hi", [(1.0, 2.0), (-1.0, -2.0),
                                        (math.nan, 1.0)])
def test_shrink_bracket_rejects_ends_without_sign_change(f_lo, f_hi):
    with pytest.raises(ValueError):
        shrink_bracket(lambda x: x, 0.0, f_lo, 1.0, f_hi)


def test_shrink_bracket_rejects_a_nan_value():
    # after one nan every secant point is nan, so the bracket would only
    # shrink by one float per step
    calls = []

    def f(x):
        calls.append(x)
        assert len(calls) <= 64, "shrink_bracket did not stop on a nan"
        return x - 0.5 if x <= 0.3 else math.nan

    with pytest.raises(ValueError, match="nan"):
        shrink_bracket(f, 0.0, -0.5, 1.0, 1.0)


FAMILIES = {"poncelet": poncelet_family, "arnold": arnold_family,
            "rigid": rigid_family}


def _solve_grid():
    for c in (0.0, 0.3, 0.6):
        for n in range(3, 13):
            for p in range(1, (n + 1) // 2):
                if math.gcd(p, n) == 1:
                    yield pytest.param(("poncelet", 1.0, c), Fraction(p, n),
                                       id=f"poncelet-c{c}-{p}/{n}")
    for spec, target in ((("arnold", 0.8), Fraction(1, 3)),
                         (("arnold", 0.8), Fraction(2, 5)),
                         (("rigid",), Fraction(1, 3))):
        yield pytest.param(spec, target, id=f"{spec[0]}-{target}")


SOLVE_GRID = list(_solve_grid())


def lock_residual(family, target, t):
    g = family.lift(t)
    return g.advance(X_REF, target.denominator) - X_REF - target.numerator


def bisection_reference(family, target):
    """Plain bisection on the lock residual to two adjacent floats."""
    lo, hi = family.a, family.b
    s_lo, s_hi = (lock_residual(family, target, t) for t in (lo, hi))
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        s_mid = lock_residual(family, target, mid)
        if s_mid == 0.0:
            return mid
        if (s_mid > 0) == (s_lo > 0):
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    return lo if abs(s_lo) <= abs(s_hi) else hi


@pytest.mark.parametrize("spec, target", SOLVE_GRID)
def test_solve_ends_on_machine_thin_certificate(spec, target):
    family = FAMILIES[spec[0]](*spec[1:])
    t_star = solve_rotation(family, target)
    s_star = lock_residual(family, target, t_star)
    if s_star == 0.0:
        # an exact zero certifies itself, wherever it lies: the residual
        # can vanish on a run of floats (11 of them at c = 0.3, 4/9)
        return
    # t* is the bracket end on the side of the residual's sign; its
    # neighbour toward the other end has the opposite sign
    s_a = lock_residual(family, target, family.a)
    toward = family.b if (s_star > 0) == (s_a > 0) else family.a
    s_next = lock_residual(family, target, math.nextafter(t_star, toward))
    assert (s_next > 0) != (s_star > 0)
    reference = bisection_reference(family, target)
    assert abs(t_star - reference) <= 4 * math.ulp(reference)


@pytest.mark.parametrize("spec, target", SOLVE_GRID)
def test_solve_builds_at_most_40_lifts(spec, target):
    # each residual builds the family's step (and no lift): bisection to
    # adjacent floats builds 50-57 on this grid
    family = FAMILIES[spec[0]](*spec[1:])
    built = []
    step = family.step
    family.step = lambda t: built.append(t) or step(t)
    family.lift = None
    solve_rotation(family, target)
    assert 2 <= len(built) <= 40


# ------------------------------------------------------------------ closure

def test_triangle_pair_closes_tightly():
    residual = verify_closure(PonceletLift(PonceletConfig(1.0, 0.0, 0.5)),
                              3, 0)
    assert residual < 1e-10


def test_diameter_closes_in_two_steps():
    residual = verify_closure(PonceletLift(PonceletConfig(1.0, 0.0, 0.0)),
                              2, 0)
    assert residual < 1e-12


def test_wrong_period_is_rejected():
    # the triangle radius does not close a 5-gon
    with pytest.raises(ResidualFailureError):
        verify_closure(PonceletLift(PonceletConfig(1.0, 0.0, 0.5)), 5, 0)


class TwoBands(CircleLift):
    """An interval exchange that rotates [0, 1/2) by a half-turn of its own
    (period 2) and [1/2, 1) by a third (period 3), so a start's return
    time depends on its band."""

    def _step(self, x):
        k, y = divmod(x, 1.0)
        if y < 0.5:
            return k + 0.5 * ((2.0 * y + 0.5) % 1.0)
        return k + 0.5 + 0.5 * ((2.0 * y - 1.0 + 1.0 / 3.0) % 1.0)


def test_closure_reports_the_earliest_return_over_all_starts():
    # the first start of seed 0 (0.844) returns after 3 steps; later starts
    # in [0, 1/2) return after 2, and the error must name 2
    with pytest.raises(ResidualFailureError,
                       match=r"^orbit returned after 2 < 6 steps"):
        verify_closure(TwoBands(), 6, 0)


class NanAbove(CircleLift):
    """x + 1/2 below 1/2, nan from there: every orbit is nan by step 2."""

    def _step(self, x):
        return x + 0.5 if x < 0.5 else math.nan


def test_closure_of_a_nan_orbit_fails():
    with pytest.raises(ResidualFailureError, match=r"residual nan"):
        verify_closure(NanAbove(), 2, 0)


@pytest.mark.parametrize("n", [0, -1])
def test_closure_rejects_fewer_than_one_step(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        verify_closure(PonceletLift(PonceletConfig(1.0, 0.0, 0.5)), n, 0)


# ----------------------------------------------------------------- counting

def test_totient_values():
    assert euler_totient(3) == 2
    assert euler_totient(12) == 4
    assert euler_totient(97) == 96
    assert [euler_totient(n) for n in range(1, 11)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_totient(0)


def test_totient_against_coprime_count():
    for n in range(2, 120):
        brute = sum(1 for k in range(1, n) if math.gcd(k, n) == 1)
        assert euler_totient(n) == max(brute, 1 if n == 1 else brute)


def test_concentric_triangle_count():
    report = count_poncelet_pairs(poncelet_family(1.0, 0.0), 3)
    assert report.ok and report.expected == 1
    assert report.pairs[0].t == pytest.approx(0.5, abs=1e-10)


def test_concentric_pentagon_count():
    report = count_poncelet_pairs(poncelet_family(1.0, 0.0), 5)
    assert report.ok and report.expected == 2
    ts = sorted(p.t for p in report.pairs)
    assert ts[0] == pytest.approx(math.cos(2.0 * math.pi / 5.0), abs=1e-10)
    assert ts[1] == pytest.approx(math.cos(math.pi / 5.0), abs=1e-10)


def test_offcenter_heptagon_count():
    report = count_poncelet_pairs(poncelet_family(1.0, 0.3), 7)
    assert report.ok and report.expected == 3
    assert all(p.closure_residual < 1e-8 for p in report.pairs)


@pytest.mark.parametrize("c", [0.2, 0.45])
@pytest.mark.parametrize("n", range(3, 13))
def test_offcenter_count_finds_every_pair(c, n):
    # every reduced p/n < 1/2 lies in the image of r
    report = count_poncelet_pairs(poncelet_family(1.0, c), n)
    assert report.ok
    assert sorted(p.p for p in report.pairs) == \
        [p for p in range(1, n) if 2 * p < n and math.gcd(p, n) == 1]
    assert all(p.closure_residual < 1e-8 for p in report.pairs)


@pytest.mark.parametrize("c", [0.3, 0.6])
@pytest.mark.parametrize("n", [5, 7, 9])
def test_reversed_family_count_matches_forward(c, n):
    # a pair reports the family parameter: on the reversed family that is
    # s, at inner radius t = R - c - s, and the pairs are the same, each
    # closed on the lift at that radius, whichever way the family runs
    seed = 3
    forward = count_poncelet_pairs(poncelet_family(1.0, c), n, seed=seed)
    report = count_poncelet_pairs(poncelet_family(1.0, c, reverse=True), n,
                                  seed=seed)
    assert report.ok
    want = {pair.p: pair.t for pair in forward.pairs}
    assert sorted(pair.p for pair in report.pairs) == sorted(want)
    for pair in report.pairs:
        radius = (1.0 - c) - pair.t
        assert abs(radius - want[pair.p]) <= 1e-12
        lift = PonceletLift(PonceletConfig(1.0, c, radius))
        assert pair.closure_residual == verify_closure(lift, n, seed)


# float.hex of each pair's t by p, and the p's that fail closure, at seed 0
PINNED_PAIRS = {
    (0.3, 3): ({1: "0x1.d1eb851eb8520p-2"}, []),
    (0.3, 4): ({1: "0x1.3b8f935aef37ep-1"}, []),
    (0.3, 5): ({1: "0x1.589557b2cbb5dp-1", 2: "0x1.2493d7c51437fp-2"}, []),
    (0.3, 6): ({1: "0x1.6229a8ed77128p-1"}, []),
    (0.3, 7): ({1: "0x1.6523081b431acp-1", 2: "0x1.1ca6e22f61538p-1",
                3: "0x1.a6f8058065d1ap-3"}, []),
    (0.3, 8): ({1: "0x1.6607329802a46p-1", 3: "0x1.68a402f471490p-2"}, []),
    (0.9, 3): ({1: "0x1.851eb851eb84ep-4"}, []),
    (0.9, 4): ({1: "0x1.9908ab3d18d65p-4"}, []),
    (0.9, 5): ({1: "0x1.9995c69682506p-4", 2: "0x1.2e1304a4d60d9p-4"}, []),
    (0.9, 6): ({1: "0x1.99997fd11c547p-4"}, []),
    (0.9, 7): ({1: "0x1.999998ebc8347p-4", 2: "0x1.96240e22acc2ep-4",
                3: "0x1.d2a1a561c7740p-5"}, []),
    (0.9, 8): ({3: "0x1.5a4483589b5d9p-4"}, [1]),
}


@pytest.mark.parametrize("c, n", sorted(PINNED_PAIRS))
def test_count_pins_each_pairs_radius_to_the_bit(c, n):
    # only the closure residuals may move when the pipeline changes
    report = count_poncelet_pairs(poncelet_family(1.0, c), n)
    ts, missing = PINNED_PAIRS[c, n]
    assert {pair.p: pair.t.hex() for pair in report.pairs} == ts
    assert [p for p, _ in report.missing] == missing


def test_counting_rejects_degenerate_period():
    with pytest.raises(ValueError):
        count_poncelet_pairs(poncelet_family(1.0, 0.0), 2)
