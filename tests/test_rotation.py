"""Rotation-number estimation, lock detection, the parameter solver, and
the Poncelet-pair counting pipeline."""

import functools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poncelet import kernels, rotation
from poncelet.families import (
    MonotoneCircleFamily,
    arnold_family,
    poncelet_family,
    rigid_family,
)
from poncelet.geometry import TWO_PI, PonceletConfig
from poncelet.lifts import ArnoldLift, CircleLift, PonceletLift, RigidLift
from poncelet.rotation import (
    _EARLY_LAPS,
    CHUNK_MAX,
    CLOSE_TOL,
    CLOSURE_STARTS,
    EARLY_TOL,
    FIRST_CHUNK,
    FLOOR_SLACK,
    LOCK_GRID,
    LOCK_SUBGRID,
    MAX_STEPS,
    Q_MAX,
    ROUGH_STEPS,
    X_REF,
    NoSolutionError,
    ResidualFailureError,
    _bracket,
    _candidates,
    _estimate,
    _first_lock,
    _lock_grids,
    _ratio,
    _root_cell,
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

    def advance(self, x, n):
        return self.g.advance(x, n)

    def orbit_table(self, xs, depth):
        self.tables.append((len(xs), depth))
        return self.g.orbit_table(xs, depth)


def test_lock_table_is_as_deep_as_the_deepest_candidate():
    # r = 1/2 at t = 0: g(x) = x + 1/2, so the first chunk's bracket is
    # [31/63, 32/63] and its only candidate with q <= 4 is 1/2, certified
    # on the subgrid before the orbit runs on to ROUGH_STEPS
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.0, 0.0)))
    est = rotation_number(g, tol=1e-4)
    assert (est.lock, est.iterations) == ((1, 2), 64)
    assert g.tables == [(1, 64), (LOCK_SUBGRID, 2)]


def test_no_lock_table_without_a_candidate():
    # no p/q with q <= 4 lies in the 64-step bracket around 0.1234, and
    # none with q <= 64 in the 1024-step one
    g = RecordingLift(RigidLift(0.1234))
    est = rotation_number(g, tol=1e-4)
    assert (est.lock, est.iterations) == (None, 1024)
    assert g.tables == [(1, 64), (1, 960)]


def test_a_bracket_from_zero_scans_zero_after_the_first_chunk():
    # 64 steps of 0.0123 stay below 1, so the first chunk's bracket starts
    # at 0/1: its candidate 0/1 is scanned, with no lock on the subgrid
    # and then none on the grid, before the orbit runs on to ROUGH_STEPS,
    # whose bracket holds no p/q with q <= 64
    g = RecordingLift(RigidLift(0.0123))
    est = rotation_number(g, tol=1e-4)
    assert (est.lock, est.iterations) == (None, 1024)
    assert g.tables == [(1, 64), (LOCK_SUBGRID, 1), (LOCK_GRID, 1),
                        (1, 960)]


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


def _bracket_formula(xs, q):
    """_bracket before it formed its arrays in place, kept as the
    reference."""
    slack = FLOOR_SLACK + q * np.spacing(np.abs(xs))
    k_lo = np.floor(xs - slack)
    k_hi = np.floor(xs + slack) + 1.0
    i = int(np.argmax(k_lo / q))
    j = int(np.argmin(k_hi / q))
    return (int(k_lo[i]), int(q[i])), (int(k_hi[j]), int(q[j]))


# orbit coordinates: anywhere up to 2^40, integers, zeros of either sign,
# and points within the rounding allowance of an integer
ORBIT_POINTS = st.one_of(
    st.floats(-2.0 ** 40, 2.0 ** 40),
    st.integers(-2 ** 40, 2 ** 40).map(float),
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda k, e: k + e * 1e-10, st.integers(-1000, 1000),
              st.integers(-30, 30)),
)


@settings(max_examples=500, deadline=None)
@given(column=st.lists(st.tuples(ORBIT_POINTS, st.integers(1, 2 ** 20)),
                       min_size=1, max_size=64))
def test_bracket_is_the_formula_bit_for_bit(column):
    # the orbit column is a strided view of a table, as in the estimator,
    # and the in-place arithmetic leaves it as it was
    table = np.array([[x, 0.0] for x, _ in column])
    xs, q = table[:, 0], np.array([float(k) for _, k in column])
    before = table.copy()
    assert _bracket(xs, q) == _bracket_formula(xs, q)
    assert np.array_equal(table, before, equal_nan=True)


def _candidate_comprehension(lo, hi, q_first, q_last):
    """The lock candidates before the loop over q was bounded, kept as the
    reference: every reduced p/q in [a/b, c/d], q_first <= q <= q_last."""
    (a, b), (c, d) = lo, hi
    return [(p, q) for q in range(q_first, q_last + 1)
            for p in range(-(-a * q // b), c * q // d + 1)
            if math.gcd(p, q) == 1]


@st.composite
def _farey_ends(draw):
    # reduced a/b < c/d with b c - a d = 1, each end then scaled by its
    # own factor: unreduced ends, and widths m1 m2
    d = draw(st.integers(1, 2048))
    c = draw(st.integers(-3000, 3000))
    g = math.gcd(c, d)
    c, d = c // g, d // g
    b = (pow(c, -1, d) if d > 1 else 1) + d * draw(st.integers(0, 3))
    a = (b * c - 1) // d
    m1, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (a * m1, b * m1), (c * m2, d * m2)


@st.composite
def _equal_ends(draw):
    # a/b = c/d, unreduced on either side
    p = draw(st.integers(-200, 200))
    q = draw(st.integers(1, 100))
    g = math.gcd(p, q)
    p, q = p // g, q // g
    m1, m2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return (p * m1, q * m1), (p * m2, q * m2)


@st.composite
def _any_ends(draw):
    # any two fractions in [-2, 2], in order, with b c - a d >= 1
    ends = []
    for _ in range(2):
        b = draw(st.integers(1, 2048))
        ends.append((draw(st.integers(-2 * b, 2 * b)), b))
    (a, b), (c, d) = sorted(ends, key=lambda e: Fraction(*e))
    assume(b * c - a * d >= 1)
    return (a, b), (c, d)


@settings(max_examples=1000, deadline=None)
@given(ends=st.one_of(_farey_ends(), _equal_ends(), _any_ends()),
       q_first=st.integers(1, 64), span=st.integers(0, 63))
def test_bounded_candidates_are_the_comprehension(ends, q_first, span):
    lo, hi = ends
    q_last = min(q_first + span, 64)
    assert _candidates(lo, hi, q_first, q_last) \
        == _candidate_comprehension(lo, hi, q_first, q_last)


def test_a_farey_bracket_past_q_max_has_no_candidate():
    # 377/610 and 610/987 are Farey neighbours: no p/q strictly between
    # them has q < 610 + 987, and neither end has q <= 64
    assert _candidates((377, 610), (610, 987), 5, Q_MAX) == []
    # [2/6, 4/10] has no p/q strictly inside with q < 4: its end 1/3 comes
    # from the ends, in reduced form, and the loop over q starts at 4
    assert _candidates((2, 6), (4, 10), 1, 8) == [(1, 3), (2, 5), (3, 8)]


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
    # with q = 4 the lock is certified from the first chunk, on the subgrid
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.0,
                                                  math.sqrt(0.5))))
    est = rotation_number(g, tol=1e-5)
    assert (est.lock, est.iterations) == ((1, 4), 64)
    assert g.tables == [(1, 64), (LOCK_SUBGRID, 4)]


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
                p, q = lock
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
    assert [_estimate(g, tol, target).value < target for target in targets] \
        == [_one_scan_estimate(g, tol, FIRST_CHUNK, target)
            for target in targets]


def _near_tangency(u, v):
    """The Poncelet lift at c = 1 - 10^-u, t = (R - c)(1 - 10^-v)."""
    c = 1.0 - 10.0 ** -u
    return PonceletLift(PonceletConfig(1.0, c, (1.0 - c) * (1.0 - 10.0 ** -v)))


# near internal tangency, with R - c and (R - c - t) / (R - c) below 1e-4,
# the float orbit's rounding can beat the floors' allowance, so that its
# floors contradict each other
NEAR_TANGENCY_LIFTS = st.builds(_near_tangency, st.floats(2.0, 9.0),
                                st.floats(0.0, 15.0))


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(STAGED_LIFTS, NEAR_TANGENCY_LIFTS),
       tol=st.sampled_from([1e-3, 1e-4, 1e-5]),
       target=st.one_of(st.none(), st.floats(-1.0, 2.0)))
def test_an_estimate_is_a_lock_or_a_bracket_that_holds_r(g, tol, target):
    # an estimate (or a side test's, given a target) is the interval
    # [a/b, c/d] it certifies: a lock's point, or a Farey bracket of the
    # orbit's floors, nonempty and with b, d at most the steps read;
    # floors that contradict each other raise
    try:
        est = _estimate(g, tol, target)
    except ValueError:
        return
    (a, b), (c, d) = est.bracket
    if est.lock is not None:
        assert est.lock == (a, b) == (c, d) and est.error_radius == 0.0
        assert math.gcd(a, b) == 1 and 1 <= b <= est.iterations
    else:
        assert a * d < c * b and 1 <= b <= est.iterations \
            and 1 <= d <= est.iterations
        assert est.error_radius > 0.0
        assert float.hex(est.value) == float.hex(
            float(Fraction(a, b) / 2 + Fraction(c, d) / 2))


# (c, t, tol): orbits whose 2048- or 8192-step floors contradict each
# other, which were returned as a negative error radius
CONTRADICTING_FLOORS = [
    (0.9999999829281154, 1.7071884572666742e-08, 1e-4),
    (0.9999987430240324, 1.256975967644989e-06, 1e-5),
    (0.9999999620035894, 3.7996410573427485e-08, 1e-4),
]


@pytest.mark.parametrize("c, t, tol", CONTRADICTING_FLOORS)
def test_contradicting_floors_raise(c, t, tol):
    g = PonceletLift(PonceletConfig(1.0, c, t))
    with pytest.raises(ValueError, match="floors contradict each other"):
        rotation_number(g, tol=tol)


def test_the_side_test_raises_on_contradicting_floors():
    # the 1024-step bracket [195/689, 283/999] holds the target, so the
    # side test reads on to the 2048-step one, [195/689, 568/2010], whose
    # ends cross
    c, t, tol = CONTRADICTING_FLOORS[0]
    g = PonceletLift(PonceletConfig(1.0, c, t))
    with pytest.raises(ValueError,
                       match="after 2048 steps .*: 195/689 >= 568/2010"):
        _estimate(g, tol, 0.2832)


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


def test_lock_subgrid_takes_the_grid_tables_path():
    # a table, so the subgrid runs the grid's numpy step (its bits are
    # pinned below); every 16th grid point, so a subgrid cell is 16 grid
    # cells
    assert LOCK_GRID % LOCK_SUBGRID == 0


def test_lock_grids_are_built_once_and_read_only():
    grid, subgrid = _lock_grids()
    assert _lock_grids()[0] is grid and _lock_grids()[1] is subgrid
    want = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
    assert grid.tobytes() == want.tobytes()
    assert subgrid.tobytes() == want[::LOCK_GRID // LOCK_SUBGRID].tobytes()
    for xs in (grid, subgrid):
        with pytest.raises(ValueError):
            xs[0] = 0.5


def _subgrid_lifts():
    lifts = []
    for c in (0.0, 0.3, 0.6, 0.9):
        euler = (1.0 - c * c) / 2.0
        fuss = (1.0 - c * c) / math.sqrt(2.0 * (1.0 + c * c))
        for t in (0.0, euler, fuss, 0.37 * (1.0 - c), 1.0 - c):
            lifts.append(PonceletLift(PonceletConfig(1.0, c, t)))
    return lifts + [ArnoldLift(omega, K) for K in (0.5, 0.9)
                    for omega in (0.0, 0.25, 0.51, GOLDEN)]


@pytest.mark.parametrize("g", _subgrid_lifts())
def test_subgrid_table_has_the_grid_tables_bits(g):
    # the subgrid scan certifies a grid lock only if its points are the
    # grid table's points to the bit
    xs = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
    step = LOCK_GRID // LOCK_SUBGRID
    assert g.orbit_table(xs[::step], 4).tobytes() \
        == g.orbit_table(xs, 4)[:, ::step].tobytes()
    assert g.orbit_table(_lock_grids()[1], 4).tobytes() \
        == g.orbit_table(xs, 4)[:, ::step].tobytes()


def _rolled_root_cell(d):
    # the reference: each end against its cyclic right neighbour
    signs = np.sign(d)
    hits = np.flatnonzero(signs * np.roll(signs, -1) <= 0)
    return int(hits[0]) if hits.size else None


@pytest.mark.parametrize("d, cell", [
    ([1.0, 2.0, 3.0, -1.0], 2),
    ([1.0, 2.0, 3.0, 4.0], None),
    ([-1.0, 2.0, 3.0, 4.0], 0),
    ([1.0, 2.0, 3.0, -4.0], 2),
    ([-1.0, -2.0, -3.0, 4.0], 2),
    ([4.0, -1.0, -2.0, -3.0], 0),
    ([-1.0, -2.0, -3.0, -4.0], None),
    ([1.0, 2.0, 0.0, 4.0], 1),
    ([0.0, 2.0, 3.0, 4.0], 0),
    ([-0.0, 2.0, 3.0, 4.0], 0),
    ([math.nan, 2.0, -3.0, 4.0], 1),
    ([math.nan, 2.0, 3.0, -4.0], 2),
    ([-1.0, 2.0, 3.0, math.nan], 0),
    ([1.0, 2.0, 3.0, math.nan], None),
    ([-1.0, math.nan, math.nan, 1.0], 3),
    ([2.0, math.nan, math.nan, 0.0], 3),
    ([math.nan, 2.0, 3.0, 4.0], None),
    ([1e-200, 1e-200, 1e-200, 1e-200], None),
    ([2.0], None),
    ([0.0], 0),
], ids=lambda v: str(v))
def test_root_cell_is_the_first_cyclic_cell(d, cell):
    # the last cell closes on d[0]; a nan end certifies nothing; products
    # of d itself would underflow to 0 on tiny values, signs do not
    d = np.array(d)
    assert _root_cell(d) == cell == _rolled_root_cell(d)


@settings(max_examples=300, deadline=None)
@given(d=st.lists(st.sampled_from([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0,
                                   math.nan, math.inf, -math.inf]),
                  min_size=1, max_size=40))
def test_root_cell_matches_the_rolled_scan(d):
    d = np.array(d)
    assert _root_cell(d) == _rolled_root_cell(d)


def test_a_later_subgrid_hit_scans_the_earlier_candidates_on_the_grid():
    # each candidate has its own table: 0/1 has no subgrid hit and is
    # ruled out on the grid before 1/2 is tried, whose subgrid hit is
    # returned with no grid table, and 1/3 and 1/4 are never tabulated
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.0, 0.0)))
    assert _first_lock(g, [(0, 1), (1, 2), (1, 3), (1, 4)]) == (1, 2)
    assert g.tables == [(LOCK_SUBGRID, 1), (LOCK_GRID, 1), (LOCK_SUBGRID, 2)]


def _chunk_bracket(g, n):
    column = g.orbit_table([0.0], n)[1:, 0]
    return _bracket(column, np.arange(1.0, n + 1.0))


@settings(max_examples=200, deadline=None)
@given(g=STAGED_LIFTS)
def test_an_early_stage_holds_at_most_one_candidate(g):
    # the n-step bracket is at most 2/n wide, and two reduced fractions
    # with q, q' <= 8 are at least 1/(q q') apart: 1/12 > 2/64 for q <= 4,
    # 1/56 > 2/128 for 5 <= q <= 8, so neither stage lists two
    assert len(_candidates(*_chunk_bracket(g, FIRST_CHUNK), 1, 4)) <= 1
    assert len(_candidates(*_chunk_bracket(g, 2 * FIRST_CHUNK), 5, 8)) <= 1


class SteppedTable:
    """Not a lift: a table whose d = g^q(x) - x - p is -1 or +1, so each
    candidate's root cells are set by hand.  For 0/1 d is +1 only at grid
    point 5, between two subgrid points; for 1/2 it changes sign at 1/2."""

    def orbit_table(self, xs, depth):
        xs = np.asarray(xs)
        d_01 = np.where(xs == 5.0 / LOCK_GRID, 1.0, -1.0)
        d_12 = np.where(xs < 0.5, -1.0, 1.0)
        return np.array([xs, xs + d_01, xs + 1.0 + d_12])[:depth + 1]


def test_an_earlier_grid_hit_beats_a_later_subgrid_hit():
    # the subgrid misses 0/1 and hits 1/2, but 0/1 comes first and has a
    # root cell on the grid
    candidates = [(0, 1), (1, 2)]
    g = SteppedTable()
    assert _first_lock(g, candidates) == (0, 1)
    assert _grid_first_lock(g, candidates) == (0, 1)
    assert _first_lock(g, candidates[1:]) == (1, 2)


def _grid_first_lock(g, candidates):
    """The reference scan: the first candidate with a root cell on the
    LOCK_GRID-point grid."""
    if not candidates:
        return None
    xs = np.linspace(0.0, 1.0, LOCK_GRID, endpoint=False)
    table = g.orbit_table(xs, max(q for _, q in candidates))
    for p, q in candidates:
        if _rolled_root_cell(table[q] - xs - p) is not None:
            return p, q
    return None


@st.composite
def _lock_cases(draw):
    # the reduced p/q with q <= q_max around a centre: near the lift's
    # rotation number, where the locks are, or anywhere; in ascending q as
    # the estimator lists them, or in any order
    g = draw(STAGED_LIFTS)
    q_max = draw(st.sampled_from([1, 2, 3, 4, 4, 8, 64]))
    centre = draw(st.one_of(
        st.just(rotation_number(g, tol=1e-3).value),
        st.floats(-2.0, 2.0)))
    width = draw(st.sampled_from([1e-3, 0.02, 0.2]))
    candidates = [(p, q) for q in range(1, q_max + 1)
                  for p in range(math.ceil((centre - width) * q),
                                 math.floor((centre + width) * q) + 1)
                  if math.gcd(p, q) == 1]
    if draw(st.booleans()):
        candidates = draw(st.permutations(candidates))
    return g, list(candidates)


@settings(max_examples=200, deadline=None)
@given(case=_lock_cases())
def test_first_lock_is_the_grid_scans_first_lock(case):
    g, candidates = case
    assert _first_lock(g, candidates) == _grid_first_lock(g, candidates)


def test_lock_rejects_unreduced_fraction():
    with pytest.raises(ValueError):
        detect_rational_lock(RigidLift(0.5), 2, 4)


@pytest.mark.parametrize("p, q", [(1, 0), (1, -1)])
def test_lock_rejects_a_denominator_below_one(p, q):
    with pytest.raises(ValueError, match=f"^q must be at least 1, got {q}$"):
        detect_rational_lock(RigidLift(0.5), p, q)


@pytest.mark.parametrize("q", [2.0, 2.5, "2"], ids=repr)
def test_lock_rejects_a_non_integer_denominator(q):
    # q is read by the kernels' one count reader, which names it
    message = f"^q must be an integer, got {re.escape(repr(q))}$"
    with pytest.raises(TypeError, match=message):
        detect_rational_lock(RigidLift(0.5), 1, q)


def test_lock_reads_a_bool_denominator_as_an_integer():
    # True is the count 1, as operator.index reads it, not a boolean index
    # into the lock table
    g = RigidLift(0.0)
    assert detect_rational_lock(g, 0, True) == detect_rational_lock(g, 0, 1)


@pytest.mark.parametrize("p", [0.5, 1.0, "1"], ids=repr)
def test_lock_rejects_a_non_integer_numerator(p):
    # p is read by the same integer reader as q, which names it
    message = f"^p must be an integer, got {re.escape(repr(p))}$"
    with pytest.raises(TypeError, match=message):
        detect_rational_lock(RigidLift(0.5), p, 2)


def test_lock_reads_a_bool_numerator_as_an_integer():
    # True is the integer 1, as for q; p has no lower bound
    g = RigidLift(0.5)
    assert detect_rational_lock(g, True, 2) == detect_rational_lock(g, 1, 2)
    assert detect_rational_lock(RigidLift(-0.5), -1, 2) == 0.0


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

    def orbit(t, starts, n):
        raise AssertionError(f"a residual ran, at t = {t}")

    family.orbit = orbit
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


def test_solve_names_the_ends_without_a_sign_change():
    # shrink_bracket is the one check of the bracket: its error names both
    # ends and their residuals
    family = poncelet_family(1.0, 0.0)
    with pytest.raises(NoSolutionError, match=r"^no sign change: f\(0\.0\) = "
                                              r".*, f\(1\.0\) = "):
        solve_rotation(family, Fraction(3, 4))


def test_count_records_a_nan_residual_as_missing():
    # a nan residual at the ends is no sign change, so each p is missing
    # with the reason, where it used to escape as a bare ValueError
    family = MonotoneCircleFamily(
        0.0, 1.0, RigidLift,
        lambda t, starts, n: [[x] + [math.nan] * n for x in starts],
        lambda t, x: 1.0)
    report = count_poncelet_pairs(family, 5)
    assert report.pairs == [] and report.expected == 2
    assert [p for p, _ in report.missing] == [1, 2]
    assert all(reason.startswith("no sign change: f(0.0) = nan")
               for _, reason in report.missing)


def test_find_parameter_rejects_value_outside_estimated_image():
    family = rigid_family(a=0.2, b=0.4)
    with pytest.raises(NoSolutionError, match="outside estimated image"):
        find_parameter_for_value(family, GOLDEN, tol=1e-5)


def test_find_parameter_rejects_a_bad_bisection_count():
    # a negative count is rejected, not read as no bisection at all
    family = arnold_family(0.7)
    with pytest.raises(ValueError) as err:
        find_parameter_for_value(family, GOLDEN, iters=-5, tol=1e-3)
    assert str(err.value) == "iters must be at least 0, got -5"
    for iters in (2.0, 2.5):
        with pytest.raises(TypeError) as err:
            find_parameter_for_value(family, GOLDEN, iters=iters, tol=1e-3)
        assert str(err.value) == f"iters must be an integer, got {iters!r}"
    assert find_parameter_for_value(family, GOLDEN, iters=0, tol=1e-3) \
        == 0.5 * family.a + 0.5 * family.b


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
    assert [_estimate(g, tol, target).value < target for target in targets] \
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


@pytest.mark.parametrize("k", [0, -1000, -1020, 1000])
def test_shrink_bracket_does_not_depend_on_the_scale(k):
    # y^2 - 2 over [1, 2], its ends scaled by 2^k and its values by 2^j:
    # each secant point is formed on ends and weights scaled by powers of
    # two, so every scale takes the unscaled problem's steps and ends on
    # its ends scaled.  Formed on the unscaled ends, the products
    # lo * w_hi of k = -1020 are subnormal near the root, the point rounds
    # onto an end, and each step moves the bracket by one float (24,188
    # evaluations); formed on the unscaled weights, so are those of
    # j = -1020 (15,143 evaluations).
    for j in (0, -1020, 1000):
        calls = []

        def f(x):
            calls.append(x)
            y = math.ldexp(x, -k)
            return math.ldexp(y * y - 2.0, j)

        lo, f_lo, hi, f_hi = shrink_bracket(
            f, math.ldexp(1.0, k), math.ldexp(-1.0, j),
            math.ldexp(2.0, k), math.ldexp(2.0, j))
        assert len(calls) == 9, j
        assert (math.ldexp(lo, -k), math.ldexp(hi, -k)) == (
            float.fromhex("0x1.6a09e667f3bccp+0"),
            float.fromhex("0x1.6a09e667f3bcdp+0"))
        assert (f_lo, f_hi) == (f(lo), f(hi))


@st.composite
def _monotone_problems(draw):
    """(f, lo, hi): a monotone f, zero on a plateau [r1, r2] (a single
    root when r1 == r2), rising or falling through an odd map, on ends
    lo < hi around the plateau, all scaled by 2^k.  f's values near the
    root can be subnormal: shrink_bracket scales its weights as well as
    its ends, so they do not make it crawl."""
    lo, r1, r2, hi = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=4,
                                          max_size=4)))
    k = draw(st.integers(-1070, 1013))
    sign = draw(st.sampled_from([1.0, -1.0]))
    shape = draw(st.sampled_from([
        lambda u: u, lambda u: u ** 3, math.atan,
        lambda u: math.copysign(math.sqrt(abs(u)), u)]))

    def f(x):
        y = math.ldexp(x, -k)
        return sign * shape(min(y - r1, 0.0) + max(y - r2, 0.0))

    return f, math.ldexp(lo, k), math.ldexp(hi, k)


@settings(max_examples=300, deadline=None)
@given(problem=_monotone_problems())
def test_shrink_bracket_keeps_its_contract(problem):
    f, lo, hi = problem
    # ends that round into the subnormal range can lose the sign change
    assume(lo < hi and (f(lo) <= 0.0 <= f(hi) or f(hi) <= 0.0 <= f(lo)))
    calls = []

    def counted(x):
        # a triple root at 0 takes up to ~800 steps, down through subnormal
        # values to their underflow to 0; a crawl of one float per step
        # would not end
        calls.append(x)
        assert len(calls) <= 2000, "shrink_bracket crawled"
        return f(x)

    lo2, f_lo, hi2, f_hi = shrink_bracket(counted, lo, f(lo), hi, f(hi))
    assert lo <= lo2 < hi2 <= hi
    assert (f_lo, f_hi) == (f(lo2), f(hi2))
    assert f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) != (f_hi > 0.0)
    if f_lo != 0.0 and f_hi != 0.0:
        assert math.nextafter(lo2, hi2) == hi2


def scaled_shrink_bracket(f, lo, f_lo, hi, f_hi):
    """shrink_bracket with every secant point formed on the ends and
    weights scaled by powers of two (frexp / ldexp), whose bits the
    unscaled fast path must keep: the reference of the test below."""
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        raise NoSolutionError(
            f"no sign change: f({lo}) = {f_lo}, f({hi}) = {f_hi}")
    w_lo, w_hi = f_lo, f_hi
    kept = 0
    while f_lo != 0.0 and f_hi != 0.0:
        inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
        if inner_lo == hi:
            break
        e = math.frexp(max(abs(lo), abs(hi)))[1] + 1
        s = math.frexp(w_hi - w_lo)[1]
        u, v = math.ldexp(w_hi, -s), math.ldexp(w_lo, -s)
        x = math.ldexp((math.ldexp(lo, -e) * u - math.ldexp(hi, -e) * v)
                       / (u - v), e)
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


# binary exponents: anywhere from the subnormal range to near the float
# maximum; around the fast path's bounds 2^-240 and 2^240, their squares
# and the ends' scaling exponent; and around +-511, beyond which the
# unscaled products of two such values leave the normal range
_EXPONENTS = (st.integers(-1070, 1013) | st.integers(-250, 250)
              | st.sampled_from([k + d for k in (-540, -511, -480, -242,
                                                 -240, 240, 242, 480, 511)
                                 for d in (-2, -1, 0, 1, 2)]))
_NONZERO = (st.builds(math.ldexp, st.floats(1.0, 2.0), _EXPONENTS)
            | st.floats(5e-324, 2.0 ** -1022))  # subnormal
_SIGNS = st.sampled_from([1.0, -1.0])


def _signed(magnitudes):
    return st.builds(math.copysign, magnitudes, _SIGNS)


@st.composite
def _secant_runs(draw):
    """(lo, f_lo, hi, f_hi, values): ends lo < hi (a zero now and then)
    and nonzero end values of opposite signs, each scaled on its own, and
    the nonzero values f returns, in order, for the secant points; after
    them f returns 0."""
    ends = _signed(_NONZERO | st.just(0.0))
    lo, hi = sorted([draw(ends), draw(ends)])
    if lo == hi:
        hi = math.nextafter(hi, math.inf)
    f_lo = draw(_signed(_NONZERO))
    f_hi = -math.copysign(draw(_NONZERO), f_lo)
    return lo, f_lo, hi, f_hi, draw(st.lists(_signed(_NONZERO), max_size=6))


def _hex_run(*hexes):
    lo, f_lo, hi, f_hi = map(float.fromhex, hexes)
    return lo, f_lo, hi, f_hi, []


@settings(max_examples=600, deadline=None)
@given(_secant_runs())
# ends and values in [2^-512, 2^512] in magnitude whose unscaled secant
# point misses the scaled one's bits by an ulp, and ones in
# [2^-520, 2^520] where it overflows: a fast path that admits either fails
@example(_hex_run("-0x1.09275f2b54bafp+510", "-0x1.53a7f10ca03c6p+511",
                  "0x1.624ec1c0e110ap-510", "0x1.b00cfe212dc46p-509"))
@example(_hex_run("-0x1.f31dfe6f3cfa9p-510", "-0x1.0392e8e7f31fep-510",
                  "0x1.b3021a490175ap+511", "0x1.3bd8b080af29ap+511"))
@example(_hex_run("-0x1.5025803988a2ap-406", "-0x1.b364a81c18f23p+517",
                  "0x1.82a78123a22b6p+519", "0x1.b3f3880da2cf8p+187"))
def test_shrink_bracket_unscaled_points_keep_the_scaled_bits(run):
    # where shrink_bracket forms its secant point unscaled, it must have the
    # scaled formula's bits: every point f is called at, and the result,
    # are the reference's, to the bit, at any scale of ends and values
    lo, f_lo, hi, f_hi, values = run

    def run_with(solver):
        points = []

        def f(x):
            points.append(x.hex())
            return values[len(points) - 1] if len(points) <= len(values) \
                else 0.0

        result = solver(f, lo, f_lo, hi, f_hi)
        return points, [v.hex() for v in result]

    assert run_with(shrink_bracket) == run_with(scaled_shrink_bracket)


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
    # each residual runs one orbit of the family (and builds no lift):
    # bisection to adjacent floats runs 50-57 on this grid
    family = FAMILIES[spec[0]](*spec[1:])
    built = []
    orbit = family.orbit
    family.orbit = lambda t, starts, n: built.append(t) or orbit(t, starts, n)
    family.lift = None
    solve_rotation(family, target)
    assert 2 <= len(built) <= 40


# ------------------------------------------------------------------ closure

def seeded_starts(seed):
    """The first CLOSURE_STARTS draws of random.Random(seed): the starts
    count_poncelet_pairs closes its pairs from."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(CLOSURE_STARTS)]


def step_orbit(step):
    """The one-point orbit verify_closure reads, of the one-float map
    `step` (a lift, or a bare step): the kernels' `step_loop`, one column
    [x, g(x), ..., g^n(x)] per start x, one call per step."""
    return functools.partial(kernels.step_loop, step)


def test_triangle_pair_closes_tightly():
    residual = verify_closure(
        step_orbit(PonceletLift(PonceletConfig(1.0, 0.0, 0.5))), 3,
        seeded_starts(0))
    assert residual < 1e-10


def test_diameter_closes_in_two_steps():
    residual = verify_closure(
        step_orbit(PonceletLift(PonceletConfig(1.0, 0.0, 0.0))), 2,
        seeded_starts(0))
    assert residual < 1e-12


def test_wrong_period_is_rejected():
    # the triangle radius does not close a 5-gon
    with pytest.raises(ResidualFailureError):
        verify_closure(step_orbit(PonceletLift(PonceletConfig(1.0, 0.0, 0.5))),
                       5, seeded_starts(0))


class TwoBands(CircleLift):
    """An interval exchange that rotates [0, 1/2) by a half-turn of its own
    (period 2) and [1/2, 1) by a third (period 3), so a start's return
    time depends on its band."""

    def _step(self, x):
        k, y = divmod(x, 1.0)
        if y < 0.5:
            return k + 0.5 * ((2.0 * y + 0.5) % 1.0)
        return k + 0.5 + 0.5 * ((2.0 * y - 1.0 + 1.0 / 3.0) % 1.0)


class TwoBandsDrift(TwoBands):
    """TwoBands with a drift on [0, 1/4): a start y in [0, 1/2) comes back
    after 2 steps 1e-6 (y mod 1/4) past itself."""

    def _step(self, x):
        k, y = divmod(x, 1.0)
        if y < 0.25:
            return k + y + 0.25 + 1e-6 * y
        return super()._step(x)


def test_closure_reports_the_earliest_return_over_all_starts():
    # the first start of seed 0 (0.844) returns after 3 steps; later starts
    # in [0, 1/2) return after 2, and the error must name 2
    with pytest.raises(ResidualFailureError,
                       match=r"^orbit returned after 2 < 6 steps"):
        verify_closure(step_orbit(TwoBands()), 6, seeded_starts(0))
    # with the drift, the seven starts in [0, 1/2) tie at step 2 at
    # distances 2 pi 1e-6 (y mod 1/4); the least, from y = 0.2505, is named
    with pytest.raises(ResidualFailureError,
                       match=r"^orbit returned after 2 < 6 steps "
                             r"\(distance 3\.18e-09\)$"):
        verify_closure(step_orbit(TwoBandsDrift()), 6, seeded_starts(0))


class NanAbove(CircleLift):
    """x + 1/2 below 1/2, nan from there: every orbit is nan by step 2."""

    def _step(self, x):
        return x + 0.5 if x < 0.5 else math.nan


def test_closure_of_a_nan_orbit_fails():
    with pytest.raises(ResidualFailureError, match=r"residual nan"):
        verify_closure(step_orbit(NanAbove()), 2, seeded_starts(0))


def unfiltered_closure(step, n, starts):
    """verify_closure as one loop of n steps per start, with no prefilter:
    the reference of the test below."""
    early = None
    ends = []
    for x0 in starts:
        x = x0
        for k in range(1, n + 1):
            x = step(x)
            dist = TWO_PI * abs((x - x0 + 0.5) % 1.0 - 0.5)
            if k < n and dist <= EARLY_TOL:
                early = min(early or (k, dist), (k, dist))
                break
        ends.append(dist)
    if early is not None:
        k, dist = early
        raise ResidualFailureError(
            f"orbit returned after {k} < {n} steps (distance {dist:.3g})")
    residual = max(ends, key=lambda d: (math.isnan(d), d))
    if not residual < CLOSE_TOL:
        raise ResidualFailureError(
            f"orbit failed to close after {n} steps "
            f"(residual {residual:.3g})")
    return residual


def closure_outcome(closure, step, n, starts):
    """closure's residual as hex, or its ResidualFailureError's text; the
    reference takes the step, verify_closure the step's orbit."""
    if closure is verify_closure:
        step = step_orbit(step)
    try:
        return closure(step, n, starts).hex()
    except ResidualFailureError as err:
        return str(err)


def threshold_laps(bound):
    """The largest multiple m of 2^-53 with TWO_PI m <= bound, in units of
    2^-53: a lap offset (x - x0 + 0.5) % 1 - 0.5 lies on that grid."""
    m = int(bound / TWO_PI * 2.0 ** 53)
    while TWO_PI * ((m + 1) * 2.0 ** -53) <= bound:
        m += 1
    while TWO_PI * (m * 2.0 ** -53) > bound:
        m -= 1
    return m


# rigid steps x + alpha that return after k = 1 (alpha ~ +-EARLY_TOL /
# TWO_PI) or k = 2 (alpha ~ 1/2 + EARLY_TOL / (2 TWO_PI)) steps within a few
# grid steps of EARLY_TOL, on both sides, and of the prefilter's bound
EDGE = threshold_laps(EARLY_TOL)
PREFILTER_EDGE = threshold_laps(TWO_PI * _EARLY_LAPS)
CLOSURE_EDGE_STEPS = (
    [(sign * j * 2.0 ** -53, 2) for sign in (1, -1)
     for j in [*range(EDGE - 3, EDGE + 4),
               *range(PREFILTER_EDGE - 2, PREFILTER_EDGE + 3)]]
    + [(0.5 + j * 2.0 ** -53, 3)
       for j in range(EDGE // 2 - 3, EDGE // 2 + 4)]
    + [(0.5, 2), (0.25, 4), (0.5 + 2.0 ** -40, 2)])


@pytest.mark.parametrize("seed", [0, 5])
def test_closure_prefilter_changes_no_decision(seed):
    # the prefilter passes every lap offset the exact test passes, and the
    # exact test decides the rest: each residual, or error text, is the
    # unfiltered loop's, at the threshold and on a nan orbit
    starts = seeded_starts(seed)
    for alpha, n in CLOSURE_EDGE_STEPS:
        def step(x):
            return x + alpha
        assert closure_outcome(verify_closure, step, n, starts) == \
            closure_outcome(unfiltered_closure, step, n, starts), (alpha, n)
    for n in (1, 2, 5):
        assert closure_outcome(verify_closure, lambda x: math.nan, n,
                               starts) \
            == closure_outcome(unfiltered_closure, lambda x: math.nan, n,
                               starts)
    # from a start x0 with x0 + alpha < 1 the first lap offset is alpha
    # itself: the one-step cases fall on both sides of EARLY_TOL, within
    # one grid step, and of the prefilter's bound
    dists = [TWO_PI * abs(alpha) for alpha, _ in CLOSURE_EDGE_STEPS
             if abs(alpha) < 1e-4]
    grid_step = TWO_PI * 2.0 ** -53
    assert any(EARLY_TOL - grid_step < d <= EARLY_TOL for d in dists)
    assert any(EARLY_TOL < d < EARLY_TOL + grid_step for d in dists)
    assert any(EARLY_TOL < d <= TWO_PI * _EARLY_LAPS for d in dists)
    assert any(d > TWO_PI * _EARLY_LAPS for d in dists)


@pytest.mark.parametrize("n", [0, -1])
def test_closure_rejects_fewer_than_one_step(n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        verify_closure(step_orbit(PonceletLift(PonceletConfig(1.0, 0.0, 0.5))),
                       n, seeded_starts(0))


def test_closure_rejects_empty_starts():
    with pytest.raises(ValueError, match="starts must hold at least one"):
        verify_closure(step_orbit(PonceletLift(PonceletConfig(1.0, 0.0, 0.5))),
                       3, [])


def unreachable_orbit(*args):
    raise AssertionError(f"an orbit ran, on {args}")


@pytest.mark.parametrize("n", [3.0, 3.5, "3", None])
def test_closure_rejects_a_non_integer_n_before_any_orbit(n):
    # range() used to raise a bare TypeError once the first start ran
    with pytest.raises(TypeError, match=f"^n must be an integer, got {n!r}$"):
        verify_closure(unreachable_orbit, n, seeded_starts(0))


def test_closure_reads_every_start_from_one_orbit_call():
    calls = []
    orbit = step_orbit(PonceletLift(PonceletConfig(1.0, 0.3, 0.5)))
    starts = seeded_starts(0)
    with pytest.raises(ResidualFailureError):
        verify_closure(lambda *args: calls.append(args) or orbit(*args), 5,
                       starts)
    assert calls == [(starts, 5)]


# ----------------------------------------------------------------- counting

def test_totient_values():
    assert euler_totient(3) == 2
    assert euler_totient(12) == 4
    assert euler_totient(97) == 96
    assert [euler_totient(n) for n in range(1, 11)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_totient_rejects_nonpositive():
    for n in (0, -3):
        with pytest.raises(ValueError) as err:
            euler_totient(n)
        assert str(err.value) == f"n must be at least 1, got {n}"


def test_totient_takes_only_integers():
    # a float, even an integral one, raises; a numpy integer is an int
    for n in (6.0, 6.5, 2.5):
        with pytest.raises(TypeError) as err:
            euler_totient(n)
        assert str(err.value) == f"n must be an integer, got {n!r}"
    phi = euler_totient(np.int64(12))
    assert type(phi) is int and phi == 4
    assert [euler_totient(n) for n in range(1, 61)] == [
        sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for n in range(1, 61)]


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
        assert pair.closure_residual == verify_closure(
            step_orbit(lift), n, seeded_starts(seed))


# float.hex of each pair's t by p, and the p's that fail closure, at seed 0
PINNED_PAIRS = {
    (0.0, 3): ({1: "0x1.fffffffffffffp-2"}, []),
    (0.0, 4): ({1: "0x1.6a09e667f3bcdp-1"}, []),
    (0.0, 5): ({1: "0x1.9e3779b97f4a8p-1", 2: "0x1.3c6ef372fe951p-2"}, []),
    (0.0, 6): ({1: "0x1.bb67ae8584caap-1"}, []),
    (0.0, 7): ({1: "0x1.cd4bca9cb5c71p-1", 2: "0x1.3f3a0e28bedd1p-1",
                3: "0x1.c7b90e3024581p-3"}, []),
    (0.0, 8): ({1: "0x1.d906bcf328d46p-1", 3: "0x1.87de2a6aea95fp-2"}, []),
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


def test_count_runs_each_bracket_end_and_draws_the_starts_once(
        monkeypatch):
    # the five pairs of n = 11 share one lap residual, so its ends at
    # family.a and family.b run once, and one draw of the closure starts
    family = poncelet_family(1.0, 0.3)
    ts = []
    orbit = family.orbit
    family.orbit = lambda t, starts, n: ts.append(t) or orbit(t, starts, n)
    seeded = []

    class Seeded(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Seeded)
    report = count_poncelet_pairs(family, 11)
    assert report.ok and len(report.pairs) == 5
    assert ts.count(family.a) == ts.count(family.b) == 1
    assert seeded == [0]


def test_closure_starts_are_the_seeds_draws(monkeypatch):
    # the count hands every pair the first CLOSURE_STARTS draws of
    # random.Random(seed), through the module's verify_closure, which the
    # benchmark's tracer wraps
    family = poncelet_family(1.0, 0.3)
    seed = 7
    draws = seeded_starts(seed)
    handed = []

    def recording(orbit, n, starts):
        handed.append(list(starts))
        return verify_closure(orbit, n, starts)

    monkeypatch.setattr(rotation, "verify_closure", recording)
    report = count_poncelet_pairs(family, 7, seed=seed)
    assert report.ok and handed == [draws] * 3
    for pair in report.pairs:
        assert pair.closure_residual == verify_closure(
            functools.partial(family.orbit, pair.t), 7, draws)
        # the family's orbit has the bits of its lift's step
        lift = family.lift(pair.t)
        assert pair.closure_residual == verify_closure(step_orbit(lift), 7,
                                                       draws)


def test_count_does_not_depend_on_earlier_counts():
    # no state outlives a count: seed 5 reports the same after seed 9
    family = poncelet_family(1.0, 0.6)
    reports = [count_poncelet_pairs(family, 9, seed=seed)
               for seed in (5, 9, 5)]
    assert reports[0] == reports[2] != reports[1]


def test_count_rejects_a_period_above_max_steps_before_any_step():
    family = poncelet_family(1.0, 0.3)
    family.orbit = unreachable_orbit
    with pytest.raises(ValueError, match=f"n = {MAX_STEPS + 1} > MAX_STEPS"):
        count_poncelet_pairs(family, MAX_STEPS + 1)


@pytest.mark.parametrize("n", [5.0, 5.5, "5", None])
def test_count_rejects_a_non_integer_n_before_any_orbit(n, monkeypatch):
    # range() used to raise a bare TypeError after the closure starts were
    # drawn and a residual was set up
    family = poncelet_family(1.0, 0.3)
    family.orbit = unreachable_orbit
    drawn = []
    monkeypatch.setattr(random, "Random", lambda seed: drawn.append(seed))
    with pytest.raises(TypeError, match=f"^n must be an integer, got {n!r}$"):
        count_poncelet_pairs(family, n)
    assert drawn == []


@pytest.mark.parametrize("family", [
    poncelet_family(1.0, 0.0), poncelet_family(1.0, 0.3),
    poncelet_family(1.0, 0.6, reverse=True), arnold_family(0.8),
    rigid_family()])
def test_count_and_solve_build_no_kernel_loop(family, monkeypatch):
    # the family binds its map's loop when it is built; the count's and the
    # solve's residuals and closure orbits call that loop with t, and build
    # neither a loop nor a step
    built = []
    for name in ("poncelet_loop", "arnold_loop", "poncelet_step"):
        monkeypatch.setattr(kernels, name,
                            lambda *args, name=name: built.append(name))
    count_poncelet_pairs(family, 7)
    solve_rotation(family, Fraction(1, 5))
    assert built == []


@pytest.mark.parametrize("family", [
    poncelet_family(1.0, 0.0), poncelet_family(1.0, 0.3),
    poncelet_family(1.0, 0.6, reverse=True), arnold_family(0.8)])
def test_count_and_solve_run_no_per_step_call(family, monkeypatch):
    # the Poncelet and Arnold counts run their map's loop, the step's
    # statements inline; the generic loop, which calls its step once per
    # step, serves only maps with no loop of their own
    called = []
    monkeypatch.setattr(kernels, "step_loop",
                        lambda *args: called.append(args))
    count_poncelet_pairs(family, 7)
    solve_rotation(family, Fraction(1, 5))
    assert called == []


def test_counting_rejects_degenerate_period():
    family = poncelet_family(1.0, 0.0)
    for n in (2, -1):
        with pytest.raises(ValueError,
                           match=f"^n must be at least 3, got {n}$"):
            count_poncelet_pairs(family, n)
    with pytest.raises(TypeError, match="^n must be an integer, got '3'$"):
        count_poncelet_pairs(family, "3")
