"""Rotation-number estimation, lock detection, the parameter solver, and
the Poncelet-pair counting pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from poncelet.families import arnold_family, poncelet_family, rigid_family
from poncelet.geometry import PonceletConfig
from poncelet.lifts import ArnoldLift, PonceletLift, RigidLift
from poncelet.rotation import (
    NoSolutionError,
    PonceletPair,
    ResidualFailureError,
    count_poncelet_pairs,
    detect_rational_lock,
    euler_totient,
    rotation_number,
    solve_rotation,
    staircase,
    verify_closure,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -------------------------------------------------------------- estimation

def test_rigid_rotation_number_is_alpha():
    est = rotation_number(RigidLift(0.3176), tol=1e-6)
    assert abs(est.value - 0.3176) <= est.error_radius
    assert est.value == pytest.approx(0.3176, abs=1e-9)


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

        def advance(self, xs, n):
            scalar = np.isscalar(xs)
            out = np.atleast_1d(np.array(xs, dtype=float))
            out = np.array([h(v) for v in out])
            out = g.advance(out, n)
            out = np.array([h_inv(v) for v in out])
            return float(out[0]) if scalar else out

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
    about phi = pi/2, r = 1/2 - F(beta) / (2 F(pi/2))."""
    a = (R - c - t) * (R - c + t)
    if a == 0.0:
        return 0.0
    b = 4.0 * R * c
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


# Every field of the estimate: (lift, x0, tol, value, error_radius, lock).
# Each Poncelet row must also lie within its radius of exact_r; at internal
# tangency (t = 0.8 for c = 0.2) that is the lock r = 0.
TRIANGLE_02 = (1.0 - 0.2 ** 2) / 2.0
PINNED_ESTIMATES = [
    (PonceletLift(PonceletConfig(1.0, 0.0, 0.0)), 0.0, 1e-4,
     "0x1.0000000000000p-1", "0x0.0p+0", (1, 2)),
    (PonceletLift(PonceletConfig(1.0, 0.2, TRIANGLE_02)), 0.0, 1e-4,
     "0x1.5555555555555p-2", "0x0.0p+0", (1, 3)),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.3)), 0.0, 1e-4,
     "0x1.9924fe5a5872cp-2", "0x1.a36e2eb1c432dp-14", None),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.3)), 0.375, 1e-3,
     "0x1.992d3c08ccad8p-2", "0x1.0624dd2f1a9fcp-10", None),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.55)), 0.0, 1e-3,
     "0x1.3814ea32194fbp-2", "0x1.0624dd2f1a9fcp-10", None),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.8)), 0.0, 1e-4,
     "0x0.0p+0", "0x0.0p+0", (0, 1)),
    (PonceletLift(PonceletConfig(1.0, 0.2, 0.8)), 0.0, 1e-3,
     "0x0.0p+0", "0x0.0p+0", (0, 1)),
    (ArnoldLift(0.3, 0.8), 0.0, 1e-4,
     "0x1.200cce69dd669p-2", "0x1.a36e2eb1c432dp-14", None),
    (ArnoldLift(0.5, 0.8), 0.0, 1e-4,
     "0x1.0000000000000p-1", "0x0.0p+0", (1, 2)),
    (ArnoldLift(GOLDEN, 0.8), 0.375, 1e-3,
     "0x1.4136c3400f61ep-1", "0x1.0624dd2f1a9fcp-10", None),
    (RigidLift(GOLDEN), 0.0, 1e-4,
     "0x1.3c6ef372fe950p-1", "0x1.a36e2eb1c432dp-14", None),
    (RigidLift(math.sqrt(2.0) - 1.0), 0.375, 1e-3,
     "0x1.a827999fcef34p-2", "0x1.0624dd2f1a9fcp-10", None),
]


@pytest.mark.parametrize("case", range(len(PINNED_ESTIMATES)))
def test_estimates_are_pinned_bit_for_bit(case):
    g, x0, tol, value, radius, lock = PINNED_ESTIMATES[case]
    est = rotation_number(g, x0=x0, tol=tol)
    assert (float.hex(est.value), float.hex(est.error_radius), est.lock) \
        == (value, radius, lock)
    if isinstance(g, PonceletLift):
        # within the radius of the orbit-free value (plus its own rounding)
        r = exact_r(g.cfg.R, g.cfg.c, g.cfg.t)
        assert abs(est.value - r) <= est.error_radius + 1e-15


class RecordingLift:
    """A lift that records the (points, depth) of each orbit table."""

    def __init__(self, g):
        self.g = g
        self.tables = []

    def validate(self, samples=64, tol=1e-12):
        self.g.validate(samples, tol)

    def advance(self, xs, n):
        return self.g.advance(xs, n)

    def orbit_table(self, xs, depth):
        self.tables.append((len(xs), depth))
        return self.g.orbit_table(xs, depth)


def test_lock_table_is_as_deep_as_the_deepest_candidate():
    # r = 1/2 at t = 0: the only candidate within 1.5/1024 is 1/2
    g = RecordingLift(PonceletLift(PonceletConfig(1.0, 0.0, 0.0)))
    est = rotation_number(g, tol=1e-4)
    assert est.lock == (1, 2)
    assert g.tables == [(1, 1024), (512, 2)]


def test_no_lock_table_without_a_candidate():
    # no p/q with q <= 64 lies within 1.5/1024 of 0.0123
    g = RecordingLift(RigidLift(0.0123))
    est = rotation_number(g, tol=1e-4)
    assert est.lock is None
    assert g.tables == [(1, 1024)]


@pytest.mark.parametrize("g", [
    PonceletLift(PonceletConfig(1.0, 0.2, 0.3)),
    ArnoldLift(GOLDEN, 0.8),
    RigidLift(math.sqrt(2.0) - 1.0),
], ids=["poncelet", "arnold", "rigid"])
def test_short_birkhoff_run_equals_one_advance(g):
    # for n <= 1024 the quotient is read off the rough pass's orbit; it
    # must equal the quotient of one n-step advance bit for bit
    for x0 in (0.0, 0.375):
        for tol in (1e-3, 1.0 / 1024):
            est = rotation_number(g, x0=x0, tol=tol)
            n = est.iterations
            assert est.lock is None and n <= 1024
            assert est.value == (g.advance(x0, n) - x0) / n


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


def test_lock_rejects_unreduced_fraction():
    with pytest.raises(ValueError):
        detect_rational_lock(RigidLift(0.5), 2, 4)


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


def test_staircase_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        staircase(rigid_family(), [0.3, 0.1])


# ------------------------------------------------------------------- solver

def test_solve_one_third_gives_half_radius():
    family = poncelet_family(1.0, 0.0)
    t_star, x0 = solve_rotation(family, Fraction(1, 3))
    assert t_star == pytest.approx(0.5, abs=1e-11)
    assert abs(family.lift(t_star).advance(x0, 3) - x0 - 1) < 1e-9


def test_solve_two_fifths_closed_form():
    family = poncelet_family(1.0, 0.0)
    t_star, _ = solve_rotation(family, Fraction(2, 5))
    assert t_star == pytest.approx(math.cos(2.0 * math.pi / 5.0), abs=1e-11)


def test_solve_half_hits_boundary():
    family = poncelet_family(1.0, 0.0)
    t_star, _ = solve_rotation(family, Fraction(1, 2))
    assert t_star == pytest.approx(0.0, abs=1e-11)


def test_solve_outside_image_raises():
    family = poncelet_family(1.0, 0.0)
    with pytest.raises(NoSolutionError):
        solve_rotation(family, Fraction(3, 4))


# ------------------------------------------------------------------ closure

def test_triangle_pair_closes_tightly():
    pair = PonceletPair(t=0.5, n=3, p=1, closure_residual=math.nan)
    residual = verify_closure(pair, PonceletConfig(1.0, 0.0), starts=20)
    assert residual < 1e-10


def test_diameter_closes_in_two_steps():
    pair = PonceletPair(t=0.0, n=2, p=1, closure_residual=math.nan)
    residual = verify_closure(pair, PonceletConfig(1.0, 0.0), starts=20)
    assert residual < 1e-12


def test_wrong_period_is_rejected():
    # the triangle radius does not close a 5-gon
    pair = PonceletPair(t=0.5, n=5, p=1, closure_residual=math.nan)
    with pytest.raises(ResidualFailureError):
        verify_closure(pair, PonceletConfig(1.0, 0.0))


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


def test_counting_rejects_degenerate_period():
    with pytest.raises(ValueError):
        count_poncelet_pairs(poncelet_family(1.0, 0.0), 2)
