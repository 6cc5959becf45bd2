"""Geometry layer: tangency term, analytic/geometric map agreement, the
twist-map lift, invariant circles, and the generating potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.geometry import (
    TWO_PI,
    PonceletConfig,
    area_twist_check,
    generating_potential,
    invariant_circle_phi,
    poncelet_map_analytic,
    poncelet_map_geometric,
    tangent_direction,
    twist_map,
    z_function,
)


def circ_dist(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


# ------------------------------------------------------------- tangency term

def test_b_vanishes_for_concentric():
    cfg = PonceletConfig(1.0, 0.0, 0.2)
    for s in np.linspace(-1.1, 1.1, 23):
        assert z_function(s, cfg) == 0.0


def test_b_vanishes_at_pi():
    cfg = PonceletConfig(1.0, 0.45, 0.1)
    assert abs(z_function(0.5, cfg)) < 1e-15


def test_b_quarter_turn_value():
    # 2 * atan(0.5) / pi, frozen from high-precision evaluation
    cfg = PonceletConfig(1.0, 0.5, 0.1)
    assert z_function(0.25, cfg) == pytest.approx(
        0.9272952180016122 / math.pi, abs=1e-15
    )


def test_b_corrected_is_offset_mirror_of_published_form():
    # the paper prints the angle form's term as B(u) below; Z is the term
    # the tangent-line construction confirms, and pi Z(s) = -B(2 pi s + pi)
    def published_b(u, cfg):
        return 2.0 * math.atan(cfg.c * math.sin(u)
                               / (cfg.R + cfg.c * math.cos(u)))

    cfg = PonceletConfig(1.3, 0.6, 0.2)
    for s in np.linspace(0.0, 1.0, 37):
        assert math.pi * z_function(s, cfg) == pytest.approx(
            -published_b(TWO_PI * s + math.pi, cfg), abs=1e-13
        )


def test_z_has_period_one():
    cfg = PonceletConfig(1.0, 0.35, 0.1)
    for s in np.linspace(-1.0, 1.0, 17):
        assert z_function(s + 1.0, cfg) == pytest.approx(
            z_function(s, cfg), abs=1e-14
        )


# --------------------------------------------------------- analytic one-step

def test_fixed_position_point_of_chord_map():
    # theta = pi, phi = pi/2, c = 0: the chord returns to the same position
    cfg = PonceletConfig(1.0, 0.0, 0.0)
    theta_p, _ = poncelet_map_analytic(math.pi, math.pi / 2.0, cfg)
    assert circ_dist(theta_p, math.pi, TWO_PI) < 1e-12


def test_analytic_agrees_with_geometric_on_invariant_circle():
    rng = np.random.default_rng(11)
    for R, c, t in [(1.0, 0.3, 0.2), (1.0, 0.45, 0.3), (2.0, 0.5, 0.7)]:
        cfg = PonceletConfig(R, c, t)
        for theta in rng.uniform(0.0, TWO_PI, 25):
            theta_p, phi = poncelet_map_geometric(theta, cfg)
            pred = poncelet_map_analytic(theta, phi, cfg)
            _, phi_p = poncelet_map_geometric(theta_p, cfg)
            assert circ_dist(pred[0], theta_p, TWO_PI) < 1e-10
            assert circ_dist(pred[1], phi_p, math.pi) < 1e-10


def test_cross_validation_spot_value():
    cfg = PonceletConfig(1.0, 0.25, 0.5)
    theta = 1.1
    theta_p, phi = poncelet_map_geometric(theta, cfg)
    pred = poncelet_map_analytic(theta, phi, cfg)
    assert circ_dist(pred[0], theta_p, TWO_PI) < 1e-10


# -------------------------------------------------------------- twist lift f

def test_twist_lift_spot_value():
    # f(0, 1/2) = (1, 5/2) for the concentric pair
    cfg = PonceletConfig(1.0, 0.0, 0.0)
    x_p, y_p = twist_map(0.0, 0.5, cfg)
    assert (x_p, y_p) == (1.0, 2.5)


def _dyadic(v):
    # v on the 2^-40 grid: x + 1, its integer part and its fraction are
    # exact there, so F(x + 1, y) can be compared with F(x, y) bit for bit
    return math.ldexp(round(math.ldexp(v, 40)), -40)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 0.95), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_lift_periodicity_is_exact(c, x, y):
    # F(x+1, y) = F(x, y) + (1, 0) and F(x, y+1) = F(x, y) + (1, 3): f is
    # well defined on the torus, and F is a lift of it in x
    cfg = PonceletConfig(1.0, c, 0.0)
    x, y = _dyadic(x), _dyadic(y)
    a = twist_map(x, y, cfg)
    b = twist_map(x + 1.0, y, cfg)
    assert b[0] - a[0] == 1.0
    assert b[1] == a[1]
    d = twist_map(x, y + 1.0, cfg)
    assert d[0] - a[0] == pytest.approx(1.0, abs=1e-12)
    assert d[1] - a[1] == pytest.approx(3.0, abs=1e-12)


def test_coordinate_change_consistency():
    # f in (x, y) coordinates is the analytic chord map in (theta, phi)
    cfg = PonceletConfig(1.0, 0.4, 0.0)
    x, y = 0.2, 0.6
    x_p, y_p = twist_map(x, y, cfg)
    theta_p, phi_p = poncelet_map_analytic(TWO_PI * x, math.pi * y, cfg)
    assert circ_dist(x_p % 1.0, theta_p / TWO_PI, 1.0) < 1e-12
    assert circ_dist(y_p % 1.0, phi_p / math.pi, 1.0) < 1e-12


# ------------------------------------------------------ tangent construction

def test_concentric_diameter_orbit_is_period_two():
    cfg = PonceletConfig(1.0, 0.0, 0.0)
    for theta in np.linspace(0.0, TWO_PI, 13, endpoint=False):
        theta_p, _ = poncelet_map_geometric(theta, cfg)
        assert circ_dist(theta_p, theta + math.pi, TWO_PI) < 1e-12


def test_concentric_half_radius_step():
    # arccos(1/2) = pi/3, so the chord advances by 2 pi / 3
    cfg = PonceletConfig(1.0, 0.0, 0.5)
    theta_p, _ = poncelet_map_geometric(0.0, cfg)
    assert theta_p == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_concentric_step_matches_arccos_formula():
    rng = np.random.default_rng(5)
    for t in (0.1, 0.3, 0.8):
        cfg = PonceletConfig(1.0, 0.0, t)
        for theta in rng.uniform(0.0, TWO_PI, 10):
            theta_p, _ = poncelet_map_geometric(theta, cfg)
            expect = (theta + 2.0 * math.acos(t)) % TWO_PI
            assert circ_dist(theta_p, expect, TWO_PI) < 1e-12


def test_internal_tangency_fixed_point():
    cfg = PonceletConfig(1.0, 0.3, 0.7)
    theta_p, _ = poncelet_map_geometric(0.0, cfg)
    assert circ_dist(theta_p, 0.0, TWO_PI) < 1e-9


def test_near_tangency_starts_at_large_radius():
    # at R = 3.7e20, t = R - c, some starts near theta = 0 round to D < t;
    # the clamp of t / D absorbs it.  asin near t / D = 1 loses half the
    # digits, hence 1e-7 against the same construction at R = 1.
    R = 3.7e20
    thetas = np.logspace(-12.0, -1.0, 100)
    for ratio in np.linspace(0.05, 0.95, 24):
        big = PonceletConfig(R, ratio * R, R - ratio * R)
        unit = PonceletConfig(1.0, ratio, 1.0 - ratio)
        for theta in np.concatenate([-thetas, thetas]):
            a = poncelet_map_geometric(theta, big)
            b = poncelet_map_geometric(theta, unit)
            assert circ_dist(a[0], b[0], TWO_PI) < 1e-7
            assert circ_dist(a[1], b[1], math.pi) < 1e-7


@pytest.mark.parametrize("k", [-1000, -3, 5, 1023])
def test_tangent_construction_does_not_depend_on_a_power_of_two_scale(k):
    # the construction runs in units of R, so scaling the circle pair by
    # 2^k changes no bit; in absolute units a chord near 2R overflows at
    # R = 2^1023
    rng = np.random.default_rng(k % 97)
    for _ in range(200):
        c = float(rng.uniform(0.0, 0.99))
        t = float(rng.uniform(0.0, 1.0)) * (1.0 - c)
        theta = float(rng.uniform(0.0, TWO_PI))
        scaled = PonceletConfig(*(math.ldexp(v, k) for v in (1.0, c, t)))
        assert poncelet_map_geometric(theta, scaled) == \
            poncelet_map_geometric(theta, PonceletConfig(1.0, c, t))


# ----------------------------------------------------------- config contract

@pytest.mark.parametrize("R,c,t", [
    (0.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0),
    (1.0, 1.0, 0.0),
    (1.0, -0.1, 0.0),
    (1.0, 0.3, 0.8),
    (1.0, 0.0, -0.2),
    (math.inf, 0.0, 0.0),
    (math.inf, 0.3, 0.2),
])
def test_config_rejects_invalid_geometry(R, c, t):
    with pytest.raises(ValueError) as positional:
        PonceletConfig(R, c, t)
    with pytest.raises(ValueError) as keyword:
        PonceletConfig(R=R, c=c, t=t)
    assert str(keyword.value) == str(positional.value)


@pytest.mark.parametrize("args, kwargs, message", [
    ((0.0,), {}, "outer radius must satisfy 0 < R < inf, got R=0.0"),
    ((), {"R": math.inf}, "outer radius must satisfy 0 < R < inf, got R=inf"),
    ((), {"R": math.nan}, "outer radius must satisfy 0 < R < inf, got R=nan"),
    ((1.0, 1.0), {}, "center offset must satisfy 0 <= c < R, got c=1.0"),
    ((1.0,), {"c": -0.1}, "center offset must satisfy 0 <= c < R, got c=-0.1"),
    ((1.0, 0.5, 0.6), {}, "inner radius must satisfy 0 <= t <= R - c, "
                          "got t=0.6"),
    ((), {"R": 1.0, "t": -1e-9}, "inner radius must satisfy 0 <= t <= R - c, "
                                 "got t=-1e-09"),
    ((1e-310,), {}, "outer radius must be a normal float, "
                    "R >= 2.2250738585072014e-308, got R=1e-310"),
])
def test_config_names_the_invalid_value(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        PonceletConfig(*args, **kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1.0, 0.0, 0.0, 0.0), {}), ((1.0,), {"R": 1.0}),
    ((), {"R": 1.0, "s": 0.0}),
])
def test_config_rejects_a_wrong_signature(args, kwargs):
    with pytest.raises(TypeError):
        PonceletConfig(*args, **kwargs)


def test_config_tuple_helpers_validate():
    # _replace builds through _make, and _make through the constructor
    cfg = PonceletConfig(1.0, 0.3, 0.4)
    for made in (cfg._replace(t=0.7), PonceletConfig._make([1.0, 0.3, 0.7])):
        assert type(made) is PonceletConfig and made == (1.0, 0.3, 0.7)
    with pytest.raises(ValueError) as err:
        cfg._replace(t=0.9)
    assert str(err.value) == \
        "inner radius must satisfy 0 <= t <= R - c, got t=0.9"
    with pytest.raises(ValueError) as err:
        PonceletConfig._make([1.0, 1.0, 0.0])
    assert str(err.value) == "center offset must satisfy 0 <= c < R, got c=1.0"


# --------------------------------------------------------- invariant circles

def test_degenerate_invariant_circle_is_doubled_angle():
    # t = 0, c = 0: the chord is the diameter through x, whose direction
    # angle is theta mod pi, i.e. y(x) = frac(2x)
    phi0 = invariant_circle_phi(0.0, PonceletConfig(1.0, 0.0))
    for x in np.linspace(0.0, 1.0, 40, endpoint=False):
        assert circ_dist(phi0(x), (2.0 * x) % 1.0, 1.0) < 1e-12


def test_invariant_circle_graph_is_invariant():
    cfg = PonceletConfig(1.0, 0.3, 0.2)
    y_of = invariant_circle_phi(0.2, cfg)
    for x in np.linspace(0.0, 1.0, 200, endpoint=False):
        x_p, y_p = twist_map(x, y_of(x), cfg)
        assert circ_dist(y_p, y_of(x_p), 1.0) < 1e-9


def test_invariant_circles_are_disjoint_graphs():
    base = PonceletConfig(1.0, 0.0)
    y1 = invariant_circle_phi(0.2, base)
    y2 = invariant_circle_phi(0.4, base)
    xs = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    gap = min(circ_dist(y2(x), y1(x), 1.0) for x in xs)
    assert gap > 1e-3


# ------------------------------------------------------- generating function

def test_generating_potential_vanishes_at_origin():
    assert generating_potential(0.0, 0.0, PonceletConfig(1.0, 0.0)) == 0.0


def test_generating_potential_concentric_closed_form():
    # -0.21 - (0.09 - 0.3)/2 + (3*0.49 - 0.7)/2 = 0.28; at R = 1e300 a
    # c = 1e-30 is concentric too, since c / R underflows to 0
    for cfg in (PonceletConfig(1.0, 0.0), PonceletConfig(1e300, 1e-30)):
        val = generating_potential(0.3, 0.7, cfg)
        assert val == pytest.approx(0.28, abs=1e-15)


def test_generating_relation_partials():
    # dh/dx = -y and dh/dx' = y' where f(x, y) = (x', y')
    rng = np.random.default_rng(17)
    h = 1e-6
    for c in (0.3, 0.9):
        cfg = PonceletConfig(1.0, c, 0.0)
        for x, x_p in rng.uniform(0.0, 1.0, (100, 2)):
            y = x + x_p - 0.5
            _, y_p = twist_map(x, y, cfg)
            d1 = (generating_potential(x + h, x_p, cfg)
                  - generating_potential(x - h, x_p, cfg)) / (2.0 * h)
            d2 = (generating_potential(x, x_p + h, cfg)
                  - generating_potential(x, x_p - h, cfg)) / (2.0 * h)
            assert d1 == pytest.approx(-y, abs=1e-6)
            assert d2 == pytest.approx(y_p, abs=1e-6)


def _integral_of_z(x_p, cfg, panels=64, nodes=24):
    """Composite Gauss-Legendre quadrature of Z over [0, x_p]."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, x_p, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s = 0.5 * (b - a) * u + 0.5 * (a + b)
        total += 0.5 * (b - a) * sum(
            wi * z_function(si, cfg) for wi, si in zip(w, s))
    return total


def test_generating_potential_matches_integral_of_z():
    # H(x') = h(0, x') - h_concentric(0, x') is the antiderivative of Z
    # with H(0) = 0, and has period 1 because Z has mean zero
    concentric = PonceletConfig(1.0, 0.0)
    for c in (0.3, 0.9):
        cfg = PonceletConfig(1.0, c, 0.0)

        def H(x_p):
            return (generating_potential(0.0, x_p, cfg)
                    - generating_potential(0.0, x_p, concentric))

        for x_p in (-0.7, 0.05, 0.31, 0.5, 0.93, 1.6):
            assert H(x_p) == pytest.approx(_integral_of_z(x_p, cfg),
                                           abs=1e-12)
            assert H(x_p + 1.0) == pytest.approx(H(x_p), abs=1e-12)


@pytest.mark.parametrize("rho", [0.005, 0.02, 0.0205, 0.03, 0.1, 0.5, 0.9,
                                 0.99])
def test_generating_potential_matches_its_fourier_series(rho):
    # H(x') = (2/pi^2) sum_k rho^k sin^2(pi k x') / k^2, summed here to
    # below 1e-18; the closed form switches to this series at |mu| = 5,
    # which rho = 0.02 to 0.03 crosses as x' nears 1/2
    cfg = PonceletConfig(1.0, rho, 0.0)
    concentric = PonceletConfig(1.0, 0.0)
    k = np.arange(1.0, math.ceil(math.log(1e-18) / math.log(rho)) + 1.0)
    for x_p in np.linspace(-0.5, 1.5, 41):
        series = 2.0 * np.sum(rho ** k * np.sin(math.pi * k * x_p) ** 2
                              / (k * k)) / math.pi ** 2
        H = (generating_potential(0.0, x_p, cfg)
             - generating_potential(0.0, x_p, concentric))
        assert H == pytest.approx(series, abs=1e-15)


def test_generating_potential_near_tangency_has_derivative_z():
    # at rho = 1 - 1e-9 the Fourier series needs ~6e10 terms; the closed
    # form's H' is Z by central differences wherever Z is smooth, i.e.
    # away from s = 0, where Z tends to a jump from -1 to 1 as rho -> 1
    cfg = PonceletConfig(1.0, 1.0 - 1e-9, 0.0)
    concentric = PonceletConfig(1.0, 0.0)
    h = 1e-6

    def H(x_p):
        return (generating_potential(0.0, x_p, cfg)
                - generating_potential(0.0, x_p, concentric))

    assert H(0.0) == 0.0
    for s in (-0.7, 0.05, 0.31, 0.5, 0.93, 1.6):
        assert (H(s + h) - H(s - h)) / (2.0 * h) == pytest.approx(
            z_function(s, cfg), abs=1e-9)
        assert H(s + 1.0) == pytest.approx(H(s), abs=1e-12)


# ------------------------------------------------------------ area and twist

def test_affine_case_preserves_area_exactly():
    cfg = PonceletConfig(1.0, 0.0, 0.0)
    det, d12 = area_twist_check(0.37, 1.22, cfg)
    assert det == pytest.approx(1.0, abs=1e-10)
    assert d12 == pytest.approx(1.0, abs=1e-10)


def test_area_and_twist_conditions_hold_off_center():
    cfg = PonceletConfig(1.0, 0.45, 0.2)
    rng = np.random.default_rng(23)
    for x, y in rng.uniform(0.0, 1.0, (50, 2)):
        det, d12 = area_twist_check(x, y, cfg)
        assert det == pytest.approx(1.0, abs=1e-5)
        assert d12 == pytest.approx(1.0, abs=1e-8)


def test_tangent_direction_matches_geometric_step():
    cfg = PonceletConfig(1.0, 0.2, 0.3)
    theta = 2.1
    assert tangent_direction(theta, cfg) == (
        poncelet_map_geometric(theta, cfg)[1] / math.pi
    )
