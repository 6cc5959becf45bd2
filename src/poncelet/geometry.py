"""Circle-pair chord/tangent geometry and the associated torus twist map.

Conventions: the outer circle K is centered at the origin with radius R,
the inner circle L at (c, 0) with radius t.  A point of K is addressed by
its polar angle theta; a line by its direction angle phi taken mod pi.
Normalized coordinates are x = theta/(2 pi), y = phi/pi.

The one-step transformation sends the oriented chord (A, r) with r tangent
to L (L kept on the left) to the next chord.  It is written once, as the
lift F of the paper's twist map (`twist_map`):

    f(x, y) = (y - x + 1/2, 3y - 4x + Z(y - x + 1/2) + 1),
    Z(s) = 2 arctan(c sin 2 pi s / (R - c cos 2 pi s)) / pi.

The angle form (`poncelet_map_analytic`) is the coordinate change
theta = 2 pi x, phi = pi y, on plain floats.  The paper misprints its
tangency term (erratum in `z_function`); the form above is the one the
independent tangent-line construction (`poncelet_map_geometric`), the
authority on signs, confirms.  Both angle steps return (theta', phi')
reduced to [0, 2 pi) x [0, pi).  `PonceletConfig` is a `NamedTuple`.
"""

import functools
import math
import sys
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# Step of area_twist_check's centered differences.
JACOBIAN_STEP = 1e-6


class _CirclePair(NamedTuple):
    R: float
    c: float = 0.0
    t: float = 0.0


class PonceletConfig(_CirclePair):
    """Circle pair: outer radius R, center offset c, inner radius t,
    checked on construction.  R must be a normal float, at least
    sys.float_info.min (about 2.2e-308): at a subnormal R, c / R and t / R
    keep few bits and the derivative's 1 / R overflows."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        R, c, t = self
        if not 0 < R < math.inf:
            raise ValueError(
                f"outer radius must satisfy 0 < R < inf, got R={R}")
        if R < sys.float_info.min:
            raise ValueError(f"outer radius must be a normal float, R >= "
                             f"{sys.float_info.min!r}, got R={R}")
        if not 0 <= c < R:
            raise ValueError(f"center offset must satisfy 0 <= c < R, got c={c}")
        if not 0 <= t <= R - c:
            raise ValueError(
                f"inner radius must satisfy 0 <= t <= R - c, got t={t}")
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it too
        return cls(*iterable)


def z_function(s, cfg):
    """Tangency term Z of the twist map, period 1 in s:

        Z(s) = 2 atan(c sin u / (R - c cos u)) / pi,   u = 2 pi s.

    Erratum: the paper prints the angle-form term as
    2 atan(c sin u / (R + c cos u)), which equals -pi Z(s + 1/2), a
    figure-convention offset of pi in u and a flipped sign.
    """
    u = TWO_PI * s
    return 2.0 * math.atan(
        cfg.c * math.sin(u) / (cfg.R - cfg.c * math.cos(u))) / math.pi


def twist_map(x, y, cfg):
    """The lift F of the twist map f; F(x+1, y) = F(x, y) + (1, 0) exactly.

    On [0, 1) x R this is f(x, y) = (y - x + 1/2, 3y - 4x + Z(y - x + 1/2) + 1);
    the integer part of x is carried over so the first component has the
    lift periodicity needed for rotation numbers.  F(x, y+1) = F(x, y) +
    (1, 3), so f is well defined on the torus: reduce both components
    mod 1 there.
    """
    k = math.floor(x)
    xf = x - k
    x_p = y - xf + 0.5 + k
    y_p = 3.0 * y - 4.0 * xf + z_function(y - xf + 0.5, cfg) + 1.0
    return x_p, y_p


def poncelet_map_analytic(theta, phi, cfg):
    """One analytic step on angles: `twist_map` in x = theta / 2 pi,
    y = phi / pi."""
    x_p, y_p = twist_map(theta / TWO_PI, phi / math.pi, cfg)
    return (TWO_PI * x_p) % TWO_PI, (math.pi * y_p) % math.pi


def poncelet_map_geometric(theta, cfg):
    """One step of the tangent-line construction.

    From A = (R cos theta, R sin theta) draw the tangent to L that keeps L
    on the left of the oriented line; return theta', the second
    intersection angle, and phi, the line direction.  The construction
    runs in units of R, as the kernel step does, so the chord length
    s <= 2 cannot overflow at any R, and scaling the circle pair by a
    power of two changes no bit of the result.
    """
    c, t = cfg.c / cfg.R, cfg.t / cfg.R
    ax = math.cos(theta)
    ay = math.sin(theta)
    wx = c - ax
    wy = -ay
    D = math.hypot(wx, wy)
    # PonceletConfig keeps t <= R - c <= D, so the clamp only absorbs rounding
    beta = math.asin(min(1.0, max(0.0, t / D)))
    cb = math.cos(beta)
    sb = math.sin(beta)
    ux = (wx * cb + wy * sb) / D
    uy = (-wx * sb + wy * cb) / D
    s = -2.0 * (ax * ux + ay * uy)
    theta_p = math.atan2(ay + s * uy, ax + s * ux) % TWO_PI
    phi = math.atan2(uy, ux) % math.pi
    return theta_p, phi


def tangent_direction(theta, cfg):
    """Direction parameter y = phi/pi of the tangent line from the point of
    K at polar angle theta."""
    return poncelet_map_geometric(theta, cfg)[1] / math.pi


def invariant_circle_phi(t, base_cfg):
    """The graph function x -> y of the rotational invariant circle for
    inner radius t over the base geometry (R, c)."""
    cfg = base_cfg._replace(t=t)

    def phi_t(x):
        return tangent_direction(TWO_PI * (x % 1.0), cfg)

    return phi_t


def generating_potential(x, x_prime, cfg):
    """Generating potential h(x, x') of the twist map.

    h(x,x') = -x x' - (x^2 - x)/2 + (3 x'^2 - x')/2 + H(x') with H' = Z and
    H(0) = 0; H is evaluated in closed form by `_potential`.
    """
    base = (
        -x * x_prime
        - (x * x - x) / 2.0
        + (3.0 * x_prime * x_prime - x_prime) / 2.0
    )
    rho = cfg.c / cfg.R
    if rho == 0.0:
        return base
    return base + _potential(x_prime, rho)


def _potential(x_prime, rho):
    """H(x') = (2/pi^2) sum_{k>=1} rho^k sin^2(pi k x') / k^2, 0 < rho < 1.

    Z(s) = (2/pi) sum_k rho^k sin(2 pi k s) / k is the Fourier series of the
    forcing term with rho = c / R; H is its antiderivative, integrated term
    by term, and has period 1.  Summed, the series is a dilogarithm:

        H(x') = (Li2(rho) - Re Li2(rho e^{iu})) / pi^2,

    with u = 2 pi x' reduced to [-pi, pi], so the cost stays constant as
    rho -> 1, where the series needs ~log(1/(1 - rho)) / (1 - rho) terms.
    For mu = log rho + iu with |mu| < 5 both terms come from `_li2_exp`.
    Otherwise log rho < -3.89 (|u| <= pi), so rho < 0.021, and the series
    itself is summed, cut where its tail falls below 1e-17: at most 10
    terms.
    """
    x = x_prime % 1.0
    if x > 0.5:
        x -= 1.0
    log_rho = math.log(rho)
    mu = complex(log_rho, TWO_PI * x)
    if abs(mu) < 5.0:
        return (_li2_exp(complex(log_rho)) - _li2_exp(mu)).real / math.pi ** 2
    n = math.ceil(math.log(1e-16 * (1.0 - rho)) / log_rho)
    return 2.0 * math.fsum(
        rho ** k * math.sin(math.pi * k * x) ** 2 / (k * k)
        for k in range(1, n + 1)) / math.pi ** 2


def _li2_exp(mu):
    """Li2(e^mu) - pi^2/6 for |mu| < 2 pi, mu off the positive reals:

        mu (1 - log(-mu)) - mu^2/4 + sum_{k odd >= 3} zeta(2 - k) mu^k / k!,

    zeta(2 - k) = -B_{k-1} / (k - 1), summed by Horner in mu^2 through
    k = 159 (B_158).  At |mu| < 5 the last term is below 1e-19.  cmath
    is imported here, like the coefficients on first use, so the commands
    that never evaluate the potential do not load it.
    """
    import cmath

    mu2 = mu * mu
    total = 0.0
    for a in reversed(_li2_coefficients()):
        total = total * mu2 + a
    return mu * (1.0 - cmath.log(-mu)) - 0.25 * mu2 + mu * mu2 * total


@functools.cache
def _li2_coefficients():
    """zeta(-2m + 1) / (2m + 1)! = -B_2m / (2m (2m + 1)!), m = 1..79,
    from the tangent numbers T_m (Brent and Harvey's integer recurrence),
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)); built on first use, since
    every command imports this module."""
    last = 79
    T = [0, 1] + [0] * (last - 1)
    for k in range(2, last + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, last + 1):
        for j in range(k, last + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple((-1) ** m * T[m]
                 / (4 ** m * (4 ** m - 1) * math.factorial(2 * m + 1))
                 for m in range(1, last + 1))


def area_twist_check(x, y, cfg):
    """Centered finite-difference Jacobian determinant and d f1/d y at
    (x, y)."""
    h = JACOBIAN_STEP
    fx1, fx2 = twist_map(x + h, y, cfg)
    gx1, gx2 = twist_map(x - h, y, cfg)
    fy1, fy2 = twist_map(x, y + h, cfg)
    gy1, gy2 = twist_map(x, y - h, cfg)
    d11 = (fx1 - gx1) / (2.0 * h)
    d21 = (fx2 - gx2) / (2.0 * h)
    d12 = (fy1 - gy1) / (2.0 * h)
    d22 = (fy2 - gy2) / (2.0 * h)
    return d11 * d22 - d12 * d21, d12
