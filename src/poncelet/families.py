"""Parametrized families g_t of circle-map lifts.

A MonotoneCircleFamily carries the parameter interval, a lift factory, and
the partial derivative of g_t(x) in t, in closed form: 1 for the rigid and
Arnold families, and for the Poncelet family the kernels' -1 / (pi S(x))
in the tangent length S, sign-flipped when the family is reversed.
"""

from . import kernels
from .geometry import PonceletConfig
from .lifts import ArnoldLift, PonceletLift, RigidLift


class MonotoneCircleFamily:
    def __init__(self, a, b, lift_factory, dgdt):
        if not b > a:
            raise ValueError("parameter interval must have b > a")
        self.a = float(a)
        self.b = float(b)
        self._factory = lift_factory
        self._dgdt = dgdt

    def lift(self, t):
        slack = 1e-12 * (self.b - self.a)
        if not self.a - slack <= t <= self.b + slack:
            raise ValueError(f"parameter {t} outside [{self.a}, {self.b}]")
        return self._factory(min(max(t, self.a), self.b))

    def dgdt(self, t, x):
        """d g_t(x) / d t over the array x; a scalar stands for every x.
        t is clamped to [a, b] as in `lift`."""
        return self._dgdt(min(max(t, self.a), self.b), x)


def rigid_family(a=0.0, b=1.0):
    """g_t(x) = x + t on [a, b]."""
    return MonotoneCircleFamily(a, b, RigidLift, lambda t, x: 1.0)


def arnold_family(K):
    """Standard family g_t(x) = x + t + (K / 2 pi) sin(2 pi x), t in [0, 1]."""
    return MonotoneCircleFamily(0.0, 1.0, lambda t: ArnoldLift(t, K),
                                lambda t, x: 1.0)


def poncelet_family(R, c, reverse=False):
    """Tangent-map lifts of the circle pair (R, c) over the inner radius
    t in [0, R - c].

    r(t) runs from 1/2 at t = 0 down to 0 at internal tangency, so in the
    raw parametrization dg/dt < 0; `reverse=True` flips the parameter
    (s = R - c - t) to meet the increasing twist-in-parameter convention.
    The lifts' `cfg.t` is the inner radius either way.
    """
    R, c = float(R), float(c)
    PonceletConfig(R, c)  # rejects an invalid R or c up front
    b = R - c
    # parameter s -> inner radius t0 + sign * s, and dg/ds = sign * dg/dt:
    # -0.0 + s is s itself, signed zeros included, and b + -s is b - s
    t0, sign = (b, -1.0) if reverse else (-0.0, 1.0)
    return MonotoneCircleFamily(
        0.0, b, lambda s: PonceletLift(PonceletConfig(R, c, t0 + sign * s)),
        lambda s, x: sign * kernels.poncelet_dgdt(R, c, t0 + sign * s, x))
