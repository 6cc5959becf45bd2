"""Parametrized families g_t of circle-map lifts.

A MonotoneCircleFamily carries the parameter interval, a lift factory, a
step factory, and the partial derivative of g_t(x) in t, in closed form:
1 for the rigid and Arnold families, and for the Poncelet family the
kernels' -1 / (pi S(x)) in the tangent length S, sign-flipped when the
family is reversed.  `step(t)` is the bare scalar step x -> g_t(x) that
`lift(t)` wraps, bit for bit, without building the lift: the pair count
iterates it one float at a time.  `lift`, `step` and `dgdt` take t through
one range check, so each rejects the same parameters.
"""

from . import kernels
from .geometry import PonceletConfig
from .lifts import ArnoldLift, PonceletLift, RigidLift


class MonotoneCircleFamily:
    def __init__(self, a, b, lift_factory, step_factory, dgdt):
        if not b > a:
            raise ValueError("parameter interval must have b > a")
        self.a = float(a)
        self.b = float(b)
        self._lift_factory = lift_factory
        self._step_factory = step_factory
        self._dgdt = dgdt

    def _clamp(self, t):
        """t onto [a, b]: a t within 1e-12 (b - a) outside is clamped, one
        further out (or nan) raises ValueError."""
        slack = 1e-12 * (self.b - self.a)
        if not self.a - slack <= t <= self.b + slack:
            raise ValueError(f"parameter {t} outside [{self.a}, {self.b}]")
        return min(max(t, self.a), self.b)

    def lift(self, t):
        return self._lift_factory(self._clamp(t))

    def step(self, t):
        """x -> g_t(x) on one float: the step `lift(t)` wraps, unbuilt."""
        return self._step_factory(self._clamp(t))

    def dgdt(self, t, x):
        """d g_t(x) / d t over the array x; a scalar stands for every x."""
        return self._dgdt(self._clamp(t), x)


def rigid_family(a=0.0, b=1.0):
    """g_t(x) = x + t on [a, b]."""
    return MonotoneCircleFamily(
        a, b, RigidLift, lambda t: lambda x: x + float(t), lambda t, x: 1.0)


def arnold_family(K):
    """Standard family g_t(x) = x + t + (K / 2 pi) sin(2 pi x), t in [0, 1]."""
    ArnoldLift(0.0, K)  # rejects an invalid K up front
    return MonotoneCircleFamily(0.0, 1.0, lambda t: ArnoldLift(t, K),
                                lambda t: kernels.arnold_step(t, K),
                                lambda t, x: 1.0)


def poncelet_family(R, c, reverse=False):
    """Tangent-map lifts of the circle pair (R, c) over the inner radius
    t in [0, R - c].

    r(t) runs from 1/2 at t = 0 down to 0 at internal tangency, so in the
    raw parametrization dg/dt < 0; `reverse=True` flips the parameter
    (s = R - c - t) to meet the increasing twist-in-parameter convention.
    The lifts' `cfg.t` and the steps' inner radius are t either way.
    """
    R, c = float(R), float(c)
    PonceletConfig(R, c)  # rejects an invalid R or c up front
    b = R - c
    # parameter s -> inner radius t0 + sign * s, and dg/ds = sign * dg/dt:
    # -0.0 + s is s itself, signed zeros included, and b + -s is b - s
    t0, sign = (b, -1.0) if reverse else (-0.0, 1.0)
    return MonotoneCircleFamily(
        0.0, b, lambda s: PonceletLift(PonceletConfig(R, c, t0 + sign * s)),
        lambda s: kernels.poncelet_step(R, c, t0 + sign * s),
        lambda s, x: sign * kernels.poncelet_dgdt(R, c, t0 + sign * s, x))
