"""Parametrized families g_t of circle-map lifts.

A MonotoneCircleFamily carries the parameter interval, a lift factory, and
the partial derivative of g_t(x) in t (analytic when known, centered
finite differences with one Richardson step otherwise).
"""

from .geometry import PonceletConfig
from .lifts import ArnoldLift, PonceletLift, RigidLift

FD_STEP = 1e-6


class MonotoneCircleFamily:
    def __init__(self, a, b, lift_factory, dgdt=None):
        if not b > a:
            raise ValueError("parameter interval must have b > a")
        self.a = float(a)
        self.b = float(b)
        self._factory = lift_factory
        self._dgdt = dgdt

    def lift(self, t):
        if not self.a - 1e-12 <= t <= self.b + 1e-12:
            raise ValueError(f"parameter {t} outside [{self.a}, {self.b}]")
        return self._factory(min(max(t, self.a), self.b))

    def dgdt(self, t, x):
        """d g_t(x) / d t; finite differences unless supplied analytically."""
        if self._dgdt is not None:
            return self._dgdt(t, x)
        h = min(FD_STEP, (self.b - self.a) / 4.0)
        lo = max(self.a, t - 2.0 * h)
        if t + 2.0 * h > self.b:
            lo = self.b - 4.0 * h
        ts = [lo, lo + h, lo + 3.0 * h, lo + 4.0 * h]
        g = [self.lift(s)(x) for s in ts]
        # Richardson: combine step-2h and step-h centered differences about
        # the midpoint lo + 2h
        d2h = (g[3] - g[0]) / (4.0 * h)
        d1h = (g[2] - g[1]) / (2.0 * h)
        return (4.0 * d1h - d2h) / 3.0


def rigid_family(a=0.0, b=1.0):
    """g_t(x) = x + t on [a, b]."""
    return MonotoneCircleFamily(a, b, RigidLift, dgdt=lambda t, x: 1.0)


def arnold_family(K):
    """Standard family g_t(x) = x + t + (K / 2 pi) sin(2 pi x), t in [0, 1]."""
    return MonotoneCircleFamily(0.0, 1.0, lambda t: ArnoldLift(t, K),
                                dgdt=lambda t, x: 1.0)


class PonceletFamily(MonotoneCircleFamily):
    """Tangent-map lifts of the circle pair (R, c) over t in [0, R - c].

    r(t) runs from 1/2 at t = 0 down to 0 at internal tangency, so in the
    raw parametrization dg/dt < 0; `reverse=True` flips the parameter
    (s = R - c - t) to meet the increasing twist-in-parameter convention.
    """

    def __init__(self, R, c=0.0, reverse=False):
        self.R = float(R)
        self.c = float(c)
        self.reverse = reverse
        PonceletConfig(R, c)  # rejects an invalid R or c up front
        super().__init__(0.0, self.R - self.c, self._make)

    def inner_radius(self, t):
        return self.b - t if self.reverse else t

    def _make(self, t):
        return PonceletLift(PonceletConfig(self.R, self.c,
                                           self.inner_radius(t)))


def poncelet_family(R, c=0.0, reverse=False):
    return PonceletFamily(R, c, reverse=reverse)
