"""Parametrized families g_t of circle-map lifts.

A MonotoneCircleFamily carries the parameter interval, a lift factory,
the family's one-point orbit loop, and the partial derivative of g_t(x)
in t, in closed form: 1 for the rigid and Arnold families, and for the
Poncelet family the kernels' -1 / (pi S(x)) in the tangent length S,
sign-flipped when the family is reversed.  `orbit(t, starts, n)` is one
column [x, g_t(x), ..., g_t^n(x)] per start, with the bits of the step
`lift(t)` wraps: the pair count reads its lap residual and its closure
orbits off it.  Each family's orbit iterates the step its own lift
defines, so no step or loop is written here.  The Poncelet and Arnold
families run their map's kernel loop, bound to the map's fixed constants
when the family is built, and build no lift; the rigid family, which has
no loop of its own, runs the kernels' `step_loop` over `RigidLift(t)`.
`lift`, `orbit` and `dgdt` take t through one range check, so each
rejects the same parameters, and `orbit` reads n through the kernels'
`read_count`, as `orbit_table` reads it: a negative or non-integer n
raises the same error, with or without starts.
"""

from . import kernels
from .geometry import PonceletConfig
from .lifts import ArnoldLift, PonceletLift, RigidLift


class MonotoneCircleFamily:
    def __init__(self, a, b, lift_factory, orbit, dgdt):
        if not b > a:
            raise ValueError("parameter interval must have b > a")
        self.a = float(a)
        self.b = float(b)
        # _clamp's bounds: a t within 1e-12 (b - a) outside [a, b] clamps
        slack = 1e-12 * (self.b - self.a)
        self._t_min, self._t_max = self.a - slack, self.b + slack
        self._lift_factory = lift_factory
        self._orbit = orbit
        self._dgdt = dgdt

    def _clamp(self, t):
        """t onto [a, b]: a t within 1e-12 (b - a) outside is clamped, one
        further out (or nan) raises ValueError.  The clamp is
        min(max(t, a), b), signed zeros included, without the builtins'
        argument handling: every lap residual of the pair count runs its
        orbit through it."""
        if not self._t_min <= t <= self._t_max:
            raise ValueError(f"parameter {t} outside [{self.a}, {self.b}]")
        a, b = self.a, self.b
        return a if a > t else b if b < t else t

    def lift(self, t):
        return self._lift_factory(self._clamp(t))

    def orbit(self, t, starts, n):
        """The one-point orbits of g_t: one list [x, g_t(x), ..., g_t^n(x)]
        of floats per start x of the sequence `starts`, with the bits of
        `lift(t)` iterated one float at a time (only the rigid family, which
        iterates its lift itself, builds one).  n is
        read by `kernels.read_count`, as `lift(t).orbit_table` reads it, so
        a negative or non-integer n raises the same error, with or without
        starts; the loops it runs take n as given."""
        n = kernels.read_count(n, 0, "n")
        return self._orbit(self._clamp(t), starts, n)

    def dgdt(self, t, x):
        """d g_t(x) / d t over the array x; a scalar stands for every x."""
        return self._dgdt(self._clamp(t), x)


def rigid_family(a=0.0, b=1.0):
    """g_t(x) = x + t on [a, b]."""
    return MonotoneCircleFamily(
        a, b, RigidLift,
        lambda t, starts, n: kernels.step_loop(RigidLift(t), starts, n),
        lambda t, x: 1.0)


def arnold_family(K):
    """Standard family g_t(x) = x + t + (K / 2 pi) sin(2 pi x), t in [0, 1]."""
    ArnoldLift(0.0, K)  # rejects an invalid K up front
    return MonotoneCircleFamily(0.0, 1.0, lambda t: ArnoldLift(t, K),
                                kernels.arnold_loop(K), lambda t, x: 1.0)


def poncelet_family(R, c, reverse=False):
    """Tangent-map lifts of the circle pair (R, c) over the inner radius
    t in [0, R - c].

    r(t) runs from 1/2 at t = 0 down to 0 at internal tangency, so in the
    raw parametrization dg/dt < 0; `reverse=True` flips the parameter
    (s = R - c - t) to meet the increasing twist-in-parameter convention.
    The lifts' `cfg.t` and the orbits' inner radius are t either way.
    """
    R, c = float(R), float(c)
    PonceletConfig(R, c)  # rejects an invalid R or c up front
    b = R - c
    # parameter s -> inner radius t0 + sign * s, and dg/ds = sign * dg/dt:
    # -0.0 + s is s itself, signed zeros included, and b + -s is b - s
    t0, sign = (b, -1.0) if reverse else (-0.0, 1.0)
    loop = kernels.poncelet_loop(R, c)
    return MonotoneCircleFamily(
        0.0, b, lambda s: PonceletLift(PonceletConfig(R, c, t0 + sign * s)),
        lambda s, starts, n: loop(t0 + sign * s, starts, n),
        lambda s, x: sign * kernels.poncelet_dgdt(R, c, t0 + sign * s, x))
