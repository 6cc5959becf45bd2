"""Lifts of orientation-preserving circle homeomorphisms.

A lift is a strictly increasing continuous g: R -> R with g(x+1) = g(x)+1.
Every lift is a scalar step plus two hooks, `_columns`, the one-point
orbits of a sequence of floats, and `_orbit`, the iterates of an array;
`CircleLift` builds `g(x)`, `advance` (the last point of one float's
orbit) and `orbit_table` on them once.  The Poncelet tangent map and the
Arnold map take them from the kernels module: `_columns` is the map's
one-point loop, bound when the lift is built, the step is its first
step, and a one-point table runs the same loop, so `g`, `advance`,
one-point tables and family orbits run one code path per map.  A
`FunctionLift`'s columns, and so its table at every width, are the
kernels' `step_loop` over its callable, one call per step; rigid
rotations are tabulated, and advanced, in closed form.  So the kernels
own every one-point loop and the one table builder, and no lift writes
either.  A table's starts are a 1-d array on every lift, and its depth n,
like `advance`'s n, is read by the kernels' `read_count`: a negative or
non-integer n raises there, naming n.

A lift's contract is checked once, where it is built: a `FunctionLift`
runs `validate` on its callable, and the library's maps refuse, in closed
form, every parameter at which `validate` could fail (|alpha| or |omega|
above SHIFT_MAX, R - c below GAP_MIN R), so an estimate checks nothing.

`g(x)`, `advance` and `validate` run on plain floats and load no numpy;
`orbit_table` does.  `advance(x, n)` has the bits of `orbit_table([x],
n)[-1, 0]`.  A code path that iterates one float without numpy needs no
table: the first-stage lock scan reads `advance`, and the pair count runs
its family's `orbit`, the map's one-point loop, and builds no lift.
`advance` and a one-point table are g iterated, errors included: a start
where g raises (math's error at an infinite angle) raises there too.  The
exception is the rigid lift, whose table at every width, and whose
`advance`, is its closed form x + alpha k, which can differ from g
iterated in the last bits.  A wider Poncelet or Arnold table gives that
column `nan`, from numpy's ufuncs.
"""

import functools
import math

from . import kernels
from .geometry import PonceletConfig

#: Largest periodicity defect |g(x + 1) - g(x) - 1| that validate accepts
#: outright; a larger one passes as an argument error of at most this much.
PERIODICITY_TOL = 1e-12
#: Half-step of the central difference that measures a lift's slope.
SLOPE_STEP = 1e-9
#: Largest |alpha| of a rigid lift and |omega| of an Arnold lift.  For x in
#: [0, 2), where validate samples, |g(x)| < 2^13, so each rounding is at
#: most 2^-41 and the periodicity defect at most 2^-40 < PERIODICITY_TOL;
#: at K = 1, samples 1/64 apart still rise by at least 2.5e-5.
SHIFT_MAX = 2.0 ** 12
#: Smallest (R - c) / R of a Poncelet lift.  Its slope (R + c)/(R - c)
#: turns argument rounding into a periodicity defect.  Measured on random
#: lifts (R from 1e-300 to 1e300; t at 0, at R - c or between), validate
#: passed all of 22,775 with (R - c) / R from 2^-42 to 1, and 727 of 6,000
#: from 2^-53 to 2^-42.5, 715 of those at t = R - c.
GAP_MIN = 2.0 ** -42


class LiftContractError(ValueError):
    """The supplied function is not a valid circle-homeomorphism lift."""


def _first_step(columns):
    """g(x) of the map whose one-point orbits are columns(starts, n): the
    first step of x's column, with the loop's bits and errors."""
    return lambda x: columns((x,), 1)[0][1]


def _checked_shift(value, name):
    """value as a float, or LiftContractError naming `name` unless
    |value| <= SHIFT_MAX (so a nan or infinite value raises too)."""
    if not abs(value := float(value)) <= SHIFT_MAX:
        raise LiftContractError(f"|{name}| must be at most 2**12, got {value}")
    return value


class CircleLift:
    """Base lift.  A subclass provides `_step`, g on one float, and may
    replace the hooks `_columns(starts, n)`, the one-point orbits
    [x, g(x), ..., g^n(x)] of a sequence of floats, and `_orbit(xs,
    depth)`, which tabulates g^0..g^depth over a 1-d float64 array."""

    def __call__(self, x):
        return self._step(x)

    def advance(self, x, n):
        """g^n(x) of one float x, as a python float: the last point of its
        one-point orbit, run on plain floats with no numpy, with the bits
        of `orbit_table([x], n)[-1, 0]` (`orbit_table(xs, n)[-1]` advances
        an array)."""
        n = kernels.read_count(n, 0, "n")
        return self._columns((float(x),), n)[0][-1]

    def orbit_table(self, xs, depth):
        """Array of shape (depth+1, len(xs)) with row k = g^k(xs), for a
        1-d float64 array xs; any other shape raises ValueError."""
        import numpy as np

        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValueError(f"orbit_table needs a 1-d array of starts, "
                             f"got shape {xs.shape}")
        return self._orbit(xs, kernels.read_count(depth, 0, "n"))

    def _columns(self, starts, n):
        # the scalar step, through the kernels' loop
        return kernels.step_loop(self._step, starts, n)

    def _orbit(self, xs, depth):
        # the one-point orbits at every width
        return kernels.table(xs, depth, self._columns, None)

    def validate(self):
        """Spot-check periodicity and monotonicity on the grid i / 64.

        A steep lift turns the rounding of x + 1 (ulps, or sin(2 pi) != 0)
        into a defect of its slope times that error: near tangency the
        Poncelet lift's slope (R + c)/(R - c) makes it 7.8e-12 at
        c/R = 0.99999.  So a sample whose defect exceeds PERIODICITY_TOL
        passes if the defect over the slope measured there, the argument
        error it amounts to, is at most PERIODICITY_TOL."""
        g = self._step  # g(x), without the call's dispatch
        xs = [i / 64 for i in range(64)]
        vals = list(map(g, xs))
        # a nan or infinite sample fails both checks (inf - inf is nan)
        for x, val in zip(xs, vals):
            defect = abs(g(x + 1.0) - val - 1.0)
            if defect <= PERIODICITY_TOL:
                continue
            slope = ((g(x + SLOPE_STEP) - g(x - SLOPE_STEP))
                     / (2.0 * SLOPE_STEP))
            if not defect <= PERIODICITY_TOL * slope:
                raise LiftContractError(
                    "periodicity defect g(x+1) - g(x) - 1 too large")
        if not all(a < b for a, b in zip(vals, vals[1:] + [vals[0] + 1.0])):
            raise LiftContractError("lift is not strictly increasing on samples")


class FunctionLift(CircleLift):
    """Lift wrapping an arbitrary scalar callable, validated on creation.
    Its table runs the same callable at every width, so an error it
    raises, such as math's on an infinite start, passes through."""

    def __init__(self, fn):
        self._step = fn
        self.validate()


class RigidLift(CircleLift):
    """g(x) = x + alpha.  Its table, one point wide too, is the closed form
    x + alpha k, not g iterated."""

    def __init__(self, alpha):
        self.alpha = _checked_shift(alpha, "alpha")

    def _step(self, x):
        return x + self.alpha

    def advance(self, x, n):
        # the closed form of its table's last row
        return float(x) + self.alpha * kernels.read_count(n, 0, "n")

    def _orbit(self, xs, depth):
        import numpy as np

        steps = self.alpha * np.arange(depth + 1)
        return xs[None, :] + steps[:, None]


# The kernel hooks look their kernel up on the module at each call, so a
# wrapper installed there (a tracer, a profiler) sees every iteration.

class ArnoldLift(CircleLift):
    """Standard circle-map lift g(x) = x + omega + (K / 2 pi) sin(2 pi x)."""

    def __init__(self, omega, K):
        if not 0 <= K <= 1:
            raise LiftContractError(f"Arnold lift needs 0 <= K <= 1, got {K}")
        self.omega = _checked_shift(omega, "omega")
        self.K = float(K)
        self._columns = functools.partial(
            kernels.arnold_loop(self.K, math.sin), self.omega)
        self._step = _first_step(self._columns)

    def _orbit(self, xs, depth):
        return kernels.arnold_orbit(xs, depth, self.omega, self.K)


class PonceletLift(CircleLift):
    """Lift of the Poncelet tangent map restricted to its invariant circle,
    in the normalized coordinate x = theta / 2 pi.  It needs
    R - c >= GAP_MIN R."""

    def __init__(self, cfg: PonceletConfig):
        if cfg.R - cfg.c < GAP_MIN * cfg.R:
            raise LiftContractError(f"Poncelet lift needs R - c >= 2**-42 R, "
                                    f"got R={cfg.R}, c={cfg.c}")
        self.cfg = cfg
        self._columns = functools.partial(
            kernels.poncelet_loop(cfg.R, cfg.c), cfg.t)
        self._step = _first_step(self._columns)

    def _orbit(self, xs, depth):
        return kernels.poncelet_orbit(xs, depth, *self.cfg)
