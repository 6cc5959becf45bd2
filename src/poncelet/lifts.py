"""Lifts of orientation-preserving circle homeomorphisms.

A lift is a strictly increasing continuous g: R -> R with g(x+1) = g(x)+1.
Every lift is a scalar step plus one hook, `_orbit`, the iterates of an
array; `CircleLift` builds `g(x)`, `orbit_table` and `advance` (the
table's last row) on them once.  The Poncelet tangent map and the Arnold
map take the step and the table hook from the kernels module, so each map
has one scalar definition; a `FunctionLift`'s table is the kernels'
`table` over `step_loop`, calling its callable one point at a time;
rigid rotations are tabulated in closed form.  So the kernels own every
one-point loop and the one table builder, and no lift writes either.  A
table's starts are a 1-d array on every lift, and its depth n, like
`validate`'s samples, is read by the kernels' `read_count`: a negative
or non-integer n raises there, naming n.

`g(x)` and `validate` run the step on plain floats and load no numpy;
`orbit_table` and `advance` do.  A code path that iterates one float
without numpy builds no lift: the pair count runs its family's `orbit`,
the map's one-point loop.  A one-point table, and so `advance`, is g
iterated, errors included: a start where g raises (math's error at an
infinite angle) raises there too.  The exception is the rigid lift, whose
table at every width is its closed form x + alpha k, which can differ
from g iterated in the last bits.  A wider Poncelet or Arnold table gives
that column `nan`, from numpy's step.
"""

import functools

from . import kernels
from .geometry import PonceletConfig

#: Largest periodicity defect |g(x + 1) - g(x) - 1| that validate accepts
#: outright; a larger one passes as an argument error of at most this much.
PERIODICITY_TOL = 1e-12
#: Half-step of the central difference that measures a lift's slope.
SLOPE_STEP = 1e-9


class LiftContractError(ValueError):
    """The supplied function is not a valid circle-homeomorphism lift."""


@functools.cache
def _sample_points(samples):
    """validate's sample grid i / samples, i = 0..samples - 1 (numpy's
    linspace, bitwise), and each point plus 1."""
    width = 1.0 / samples
    xs = tuple(i * width for i in range(samples))
    return xs, tuple(x + 1.0 for x in xs)


class CircleLift:
    """Base lift.  A subclass provides `_step`, g on one float, and may
    replace the hook `_orbit(xs, depth)`, which tabulates g^0..g^depth over
    a 1-d float64 array."""

    def __call__(self, x):
        return self._step(x)

    def advance(self, x, n):
        """g^n(x) of one float x: the orbit table's last row
        (`orbit_table(xs, n)[-1]` advances an array)."""
        return float(self.orbit_table([x], n)[-1, 0])

    def orbit_table(self, xs, depth):
        """Array of shape (depth+1, len(xs)) with row k = g^k(xs), for a
        1-d float64 array xs; any other shape raises ValueError."""
        import numpy as np

        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 1:
            raise ValueError(f"orbit_table needs a 1-d array of starts, "
                             f"got shape {xs.shape}")
        return self._orbit(xs, kernels.read_count(depth, 0, "n"))

    def _orbit(self, xs, depth):
        # the scalar step at every width, through the kernels' loop
        return kernels.table(xs, depth, functools.partial(
            kernels.step_loop, self._step), None)

    def validate(self, samples=64):
        """Spot-check periodicity and monotonicity on a sample grid.

        A steep lift turns the rounding of x + 1 (ulps, or sin(2 pi) != 0)
        into a defect of its slope times that error: near tangency the
        Poncelet lift's slope (R + c)/(R - c) makes it 7.8e-12 at
        c/R = 0.99999.  So a sample whose defect exceeds PERIODICITY_TOL
        passes if the defect over the slope measured there, the argument
        error it amounts to, is at most PERIODICITY_TOL.  `samples` must be
        an integer of at least 1, as `kernels.read_count` reads it."""
        samples = kernels.read_count(samples, 1, "samples")
        g = self._step  # g(x), without the call's dispatch
        xs, xs_1 = _sample_points(samples)
        vals = list(map(g, xs))
        shifted = list(map(g, xs_1))
        # a nan or infinite sample fails both checks (inf - inf is nan)
        for x, val, val_1 in zip(xs, vals, shifted):
            defect = abs(val_1 - val - 1.0)
            if defect <= PERIODICITY_TOL:
                continue
            slope = ((g(x + SLOPE_STEP) - g(x - SLOPE_STEP))
                     / (2.0 * SLOPE_STEP))
            if not defect <= PERIODICITY_TOL * slope:
                raise LiftContractError(
                    "periodicity defect g(x+1) - g(x) - 1 too large")
        ends = zip(vals, vals[1:] + [vals[0] + 1.0])
        if not all(b - a > 0 for a, b in ends):
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
        self.alpha = float(alpha)

    def _step(self, x):
        return x + self.alpha

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
        self.omega = float(omega)
        self.K = float(K)
        self._step = kernels.arnold_step(self.omega, self.K)

    def _orbit(self, xs, depth):
        return kernels.arnold_orbit(xs, depth, self.omega, self.K)


class PonceletLift(CircleLift):
    """Lift of the Poncelet tangent map restricted to its invariant circle,
    in the normalized coordinate x = theta / 2 pi."""

    def __init__(self, cfg: PonceletConfig):
        self.cfg = cfg
        self._step = kernels.poncelet_step(*cfg)

    def _orbit(self, xs, depth):
        return kernels.poncelet_orbit(xs, depth, *self.cfg)
