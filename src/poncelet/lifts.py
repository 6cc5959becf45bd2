"""Lifts of orientation-preserving circle homeomorphisms.

A lift is a strictly increasing continuous g: R -> R with g(x+1) = g(x)+1.
Every lift is a scalar step plus one bulk hook, `_orbit`, that tabulates
its iterates over an array; `CircleLift` builds `g(x)`, `orbit_table` and
`advance` (the table's last row) on them once.  The Poncelet tangent map
and the Arnold map take the step and the hook from the kernels module, so
each map has one scalar definition; a `FunctionLift` runs the kernels'
scalar loop on its callable; rigid rotations are iterated in closed form.
"""

import operator

import numpy as np

from . import kernels
from .geometry import PonceletConfig
from .kernels._ref import _scalar_orbit

#: Largest periodicity defect |g(x + 1) - g(x) - 1| that validate accepts.
PERIODICITY_TOL = 1e-12


class LiftContractError(ValueError):
    """The supplied function is not a valid circle-homeomorphism lift."""


def _step_count(n):
    """n as an int, rejecting a negative or non-integer number of steps."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"step count must be at least 0, got {n}")
    return n


class CircleLift:
    """Base lift.  A subclass provides `_step`, g on one float, and may
    replace the hook `_orbit(xs, depth)`, which tabulates g^0..g^depth over
    a 1-d float64 array; by default it runs `_step` in the kernels' scalar
    loop."""

    def __call__(self, x):
        return self._step(x)

    def advance(self, xs, n):
        """g^n applied elementwise to xs (ndarray, in its shape, or scalar,
        as a float): the last row of the orbit table."""
        arr = np.asarray(xs, dtype=np.float64)
        out = self._orbit(arr.ravel(), _step_count(n))[-1].reshape(arr.shape)
        return float(out) if np.isscalar(xs) else out

    def orbit_table(self, xs, depth):
        """Array of shape (depth+1, len(xs)) with row k = g^k(xs)."""
        return self._orbit(np.asarray(xs, dtype=np.float64),
                           _step_count(depth))

    def _orbit(self, xs, depth):
        return _scalar_orbit(xs, depth, self._step)

    def validate(self, samples=64):
        """Spot-check periodicity and monotonicity on a sample grid."""
        xs = np.linspace(0.0, 1.0, samples, endpoint=False)
        vals = np.array([self(x) for x in xs])
        shifted = np.array([self(x + 1.0) for x in xs])
        # a nan or infinite sample fails both checks (inf - inf is nan)
        with np.errstate(invalid="ignore"):
            defect = np.max(np.abs(shifted - vals - 1.0))
            increasing = np.all(np.diff(np.append(vals, vals[0] + 1.0)) > 0)
        if not defect <= PERIODICITY_TOL:
            raise LiftContractError("periodicity defect g(x+1) - g(x) - 1 too large")
        if not increasing:
            raise LiftContractError("lift is not strictly increasing on samples")


class FunctionLift(CircleLift):
    """Lift wrapping an arbitrary scalar callable, validated on creation."""

    def __init__(self, fn):
        self._step = fn
        self.validate()


class RigidLift(CircleLift):
    """g(x) = x + alpha."""

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def _step(self, x):
        return x + self.alpha

    def _orbit(self, xs, depth):
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
        self._pair = (cfg.R, cfg.c, cfg.t)
        self._step = kernels.poncelet_step(*self._pair)

    def _orbit(self, xs, depth):
        return kernels.poncelet_orbit(xs, depth, *self._pair)
