"""Lifts of orientation-preserving circle homeomorphisms.

A lift is a strictly increasing continuous g: R -> R with g(x+1) = g(x)+1.
The Poncelet tangent map and the Arnold map take both their scalar step and
their bulk iteration from the kernels module, so each map has one scalar
definition; rigid rotations are iterated in closed form.
"""

import numpy as np

from . import kernels
from .geometry import PonceletConfig

#: Largest periodicity defect |g(x + 1) - g(x) - 1| that validate accepts.
PERIODICITY_TOL = 1e-12


class LiftContractError(ValueError):
    """The supplied function is not a valid circle-homeomorphism lift."""


class CircleLift:
    """Base lift; subclasses provide `__call__` and may override the bulk
    iteration hooks with kernel-backed versions."""

    def __call__(self, x):
        raise NotImplementedError

    def advance(self, xs, n):
        """g^n applied elementwise to xs (ndarray or scalar)."""
        scalar = np.isscalar(xs)
        out = np.atleast_1d(np.array(xs, dtype=np.float64))
        for _ in range(n):
            out = np.array([self(v) for v in out])
        return float(out[0]) if scalar else out

    def orbit_table(self, xs, depth):
        """Array of shape (depth+1, len(xs)) with row k = g^k(xs)."""
        xs = np.asarray(xs, dtype=np.float64)
        out = np.empty((depth + 1, xs.size))
        out[0] = xs
        for k in range(1, depth + 1):
            out[k] = [self(v) for v in out[k - 1]]
        return out

    def validate(self, samples=64):
        """Spot-check periodicity and monotonicity on a sample grid."""
        xs = np.linspace(0.0, 1.0, samples, endpoint=False)
        vals = np.array([self(x) for x in xs])
        shifted = np.array([self(x + 1.0) for x in xs])
        if np.max(np.abs(shifted - vals - 1.0)) > PERIODICITY_TOL:
            raise LiftContractError("periodicity defect g(x+1) - g(x) - 1 too large")
        ring = np.append(vals, vals[0] + 1.0)
        if np.any(np.diff(ring) <= 0):
            raise LiftContractError("lift is not strictly increasing on samples")


class FunctionLift(CircleLift):
    """Lift wrapping an arbitrary scalar callable, validated on creation."""

    def __init__(self, fn):
        self._fn = fn
        self.validate()

    def __call__(self, x):
        return self._fn(x)


class RigidLift(CircleLift):
    """g(x) = x + alpha."""

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def __call__(self, x):
        return x + self.alpha

    def advance(self, xs, n):
        if np.isscalar(xs):
            return float(xs) + n * self.alpha
        return np.asarray(xs, dtype=np.float64) + n * self.alpha

    def orbit_table(self, xs, depth):
        xs = np.asarray(xs, dtype=np.float64)
        steps = self.alpha * np.arange(depth + 1)
        return xs[None, :] + steps[:, None]


class ArnoldLift(CircleLift):
    """Standard circle-map lift g(x) = x + omega + (K / 2 pi) sin(2 pi x)."""

    def __init__(self, omega, K):
        if not 0 <= K <= 1:
            raise LiftContractError(f"Arnold lift needs 0 <= K <= 1, got {K}")
        self.omega = float(omega)
        self.K = float(K)
        self._step = kernels.arnold_step(self.omega, self.K)

    def __call__(self, x):
        return self._step(x)

    def advance(self, xs, n):
        scalar = np.isscalar(xs)
        out = kernels.arnold_advance(np.atleast_1d(xs), n, self.omega, self.K)
        return float(out[0]) if scalar else out

    def orbit_table(self, xs, depth):
        return kernels.arnold_orbit(xs, depth, self.omega, self.K)


class PonceletLift(CircleLift):
    """Lift of the Poncelet tangent map restricted to its invariant circle,
    in the normalized coordinate x = theta / 2 pi."""

    def __init__(self, cfg: PonceletConfig):
        self.cfg = cfg
        self._step = kernels.poncelet_step(cfg.R, cfg.c, cfg.t)

    def __call__(self, x):
        return self._step(x)

    def advance(self, xs, n):
        scalar = np.isscalar(xs)
        out = kernels.poncelet_advance(
            np.atleast_1d(xs), n, self.cfg.R, self.cfg.c, self.cfg.t
        )
        return float(out[0]) if scalar else out

    def orbit_table(self, xs, depth):
        return kernels.poncelet_orbit(
            xs, depth, self.cfg.R, self.cfg.c, self.cfg.t
        )
