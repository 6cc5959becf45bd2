"""Kernels for the map-iteration loops: the Poncelet tangent lift and the
Arnold circle map, iterated over a batch of lift coordinates.

The Poncelet step computes the displacement x' - x itself, not as a
difference of absolute angles.  With theta = 2 pi x and h = sin(theta/2),
the start point lies P = (R - c) + 2c h^2 along its radius and
Q = c sin(theta) across it from the inner centre, at tangent length
S = sqrt((R - c - t)(R - c + t) + 4Rc h^2), which is sqrt(D^2 - t^2)
without cancellation.  The chord's central angle is twice its angle to the
outer circle's tangent:

    x' = x + 2 atan2(max(S P + t Q, 0), t P - S Q) / (2 pi).

No clamp, angle reduction or fold is needed, and at internal tangency
t = R - c the fixed point x = 0 maps to 0 exactly.  One limit: at exact
tangency, once |x - k| < ~1e-154 for an integer k, h^2 underflows, the orbit
can cross the fixed point by rounding, and the narrow and wide paths can
split by a lap (seen at c = 0.9 after 200 steps).  No library path iterates
there: `rotation_number` starts at the exact fixed point x0 = 0.

Two paths, chosen per call by batch width:

* narrow batches (at most ``NARROW_MAX`` points) run a scalar ``math`` loop.
  Single-point orbits (rough pass, Birkhoff run, lock bisections) are this
  case; numpy's per-call dispatch on 1-element arrays costs about 20x a
  scalar step.  The same scalar steps are the lifts' ``__call__``.
* wide batches run the vectorized numpy step, which is libm-bound there.

The two paths agree to rounding, not bit for bit: numpy's vectorized
``sin`` and ``arctan2`` need not round like ``math.sin`` and
``math.atan2``.
"""

from math import atan2, pi, sin, sqrt

import numpy as np

TWO_PI = 2.0 * np.pi

# Widest batch iterated by the scalar loop.  Measured (Python 3.11, numpy
# 2.4, x86-64): at 16 points the scalar loop takes 0.55x (Poncelet) and 0.6x
# (Arnold) of numpy's time; they break even near 24 points for Arnold and
# 32-48 for Poncelet.
NARROW_MAX = 16


def _poncelet_step(x, R, c, t):
    """One step of the tangent-line lift, vectorized over x (lift coords)."""
    theta = TWO_PI * x
    h2 = np.sin(0.5 * theta) ** 2
    P = (R - c) + 2.0 * c * h2
    Q = c * np.sin(theta)
    S = np.sqrt((R - c - t) * (R - c + t) + 4.0 * R * c * h2)
    y = np.maximum(S * P + t * Q, 0.0)
    return x + np.arctan2(y, t * P - S * Q) / np.pi


def poncelet_scalar_step(R, c, t):
    """``_poncelet_step`` for one python float, with the circle pair bound
    (a one-argument closure is the cheapest call)."""
    R, c, t = float(R), float(c), float(t)
    gap = R - c
    s2_at_0 = (gap - t) * (gap + t)  # S^2 at x = 0, its minimum
    four_rc = 4.0 * R * c
    two_c = 2.0 * c

    def step(x):
        theta = TWO_PI * x
        h = sin(0.5 * theta)
        h2 = h * h
        P = gap + two_c * h2
        Q = c * sin(theta)
        S = sqrt(s2_at_0 + four_rc * h2)
        return x + atan2(max(S * P + t * Q, 0.0), t * P - S * Q) / pi

    return step


def _arnold_step(x, omega, K):
    return x + omega + (K / TWO_PI) * np.sin(TWO_PI * x)


def arnold_scalar_step(omega, K):
    """``_arnold_step`` for one python float, with omega and K bound."""
    omega = float(omega)
    k = float(K) / TWO_PI

    def step(x):
        return x + omega + k * sin(TWO_PI * x)

    return step


def _scalar_advance(xs, n, step):
    """`step` applied n times to each entry of the narrow array xs."""
    vals = xs.ravel().tolist()
    for i, x in enumerate(vals):
        for _ in range(n):
            x = step(x)
        vals[i] = x
    return np.reshape(vals, xs.shape)


def _scalar_orbit(out, step):
    """Fill rows 1.. of the narrow orbit table `out` from row 0."""
    for i, x in enumerate(out[0].tolist()):
        column = [x]
        for _ in range(out.shape[0] - 1):
            x = step(x)
            column.append(x)
        out[:, i] = column


# The scalar loop gives way to numpy on a ValueError: math raises on an
# infinite argument where numpy returns nan.

def _advance(xs, n, step, scalar_step, params):
    out = np.array(xs, dtype=np.float64, copy=True)
    if out.size <= NARROW_MAX:
        try:
            return _scalar_advance(out, n, scalar_step(*params))
        except ValueError:
            pass
    for _ in range(n):
        out = step(out, *params)
    return out


def _orbit(xs, depth, step, scalar_step, params):
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty((depth + 1, xs.size), dtype=np.float64)
    out[0] = xs
    if xs.size <= NARROW_MAX:
        try:
            _scalar_orbit(out, scalar_step(*params))
            return out
        except ValueError:
            pass
    for k in range(1, depth + 1):
        out[k] = step(out[k - 1], *params)
    return out


def poncelet_advance(xs, n, R, c, t):
    """Apply the Poncelet tangent lift n times to each entry of xs."""
    return _advance(xs, n, _poncelet_step, poncelet_scalar_step, (R, c, t))


def poncelet_orbit(xs, depth, R, c, t):
    """Orbit table: row k holds g^k applied to xs, k = 0..depth."""
    return _orbit(xs, depth, _poncelet_step, poncelet_scalar_step,
                  (R, c, t))


def arnold_advance(xs, n, omega, K):
    return _advance(xs, n, _arnold_step, arnold_scalar_step, (omega, K))


def arnold_orbit(xs, depth, omega, K):
    return _orbit(xs, depth, _arnold_step, arnold_scalar_step, (omega, K))
