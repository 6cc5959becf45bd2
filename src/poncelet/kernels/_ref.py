"""Kernels for the map-iteration loops: the Poncelet tangent lift and the
Arnold circle map, iterated over a batch of lift coordinates.

The Poncelet step computes the displacement x' - x itself, not as a
difference of absolute angles.  With theta = 2 pi x and h = sin(theta/2),
the start point lies P = (R - c) + 2c h^2 along its radius and
Q = c sin(theta) across it from the inner centre, at tangent length
S = sqrt((R - c - t)(R - c + t) + 4Rc h^2), which is sqrt(D^2 - t^2)
without cancellation.  The step computes P, Q, S and t in units of R, so
no square under- or overflows for R far from 1.  The chord's central angle
is twice its angle to the outer circle's tangent:

    x' = x + 2 atan2(max(S P + t Q, 0), t P - S Q) / (2 pi).

No clamp, angle reduction or fold is needed, and at internal tangency
t = R - c the fixed point x = 0 maps to 0 exactly.  One limit: at exact
tangency, once |x - k| < ~1e-154 for an integer k, h^2 underflows, the orbit
can cross the fixed point by rounding, and the narrow and wide paths can
split by a lap (seen at c = 0.9 after 200 steps).  No library path iterates
there: `rotation_number` takes no start point, and its orbit starts
at the exact fixed point 0.

For concentric circles (c / R == 0) the map is the rigid rotation
x' = x + arccos(t / R) / pi, and in floats the formula above is rigid
too: P = gap and Q = +-0 at every x, and S is constant, so both atan2
arguments, and with them x' - x, are the same floats at every finite x.
There `poncelet_step` returns x + step(0), which has the general step's
bits at every x and its error at an infinite angle, so the concentric
estimates, lock tables and pair counts skip the two sines, the square
root and the atan2 of each step.

Each map's step is defined once, as a factory that binds the map's
parameters and a tuple of elementary functions (sin, sqrt, atan2, max).
Two paths, chosen per call, build it from different tuples:

* a one-point batch runs the step built from ``math`` (``SCALAR``) in a
  python loop: numpy's per-call dispatch on a 1-element array costs about
  20x a scalar step.  This is the rotation estimate's orbit, whose floors
  of g^q(0) give its Farey bracket (up to a rounding allowance that is
  not yet a certified budget), and that orbit's extensions.  The lifts'
  ``__call__`` and the families' ``step``, which the pair count's lock
  residual and ``verify_closure``'s starts iterate, run this step
  directly, with no table.
* a table of two or more points runs the step built from numpy's ufuncs
  on whole arrays.  Every table the library builds (the 32-point lock
  subgrid, the 512-point lock grid, `twistfam`'s 128- and 256-point
  samples) is one, so a subgrid point has the grid table's bits.

The two paths agree to rounding, not bit for bit: numpy's vectorized
``sin`` and ``arctan2`` need not round like ``math.sin`` and
``math.atan2``.  The steps themselves need only ``math``: numpy is
imported by the functions that build arrays, so a caller that never
tabulates (the pair count) never loads it.
"""

import math
from math import pi

from ..geometry import TWO_PI

def _max(a, b):
    # the builtin max's value, sign of zero and nan included (it keeps a
    # unless b > a), without its argument handling, which cost a fifth to a
    # third of a narrow Poncelet step
    return b if b > a else a


# (sin, sqrt, atan2, max) for one python float
SCALAR = (math.sin, math.sqrt, math.atan2, _max)


def _pair(R, c, t):
    """c, t, gap = R - c, s2_at_0 and four_rc in units of R:
    (S/R)^2 = s2_at_0 + four_rc h^2.  R - c - t is taken before dividing,
    so a t one ulp below R - c stays off tangency."""
    R, c, t = float(R), float(c), float(t)
    near = (R - c - t) / R
    c, t, gap = c / R, t / R, (R - c) / R
    return c, t, gap, near * (gap + t), 4.0 * c


def poncelet_step(R, c, t, fns=SCALAR):
    """One step of the tangent-line lift in lift coordinates, with the
    circle pair bound (a one-argument closure is the cheapest call).

    At c / R == 0 (c = -0.0 and a c / R that underflows included) it is
    the rotation x + step(0), which has the general step's bits (see the
    module docstring).  The rotation keeps the general step's
    sin(2 pi x) as the signed zero 0.0 * sin(2 pi x), so at an infinite
    2 pi x (x infinite, or finite beyond ~2.9e307) ``math`` still raises
    and numpy still gives nan with its warning."""
    sin, sqrt, atan2, maximum = fns
    c, t, gap, s2_at_0, four_rc = _pair(R, c, t)
    two_c = 2.0 * c

    def step(x):
        theta = TWO_PI * x
        h = sin(0.5 * theta)
        h2 = h * h
        P = gap + two_c * h2
        Q = c * sin(theta)
        S = sqrt(s2_at_0 + four_rc * h2)
        return x + atan2(maximum(S * P + t * Q, 0.0), t * P - S * Q) / pi

    if c != 0.0:
        return step
    shift = step(0.0)

    def rotation(x):
        return x + (shift + 0.0 * sin(TWO_PI * x))

    return rotation


def poncelet_dgdt(R, c, t, x):
    """d g_t(x) / d t = -1 / (pi S(x)) over the array x: a tangent turned by
    dt / S about its start moves the chord's far end 2 dt / S radians.
    At internal tangency S = 0 at x = 0 (at every x if c = 0): it is -inf."""
    import numpy as np

    *_, s2_at_0, four_rc = _pair(R, c, t)
    h = np.sin(pi * np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore"):
        return -1.0 / (pi * np.sqrt(s2_at_0 + four_rc * h * h)) / R


def arnold_step(omega, K, fns=SCALAR):
    """One step of the Arnold lift, with omega and K bound."""
    sin = fns[0]
    omega = float(omega)
    k = float(K) / TWO_PI

    def step(x):
        return x + omega + k * sin(TWO_PI * x)

    return step


def _scalar_orbit(xs, depth, step):
    """Orbit table of the array xs, one point at a time on the scalar
    step: row k = step^k(xs).  The kernels run it on a one-point batch;
    a `FunctionLift`'s table runs its callable through it at any width."""
    import numpy as np

    out = np.empty((depth + 1, xs.size), dtype=np.float64)
    for i, x in enumerate(xs.ravel().tolist()):
        column = [x]
        for _ in range(depth):
            x = step(x)
            column.append(x)
        out[:, i] = column
    return out


# The scalar loop gives way to numpy on a ValueError: math raises on an
# infinite argument where numpy returns nan.

def _orbit(xs, depth, make_step, params):
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 1:
        try:
            return _scalar_orbit(xs, depth, make_step(*params))
        except ValueError:
            pass
    out = np.empty((depth + 1, xs.size), dtype=np.float64)
    out[0] = xs
    step = make_step(*params, (np.sin, np.sqrt, np.arctan2, np.maximum))
    for k in range(1, depth + 1):
        out[k] = step(out[k - 1])
    return out


def poncelet_advance(xs, n, R, c, t):
    """Apply the Poncelet tangent lift n times to each entry of the 1-d
    array xs: the last row of its orbit table."""
    return poncelet_orbit(xs, n, R, c, t)[-1]


def poncelet_orbit(xs, depth, R, c, t):
    """Orbit table: row k holds g^k applied to xs, k = 0..depth."""
    return _orbit(xs, depth, poncelet_step, (R, c, t))


def arnold_advance(xs, n, omega, K):
    return arnold_orbit(xs, n, omega, K)[-1]


def arnold_orbit(xs, depth, omega, K):
    return _orbit(xs, depth, arnold_step, (omega, K))
