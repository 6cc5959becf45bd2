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
too: R - c rounds to R whenever c / R is 0 or underflows, so gap = 1,
P = 1 and Q = +-0 at every x, and S is constant, so both atan2
arguments, and with them x' - x, are the same floats at every finite x.
That displacement is the step at x = 0, where h = Q = 0, in closed form:

    shift = atan2(sqrt(s2_at_0), t) / pi,

with S / R = sqrt(s2_at_0) and t in units of R (at t = +-0, where
t P - S Q may round to the other zero, S = 1 and atan2 gives pi / 2
either way).  Each Poncelet build, the step (from whichever functions
it is given) and the one-point loop, forms it once per t from constants
it already holds, with its own atan2 and sqrt, and runs the rotation
x + (shift + 0.0 sin(2 pi x)): the general step's bits at every x and its
error at an infinite angle, with no general step built or run for the
shift.  So the concentric estimates, lock tables and pair counts skip the
two sines, the square root and the atan2 of each step.

The Arnold map has one body, its loop `arnold_loop(K, sin)`.  Its step
has no clamp, so one statement steps a float with ``math.sin`` and a
whole row with numpy's ``sin``, elementwise.  The Poncelet map has two.
Its step, `poncelet_step`, is a factory that binds (R, c, t) and a tuple
of elementary functions (sin, sqrt, atan2, max); the library builds it
only from numpy's ufuncs, in `table`.  Its loop, `poncelet_loop`, writes
the ``math`` build's statements inline, with the clamp max(a, 0.0) as
``0.0 if 0.0 > a else a``.  That clamp has no array form as cheap: in
interleaved timeit runs (30 rounds, a 1,024-step orbit at c = 0.3,
Python 3.11.7, 2 shared cores), ``0.5 * (a + abs(a))`` cost 1.067x
[1.039, 1.080] per step and a call of a clamp function 1.081x.  The tests
build each map's step from ``math`` (the Poncelet step through
`poncelet_step`, the Arnold step in the tests themselves) as the
independent one-float reference its loop is pinned to.  A loop binds
the map's fixed constants ((R, c) for Poncelet, K and sin for Arnold)
and takes the family parameter (t, omega) and a sequence of starts per
call, forming the parameter's constants with the step's operations.
One builder, `table`, writes every orbit table of a map as the columns
of a loop.  Iterating the map:

* one-point orbits run the map's loop (`poncelet_loop`, or `arnold_loop`
  with ``math.sin``): the ``math`` step's statements written out inline
  in one python loop per start, so no step is a python call (numpy's
  per-call dispatch on a 1-element array costs about 20x a scalar step).
  A one-point table runs it: the rotation estimate's orbit, whose floors
  of g^q(0) give its Farey bracket (up to a rounding allowance that is
  not yet a certified budget), and that orbit's extensions.  So does a
  family's `orbit(t, starts, n)`, bound to its loop once when the family
  is built: the pair count's lap residual and ``verify_closure``'s
  starts, one column per start from one call.  So does a lift's
  ``g(x)``, the first step of a one-point loop bound when the lift is
  built, which `validate` samples: `g`, `advance`, one-point tables and
  family orbits run one code path per map.  The loop has the bits of the
  step built from ``math``, errors included: it raises where ``math``
  does, at an infinite 2 pi x.  The Poncelet step's statements so exist
  twice, once in the step and once in its loop, and tests pin the loop
  to the ``math`` build to the bit.
* a table of two or more points runs the map's loop built from numpy's
  ufuncs on the single start xs, so the loop's one column holds the
  table's rows: `arnold_loop` with numpy's ``sin``, or `step_loop` over
  the numpy build of `poncelet_step`.  Every table the library builds
  (the 32-point lock subgrid, the 512-point lock grid, `twistfam`'s 128-
  and 256-point samples) is one, so a subgrid point has the grid table's
  bits.  An infinite 2 pi x gives its column ``nan``, with numpy's
  warning.
* a map with no loop of its own, a `FunctionLift`'s callable or the
  rigid family's lift `RigidLift(t)`, runs `step_loop`: the same
  columns, with one python call per step, and a `FunctionLift`'s table
  is `table` over it at every width.  So the kernels own every loop and
  the one table builder, and no lift or family writes either.  The pair
  count and the rotation estimate's one-point orbits keep the maps'
  inline loops and never run `step_loop`.

The two widths agree to rounding, not bit for bit: numpy's vectorized
``sin`` and ``arctan2`` need not round like ``math.sin`` and
``math.atan2``.  The one-point loops need only ``math``: numpy is
imported by the functions that build arrays, so a caller that
never tabulates (the pair count) never loads it.

Every count argument is read once, by `read_count`, where it enters the
library, and its errors name the argument: an orbit's step count n (a
lift's `orbit_table`, and so `advance`, and a family's `orbit` take
n >= 0, `verify_closure` n >= 1 and the pair count n >= 3), the
lock search's denominator q (>= 1) and its numerator p (no lower bound),
the parameter search's iters (>= 0) and the totient's n (>= 1).  The
loops and tables here take n as given.

This module is the one implementation (``BACKEND``).  ``_ref``, ``impl``
and the ``*_advance`` functions (a table's last row) serve only the
benchmark, whose L0 probe times the kernels through them and whose
tracer wraps them by name; ROADMAP item 17's benchmark half deletes them.
"""

import functools
import math
import operator
import sys
from math import pi

from .geometry import TWO_PI

BACKEND = "python"
# the benchmark reads this module as `kernels._ref` and `kernels.impl`;
# ROADMAP item 17's benchmark half deletes both, with the *_advance
_ref = impl = sys.modules[__name__]


def read_count(value, least, name):
    """value as an int of at least `least`: the one reader of the
    library's integer arguments, an orbit's step count n among them, and
    the lock search's numerator p, read with least = -inf (no lower
    bound).  A non-integer value raises TypeError, and a smaller one
    ValueError, both naming `name`, before any work runs."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _pair(R, c, t):
    """c, t, gap = R - c, s2_at_0 and four_rc in units of R:
    (S/R)^2 = s2_at_0 + four_rc h^2.  R - c - t is taken before dividing,
    so a t one ulp below R - c stays off tangency."""
    R, c, t = float(R), float(c), float(t)
    near = (R - c - t) / R
    c, t, gap = c / R, t / R, (R - c) / R
    return c, t, gap, near * (gap + t), 4.0 * c


def poncelet_step(R, c, t, fns):
    """One step of the tangent-line lift in lift coordinates, with the
    circle pair bound, built from ``fns`` = (sin, sqrt, atan2, max):
    numpy's ufuncs for a table, which runs it on whole rows through
    `step_loop`, or (math.sin, math.sqrt, math.atan2, max), the tests'
    one-float reference, whose clamp has the builtin max's bits.

    At c / R == 0 (c = -0.0 and a c / R that underflows included) it is
    the rotation by the closed-form shift, formed from `_pair`'s
    constants with ``fns``' atan2 and sqrt, which has the general step's
    bits (see the module docstring); no general step is built.  The
    rotation keeps the general step's sin(2 pi x) as the signed zero
    0.0 * sin(2 pi x), so at an infinite 2 pi x (x infinite, or finite
    beyond ~2.9e307) ``math`` still raises and numpy still gives nan with
    its warning."""
    sin, sqrt, atan2, maximum = fns
    c, t, gap, s2_at_0, four_rc = _pair(R, c, t)
    if c == 0.0:
        shift = atan2(sqrt(s2_at_0), t) / pi

        def rotation(x):
            return x + (shift + 0.0 * sin(TWO_PI * x))

        return rotation
    two_c = 2.0 * c

    def step(x):
        theta = TWO_PI * x
        h = sin(0.5 * theta)
        h2 = h * h
        P = gap + two_c * h2
        Q = c * sin(theta)
        S = sqrt(s2_at_0 + four_rc * h2)
        return x + atan2(maximum(S * P + t * Q, 0.0), t * P - S * Q) / pi

    return step


def poncelet_loop(R, c):
    """The one-point orbits of the Poncelet lift of the circle pair (R, c),
    over the inner radius: loop(t, starts, n) is one list
    [x, g_t(x), ..., g_t^n(x)] of python floats per start x, with
    g_t = ``poncelet_step(R, c, t, fns)`` built from ``math``.  The
    constants of (R, c) are bound once; those of t are formed in the call
    with `_pair`'s operations.  Each column runs the step's statements
    inline, with the clamp max(a, 0.0) written as ``0.0 if 0.0 > a else
    a`` (the builtin max's bits, signed zero and nan included), so it makes
    no python call per step and has that step's bits, errors included.  At
    c / R == 0 the same closure runs the rotation instead, its shift formed
    once per call in closed form from the t constants, as `poncelet_step`
    forms it."""
    sin, sqrt, atan2 = math.sin, math.sqrt, math.atan2
    R, c = float(R), float(c)
    outer = R - c  # _pair's R - c - t is (R - c) - t
    c, gap = c / R, outer / R
    two_c, four_rc = 2.0 * c, 4.0 * c

    def loop(t, starts, n):
        t = float(t)
        near = (outer - t) / R
        t = t / R
        s2_at_0 = near * (gap + t)
        if c == 0.0:
            shift = atan2(sqrt(s2_at_0), t) / pi
        columns = []
        for x in starts:
            column = [x]
            append = column.append
            if c == 0.0:
                for _ in range(n):
                    x = x + (shift + 0.0 * sin(TWO_PI * x))
                    append(x)
            else:
                for _ in range(n):
                    theta = TWO_PI * x
                    h = sin(0.5 * theta)
                    h2 = h * h
                    P = gap + two_c * h2
                    Q = c * sin(theta)
                    S = sqrt(s2_at_0 + four_rc * h2)
                    a = S * P + t * Q
                    x = x + atan2(0.0 if 0.0 > a else a, t * P - S * Q) / pi
                    append(x)
            columns.append(column)
        return columns

    return loop


def poncelet_dgdt(R, c, t, x):
    """d g_t(x) / d t = -1 / (pi S(x)) over the array x: a tangent turned by
    dt / S about its start moves the chord's far end 2 dt / S radians.
    At internal tangency S = 0 at x = 0 (at every x if c = 0): it is -inf."""
    import numpy as np

    *_, s2_at_0, four_rc = _pair(R, c, t)
    h = np.sin(pi * np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore"):
        return -1.0 / (pi * np.sqrt(s2_at_0 + four_rc * h * h)) / R


def arnold_loop(K, sin):
    """The orbits of the Arnold lift g(x) = x + omega + (K / 2 pi)
    sin(2 pi x), with K and `sin` bound, over omega: loop(omega, starts,
    n) is one list [x, g(x), ..., g^n(x)] per start x.  It is the map's
    one body.  With ``math.sin`` a start is one float: the one-point
    orbits of `ArnoldLift`, `arnold_family` and a one-point table.  With
    numpy's ``sin`` a start may be a whole array, which the same statement
    steps elementwise: a wider table runs the single start xs, so its one
    column holds the table's rows, with numpy's bits and warnings."""
    k = float(K) / TWO_PI

    def loop(omega, starts, n):
        omega = float(omega)
        columns = []
        for x in starts:
            column = [x]
            append = column.append
            for _ in range(n):
                x = x + omega + k * sin(TWO_PI * x)
                append(x)
            columns.append(column)
        return columns

    return loop


def step_loop(step, starts, n):
    """The orbits of any map: one list [x, step(x), ..., step^n(x)] per
    start x, with one python call per step.  It runs the maps that have
    no loop of their own: a `FunctionLift`'s table, and the rigid family's
    orbit over its lift `RigidLift(t)`, so no family writes a step.  It
    also runs the Poncelet step built from numpy's ufuncs, with one row as
    its start, for every Poncelet table of two or more points.  n is an
    int of at least 0, as `read_count` reads it for `orbit_table` and
    `MonotoneCircleFamily.orbit`; the loop checks nothing."""
    columns = []
    for x in starts:
        column = [x]
        for _ in range(n):
            x = step(x)
            column.append(x)
        columns.append(column)
    return columns


def table(xs, depth, loop, numpy_loop):
    """The orbit table of a map over the 1-d array xs: row k holds g^k(xs),
    k = 0..depth.  For one start, or at every width when `numpy_loop` is
    None, its columns are `loop(starts, depth)`, the map's one-point
    orbits.  Otherwise its rows are the one column of
    `numpy_loop(fns)([xs], depth)`, the map's loop built from numpy's
    ufuncs fns and run on the single start xs."""
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    if xs.size != 1 and numpy_loop is not None:
        [rows] = numpy_loop((np.sin, np.sqrt, np.arctan2, np.maximum))(
            [xs], depth)
        return np.array(rows)
    out = np.empty((depth + 1, xs.size), dtype=np.float64)
    for i, column in enumerate(loop(xs.tolist(), depth)):
        out[:, i] = column
    return out


def poncelet_advance(xs, n, R, c, t):
    """Apply the Poncelet tangent lift n times to each entry of the 1-d
    array xs: the last row of its orbit table."""
    return poncelet_orbit(xs, n, R, c, t)[-1]


def poncelet_orbit(xs, depth, R, c, t):
    """Orbit table: row k holds g^k applied to xs, k = 0..depth."""
    return table(xs, depth, functools.partial(poncelet_loop(R, c), t),
                 lambda fns: functools.partial(
                     step_loop, poncelet_step(R, c, t, fns)))


def arnold_advance(xs, n, omega, K):
    return arnold_orbit(xs, n, omega, K)[-1]


def arnold_orbit(xs, depth, omega, K):
    return table(xs, depth,
                 functools.partial(arnold_loop(K, math.sin), omega),
                 lambda fns: functools.partial(arnold_loop(K, fns[0]), omega))
