"""The map-iteration kernels and the lift classes built on them."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import kernels
from poncelet.families import arnold_family, poncelet_family, rigid_family
from poncelet.geometry import TWO_PI, PonceletConfig, poncelet_map_geometric
from poncelet.lifts import (
    ArnoldLift,
    FunctionLift,
    LiftContractError,
    PonceletLift,
    RigidLift,
)


#: The one-float build of each map's step: the reference its one-point
#: loop, and so every lift's g(x), is pinned to.  The library builds the
#: Poncelet step only from numpy, and has no Arnold step.
MATH = (math.sin, math.sqrt, math.atan2, max)


def _arnold_step(omega, K, fns):
    """One step of the Arnold lift g(x) = x + omega + (K / 2 pi) sin(2 pi x),
    built here from ``fns``' sin: with `MATH` the reference the kernels'
    one body, `arnold_loop`, is pinned to at one point, and with numpy's
    ufuncs at every wider table.  It forms float(omega) and
    float(K) / 2 pi as the loop does."""
    sin = fns[0]
    omega, k = float(omega), float(K) / TWO_PI
    return lambda x: x + omega + k * sin(TWO_PI * x)


def test_backend_selection_is_reported():
    assert kernels.BACKEND == "python"


def _in_batches(kernel, xs, width, *args):
    """Run `kernel` on consecutive slices of xs `width` points wide."""
    parts = [kernel(xs[i:i + width], *args) for i in range(0, xs.size, width)]
    return np.concatenate(parts, axis=-1)


def test_ref_narrow_and_wide_paths_agree():
    # The kernels iterate a one-point batch with a scalar math loop and
    # every wider table with numpy; both must give the same orbits to
    # rounding, at internal tangency t = R - c too.
    wide = 64
    widths = (1, 2, 5, 17)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 2.0, wide)
    tangency = [(R, c, R - c)
                for R, c in [(1.0, 0.2), (1.0, 0.3), (2.0, 0.7), (1.0, 0.9)]]
    for R, c, t in [(1.0, 0.0, 0.5), (1.0, 0.3, 0.2),
                    (2.0, 0.7, 0.9)] + tangency:
        ref = kernels.poncelet_orbit(xs, 50, R, c, t)[-1]
        ref_tab = kernels.poncelet_orbit(xs, 10, R, c, t)
        for width in widths:
            last = _in_batches(kernels.poncelet_orbit, xs, width, 50, R, c,
                               t)[-1]
            np.testing.assert_allclose(last, ref, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(
                _in_batches(kernels.poncelet_orbit, xs, width, 10, R, c, t),
                ref_tab, rtol=0.0, atol=1e-12)
    xs = rng.uniform(0.0, 1.0, wide)
    ref = kernels.arnold_orbit(xs, 200, 0.3, 0.8)[-1]
    ref_tab = kernels.arnold_orbit(xs, 10, 0.3, 0.8)
    for width in widths:
        np.testing.assert_allclose(
            _in_batches(kernels.arnold_orbit, xs, width, 200, 0.3, 0.8)[-1],
            ref, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(
            _in_batches(kernels.arnold_orbit, xs, width, 10, 0.3, 0.8),
            ref_tab, rtol=0.0, atol=1e-12)


def test_ref_nonfinite_start_is_nan_in_a_table_and_raises_alone():
    # numpy's step gives nan at an infinite start and leaves the other
    # columns alone; a one-point batch is the math step iterated, so it
    # raises there, as the step does
    xs = np.array([np.inf, 0.25])
    finite = np.full(64, 0.25)
    with np.errstate(invalid="ignore"):
        out = kernels.poncelet_orbit(xs, 3, 1.0, 0.3, 0.2)[-1]
        tab = kernels.arnold_orbit(xs, 3, 0.3, 0.8)
    for orbit, make_step, params in _KERNEL_MAPS:
        with pytest.raises(ValueError, match="math domain error"):
            make_step(*params, MATH)(np.inf)
        with pytest.raises(ValueError, match="math domain error"):
            orbit(xs[:1], 3, *params)
    assert np.isnan(out[0]) and np.all(np.isnan(tab[1:, 0]))
    assert out[1] == pytest.approx(
        kernels.poncelet_orbit(finite, 3, 1.0, 0.3, 0.2)[-1, 0], abs=1e-13)
    assert tab[3, 1] == pytest.approx(
        kernels.arnold_orbit(finite, 3, 0.3, 0.8)[3, 0], abs=1e-14)


def _numpy_table(make_step, params, xs, depth):
    """Rows step^k(xs), k = 0..depth, of the step built from numpy."""
    step = make_step(*params, (np.sin, np.sqrt, np.arctan2, np.maximum))
    rows = [xs]
    for _ in range(depth):
        rows.append(step(rows[-1]))
    return np.array(rows)


_KERNEL_MAPS = [(kernels.poncelet_orbit, kernels.poncelet_step, params)
                for params in [(1.0, 0.3, 0.2), (1.0, 0.0, 0.5),
                               (2.0, 0.7, 0.9), (1.0, 0.2, 0.8)]] + [
    (kernels.arnold_orbit, _arnold_step, params)
    for params in [(0.3, 0.8), (0.51, 0.9)]]


def test_ref_one_point_table_iterates_the_scalar_step():
    # a one-point table's rows are the math build's g iterated, to the bit
    for orbit, make_step, params in _KERNEL_MAPS:
        g = make_step(*params, MATH)
        for x in (0.0, 0.1, 0.375, -0.7, 1.9):
            column = [x]
            for _ in range(20):
                column.append(g(column[-1]))
            tab = orbit(np.array([x]), 20, *params)
            assert tab.shape == (21, 1)
            assert tab[:, 0].tobytes() == np.array(column).tobytes()


@st.composite
def _lift_params(draw):
    """("poncelet", R, c, t), with R log-uniform in [1e-300, 1e300] and
    c = 0 and tangency t = R - c among the draws, or ("arnold", omega, K)."""
    if draw(st.booleans()):
        return ("arnold", draw(st.floats(-2.0, 2.0)),
                draw(st.floats(0.0, 1.0)))
    R = 10.0 ** draw(st.floats(-300.0, 300.0))
    c = R * draw(st.just(0.0) | st.floats(0.0, 0.999))
    t = (R - c) * draw(st.just(1.0) | st.floats(0.0, 1.0))
    return ("poncelet", R, c, t)


# starts in [-2, 2]; tiny ones, where at tangency h^2 underflows and the
# clamp max(a, 0.0) takes a negative a; and starts whose angle 2 pi x is
# infinite
_TINY_STARTS = st.builds(lambda sign, e: sign * 10.0 ** e,
                         st.sampled_from([-1.0, 1.0]),
                         st.floats(-300.0, -150.0))
_INFINITE_ANGLE_STARTS = st.sampled_from([math.inf, -math.inf, 3e307, -3e307])
_STARTS = st.floats(-2.0, 2.0) | _TINY_STARTS | _INFINITE_ANGLE_STARTS


def _lift_and_math_step(params):
    """The lift of `_lift_params`' draw and its map's step built from
    ``math`` here, the reference its loop is pinned to."""
    kind, *args = params
    if kind == "poncelet":
        return (PonceletLift(PonceletConfig(*args)),
                kernels.poncelet_step(*args, MATH))
    return ArnoldLift(*args), _arnold_step(*args, MATH)


@settings(max_examples=300, deadline=None)
@given(_lift_params(), _STARTS, st.integers(0, 1024))
def test_one_point_loop_is_the_step_iterated(params, x, n):
    # each map's one-point loop repeats its step's statements inline; its
    # table is the math build iterated to the bit, and raises where that
    # build raises
    g, step = _lift_and_math_step(params)
    if math.isinf(TWO_PI * x) and n > 0:
        with pytest.raises(ValueError, match="math domain error"):
            step(x)
        with pytest.raises(ValueError, match="math domain error"):
            g.orbit_table([x], n)
    else:
        assert _hexes(g.orbit_table([x], n)[:, 0]) \
            == _hexes(_iterated(step, x, n))


@settings(max_examples=300, deadline=None)
@given(_lift_params(), _STARTS)
def test_lift_call_is_the_math_step(params, x):
    # g(x) is the first step of the map's loop: the math build's bits, and
    # its error at an infinite angle
    g, step = _lift_and_math_step(params)
    if math.isinf(TWO_PI * x):
        with pytest.raises(ValueError, match="math domain error"):
            step(x)
        with pytest.raises(ValueError, match="math domain error"):
            g(x)
    else:
        assert g(x).hex() == step(x).hex()


@st.composite
def _family_params(draw):
    """(family, t): a Poncelet family, forward or reversed, with R
    log-uniform in [1e-300, 1e300], c = 0 and both ends of [0, R - c] among
    the draws; an Arnold family; or a rigid one."""
    kind = draw(st.sampled_from(["poncelet", "arnold", "rigid"]))
    if kind == "poncelet":
        R = 10.0 ** draw(st.floats(-300.0, 300.0))
        c = R * draw(st.just(0.0) | st.floats(0.0, 0.999))
        family = poncelet_family(R, c, reverse=draw(st.booleans()))
    elif kind == "arnold":
        family = arnold_family(draw(st.floats(0.0, 1.0)))
    else:
        a = draw(st.floats(-2.0, 2.0))
        family = rigid_family(a, a + draw(st.floats(1e-6, 2.0)))
    share = draw(st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0))
    return family, min(family.a + share * (family.b - family.a), family.b)


@settings(max_examples=300, deadline=None)
@given(_family_params(),
       st.lists(st.floats(-2.0, 2.0) | _TINY_STARTS, min_size=1, max_size=4),
       st.integers(0, 256), st.none() | _INFINITE_ANGLE_STARTS)
def test_family_orbit_is_the_lift_iterated(params, starts, n, far):
    # every column of one multi-start orbit call is lift(t) iterated n
    # times, to the bit; a start where the lift raises makes the call raise
    family, t = params
    g = family.lift(t)
    assert [_hexes(column) for column in family.orbit(t, starts, n)] \
        == [_hexes(_iterated(g, x, n)) for x in starts]
    if far is None:
        return
    try:
        want = _hexes(_iterated(g, far, n))
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            family.orbit(t, starts + [far], n)
    else:
        assert _hexes(family.orbit(t, starts + [far], n)[-1]) == want


def test_ref_table_of_two_or_more_points_runs_numpys_step():
    # every table wider than one point has the numpy build's bits; the
    # math build differs from it in the last bit at some of these points
    xs = np.linspace(0.0, 1.0, 16, endpoint=False)
    for orbit, make_step, params in _KERNEL_MAPS:
        for width in range(2, 17):
            assert orbit(xs[:width], 20, *params).tobytes() \
                == _numpy_table(make_step, params, xs[:width], 20).tobytes()


#: Starts whose angle 2 pi x is not finite, or which are nan: a wide
#: table gives each such column nan from row 1 on, with numpy's warnings
_NON_FINITE_ANGLE_STARTS = st.sampled_from(
    [math.inf, -math.inf, math.nan, 3e307, -3e307])


@st.composite
def _wide_starts(draw):
    """A 1-d array of width 0, 2, 31 or 512: seeded starts in [-2, 2] with
    up to four tiny or non-finite-angle starts put in at drawn columns."""
    width = draw(st.sampled_from([0, 2, 31, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = rng.uniform(-2.0, 2.0, width)
    if width:
        for x in draw(st.lists(_NON_FINITE_ANGLE_STARTS | _TINY_STARTS,
                               max_size=4)):
            xs[draw(st.integers(0, width - 1))] = x
    return xs


def _recorded(call):
    """call()'s result and the (category, message) of every warning it
    raised, each one recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=200, deadline=None)
@given(_lift_params(), _wide_starts(), st.integers(0, 64))
def test_wide_table_is_the_numpy_step_row_by_row(params, xs, depth):
    # a table of any width but one is the step built here from numpy's
    # ufuncs, iterated row by row: the same bytes, and the same warnings
    kind, *args = params
    orbit, make_step = {"poncelet": (kernels.poncelet_orbit,
                                     kernels.poncelet_step),
                        "arnold": (kernels.arnold_orbit, _arnold_step)}[kind]
    table, warned = _recorded(lambda: orbit(xs, depth, *args))
    want, want_warned = _recorded(
        lambda: _numpy_table(make_step, args, xs, depth))
    assert table.shape == (depth + 1, xs.size)
    assert table.tobytes() == want.tobytes()
    assert warned == want_warned
    with np.errstate(over="ignore"):
        angles = TWO_PI * xs
    assert np.isnan(table[1:, ~np.isfinite(angles)]).all()
    assert (warned != []) == (depth > 0 and bool(np.isinf(angles).any()))


def _general_poncelet_step(R, c, t, fns):
    """The kernel's general Poncelet step, copied here so the concentric
    rotation is checked against the formula, not against itself."""
    sin, sqrt, atan2, maximum = fns
    R, c, t = float(R), float(c), float(t)
    near = (R - c - t) / R
    c, t, gap = c / R, t / R, (R - c) / R
    s2_at_0, four_rc, two_c = near * (gap + t), 4.0 * c, 2.0 * c

    def step(x):
        theta = 2.0 * math.pi * x
        h = sin(0.5 * theta)
        h2 = h * h
        P = gap + two_c * h2
        Q = c * sin(theta)
        S = sqrt(s2_at_0 + four_rc * h2)
        return x + atan2(maximum(S * P + t * Q, 0.0),
                         t * P - S * Q) / math.pi

    return step


def _concentric_pairs():
    """(R, c, t) with c / R == 0: c = +-0 at three scales, a c / R that
    underflows, and t at both ends, one ulp below tangency and random."""
    rng = np.random.default_rng(32)
    pairs = []
    for R, cs in ((1.0, (0.0, -0.0)), (2.0 ** -1000, (0.0, -0.0)),
                  (1e300, (0.0, -0.0, 1e-30))):
        ts = [0.0, R / 2, math.nextafter(R, 0.0), R]
        ts += (R * rng.uniform(0.0, 1.0, 3)).tolist()
        pairs += [(R, c, t) for c in cs for t in ts]
    return pairs


_NUMPY = (np.sin, np.sqrt, np.arctan2, np.maximum)
_EDGE_XS = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, 1e-300, 1e6, -1e6,
            math.nextafter(1e6, 0.0), 1e308, -1e308, math.inf, -math.inf,
            math.nan]


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values).tolist()]


@pytest.mark.parametrize("R, c, t", _concentric_pairs())
def test_concentric_step_is_the_general_step_to_the_bit(R, c, t):
    # at c / R == 0 the factory returns the rotation x + step(0); it must
    # keep the general step's bits and sign of zero, on both builds and at
    # every table width, and raise or give nan where the general one does
    assert kernels._pair(R, c, t)[0] == 0.0
    rng = np.random.default_rng(320)
    xs = np.array(_EDGE_XS + rng.uniform(-1e6, 1e6, 248).tolist()
                  + rng.uniform(-2.0, 2.0, 248).tolist())
    general = _general_poncelet_step(R, c, t, MATH)
    rotation = kernels.poncelet_step(R, c, t, MATH)
    for x in xs.tolist():
        try:
            want = general(x).hex()
        except ValueError:
            with pytest.raises(ValueError):
                rotation(x)
        else:
            assert rotation(x).hex() == want, x
    general_np = _general_poncelet_step(R, c, t, _NUMPY)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _hexes(kernels.poncelet_step(R, c, t, _NUMPY)(xs)) \
            == _hexes(general_np(xs))
        # the math build met every x above; narrow tables take the edges
        # and the first 48 random starts
        for width in (1, 2, 32, 512):
            for start in range(0, xs.size if width >= 32 else 64, width):
                part = xs[start:start + width]
                try:
                    rows = [part] if width > 1 else [float(part[0])]
                    step = general_np if width > 1 else general
                    for _ in range(4):
                        rows.append(step(rows[-1]))
                except ValueError:  # a one-point table raises as g does
                    with pytest.raises(ValueError):
                        kernels.poncelet_orbit(part, 4, R, c, t)
                    continue
                table = kernels.poncelet_orbit(part, 4, R, c, t)
                assert _hexes(table) == _hexes(rows), (width, start)


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_concentric_step_at_infinity_raises_or_gives_nan(x):
    # math raises on sin(inf), and so does a one-point orbit, which
    # iterates it; numpy gives nan with the general step's warning, and
    # so does a wider table
    for R, c, t in ((1.0, 0.0, 0.5), (1e300, 1e-30, 0.0)):
        with pytest.raises(ValueError):
            kernels.poncelet_step(R, c, t, MATH)(x)
        with pytest.raises(ValueError):
            kernels.poncelet_orbit([x], 3, R, c, t)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(kernels.poncelet_step(R, c, t, _NUMPY)(x))
        with np.errstate(invalid="ignore"):
            table = kernels.poncelet_orbit([x, x], 3, R, c, t)
            assert np.isnan(table[1:]).all()


@pytest.mark.parametrize("R, c, t", _concentric_pairs())
def test_concentric_family_orbit_is_the_general_step_iterated(R, c, t):
    # at c / R == 0 the map's loop runs the rotation, its shift formed in
    # closed form per call: every column of the family's orbit, in both
    # directions, must be the general step iterated, to the bit, and a
    # start at an infinite angle must raise as the general step does
    starts = [0.0, -0.0, 0.375, -0.7, 1.9, 5e-324, 1e-300, 1e6]
    for reverse in (False, True):
        family = poncelet_family(R, c, reverse=reverse)
        # the family's parameter s and the inner radius it maps s to
        s = family.b - t if reverse else t
        inner = family.b + -s if reverse else -0.0 + s
        general = _general_poncelet_step(R, c, inner, MATH)
        assert [_hexes(column) for column in family.orbit(s, starts, 9)] \
            == [_hexes(_iterated(general, x, 9)) for x in starts]
        for far in (math.inf, -3e307):
            with pytest.raises(ValueError, match="math domain error"):
                general(far)
            with pytest.raises(ValueError, match="math domain error"):
                family.orbit(s, starts + [far], 9)


def test_kernel_step_commutes_with_integer_shift():
    xs = np.array([0.13, 0.52, 0.99])
    a = kernels.poncelet_orbit(xs, 7, 1.0, 0.3, 0.4)[-1]
    b = kernels.poncelet_orbit(xs + 3.0, 7, 1.0, 0.3, 0.4)[-1]
    np.testing.assert_allclose(b - a, 3.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("x", [-0.0, 0.0, math.nan, 1e-300, -1e-300,
                               5e-324, -5e-324])
def test_loop_clamp_is_the_builtin_max(x):
    # at internal tangency, where h^2 underflows, these starts put a zero, a
    # tiny positive, a negative and a nan value in the clamp max(a, 0.0);
    # the loop's inline clamp keeps max's value, sign of zero and nan
    R, c, t = 1.0, 0.3, 0.7
    step = kernels.poncelet_step(R, c, t, MATH)
    column = kernels.poncelet_loop(R, c)(t, [x], 3)[0]
    assert _hexes(column) == _hexes(_iterated(step, x, 3))


def _every_lift():
    return [
        RigidLift(0.3176),
        ArnoldLift(0.3, 0.8),
        PonceletLift(PonceletConfig(1.0, 0.2, 0.3)),
        PonceletLift(PonceletConfig(1.0, 0.2, 0.8)),   # internal tangency
        FunctionLift(lambda x: x + 0.2 + 0.05 * math.sin(2.0 * math.pi * x)),
    ]


def test_orbit_table_rows_are_iterates():
    xs = np.linspace(0.0, 1.0, 8, endpoint=False)
    tab = kernels.poncelet_orbit(xs, 5, 1.0, 0.2, 0.3)
    assert tab.shape == (6, 8)
    np.testing.assert_array_equal(tab[0], xs)
    np.testing.assert_allclose(
        tab[3], kernels.poncelet_orbit(xs, 3, 1.0, 0.2, 0.3)[-1],
        rtol=0.0, atol=0.0,
    )
    # a lift's table of depth n is the first rows of a deeper one, at every
    # batch width on either side of the one-point switch
    rng = np.random.default_rng(1)
    for g in _every_lift():
        for width in (1, 2, 5, 17, 64):
            xs = rng.uniform(-1.0, 2.0, width)
            deep = g.orbit_table(xs, 50)
            for n in (0, 1, 50):
                assert np.array_equal(g.orbit_table(xs, n)[-1], deep[n])
        x = g.advance(0.1, 3)
        assert type(x) is float and x == g.orbit_table([0.1], 3)[-1, 0]


@pytest.mark.parametrize("g", _every_lift(),
                         ids=["rigid", "arnold", "poncelet", "tangency",
                              "function"])
def test_lifts_reject_bad_step_counts(g):
    # the kernels' one reader of n names it in both messages
    negative = "^n must be at least 0, got -1$"
    with pytest.raises(ValueError, match=negative):
        g.advance(0.1, -1)
    for width in (1, 20):
        with pytest.raises(ValueError, match=negative):
            g.orbit_table(np.full(width, 0.1), -1)
    for n in (2.0, 2.5):
        fractional = f"^n must be an integer, got {n}$"
        with pytest.raises(TypeError, match=fractional):
            g.advance(0.1, n)
        for width in (1, 20):
            with pytest.raises(TypeError, match=fractional):
                g.orbit_table(np.full(width, 0.1), n)
    # numpy integers are step counts too
    assert g.advance(0.1, np.int64(2)) == g.advance(0.1, 2)
    assert g.orbit_table([0.1], np.int32(2)).shape == (3, 1)


@pytest.mark.parametrize("g", _every_lift(),
                         ids=["rigid", "arnold", "poncelet", "tangency",
                              "function"])
def test_orbit_table_takes_only_a_1d_array(g):
    # every lift has one shape contract: a 1-d array of starts gives a
    # (depth + 1, len(xs)) table, and any other shape is refused by name
    for xs in (0.1, np.float64(0.1), [[0.1, 0.2]], np.zeros((1, 1)),
               np.zeros((2, 3))):
        shape = np.shape(xs)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            g.orbit_table(xs, 2)
    for width in (0, 1, 2, 5):
        assert g.orbit_table(np.full(width, 0.1), 3).shape == (4, width)


def _scalar_path_lifts():
    return [
        PonceletLift(PonceletConfig(1.0, 0.0, 0.5)),
        PonceletLift(PonceletConfig(1.0, 0.3, 0.2)),
        PonceletLift(PonceletConfig(1.0, 0.99999, 0.3 * (1.0 - 0.99999))),
        PonceletLift(PonceletConfig(1e-200, 3e-201, 2e-201)),
        ArnoldLift(0.3, 0.8),
        FunctionLift(lambda x: x + 0.2 + 0.05 * math.sin(2.0 * math.pi * x)),
        RigidLift(0.3176),
    ]


@pytest.mark.parametrize("g", _scalar_path_lifts(),
                         ids=["poncelet-c0", "poncelet-c0.3",
                              "poncelet-c0.99999", "poncelet-R1e-200",
                              "arnold", "function", "rigid"])
def test_advance_of_one_float_is_the_tables_last_row(g):
    # advance of one float is the table's last row, as a python float
    for x in (0.0, 0.375, -0.7, 1.9, 123.456):
        for n in (0, 1, 6, 12, 200):
            got = g.advance(x, n)
            want = g.orbit_table([x], n)[-1, 0]
            assert type(got) is float
            assert got.hex() == float(want).hex(), (x, n)


def _iterated(g, x, n):
    """[x, g(x), ..., g^n(x)] by calling g, or g's error."""
    column = [x]
    for _ in range(n):
        column.append(g(column[-1]))
    return column


@pytest.mark.parametrize("g", _every_lift()[1:4] + [
    PonceletLift(PonceletConfig(1.0, 0.0, 0.5)),
    PonceletLift(PonceletConfig(1.0, 0.3, 0.2)),
], ids=["arnold", "poncelet", "tangency", "concentric", "poncelet-c0.3"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 3e307, -3e307])
def test_advance_of_a_non_finite_float_is_nan(g, x):
    # a one-point table is g iterated, errors included: math raises at an
    # infinite angle 2 pi x, and so do advance and the table; a nan start
    # stays nan.  A wider table runs numpy's step, which gives that column
    # nan and keeps the finite one.
    for n in (1, 3):
        try:
            want = _iterated(g, x, n)
        except ValueError:
            with pytest.raises(ValueError, match="math domain error"):
                g.advance(x, n)
            with pytest.raises(ValueError, match="math domain error"):
                g.orbit_table([x], n)
        else:
            assert math.isnan(want[-1])
            assert _hexes(g.orbit_table([x], n)) == _hexes(want)
            assert g.advance(x, n).hex() == want[-1].hex()
    assert g.advance(x, 0) == x or math.isnan(x)
    with np.errstate(invalid="ignore", over="ignore"):
        tab = g.orbit_table([x, 0.25], 3)
    assert np.isnan(tab[1:, 0]).all()
    assert tab[:, 1].tobytes() == g.orbit_table([0.25, 0.5], 3)[:, 0].tobytes()


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_function_lift_passes_its_callables_error_through(x):
    # the table runs the callable itself, so its error passes through
    g = FunctionLift(lambda x: x + 0.2 + 0.05 * math.sin(2.0 * math.pi * x))
    with pytest.raises(ValueError, match="math domain error"):
        g.advance(x, 3)
    assert g.advance(x, 0) == x


# ------------------------------------------------------------------- lifts

def test_rigid_lift_is_exact():
    # the rigid lift's table, one point wide too, is its closed form
    # x + alpha k to the bit, not g iterated (x + alpha + ... + alpha),
    # which differs from it in the last bits
    g = RigidLift(0.3176)
    assert g.advance(0.0, 1000).hex() == (0.3176 * 1000).hex()
    tab = g.orbit_table(np.array([0.0, 0.5]), 3)
    np.testing.assert_allclose(tab[:, 0], [0.0, 0.3176, 0.6352, 0.9528])
    rng = np.random.default_rng(44)
    iterated_differs = False
    for alpha, x in zip(rng.uniform(0.0, 1.0, 50), rng.uniform(-2.0, 2.0, 50)):
        g = RigidLift(alpha)
        want = [x + alpha * k for k in range(51)]
        assert _hexes(g.orbit_table([x], 50)[:, 0]) == _hexes(want)
        assert g.advance(x, 50).hex() == want[-1].hex()
        iterated_differs |= _hexes(_iterated(g, x, 50)) != _hexes(want)
    assert iterated_differs


def test_poncelet_lift_scalar_matches_kernel():
    # one scalar step serves both; the geometric construction is the
    # independent reference for where the step lands on the circle
    cfg = PonceletConfig(1.0, 0.35, 0.25)
    g = PonceletLift(cfg)
    for x in np.linspace(0.0, 1.0, 17, endpoint=False):
        assert g(x) == g.advance(x, 1)
        landing = poncelet_map_geometric(2.0 * math.pi * x, cfg)[0]
        assert (g(x) - landing / (2.0 * math.pi) + 0.5) % 1.0 == \
            pytest.approx(0.5, abs=1e-13)


def test_poncelet_lift_validates():
    PonceletLift(PonceletConfig(1.0, 0.4, 0.3)).validate()


@pytest.mark.parametrize("c", [0.99999, 0.999999])
@pytest.mark.parametrize("u", [0.0, 0.3, 0.7, 1.0])
def test_poncelet_lift_validates_near_tangency(c, u):
    # the slope g'(0) = (R + c)/(R - c) turns sin(2 pi) != 0 into a
    # periodicity defect of 7.8e-12 (c = 0.99999) and 7.8e-11
    # (c = 0.999999), above PERIODICITY_TOL: an argument error of 4e-17
    PonceletLift(PonceletConfig(1.0, c, u * (1.0 - c))).validate()


def test_function_lift_rejects_a_real_defect_at_unit_slope():
    # g(x + 1) - g(x) - 1 = 1e-9 where the slope is 1 + 1e-9: not rounding
    with pytest.raises(LiftContractError, match="periodicity"):
        FunctionLift(lambda x: x + 0.2 + 1e-9 * x)


def test_arnold_lift_scalar_matches_kernel():
    g = ArnoldLift(0.25, 0.4)
    for x in np.linspace(0.0, 1.0, 17, endpoint=False):
        assert g(x) == g.advance(x, 1)


def test_arnold_lift_rejects_large_coupling():
    with pytest.raises(LiftContractError):
        ArnoldLift(0.2, 1.5)


def test_function_lift_rejects_decreasing_map():
    with pytest.raises(LiftContractError):
        FunctionLift(lambda x: -x)


def test_function_lift_rejects_broken_periodicity():
    with pytest.raises(LiftContractError):
        FunctionLift(lambda x: 1.5 * x)


@pytest.mark.parametrize("fn", [
    lambda x: math.nan,
    lambda x: x + 0.2 if x % 1.0 < 0.5 else math.nan,
], ids=["nan everywhere", "nan on half the circle"])
def test_function_lift_rejects_nan(fn):
    # every comparison with nan is false, so each check must fail on it
    with pytest.raises(LiftContractError):
        FunctionLift(fn)


@pytest.mark.parametrize("fn", [
    lambda x: math.inf,
    lambda x: -math.inf,
    lambda x: x + 0.2 if x % 1.0 < 0.5 else math.inf,
    lambda x: math.nan,
], ids=["inf everywhere", "-inf everywhere", "inf on half the circle",
        "nan everywhere"])
def test_function_lift_rejects_non_finite_with_warnings_as_errors(fn):
    # inf - inf is nan: numpy's invalid-value warning must not replace the
    # contract error when warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LiftContractError):
            FunctionLift(fn)


@pytest.mark.parametrize("fn, message", [
    (lambda x: math.nan, "periodicity defect"),
    (lambda x: x + 0.2 if x % 1.0 < 0.5 else math.nan, "periodicity defect"),
    (lambda x: x + 0.2 if x != 0.25 else math.nan, "periodicity defect"),
    (lambda x: x + 0.2 + 0.3 * math.sin(2.0 * math.pi * x),
     "not strictly increasing"),
    # rises between every two samples, and falls from the last to 1 + the
    # first
    (lambda x: x + 0.5 * (x % 1.0), "not strictly increasing"),
], ids=["nan everywhere", "nan on half the circle", "nan at one sample",
        "periodic, not monotone", "falls across the period"])
def test_validate_verdict_on_plain_floats(fn, message):
    # the samples are python floats; every nan comparison is still false
    with pytest.raises(LiftContractError, match=message):
        FunctionLift(fn)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, math.nextafter(2.0 ** 12, math.inf), 1e16,
    1e300], ids=repr)
@pytest.mark.parametrize("build, name", [
    (RigidLift, "alpha"), (lambda omega: ArnoldLift(omega, 0.5), "omega"),
], ids=["rigid", "arnold"])
def test_shift_lift_refuses_a_parameter_beyond_its_bound(build, name, value):
    # validate refuses RigidLift(1e16), whose x + alpha rounds x away;
    # unchecked, its estimate certifies the false lock 9999999999999999/1
    with pytest.raises(LiftContractError) as err:
        build(value)
    assert str(err.value) == f"|{name}| must be at most 2**12, got {value}"


#: The Poncelet lift's least (R - c) / R, as the constructor's message
#: states it
GAP_MIN = 2.0 ** -42


def _least_refused_offset(R):
    """The least c with R - c < GAP_MIN R: its float neighbour below is
    the largest c accepted."""
    c = R - GAP_MIN * R
    while R - c < GAP_MIN * R:
        c = math.nextafter(c, 0.0)
    return math.nextafter(c, R)


@pytest.mark.parametrize("R", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("edge", ["gap one float below", "c = R(1 - 2^-53)"])
def test_poncelet_lift_refuses_a_gap_below_its_bound(R, edge):
    # validate refuses R - c below about 2^-42.5 R at almost every t;
    # unchecked, the estimate at R = 1, c = 1 - 1e-15, t = 0.3 (R - c)
    # certifies the lock 1/2 where r is 0.495779
    if edge == "c = R(1 - 2^-53)":
        c = R * (1.0 - 2.0 ** -53)
    else:
        c = _least_refused_offset(R)
        PonceletLift(PonceletConfig(R, math.nextafter(c, 0.0), 0.0))
    assert 0.0 < R - c < GAP_MIN * R
    for t in (0.0, R - c):
        with pytest.raises(LiftContractError) as err:
            PonceletLift(PonceletConfig(R, c, t))
        assert str(err.value) == (f"Poncelet lift needs R - c >= 2**-42 R, "
                                  f"got R={R}, c={c}")


@st.composite
def _built_lifts(draw):
    """A Poncelet lift, with R log-uniform in [1e-300, 1e300], (R - c) / R
    from 2^-42 to 1 (and from 2^-46, where validate fails, to 2^-42) and
    t in [0, R - c], ends included; or a rigid or Arnold lift with
    |alpha| <= 2^12, the bound included.  None where the constructor
    refuses, which it does only for R - c < GAP_MIN R."""
    kind = draw(st.sampled_from(["poncelet", "arnold", "rigid"]))
    if kind == "poncelet":
        R = 10.0 ** draw(st.floats(-300.0, 300.0))
        gap = R * 2.0 ** draw(st.sampled_from([-42.0, 0.0])
                              | st.floats(-42.0, 0.0)
                              | st.floats(-46.0, -42.0))
        c = R - gap
        t = (R - c) * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        try:
            return PonceletLift(PonceletConfig(R, c, t))
        except LiftContractError:
            assert R - c < GAP_MIN * R
            return None
    alpha = draw(st.sampled_from([-2.0 ** 12, 2.0 ** 12])
                 | st.floats(-2.0 ** 12, 2.0 ** 12))
    if kind == "rigid":
        return RigidLift(alpha)
    return ArnoldLift(alpha, draw(st.sampled_from([0.0, 1.0])
                                  | st.floats(0.0, 1.0)))


@settings(max_examples=500, deadline=None)
@given(_built_lifts())
def test_every_lift_the_constructors_accept_validates(g):
    # the contract is checked where a lift is built, not on each estimate
    if g is not None:
        g.validate()


@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 300.0),
       st.sampled_from([-42.0, 0.0]) | st.floats(-42.0, 0.0)
       | st.floats(-46.0, -42.0),
       st.booleans())
def test_every_poncelet_family_the_factory_accepts_builds_its_lifts(
        log_R, log_gap, reverse):
    # the factory checks the pair through the lift's constructor, so a
    # family it builds hands out a lift at both ends of its interval, and a
    # pair it refuses fails with the constructor's message
    R = 10.0 ** log_R
    c = R - R * 2.0 ** log_gap
    try:
        family = poncelet_family(R, c, reverse=reverse)
    except LiftContractError as err:
        assert R - c < GAP_MIN * R
        assert str(err) == (f"Poncelet lift needs R - c >= 2**-42 R, "
                            f"got R={R}, c={c}")
        return
    family.lift(family.a)
    family.lift(family.b)


def test_function_lift_accepts_valid_map():
    g = FunctionLift(lambda x: x + 0.2 + 0.05 * math.sin(2.0 * math.pi * x))
    assert g.advance(0.1, 2) == pytest.approx(g(g(0.1)), abs=1e-15)
