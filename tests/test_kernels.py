"""The map-iteration kernels and the lift classes built on them."""

import math
import warnings

import numpy as np
import pytest

from poncelet import kernels
from poncelet.geometry import PonceletConfig, poncelet_map_geometric
from poncelet.kernels import _ref
from poncelet.lifts import (
    ArnoldLift,
    FunctionLift,
    LiftContractError,
    PonceletLift,
    RigidLift,
)


def test_backend_selection_is_reported():
    assert kernels.BACKEND == "python"
    assert kernels.impl is _ref


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
        ref = _ref.poncelet_advance(xs, 50, R, c, t)
        ref_tab = _ref.poncelet_orbit(xs, 10, R, c, t)
        for width in widths:
            np.testing.assert_allclose(
                _in_batches(_ref.poncelet_advance, xs, width, 50, R, c, t),
                ref, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(
                _in_batches(_ref.poncelet_orbit, xs, width, 10, R, c, t),
                ref_tab, rtol=0.0, atol=1e-12)
    xs = rng.uniform(0.0, 1.0, wide)
    ref = _ref.arnold_advance(xs, 200, 0.3, 0.8)
    ref_tab = _ref.arnold_orbit(xs, 10, 0.3, 0.8)
    for width in widths:
        np.testing.assert_allclose(
            _in_batches(_ref.arnold_advance, xs, width, 200, 0.3, 0.8),
            ref, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(
            _in_batches(_ref.arnold_orbit, xs, width, 10, 0.3, 0.8),
            ref_tab, rtol=0.0, atol=1e-12)


def test_ref_narrow_path_keeps_nonfinite_points_as_nan():
    # math raises on inf where numpy gives nan: a one-point batch falls
    # back to numpy's step, as a wider one runs it
    xs = np.array([np.inf, 0.25])
    finite = np.full(64, 0.25)
    with np.errstate(invalid="ignore"):
        out = _ref.poncelet_advance(xs, 3, 1.0, 0.3, 0.2)
        tab = _ref.arnold_orbit(xs, 3, 0.3, 0.8)
        alone = [_ref.poncelet_orbit(xs[:1], 3, 1.0, 0.3, 0.2),
                 _ref.arnold_orbit(xs[:1], 3, 0.3, 0.8)]
    assert np.isnan(out[0]) and np.all(np.isnan(tab[1:, 0]))
    assert all(t.shape == (4, 1) and np.all(np.isnan(t[1:])) for t in alone)
    assert out[1] == pytest.approx(
        _ref.poncelet_advance(finite, 3, 1.0, 0.3, 0.2)[0], abs=1e-13)
    assert tab[3, 1] == pytest.approx(
        _ref.arnold_orbit(finite, 3, 0.3, 0.8)[3, 0], abs=1e-14)


def _numpy_table(make_step, params, xs, depth):
    """Rows step^k(xs), k = 0..depth, of the step built from numpy."""
    step = make_step(*params, (np.sin, np.sqrt, np.arctan2, np.maximum))
    rows = [xs]
    for _ in range(depth):
        rows.append(step(rows[-1]))
    return np.array(rows)


_KERNEL_MAPS = [(_ref.poncelet_orbit, _ref.poncelet_step, params)
                for params in [(1.0, 0.3, 0.2), (1.0, 0.0, 0.5),
                               (2.0, 0.7, 0.9), (1.0, 0.2, 0.8)]] + [
    (_ref.arnold_orbit, _ref.arnold_step, params)
    for params in [(0.3, 0.8), (0.51, 0.9)]]


def test_ref_one_point_table_iterates_the_scalar_step():
    # a one-point table's rows are the math build's g iterated, to the bit
    for orbit, make_step, params in _KERNEL_MAPS:
        g = make_step(*params)
        for x in (0.0, 0.1, 0.375, -0.7, 1.9):
            column = [x]
            for _ in range(20):
                column.append(g(column[-1]))
            tab = orbit(np.array([x]), 20, *params)
            assert tab.shape == (21, 1)
            assert tab[:, 0].tobytes() == np.array(column).tobytes()


def test_ref_table_of_two_or_more_points_runs_numpys_step():
    # every table wider than one point has the numpy build's bits; the
    # math build differs from it in the last bit at some of these points
    xs = np.linspace(0.0, 1.0, 16, endpoint=False)
    for orbit, make_step, params in _KERNEL_MAPS:
        for width in range(2, 17):
            assert orbit(xs[:width], 20, *params).tobytes() \
                == _numpy_table(make_step, params, xs[:width], 20).tobytes()


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
    assert _ref._pair(R, c, t)[0] == 0.0
    rng = np.random.default_rng(320)
    xs = np.array(_EDGE_XS + rng.uniform(-1e6, 1e6, 248).tolist()
                  + rng.uniform(-2.0, 2.0, 248).tolist())
    general = _general_poncelet_step(R, c, t, _ref.SCALAR)
    rotation = _ref.poncelet_step(R, c, t)
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
        assert _hexes(_ref.poncelet_step(R, c, t, _NUMPY)(xs)) \
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
                except ValueError:  # the table's fallback to numpy
                    rows = [part]
                    for _ in range(4):
                        rows.append(general_np(rows[-1]))
                table = _ref.poncelet_orbit(part, 4, R, c, t)
                assert _hexes(table) == _hexes(rows), (width, start)


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_concentric_step_at_infinity_raises_or_gives_nan(x):
    # math raises on sin(inf), so a one-point orbit falls back to numpy,
    # which gives nan with the general step's warning
    for R, c, t in ((1.0, 0.0, 0.5), (1e300, 1e-30, 0.0)):
        with pytest.raises(ValueError):
            _ref.poncelet_step(R, c, t)(x)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(_ref.poncelet_step(R, c, t, _NUMPY)(x))
        with np.errstate(invalid="ignore"):
            assert np.isnan(_ref.poncelet_orbit([x], 3, R, c, t)[1:]).all()


def test_kernel_step_commutes_with_integer_shift():
    xs = np.array([0.13, 0.52, 0.99])
    a = kernels.poncelet_advance(xs, 7, 1.0, 0.3, 0.4)
    b = kernels.poncelet_advance(xs + 3.0, 7, 1.0, 0.3, 0.4)
    np.testing.assert_allclose(b - a, 3.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("a", [-0.0, 0.0, math.nan, math.inf, -math.inf,
                               1e-300, -1e-300])
def test_scalar_clamp_is_the_builtin_max(a):
    # the narrow step's clamp keeps max's value and sign of zero, and nan
    clamp = _ref.SCALAR[3](a, 0.0)
    expected = max(a, 0.0)
    if math.isnan(expected):
        assert math.isnan(clamp)
    else:
        assert clamp == expected
        assert math.copysign(1.0, clamp) == math.copysign(1.0, expected)


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
        tab[3], kernels.poncelet_advance(xs, 3, 1.0, 0.2, 0.3),
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
    with pytest.raises(ValueError):
        g.advance(0.1, -1)
    with pytest.raises(TypeError):
        g.advance(0.1, 2.5)
    for width in (1, 20):
        with pytest.raises(ValueError):
            g.orbit_table(np.full(width, 0.1), -1)
        with pytest.raises(TypeError):
            g.orbit_table(np.full(width, 0.1), 2.0)
    # numpy integers are step counts too
    assert g.advance(0.1, np.int64(2)) == g.advance(0.1, 2)
    assert g.orbit_table([0.1], np.int32(2)).shape == (3, 1)


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


@pytest.mark.parametrize("g", _every_lift()[1:4],
                         ids=["arnold", "poncelet", "tangency"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_advance_of_a_non_finite_float_is_nan(g, x):
    # math raises on inf; the table's numpy step gives nan instead
    with np.errstate(invalid="ignore"):
        assert math.isnan(g.advance(x, 3))
    assert g.advance(x, 0) == x or math.isnan(x)


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_function_lift_passes_its_callables_error_through(x):
    # the table runs the callable itself, so its error passes through
    g = FunctionLift(lambda x: x + 0.2 + 0.05 * math.sin(2.0 * math.pi * x))
    with pytest.raises(ValueError, match="math domain error"):
        g.advance(x, 3)
    assert g.advance(x, 0) == x


# ------------------------------------------------------------------- lifts

def test_rigid_lift_is_exact():
    g = RigidLift(0.3176)
    assert g.advance(0.0, 1000) == pytest.approx(317.6, abs=1e-9)
    tab = g.orbit_table(np.array([0.0, 0.5]), 3)
    np.testing.assert_allclose(tab[:, 0], [0.0, 0.3176, 0.6352, 0.9528])


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


@pytest.mark.parametrize("samples", [0, -1])
def test_validate_needs_a_sample(samples):
    with pytest.raises(ValueError) as err:
        RigidLift(0.3).validate(samples)
    assert str(err.value) == f"sample count must be at least 1, got {samples}"


def test_function_lift_accepts_valid_map():
    g = FunctionLift(lambda x: x + 0.2 + 0.05 * math.sin(2.0 * math.pi * x))
    assert g.advance(0.1, 2) == pytest.approx(g(g(0.1)), abs=1e-15)
