"""Continued fractions, the Gauss map, the Fibonacci-reciprocal constant,
remainder records, and the excess/defect approximation pairs."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet import confrac
from poncelet.confrac import (
    E2F,
    FIB_RECIP,
    SLACK_ULPS,
    PrecisionExhaustedError,
    _expand_interval,
    cf_expand,
    check_gap_inequality,
    fibonacci_reciprocal_sum,
    find_balanced_pairs,
    gauss_map,
    k_epsilon,
    remainder_series,
    second_order_bound,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------- expansion

def test_pi_approximation_expands_finitely():
    exp = cf_expand(Fraction(355, 113))
    assert exp.a0 == 3
    assert exp.quotients == [7, 16]
    assert exp.convergents == [(3, 1), (22, 7), (355, 113)]
    assert exp.exact


def test_golden_float_expands_to_ones():
    exp = cf_expand(GOLDEN)
    assert exp.a0 == 0
    assert len(exp) >= 30
    assert all(a == 1 for a in exp.quotients)
    assert not exp.exact
    # denominators are the Fibonacci numbers
    qs = [q for _, q in exp.convergents]
    assert qs[:7] == [1, 1, 2, 3, 5, 8, 13]
    assert qs[10] == 89


def test_convergents_alternate_around_the_value():
    x = Fraction(2136, 1751)
    exp = cf_expand(x)
    for n in range(1, len(exp) + 1):
        c = exp.convergent(n)
        if n == len(exp):
            assert c == x
        elif n % 2 == 1:
            assert c > x
        else:
            assert c < x


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=10))
def test_determinant_identity(x):
    exp = cf_expand(x)
    cs = exp.convergents
    for (p1, q1), (p2, q2) in zip(cs, cs[1:]):
        assert abs(p2 * q1 - p1 * q2) == 1


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
def test_float_expansion_prefix_matches_exact_value(x):
    # every certified quotient agrees with the exact expansion of the float
    try:
        exp = cf_expand(x)
    except PrecisionExhaustedError:
        # inputs within a few ulps of a rational with tiny denominator
        # legitimately refuse to certify anything
        return
    exact = cf_expand(Fraction(x))
    assert exp.a0 == exact.a0
    assert exact.quotients[: len(exp)] == exp.quotients


def test_exact_input_expands_to_the_end():
    # F_70 / F_71 has 70 partial quotients, all 1 but the last (2)
    x = Fraction(308061521170129, 498454011879264)
    exp = cf_expand(x)
    assert len(exp) == 70
    assert exp.quotients == [1] * 69 + [2]
    assert exp.exact
    assert exp.convergent(len(exp)) == x
    assert len(remainder_series(exp, n_max=100)) == 70


def test_interval_guard_trips_on_ill_conditioned_input():
    # a float whose ulp interval straddles an integer cannot even fix a0
    with pytest.raises(PrecisionExhaustedError):
        cf_expand(1.0 - 1e-17)


@pytest.mark.parametrize("x", [np.int64(3), np.int64(-7), np.uint8(5)],
                         ids=repr)
def test_numpy_integers_expand_as_their_ints(x):
    # every numbers.Rational expands exactly, as [x, x]; read as a float
    # +- SLACK_ULPS ulps, an integer's interval straddles it and not even
    # a0 is determined
    exp = cf_expand(x)
    assert exp == cf_expand(int(x))
    assert exp.exact and type(exp.a0) is int


def test_floats_keep_their_expansions():
    assert cf_expand(0.3) == (0, [3], [(0, 1), (1, 3)], False)
    golden = cf_expand(GOLDEN)
    assert (golden.a0, golden.quotients, golden.exact) == (0, [1] * 35, False)


@pytest.mark.parametrize("x", [np.float32(0.1), np.float16(0.1),
                               np.float32(GOLDEN), np.float64(0.3)], ids=repr)
def test_numpy_floats_expand_as_their_float_values(x):
    # Fraction() rejected numpy's float32 and float16 with a TypeError
    assert cf_expand(x) == cf_expand(float(x))


@pytest.mark.parametrize("x, a0, quotients", [
    (Decimal("1E+400"), 10**400, []),
    (Decimal("1E-400"), 0, [10**400]),
    (Decimal("0.1"), 0, [10]),
], ids=["1E+400", "1E-400", "0.1"])
def test_finite_decimals_expand_exactly(x, a0, quotients):
    # read as float(x) +- SLACK_ULPS ulps, 1E+400 overflowed to inf, 1E-400
    # underflowed to 0 and certified no a0, and 0.1 certified no quotient
    exp = cf_expand(x)
    assert (exp.a0, exp.quotients, exp.exact) == (a0, quotients, True)
    assert exp == cf_expand(Fraction(x))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, Decimal("NaN"),
                               Decimal("sNaN"), Decimal("Infinity"),
                               Decimal("-Infinity")],
                         ids=repr)
def test_non_finite_values_raise(x):
    with pytest.raises(ValueError, match="non-finite"):
        cf_expand(x)


# ---------------------------------------------------------------- gauss map

def test_gauss_map_exact_rational():
    assert gauss_map(Fraction(2, 5)) == Fraction(1, 2)
    assert gauss_map(Fraction(0)) == 0


@pytest.mark.parametrize("x", [Fraction(2, 5), Fraction(0), 0.4, 0.0])
def test_gauss_map_keeps_the_input_type(x):
    assert type(gauss_map(x)) is type(x)


def test_gauss_map_fixes_golden():
    assert gauss_map(GOLDEN) == pytest.approx(GOLDEN, abs=1e-15)


def test_gauss_map_rejects_out_of_range():
    with pytest.raises(ValueError):
        gauss_map(1.2)
    with pytest.raises(ValueError):
        gauss_map(Fraction(3, 2))


def test_gauss_map_is_cf_shift():
    x = Fraction(47, 300)
    assert cf_expand(gauss_map(x)).quotients == cf_expand(x).quotients[1:]


# ----------------------------------------------------- Fibonacci reciprocals

def test_fibonacci_reciprocal_partial_sum():
    # 1 + 1 + 1/2 + 1/3 + 1/5 + 1/8
    assert fibonacci_reciprocal_sum(0.124) == pytest.approx(
        3.1583333333333332, abs=1e-15
    )


def test_fibonacci_reciprocal_converged_value_is_stable():
    assert FIB_RECIP == fibonacci_reciprocal_sum(1e-15)
    # tightening tol only adds the dropped geometric tail, about 2e-15
    assert abs(fibonacci_reciprocal_sum(1e-18) - FIB_RECIP) < 5e-15


def test_fibonacci_reciprocal_partial_sums_increase():
    tols = [0.5, 0.2, 0.1, 0.01, 1e-4, 1e-8]
    sums = [fibonacci_reciprocal_sum(tol) for tol in tols]
    assert all(b > a for a, b in zip(sums, sums[1:]))


def test_fibonacci_reciprocal_rejects_bad_tol():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fibonacci_reciprocal_sum(tol)


# ------------------------------------------------------- remainder records

def test_golden_remainders():
    records = remainder_series(cf_expand(GOLDEN), n_max=10)
    assert len(records) == 10
    by_n = {r.n: r for r in records}
    assert by_n[10].log_qn == pytest.approx(math.log(89.0), abs=1e-12)
    assert all(r.within_bound for r in records)


def test_remainders_sit_in_the_tight_window():
    # -log q_n - log|q_{n-1} x - p_{n-1}| always lands in (0, log 2),
    # far inside the +-F bound
    rng = random.Random(12)
    for _ in range(30):
        records = remainder_series(cf_expand(rng.random()), n_max=20)
        assert records
        for r in records:
            assert -1e-9 < r.remainder < math.log(2.0) + 0.05


def _gauss_log_sums(x, n):
    """Partial sums of log T^i(x), i = 0 .. n - 1, with T = gauss_map."""
    sums, total = [], 0.0
    for _ in range(n):
        total += math.log(x)
        sums.append(total)
        x = gauss_map(x)
    return sums


def test_remainder_gauss_sum_is_cumulative():
    exp = cf_expand(GOLDEN)
    records = remainder_series(exp, n_max=8)
    reference = _gauss_log_sums(Fraction(GOLDEN), len(records))
    for r, partial in zip(records, reference):
        assert r.gauss_sum == pytest.approx(partial, abs=1e-9)
        assert r.remainder == pytest.approx(-r.log_qn - r.gauss_sum, abs=1e-12)


def test_remainders_of_a_long_fibonacci_ratio():
    # F_4999 / F_5000 has 4,998 partial quotients; its 25 records are the
    # log sums of the first 25 points of its exact Gauss orbit
    a, b = 1, 1
    for _ in range(4998):
        a, b = b, a + b
    x = Fraction(a, b)
    exp = cf_expand(x)
    assert exp.exact and len(exp) == 4998
    records = remainder_series(exp, n_max=25)
    assert [r.n for r in records] == list(range(1, 26))
    for r, partial in zip(records, _gauss_log_sums(x, 25)):
        assert r.gauss_sum == partial
        assert r.log_qn == math.log(exp.convergents[r.n][1])


def test_exact_input_uses_every_index():
    records = remainder_series(cf_expand(Fraction(355, 113)), n_max=10)
    assert [r.n for r in records] == [1, 2]


@pytest.mark.parametrize("x", [0.3, GOLDEN], ids=["one-quotient", "golden"])
@pytest.mark.parametrize("n_max", [2.5, 3.0, "3"], ids=repr)
def test_a_non_integer_n_max_raises_on_every_expansion(x, n_max):
    # 0.3's expansion has one quotient, so no range(n_max) ran and both
    # returned []; on the golden mean range() raised
    exp = cf_expand(x)
    with pytest.raises(TypeError):
        remainder_series(exp, n_max)
    with pytest.raises(TypeError):
        find_balanced_pairs(exp, 0.5, n_max=n_max)
    assert remainder_series(exp, np.int64(3)) == remainder_series(exp, 3)
    assert find_balanced_pairs(exp, 0.5, n_max=np.int64(3)) \
        == find_balanced_pairs(exp, 0.5, n_max=3)


# ------------------------------------------------------------ gap constants

def test_k_epsilon_monotone_decreasing():
    assert k_epsilon(0.1) > k_epsilon(0.2) > k_epsilon(0.5) > 0.0


def test_k_epsilon_below_its_limit():
    assert k_epsilon(0.5) < second_order_bound(1.0)


def test_k_epsilon_limit_is_second_order_bound():
    eps = 1e-9
    assert abs(k_epsilon(eps) - second_order_bound(1.0)) < 1e-12


def test_k_epsilon_rejects_out_of_range():
    for eps in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            k_epsilon(eps)


def test_second_order_bound_scales_with_margin_squared():
    assert second_order_bound(2.0) == pytest.approx(
        4.0 * second_order_bound(1.0), rel=1e-15
    )


# ------------------------------------------------------ approximation pairs

def test_golden_ratios_fall_in_the_window_at_every_index():
    exp = cf_expand(GOLDEN)
    pairs = find_balanced_pairs(exp, eps=0.5)
    assert len(pairs) == min(30, len(exp) - 1)
    for pair in pairs:
        assert pair.gap_ok


def test_pair_search_skips_a_ratio_above_the_window():
    # the window's top, 2 e^{2F} / (1 - eps), is about 3314 at eps = 0.5:
    # the quotient 5000 puts q_2 / q_1 = 5000.5 above it, and 3000 keeps
    # q_4 / q_3 (about 3000.3) inside
    assert 2.0 * E2F / (1.0 - 0.5) == pytest.approx(3314, abs=1)
    quotients = [2, 5000, 3, 3000, 2, 2]
    x = Fraction(0)
    for a in reversed(quotients):
        x = 1 / (a + x)
    exp = cf_expand(x)
    assert exp.quotients == quotients
    assert [pair.index for pair in find_balanced_pairs(exp, eps=0.5)] \
        == [2, 3, 4, 5]


def test_pairs_bracket_the_value():
    rng = random.Random(99)
    for _ in range(20):
        x = rng.random()
        for pair in find_balanced_pairs(cf_expand(x), eps=0.3):
            assert pair.defect <= Fraction(x) <= pair.excess


def test_gap_inequality_exact_arithmetic():
    assert check_gap_inequality(Fraction(2, 3), Fraction(3, 5), 0.5)
    # a gap far smaller than K_eps (1/q + 1/q')^2 must fail
    assert not check_gap_inequality(
        Fraction(10 ** 12 + 1, 3 * 10 ** 12), Fraction(1, 3), 0.5
    )


def test_pair_search_rejects_bad_eps():
    with pytest.raises(ValueError):
        find_balanced_pairs(cf_expand(GOLDEN), eps=1.5)


def test_pair_orientation_follows_parity():
    for pair in find_balanced_pairs(cf_expand(GOLDEN), eps=0.5):
        assert pair.excess > pair.defect


# ------------------------------------ integers against Fraction arithmetic
# The expansion, the Gauss orbit and the gap inequality run on integer
# pairs; these are the same algorithms on normalising Fraction operations,
# kept as the reference.

def fraction_expand_interval(lo, hi):
    a0 = math.floor(lo)
    if math.floor(hi) != a0:
        raise PrecisionExhaustedError("integer part not determined")
    quotients = []
    lo, hi = lo - a0, hi - a0
    while lo != 0 and hi != 0:
        lo, hi = 1 / hi, 1 / lo
        a_lo, a_hi = math.floor(lo), math.floor(hi)
        if a_lo != a_hi:
            break
        quotients.append(a_lo)
        lo, hi = lo - a_lo, hi - a_lo
    return a0, quotients


def fraction_remainder_series(exp, n_max):
    N = len(exp)
    usable = N if exp.exact else max(0, N - confrac.TAIL_BUFFER)
    tail = exp.convergent(N) - exp.a0
    records = []
    gauss_sum = 0.0
    for n in range(1, min(n_max, usable) + 1):
        gauss_sum += math.log(tail)
        tail = gauss_map(tail)
        log_qn = math.log(exp.convergents[n][1])
        records.append((n, log_qn, gauss_sum, -log_qn - gauss_sum))
    return records


def fraction_gap_inequality(excess, defect, eps):
    k = Fraction(confrac.k_epsilon(eps))
    return excess - defect >= k * (Fraction(1, excess.denominator)
                                   + Fraction(1, defect.denominator)) ** 2


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


# negative, subnormal, huge and integral floats, and everything between
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.5e-320, 1e-300, 1e308, -1e308, 1.7976931348623157e308,
     0.0, -0.0, 1.0, -3.0, 2.0 ** 52, 2.0 ** 53 + 2, 0.5, 1.0 - 1e-17])
RATIONALS = st.fractions() | st.fractions(max_denominator=50)


@settings(max_examples=300, deadline=None)
@given(FLOATS)
def test_float_interval_expands_as_with_fractions(x):
    value = Fraction(x)
    slack = Fraction(math.ulp(x)) * SLACK_ULPS
    lo, hi = value - slack, value + slack
    assert outcome(_expand_interval, lo, hi) == \
        outcome(fraction_expand_interval, lo, hi)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS)
def test_rational_interval_expands_as_with_fractions(lo, hi):
    assert outcome(_expand_interval, lo, hi) == \
        outcome(fraction_expand_interval, lo, hi)
    assert _expand_interval(lo, lo) == fraction_expand_interval(lo, lo)


def record_bits(records):
    return [(n, *map(float.hex, values)) for n, *values in records]


@settings(max_examples=200, deadline=None)
@given(FLOATS | RATIONALS, st.integers(min_value=1, max_value=60))
def test_remainder_records_match_the_fraction_orbit_bit_for_bit(x, n_max):
    try:
        exp = cf_expand(x)
    except PrecisionExhaustedError:
        return
    records = [(r.n, r.log_qn, r.gauss_sum, r.remainder)
               for r in remainder_series(exp, n_max=n_max)]
    assert record_bits(records) == \
        record_bits(fraction_remainder_series(exp, n_max))


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS,
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                 exclude_max=True))
def test_gap_inequality_matches_the_fraction_comparison(excess, defect, eps):
    assert check_gap_inequality(excess, defect, eps) == \
        fraction_gap_inequality(excess, defect, eps)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                 exclude_max=True))
def test_gap_inequality_of_the_convergent_pairs(x):
    try:
        exp = cf_expand(x)
    except PrecisionExhaustedError:
        return
    for n in range(1, len(exp)):
        excess, defect = exp.convergent(n), exp.convergent(n + 1)
        if n % 2 == 0:
            excess, defect = defect, excess
        for eps in (1e-9, 0.5, 1.0 - 1e-9):
            assert check_gap_inequality(excess, defect, eps) == \
                fraction_gap_inequality(excess, defect, eps)


# excess - defect == K (1/q + 1/q')^2 exactly: no K_eps of a float eps
# meets a gap exactly, so the test replaces it, with K itself and with the
# floats on either side of it
@pytest.mark.parametrize("k, excess, defect", [
    (0.25, Fraction(2), Fraction(1)),          # 1 = (1/4) 2^2
    (3 / 16, Fraction(1), Fraction(2, 3)),     # 1/3 = (3/16) (4/3)^2
    (3.0, Fraction(13), Fraction(1)),          # 12 = 3 * 2^2
])
def test_gap_inequality_holds_at_exact_equality(monkeypatch, k, excess,
                                                defect):
    for k_eps, holds in ((k, True), (math.nextafter(k, 0.0), True),
                         (math.nextafter(k, math.inf), False)):
        monkeypatch.setattr(confrac, "k_epsilon", lambda eps: k_eps)
        assert check_gap_inequality(excess, defect, 0.5) == holds
        assert fraction_gap_inequality(excess, defect, 0.5) == holds
