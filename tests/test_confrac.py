"""Continued fractions, the Gauss map, the Fibonacci-reciprocal constant,
remainder records, and the excess/defect approximation pairs."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.confrac import (
    FIB_RECIP,
    PrecisionExhaustedError,
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
    assert exp.value == Fraction(355, 113)


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
    exp = cf_expand(Fraction(2136, 1751))
    x = exp.value
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
        assert pair.gap == pair.excess - pair.defect
