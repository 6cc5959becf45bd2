"""The result records: immutable NamedTuple classes that store only their
evidence, with every verdict read back off it as a property."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poncelet.confrac import (E2F, ApproximationPair,
                              ContinuedFractionExpansion,
                              PrecisionExhaustedError, RemainderRecord,
                              cf_expand, second_order_bound)
from poncelet.geometry import PonceletConfig
from poncelet.rotation import (CountReport, PonceletPair, RotationEstimate,
                               StaircaseResult)
from poncelet.twistfam import (ComparisonReport, MonotonicityReport,
                               SecondOrderReport)

ESTIMATE = RotationEstimate(((1, 2), (1, 2)), 64)  # the lock 1/2
FREE = RotationEstimate(((3, 10), (4, 13)), 100)  # no lock
STAIRCASE = StaircaseResult([(0.1, ESTIMATE)])
PAIR = ApproximationPair(Fraction(22, 7), Fraction(355, 113), 1, True)
COUNT = CountReport([], 1, [(1, "no lock")])
MONOTONE = MonotonicityReport(STAIRCASE)
#: Each record with the fields it stores: its evidence.  A name read off
#: the evidence is a property, so no record can hold a verdict that its
#: own fields contradict.
RECORDS = [
    (PonceletConfig(1.0, 0.2, 0.3), ("R", "c", "t")),
    (cf_expand(Fraction(355, 113)),
     ("a0", "quotients", "convergents", "exact")),
    (RemainderRecord(1, 0.0, -0.5), ("n", "log_qn", "gauss_sum")),
    (PAIR, ("excess", "defect", "index", "gap_ok")),
    (ESTIMATE, ("bracket", "iterations")),
    (PonceletPair(0.5, 1, 1e-12), ("t", "p", "closure_residual")),
    (STAIRCASE, ("points",)),
    (COUNT, ("pairs", "expected", "missing")),
    (ComparisonReport(ESTIMATE, ESTIMATE, 0.1), ("r1", "r2", "alpha")),
    (SecondOrderReport(0.4, FREE, 0.5),
     ("tau", "estimate", "margin", "brackets")),
    (MONOTONE, ("result",)),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record", [record for record, _ in RECORDS],
                         ids=IDS)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dictionary either


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_each_record_stores_only_its_evidence(record, fields):
    # a derived field that came back would show here
    assert record._fields == fields


def test_expansion_length_counts_quotients():
    for x in (Fraction(355, 113), Fraction(3), (math.sqrt(5.0) - 1.0) / 2.0):
        exp = cf_expand(x)
        assert isinstance(exp, ContinuedFractionExpansion)
        assert len(exp) == len(exp.quotients)
    assert len(cf_expand(Fraction(3))) == 0


def test_defaults_and_properties():
    assert PonceletConfig(2.0) == PonceletConfig(R=2.0, c=0.0, t=0.0)
    assert (ESTIMATE.value, ESTIMATE.error_radius, ESTIMATE.lock) \
        == (0.5, 0.0, (1, 2))
    # [3/10, 4/13]: midpoint 79/260 and half-width 1/260, each rounded once
    assert (FREE.value, FREE.error_radius, FREE.lock) == (79 / 260, 1 / 260,
                                                         None)
    assert PAIR.ratio == 113 / 7  # the larger denominator over the smaller
    assert PAIR._replace(excess=Fraction(3), defect=Fraction(22, 7)).ratio \
        == 7.0
    record = RemainderRecord(1, 0.25, -0.5)
    assert record.remainder == 0.25 and record.within_bound
    report = SecondOrderReport(0.4, FREE, 0.5)
    assert report.brackets == ()
    assert report.bound == second_order_bound(m=0.5)
    assert report.status == "no-brackets" and not report.passed
    report = report._replace(brackets=[(0.3, 0.5, 1.0)])
    assert report.status == "ok" and report.best_ratio == 1.0
    assert report.passed
    assert (STAIRCASE.direction, STAIRCASE.violations) == ("flat", [])
    assert STAIRCASE.monotone_ok and MONOTONE.ok
    assert MONOTONE.strict_violations == []
    comparison = ComparisonReport(ESTIMATE, ESTIMATE, 0.1)
    # 1/2 expands as [0; 2], whose one odd truncation 1/2 has q < 1/alpha
    assert comparison.excess is None and comparison.sandwich_ok is None
    assert comparison.weak_ok
    assert not COUNT.ok


def margin_for(bound):
    """A margin whose second-order bound is `bound`, to the bit."""
    margin = math.sqrt(bound * E2F * (1.0 + E2F) ** 2)
    assert second_order_bound(m=margin) == bound
    return margin


@pytest.mark.parametrize("estimate", [ESTIMATE, FREE], ids=["locked", "free"])
@pytest.mark.parametrize("brackets",
                         [(), [(0.3, 0.5, 2.0), (0.35, 0.45, 3.0)]],
                         ids=["no-brackets", "brackets"])
@pytest.mark.parametrize("bound", [1.0, 3.0, 5.0],
                         ids=["below", "at", "above"])
def test_growth_verdicts_are_read_off_the_evidence(estimate, brackets, bound):
    # a growth report stores r(tau)'s estimate, the margin and the
    # brackets; bound, status, best_ratio and passed are derived from them,
    # so no report can say "ok" without a bracket, carry a ratio that no
    # bracket gave or a bound that its margin does not give
    report = SecondOrderReport(0.4, estimate, margin_for(bound), brackets)
    assert report.bound == bound
    if estimate.lock is not None:
        assert report.status == "inapplicable"
    else:
        assert report.status == ("ok" if brackets else "no-brackets")
    if brackets:
        assert report.best_ratio == 3.0  # the largest quotient
    else:
        assert math.isnan(report.best_ratio)
    assert report.passed == (estimate is FREE and bool(brackets)
                             and bound <= 3.0)


# ------------------------------------------------- the builders' verdicts
# Reference copies of the verdicts as staircase, proposition1_check and
# comparison_check computed and stored them before the records derived
# them: each property must give the same bits.

def reference_staircase(points):
    r_first = points[0][1].value
    r_last = points[-1][1].value
    if r_last > r_first:
        sign, direction = 1.0, "increasing"
    elif r_last < r_first:
        sign, direction = -1.0, "decreasing"
    else:
        sign, direction = 0.0, "flat"

    violations = []
    for (t1, e1), (t2, e2) in zip(points, points[1:]):
        slack = 2.0 * (e1.error_radius + e2.error_radius) + 1e-12
        step = e2.value - e1.value
        defect = sign * step if sign else -abs(step)
        if defect < -slack:
            violations.append((t1, t2, float(defect)))
    return direction, violations


def reference_strict_violations(points, direction):
    sign = -1.0 if direction == "decreasing" else 1.0
    strict = []
    for (t1, e1), (t2, e2) in zip(points, points[1:]):
        heuristically_irrational = e1.lock is None or e2.lock is None
        if heuristically_irrational and not sign * (e2.value - e1.value) > 0:
            strict.append((t1, t2))
    return strict


def reference_comparison(r1, r2, alpha):
    slack = r1.error_radius + r2.error_radius
    weak_ok = r1.value <= r2.value + slack

    excess = None
    sandwich_ok = None
    try:
        convergents = cf_expand(r1.value).convergents
    except PrecisionExhaustedError:
        convergents = []
    for p, q in convergents[1::2]:
        if q > 1.0 / alpha:
            excess = (p, q)
            pq = p / q
            sandwich_ok = (r1.value - r1.error_radius < pq
                           <= r2.value + r2.error_radius)
            break
    return excess, weak_ok, sandwich_ok


# few small fractions, so that locks, integer locks and equal values (and
# with them flat ends) are common
FRACTIONS = st.builds(Fraction, st.integers(-2, 6), st.integers(1, 5))


@st.composite
def estimates(draw):
    """A lock p/q, or a bracket [lo, hi] that is at most 1/4 wide."""
    lo = draw(FRACTIONS)
    hi = lo
    if draw(st.booleans()):
        hi = lo + Fraction(1, draw(st.integers(4, 4096)))
    return RotationEstimate(((lo.numerator, lo.denominator),
                             (hi.numerator, hi.denominator)),
                            draw(st.integers(64, 4096)))


@st.composite
def staircases(draw):
    values = draw(st.lists(estimates(), min_size=1, max_size=8))
    return [(i / 8.0, est) for i, est in enumerate(values)]


@settings(max_examples=400, deadline=None)
@given(staircases())
def test_staircase_verdicts_match_the_builders(points):
    result = StaircaseResult(points)
    direction, violations = reference_staircase(points)
    assert result.direction == direction
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(result.violations) == repr(violations)
    assert result.monotone_ok == (not violations)
    report = MonotonicityReport(result)
    assert report.strict_violations \
        == reference_strict_violations(points, direction)


@settings(max_examples=400, deadline=None)
@given(estimates(), estimates(),
       st.floats(min_value=1e-6, max_value=2.0) | st.sampled_from([0.5, 1.0]))
def test_comparison_verdicts_match_the_builder(r1, r2, alpha):
    report = ComparisonReport(r1, r2, alpha)
    excess, weak_ok, sandwich_ok = reference_comparison(r1, r2, alpha)
    assert (report.excess, report.weak_ok, report.sandwich_ok) \
        == (excess, weak_ok, sandwich_ok)
