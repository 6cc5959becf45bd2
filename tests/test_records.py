"""The result records: immutable NamedTuple classes with the fields,
defaults and properties they had as frozen dataclasses."""

import math
from fractions import Fraction

import pytest

from poncelet.confrac import (ApproximationPair, ContinuedFractionExpansion,
                              RemainderRecord, cf_expand)
from poncelet.geometry import PonceletConfig
from poncelet.rotation import (CountReport, PonceletPair, RotationEstimate,
                               StaircaseResult)
from poncelet.twistfam import (ComparisonReport, MonotonicityReport,
                               SecondOrderReport)

ESTIMATE = RotationEstimate(((1, 2), (1, 2)), 64)  # the lock 1/2
FREE = RotationEstimate(((3, 10), (4, 13)), 100)  # no lock
STAIRCASE = StaircaseResult([(0.1, ESTIMATE)], "flat", [])
PAIR = ApproximationPair(Fraction(22, 7), Fraction(355, 113), 1, 16.1, True)
COUNT = CountReport([], 1, [(1, "no lock")])
MONOTONE = MonotonicityReport(STAIRCASE, [])
RECORDS = [
    PonceletConfig(1.0, 0.2, 0.3),
    cf_expand(Fraction(355, 113)),
    RemainderRecord(1, 0.0, -0.5, 0.5),
    PAIR,
    ESTIMATE,
    PonceletPair(0.5, 1, 1e-12),
    STAIRCASE,
    COUNT,
    ComparisonReport(ESTIMATE, ESTIMATE, 0.1, None, True, None),
    SecondOrderReport(0.4, FREE, 1e-9, 0.5),
    MONOTONE,
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(record).__name__ for record in RECORDS])
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dictionary either


def test_expansion_length_counts_quotients():
    for x in (Fraction(355, 113), Fraction(3), (math.sqrt(5.0) - 1.0) / 2.0):
        exp = cf_expand(x)
        assert isinstance(exp, ContinuedFractionExpansion)
        assert len(exp) == len(exp.quotients)
    assert len(cf_expand(Fraction(3))) == 0


def test_defaults_and_properties():
    assert PonceletConfig(2.0) == PonceletConfig(R=2.0, c=0.0, t=0.0)
    assert RotationEstimate._fields == ("bracket", "iterations")
    assert (ESTIMATE.value, ESTIMATE.error_radius, ESTIMATE.lock) \
        == (0.5, 0.0, (1, 2))
    # [3/10, 4/13]: midpoint 79/260 and half-width 1/260, each rounded once
    assert (FREE.value, FREE.error_radius, FREE.lock) == (79 / 260, 1 / 260,
                                                         None)
    report = SecondOrderReport(0.4, FREE, 0.5, 1.0)
    assert report.brackets == ()
    assert report.status == "no-brackets" and not report.passed
    report = report._replace(brackets=[(0.3, 0.5, 1.0)])
    assert report.status == "ok" and report.best_ratio == 1.0
    assert report.passed
    assert STAIRCASE.monotone_ok and MONOTONE.ok
    assert not COUNT.ok


@pytest.mark.parametrize("estimate", [ESTIMATE, FREE], ids=["locked", "free"])
@pytest.mark.parametrize("brackets",
                         [(), [(0.3, 0.5, 2.0), (0.35, 0.45, 3.0)]],
                         ids=["no-brackets", "brackets"])
@pytest.mark.parametrize("bound", [1.0, 3.0, 5.0],
                         ids=["below", "at", "above"])
def test_growth_verdicts_are_read_off_the_evidence(estimate, brackets, bound):
    # a growth report stores r(tau)'s estimate and the brackets; status,
    # best_ratio and passed are derived from them, so no report can say
    # "ok" without a bracket or carry a ratio that no bracket gave
    report = SecondOrderReport(0.4, estimate, bound, 0.5, brackets)
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
