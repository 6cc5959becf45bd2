"""Continued fractions with exact integer convergents, the Gauss map, the
Fibonacci-reciprocal constant, and the excess/defect approximation-pair
machinery built on them.

Floating inputs are expanded through the exact rational value of the
float; the expansion stops as soon as an ulp-sized interval around the
input no longer determines the next partial quotient, so every emitted
quotient is certified.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple


class PrecisionExhaustedError(ValueError):
    """The floating residual cannot certify the next partial quotient."""


def fibonacci_reciprocal_sum(tol=1e-15):
    """Sum of reciprocals of 1, 1, 2, 3, 5, 8, ... until the next term
    drops below tol."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    total = 0.0
    a, b = 1, 1
    while 1.0 / a >= tol:
        total += 1.0 / a
        a, b = b, a + b
    return total


#: Cached to 1e-15 at import; single source for every e^{2F} expression.
FIB_RECIP = fibonacci_reciprocal_sum(1e-15)
#: e^{2F}, F = FIB_RECIP.
E2F = math.exp(2.0 * FIB_RECIP)
#: Half-width, in ulps, of the interval a float input of cf_expand stands for.
SLACK_ULPS = 4
#: Indices remainder_series drops from the end of an inexact expansion.
TAIL_BUFFER = 5


def gauss_map(x):
    """T(x) = frac(1/x) on [0, 1), with T(0) = 0.  Exact on Fractions,
    float on floats."""
    if not 0 <= x < 1:
        raise ValueError("gauss_map needs x in [0, 1)")
    if x == 0:
        return x
    inv = 1 / x
    return inv - math.floor(inv)


@dataclass(frozen=True)
class ContinuedFractionExpansion:
    a0: int
    quotients: List[int]                 # a1, a2, ... (all >= 1)
    convergents: List[Tuple[int, int]]   # (p_n, q_n), n = 0 .. len(quotients)
    value: Fraction                      # exact value the input represents
    exact: bool                          # expansion terminates at the value

    def __len__(self):
        return len(self.quotients)

    def convergent(self, n):
        """p_n / q_n as a Fraction (n = 0 gives a0)."""
        p, q = self.convergents[n]
        return Fraction(p, q)

    def tails(self):
        """[0; a_{i+1}, a_{i+2}, ...] as Fractions, i = 0 .. len, from one
        backward pass; entry i equals T^i(frac(x)) exactly when the
        expansion is exact, and to within the truncation of the remaining
        quotients otherwise."""
        out = [Fraction(0)]
        for a in reversed(self.quotients):
            out.append(Fraction(1, a + out[-1]))
        return out[::-1]


def _convergents(a0, quotients):
    out = [(1, 0), (a0, 1)]   # (p_{-1}, q_{-1}), (p_0, q_0)
    for a in quotients:
        (p0, q0), (p1, q1) = out[-2:]
        out.append((a * p1 + p0, a * q1 + q0))
    return out[1:]


def _expand_interval(lo: Fraction, hi: Fraction):
    """Common continued-fraction prefix of every number in [lo, hi]."""
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


def cf_expand(x):
    """Continued-fraction expansion with exact integer convergents.

    Fractions (and ints) expand exactly, to the end, as the zero-width
    interval [x, x]; floats are treated as centers of an interval of
    +- SLACK_ULPS ulps and the expansion is truncated at the last quotient
    the whole interval agrees on.  `exact` means the last convergent
    equals x.
    """
    if isinstance(x, (Fraction, int)):
        value, slack = Fraction(x), 0
    elif not math.isfinite(x):
        raise ValueError(f"cannot expand the non-finite value {x}")
    else:
        value = Fraction(x)
        slack = Fraction(math.ulp(float(x))) * SLACK_ULPS
    a0, quotients = _expand_interval(value - slack, value + slack)
    convergents = _convergents(a0, quotients)
    p, q = convergents[-1]
    return ContinuedFractionExpansion(
        a0=a0, quotients=quotients, convergents=convergents,
        value=value, exact=Fraction(p, q) == value,
    )


@dataclass(frozen=True)
class RemainderRecord:
    n: int
    log_qn: float
    gauss_sum: float
    remainder: float

    @property
    def within_bound(self):
        return abs(self.remainder) <= FIB_RECIP


def remainder_series(exp, n_max=25):
    """Records of R(n, x) = -log q_n - sum_{i<n} log T^i(x), n = 1..n_max,
    for the expansion exp of x.

    The denominators q_n come from the exact integer convergents; the
    Gauss-orbit values come from exp.tails(), one backward pass, so no
    forward error accumulates.  For non-exact expansions the last
    TAIL_BUFFER indices are dropped (their tails are not trustworthy).
    """
    N = len(exp)
    usable = N if exp.exact else max(0, N - TAIL_BUFFER)
    tails = exp.tails()   # T^i(frac(x)), nonzero for i < N
    records = []
    gauss_sum = 0.0
    for n in range(1, min(n_max, usable) + 1):
        gauss_sum += math.log(tails[n - 1])
        _, q_n = exp.convergents[n]
        log_qn = math.log(q_n)
        records.append(RemainderRecord(
            n=n, log_qn=log_qn, gauss_sum=gauss_sum,
            remainder=-log_qn - gauss_sum,
        ))
    return records


def k_epsilon(eps):
    """Gap constant (1 - eps) / (e^{2F} (1 + (1 + eps) e^{2F})^2), F =
    FIB_RECIP."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return (1.0 - eps) / (E2F * (1.0 + (1.0 + eps) * E2F) ** 2)


def second_order_bound(m=1.0):
    """m^2 / (e^{2F} (1 + e^{2F})^2), F = FIB_RECIP; the eps -> 0 limit of
    k_epsilon."""
    return m * m / (E2F * (1.0 + E2F) ** 2)


@dataclass(frozen=True)
class ApproximationPair:
    excess: Fraction
    defect: Fraction
    index: int              # n with ratio q_{n+1}/q_n inside the window
    ratio: float
    gap_ok: bool            # excess - defect >= K_eps (1/q + 1/q')^2, exact

    @property
    def gap(self):
        return self.excess - self.defect


def check_gap_inequality(excess: Fraction, defect: Fraction, eps):
    """Exact-rational check of the gap inequality for one pair."""
    k = Fraction(k_epsilon(eps))
    lhs = excess - defect
    rhs = k * (Fraction(1, excess.denominator)
               + Fraction(1, defect.denominator)) ** 2
    return lhs >= rhs


def find_balanced_pairs(exp, eps, n_max=30):
    """Excess/defect convergent pairs n of the expansion exp, n <= n_max,
    whose denominator ratio falls in the window (2 e^{-2F} / (1+eps),
    2 e^{2F} / (1-eps)).

    Orientation follows convergent parity: odd-index truncations of a
    number in (0, 1) over-approximate, even-index ones under-approximate.
    An empty result is valid for a finite expansion horizon.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    window_lo = 2.0 * math.exp(-2.0 * FIB_RECIP) / (1.0 + eps)
    window_hi = 2.0 * E2F / (1.0 - eps)
    pairs = []
    for n in range(1, min(n_max, len(exp) - 1) + 1):
        _, q_n = exp.convergents[n]
        _, q_n1 = exp.convergents[n + 1]
        ratio = q_n1 / q_n
        if not window_lo < ratio < window_hi:
            continue
        c_n = exp.convergent(n)
        c_n1 = exp.convergent(n + 1)
        if n % 2 == 1:
            excess, defect = c_n, c_n1
        else:
            excess, defect = c_n1, c_n
        pairs.append(ApproximationPair(
            excess=excess, defect=defect, index=n,
            ratio=ratio, gap_ok=check_gap_inequality(excess, defect, eps),
        ))
    return pairs
