"""Continued fractions with exact integer convergents, the Gauss map, the
Fibonacci-reciprocal constant, and the excess/defect approximation-pair
machinery built on them.

Floating inputs are expanded through the exact rational value of the
float; the expansion stops as soon as an ulp-sized interval around the
input no longer determines the next partial quotient, so every emitted
quotient is certified.
The arithmetic runs on integer pairs (Euclid's algorithm expands and
walks the Gauss orbit; the gap check is one integer inequality), and the
records are `NamedTuple` classes.
"""

import math
import numbers
import operator
from fractions import Fraction
from typing import List, NamedTuple, Tuple


class PrecisionExhaustedError(ValueError):
    """The floating residual cannot certify the next partial quotient."""


def fibonacci_reciprocal_sum(tol):
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


class ContinuedFractionExpansion(NamedTuple):
    """len() counts the quotients a1, a2, ...: `_make`, `_replace` fail."""

    a0: int
    quotients: List[int]                 # a1, a2, ... (all >= 1)
    convergents: List[Tuple[int, int]]   # (p_n, q_n), n = 0 .. len(quotients)
    exact: bool                          # expansion terminates at the input

    def __len__(self):
        return len(self.quotients)

    def convergent(self, n):
        """p_n / q_n as a Fraction (n = 0 gives a0)."""
        p, q = self.convergents[n]
        return Fraction(p, q)


def _convergents(a0, quotients):
    out = [(1, 0), (a0, 1)]   # (p_{-1}, q_{-1}), (p_0, q_0)
    for a in quotients:
        (p0, q0), (p1, q1) = out[-2:]
        out.append((a * p1 + p0, a * q1 + q0))
    return out[1:]


def _expand_interval(lo: Fraction, hi: Fraction):
    """Common continued-fraction prefix of every number in [lo, hi]:
    Euclid's algorithm on lo = ln/ld and hi = hn/hd at once."""
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    a0 = ln // ld
    if hn // hd != a0:
        raise PrecisionExhaustedError("integer part not determined")
    quotients = []
    ln, hn = ln % ld, hn % hd
    while ln and hn:
        # floors of 1/hi (the new lo) and 1/lo (the new hi)
        a = hd // hn
        if ld // ln != a:
            break
        quotients.append(a)
        ln, ld, hn, hd = hd - a * hn, hn, ld - a * ln, ln
    return a0, quotients


def cf_expand(x):
    """Continued-fraction expansion with exact integer convergents.

    Every exact rational (a `numbers.Rational`: a Fraction, an int, a
    numpy integer) expands exactly, to the end, as the zero-width interval
    [x, x]; floats are treated as centers of an interval of +- SLACK_ULPS
    ulps and the expansion is truncated at the last quotient the whole
    interval agrees on.  `exact` means the last convergent equals x.
    """
    if isinstance(x, numbers.Rational):
        # on Python ints: a numpy integer's own arithmetic can wrap
        value, slack = Fraction(int(x.numerator), int(x.denominator)), 0
    elif not math.isfinite(x):
        raise ValueError(f"cannot expand the non-finite value {x}")
    else:
        # as_integer_ratio, unlike Fraction(), takes numpy's narrower floats
        value = Fraction(*x.as_integer_ratio())
        slack = Fraction(math.ulp(float(x))) * SLACK_ULPS
    a0, quotients = _expand_interval(value - slack, value + slack)
    convergents = _convergents(a0, quotients)
    p, q = convergents[-1]
    return ContinuedFractionExpansion(
        a0=a0, quotients=quotients, convergents=convergents,
        exact=Fraction(p, q) == value)


class RemainderRecord(NamedTuple):
    n: int
    log_qn: float
    gauss_sum: float

    @property
    def remainder(self):
        return -self.log_qn - self.gauss_sum

    @property
    def within_bound(self):
        return abs(self.remainder) <= FIB_RECIP


def remainder_series(exp, n_max):
    """Records of R(n, x) = -log q_n - sum_{i<n} log T^i(x), n = 1..n_max,
    for the expansion exp of x.

    The denominators q_n come from the exact integer convergents; the
    Gauss-orbit values are gauss_map's exact orbit of the last convergent,
    taken only as far as the records go, so no forward error accumulates.
    For non-exact expansions that orbit is the truncated tail, and the last
    TAIL_BUFFER indices are dropped (their tails are not trustworthy).
    T(num/den) = (den mod num)/num; num/den rounds as float(Fraction) does.
    A non-integer n_max raises TypeError, whatever the expansion's length.
    """
    n_max = operator.index(n_max)
    N = len(exp)
    usable = N if exp.exact else max(0, N - TAIL_BUFFER)
    p, den = exp.convergents[N]
    num = p - exp.a0 * den   # T^0 = num/den; T^i is nonzero for i < N
    records = []
    gauss_sum = 0.0
    for n in range(1, min(n_max, usable) + 1):
        gauss_sum += math.log(num / den)
        num, den = den % num, num
        log_qn = math.log(exp.convergents[n][1])
        records.append(RemainderRecord(n=n, log_qn=log_qn,
                                       gauss_sum=gauss_sum))
    return records


def k_epsilon(eps):
    """Gap constant (1 - eps) / (e^{2F} (1 + (1 + eps) e^{2F})^2), F =
    FIB_RECIP."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return (1.0 - eps) / (E2F * (1.0 + (1.0 + eps) * E2F) ** 2)


def second_order_bound(m):
    """m^2 / (e^{2F} (1 + e^{2F})^2), F = FIB_RECIP; the eps -> 0 limit of
    k_epsilon."""
    return m * m / (E2F * (1.0 + E2F) ** 2)


class ApproximationPair(NamedTuple):
    excess: Fraction
    defect: Fraction
    index: int              # n with ratio q_{n+1}/q_n inside the window
    gap_ok: bool            # excess - defect >= K_eps (1/q + 1/q')^2, exact

    @property
    def ratio(self):
        """The larger denominator over the smaller: q_{n+1}/q_n, n >= 1."""
        q, q2 = sorted((self.excess.denominator, self.defect.denominator))
        return q2 / q


def check_gap_inequality(excess: Fraction, defect: Fraction, eps):
    """Exact check of the gap inequality for one pair, multiplied through
    by k_den q^2 q'^2 (K_eps = k_num/k_den; q, q' the denominators)."""
    k_num, k_den = k_epsilon(eps).as_integer_ratio()
    q, q2 = excess.denominator, defect.denominator
    gap_qq2 = excess.numerator * q2 - defect.numerator * q   # gap * q q'
    return gap_qq2 * q * q2 * k_den >= k_num * (q + q2) ** 2


def find_balanced_pairs(exp, eps, n_max=30):
    """Excess/defect convergent pairs n of the expansion exp, n <= n_max,
    whose denominator ratio falls in the window (2 e^{-2F} / (1+eps),
    2 e^{2F} / (1-eps)).

    Orientation follows convergent parity: odd-index truncations of a
    number in (0, 1) over-approximate, even-index ones under-approximate.
    An empty result is valid for a finite expansion horizon.  A
    non-integer n_max raises TypeError, whatever the expansion's length.
    """
    n_max = operator.index(n_max)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    window_lo = 2.0 * math.exp(-2.0 * FIB_RECIP) / (1.0 + eps)
    window_hi = 2.0 * E2F / (1.0 - eps)
    pairs = []
    for n in range(1, min(n_max, len(exp) - 1) + 1):
        _, q_n = exp.convergents[n]
        _, q_n1 = exp.convergents[n + 1]
        if not window_lo < q_n1 / q_n < window_hi:
            continue
        excess, defect = exp.convergent(n), exp.convergent(n + 1)
        if n % 2 == 0:
            excess, defect = defect, excess
        pairs.append(ApproximationPair(
            excess=excess, defect=defect, index=n,
            gap_ok=check_gap_inequality(excess, defect, eps)))
    return pairs
