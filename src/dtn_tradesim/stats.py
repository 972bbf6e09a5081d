"""Sample summaries, Welch t-tests, and a Student-t tail via incomplete beta.

The t-distribution tail is computed from scratch (Lentz continued fraction
for the regularized incomplete beta) so results carry no library dependency
and can be cross-checked against direct numeric integration of the density.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .routing import ProtocolKind

_BETA_REL_TOL = 1e-10
_BETA_MAX_ITER = 500
_TINY = 1e-300

# One-tailed p below this marks a Welch test significant.
SIGNIFICANCE_LEVEL = 0.05

# Standard deviations whose fourth power stays well inside the float range;
# welch_t rescales larger or smaller ones (see there).
_PLAIN_STD = (1e-50, 1e50)


@dataclass(frozen=True)
class SummaryStats:
    """Mean, sample standard deviation (n-1 denominator), and sample count."""

    mean: float
    std: float
    n: int

    @property
    def sem(self) -> float:
        """Standard error of the mean: std / sqrt(n)."""
        return self.std / math.sqrt(self.n)


def summarize(samples) -> SummaryStats:
    """Summary statistics of a non-empty sample; one value has no spread (NaN std)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least 1 sample, got 0")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else math.nan
    return SummaryStats(mean=float(np.mean(arr)), std=std, n=int(arr.size))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # step m applies both coefficients in turn
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_REL_TOL:  # tested after the odd update
            return h
    raise RuntimeError(f"incomplete beta failed to converge for a={a} b={b} x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], to ~1e-10 relative accuracy."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be > 0, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the split
    # point; use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for T ~ Student's t with df degrees of freedom."""
    if not df > 0:  # NaN too
        raise ValueError(f"degrees of freedom must be > 0, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    half_two_sided = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return half_two_sided if t > 0 else 1.0 - half_two_sided


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float
    significant: bool


# Why two samples have no Welch test, checked in this order (no_test_reason).
NO_TEST_REASONS = (
    "a sample has fewer than 2 values",
    "both variances are zero",
    "a sample's mean or std is not finite",
)


def no_test_reason(s1: SummaryStats, s2: SummaryStats) -> str | None:
    """The first of NO_TEST_REASONS that holds for the two samples, or None."""
    if s1.n < 2 or s2.n < 2:
        return NO_TEST_REASONS[0]
    if s1.std == s2.std == 0.0:
        return NO_TEST_REASONS[1]
    if not all(map(math.isfinite, (s1.mean, s1.std, s2.mean, s2.std))):
        return NO_TEST_REASONS[2]
    return None


def welch_t(s1: SummaryStats, s2: SummaryStats) -> TTestResult:
    """Welch's unequal-variance t-test from summary statistics.

    t = (m1 - m2) / sqrt(s1^2/n1 + s2^2/n2); degrees of freedom follow
    Welch-Satterthwaite; p is the one-tailed probability beyond |t|, so the
    test reads in the direction of the observed difference.

    Two samples for which no_test_reason names a reason have no test: t,
    df and p are NaN and the cell is not significant.  t and df do not
    change when both samples are scaled alike, so when the larger std lies
    outside _PLAIN_STD, both are divided by it first and the squares stay
    finite (and, as not both are zero, their sum positive); inside it the
    scale is 1.0, which divides exactly.
    """
    if no_test_reason(s1, s2) is not None:
        return TTestResult(math.nan, math.nan, math.nan, False)
    larger = max(s1.std, s2.std)
    scale = 1.0 if _PLAIN_STD[0] <= larger <= _PLAIN_STD[1] else larger
    v1 = (s1.std / scale) ** 2 / s1.n
    v2 = (s2.std / scale) ** 2 / s2.n
    pooled = v1 + v2
    t = (s1.mean - s2.mean) / scale / math.sqrt(pooled)
    df = pooled**2 / (v1**2 / (s1.n - 1) + v2**2 / (s2.n - 1))
    p = student_t_upper_tail(abs(t), df)
    return TTestResult(t=t, df=df, p=p, significant=p < SIGNIFICANCE_LEVEL)


@dataclass(frozen=True)
class StudySummary:
    """Per-protocol summary stats of the per-run values, one field per metric."""

    percent_error: dict[ProtocolKind, SummaryStats]
    transmission_time: dict[ProtocolKind, SummaryStats]


# Each unordered protocol pair once, in the order the t-test table lists them.
PROTOCOL_PAIRS = tuple(itertools.combinations(ProtocolKind, 2))

PairwiseTests = dict[str, dict[tuple[ProtocolKind, ProtocolKind], TTestResult]]


def significance_matrix(study: StudySummary) -> PairwiseTests:
    """Welch tests for every ordered protocol pair on both metrics.

    Both orientations of each pair are present: the reverse cell negates t
    and keeps df and p, exactly as welch_t would give them.  A protocol is
    never tested against itself.  A pair with no test (no_test_reason) holds
    NaN for t, df and p and is not significant.
    """
    out: PairwiseTests = {}
    for metric in fields(study):
        cells = getattr(study, metric.name)
        entries: dict[tuple[ProtocolKind, ProtocolKind], TTestResult] = {}
        for a, b in PROTOCOL_PAIRS:
            result = welch_t(cells[a], cells[b])
            entries[(a, b)] = result
            entries[(b, a)] = replace(result, t=-result.t)
        out[metric.name] = entries
    return out
