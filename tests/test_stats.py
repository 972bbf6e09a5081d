"""Summary stats, the hand-rolled t tail, and Welch tests against references."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as scipy_special

from dtn_tradesim.routing import ProtocolKind
from dtn_tradesim.stats import (
    NO_TEST_REASONS,
    StudySummary,
    SummaryStats,
    regularized_incomplete_beta,
    no_test_reason,
    significance_matrix,
    student_t_upper_tail,
    summarize,
    welch_t,
)

B, D, Q = ProtocolKind.BUNDLE, ProtocolKind.DISTANCE_DIJKSTRA, ProtocolKind.QUALITY_DIJKSTRA

# Reference five-run study rows (mean, sample std, n) used as worked examples.
PE_REF = {B: SummaryStats(56.440, 7.410, 5), D: SummaryStats(64.200, 4.864, 5), Q: SummaryStats(41.040, 4.498, 5)}
TT_REF = {B: SummaryStats(3.120, 0.684, 5), D: SummaryStats(1.189, 0.004, 5), Q: SummaryStats(1.820, 0.280, 5)}


def test_summarize_basic_example():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.std == pytest.approx(1.0)
    assert s.n == 3
    assert s.sem == pytest.approx(1.0 / math.sqrt(3))


def test_summarize_constant_sample():
    # binary-exact constant, so the spread comes out exactly zero
    s = summarize([4.25] * 10)
    assert s.mean == 4.25
    assert s.std == 0.0


def test_summarize_one_value_has_nan_std():
    s = summarize([2.5])
    assert (s.mean, s.n) == (2.5, 1)
    assert math.isnan(s.std) and math.isnan(s.sem)


def test_summarize_requires_a_value():
    with pytest.raises(ValueError):
        summarize([])


def test_sem_reference_value():
    # std 0.994 over 500 samples reads 0.0445 at four decimals.
    s = SummaryStats(mean=3.0, std=0.994, n=500)
    assert round(s.sem, 4) == 0.0445


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_incomplete_beta_symmetry():
    for a, b, x in [(2.0, 0.5, 0.3), (4.5, 4.5, 0.77), (0.5, 9.0, 0.02), (3.0, 2.0, 0.6)]:
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


def test_incomplete_beta_against_library():
    for a in (0.5, 1.0, 2.0, 2.5, 10.0, 50.0):
        for b in (0.5, 1.5, 3.0, 20.0):
            for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                mine = regularized_incomplete_beta(a, b, x)
                ref = float(scipy_special.betainc(a, b, x))
                assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)


def _t_pdf(x: float, df: float) -> float:
    return (
        math.gamma((df + 1) / 2)
        / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        * (1 + x * x / df) ** (-(df + 1) / 2)
    )


def test_t_tail_matches_numeric_integration():
    # Independent oracle: quadrature of the density, no beta function involved.
    for t in (0.0, 0.3, 0.5, 1.0, 2.0, 3.0, 6.31, 10.0):
        for df in (1.0, 2.0, 3.0, 4.0, 4.5, 7.0, 10.0, 30.0):
            mine = student_t_upper_tail(t, df)
            ref, err = integrate.quad(_t_pdf, t, math.inf, args=(df,))
            assert abs(mine - ref) < 1e-6
    assert student_t_upper_tail(-2.0, 5.0) == pytest.approx(
        1.0 - student_t_upper_tail(2.0, 5.0)
    )


def test_welch_reference_time_comparisons():
    r = welch_t(TT_REF[B], TT_REF[D])
    assert r.t == pytest.approx(6.3125, abs=1e-3)
    assert r.df == pytest.approx(4.0003, abs=1e-3)
    assert abs(r.p - 0.00170) / 0.00170 < 0.10
    assert r.significant

    r = welch_t(TT_REF[B], TT_REF[Q])
    assert abs(r.p - 0.00500) / 0.00500 < 0.10
    assert r.significant

    r = welch_t(TT_REF[D], TT_REF[Q])
    assert r.t < 0 and r.significant


def test_welch_reference_percent_error_comparisons():
    assert welch_t(PE_REF[B], PE_REF[Q]).significant
    assert welch_t(PE_REF[D], PE_REF[Q]).significant


def test_welch_equal_summaries():
    s = SummaryStats(10.0, 2.0, 8)
    r = welch_t(s, s)
    assert r.t == 0.0
    assert r.p == pytest.approx(0.5)
    assert not r.significant


def is_nan_cell(r):
    return math.isnan(r.t) and math.isnan(r.df) and math.isnan(r.p) and not r.significant


def test_welch_degenerate_variances_are_nan():
    s1, s2 = SummaryStats(1.0, 0.0, 5), SummaryStats(2.0, 0.0, 5)
    assert no_test_reason(s1, s2) == "both variances are zero"
    assert is_nan_cell(welch_t(s1, s2))


def test_welch_without_two_samples_each_is_nan():
    s1, s2 = SummaryStats(1.0, 0.5, 1), SummaryStats(2.0, 0.5, 5)
    for a, b in [(s1, s2), (s2, s1), (s1, s1)]:
        assert no_test_reason(a, b) == "a sample has fewer than 2 values"
        assert is_nan_cell(welch_t(a, b))


# Every SummaryStats of n 1, 2, 5; std 0, 1, inf, NaN; mean 0, inf, NaN.
GRID = [
    SummaryStats(mean, std, n)
    for n in (1, 2, 5)
    for std in (0.0, 1.0, math.inf, math.nan)
    for mean in (0.0, math.inf, math.nan)
]


def test_welch_is_nan_exactly_where_no_test_reason_names_one():
    seen = set()
    for s1, s2 in itertools.product(GRID, repeat=2):
        reason = no_test_reason(s1, s2)
        seen.add(reason)
        # The first reason that holds, in NO_TEST_REASONS order.
        holds = [
            min(s1.n, s2.n) < 2,
            s1.std == 0.0 and s2.std == 0.0,
            not all(math.isfinite(v) for v in (s1.mean, s1.std, s2.mean, s2.std)),
        ]
        want = next((r for r, h in zip(NO_TEST_REASONS, holds) if h), None)
        assert reason == want, (s1, s2)
        r = welch_t(s1, s2)
        if reason is None:
            assert math.isfinite(r.t) and math.isfinite(r.df) and 0.0 < r.p <= 0.5
        else:
            assert is_nan_cell(r), (s1, s2)
    assert seen == {None, *NO_TEST_REASONS}


def test_welch_antisymmetry_and_bounds():
    r = np.random.default_rng(17)
    for _ in range(200):
        n1, n2 = int(r.integers(2, 30)), int(r.integers(2, 30))
        s1 = SummaryStats(float(r.normal(0, 5)), float(r.uniform(0.1, 3)), n1)
        s2 = SummaryStats(float(r.normal(0, 5)), float(r.uniform(0.1, 3)), n2)
        ab = welch_t(s1, s2)
        ba = welch_t(s2, s1)
        assert ab.t == pytest.approx(-ba.t, rel=1e-12)
        assert ab.df == pytest.approx(ba.df, rel=1e-12)
        assert ab.p == pytest.approx(ba.p, rel=1e-9)
        assert min(n1, n2) - 1 <= ab.df + 1e-9
        assert ab.df <= n1 + n2 - 2 + 1e-9
        assert 0.0 < ab.p <= 0.5


def test_welch_scale_invariance():
    s1 = SummaryStats(3.2, 0.7, 6)
    s2 = SummaryStats(2.1, 0.4, 9)
    base = welch_t(s1, s2)
    # Past 1e50 and below 1e-50 the stds' fourth powers would leave the
    # float range, so welch_t rescales them first.
    for c in (0.001, 42.0, 1e6, 1e-170, 1e-80, 1e80, 1e150):
        scaled = welch_t(
            SummaryStats(s1.mean * c, s1.std * c, s1.n),
            SummaryStats(s2.mean * c, s2.std * c, s2.n),
        )
        assert scaled.t == pytest.approx(base.t, rel=1e-9)
        assert scaled.df == pytest.approx(base.df, rel=1e-9)
        assert scaled.p == pytest.approx(base.p, rel=1e-9)


@pytest.mark.parametrize(
    "s1", [SummaryStats(1e300, math.inf, 3), SummaryStats(math.inf, math.nan, 3)]
)
def test_welch_without_finite_sample_is_nan(s1):
    assert is_nan_cell(welch_t(s1, SummaryStats(2.0, 0.5, 3)))


def test_student_t_tail_rejects_nan_df():
    with pytest.raises(ValueError, match="degrees of freedom"):
        student_t_upper_tail(1.0, math.nan)


def test_significance_matrix_zero_variance_cells_are_nan(caplog):
    flat = SummaryStats(0.0, 0.0, 5)
    study = StudySummary(percent_error={B: flat, D: flat, Q: PE_REF[Q]}, transmission_time=TT_REF)
    pe = significance_matrix(study)["percent_error"]
    for pair in [(B, D), (D, B)]:
        assert is_nan_cell(pe[pair])
    assert pe[(B, Q)] == welch_t(flat, PE_REF[Q])
    assert pe[(Q, B)] == welch_t(PE_REF[Q], flat)
    assert pe[(Q, D)] == welch_t(PE_REF[Q], flat)
    # The manifest names such cells; nothing is logged.
    assert caplog.records == []


def test_significance_matrix_reference_pattern():
    study = StudySummary(percent_error=PE_REF, transmission_time=TT_REF)
    tests = significance_matrix(study)

    tt = tests["transmission_time"]
    assert all(tt[pair].significant for pair in [(B, D), (B, Q), (D, Q)])

    pe = tests["percent_error"]
    assert pe[(B, Q)].significant
    assert pe[(D, Q)].significant

    for metric, entries in tests.items():
        cells = getattr(study, metric)
        assert len(entries) == 6
        for a in ProtocolKind:
            assert (a, a) not in entries
            for b in ProtocolKind:
                if a is b:
                    continue
                assert entries[(b, a)] == welch_t(cells[b], cells[a])
                assert entries[(a, b)].t == -entries[(b, a)].t
                assert entries[(a, b)].p == entries[(b, a)].p
