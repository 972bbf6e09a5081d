"""Value scaling, weighted scoring, practicality correction, ranking."""

import pytest

from dtn_tradesim.decision import (
    DecisionRow,
    DecisionTable,
    SwingWeights,
    build_table,
    mavf_score,
    practicality_correction,
    rank,
    value_linear,
)
from dtn_tradesim.routing import ProtocolKind

B, D, Q = ProtocolKind.BUNDLE, ProtocolKind.DISTANCE_DIJKSTRA, ProtocolKind.QUALITY_DIJKSTRA

# Worked reference case: five-run study means per protocol.
PE_MEANS = {B: 56.440, D: 64.200, Q: 41.040}
TT_MEANS = {B: 3.120, D: 1.189, Q: 1.820}


def test_value_linear_anchors():
    assert value_linear(64.200, 64.200, 41.040) == 0.0
    assert value_linear(41.040, 64.200, 41.040) == 1.0


def test_value_linear_reference_values():
    assert value_linear(56.440, 64.200, 41.040) == pytest.approx(0.33506, abs=1e-3)
    assert value_linear(1.820, 3.120, 1.189) == pytest.approx(0.672774, abs=1e-3)


def test_value_linear_degenerate_scale():
    with pytest.raises(ValueError):
        value_linear(1.0, 2.0, 2.0)


def test_mavf_score_reference():
    w = SwingWeights()
    assert mavf_score(0.33506, 0.0, w) == pytest.approx(0.279217, abs=1e-3)
    assert mavf_score(0.0, 1.0, w) == pytest.approx(0.166667, abs=1e-3)
    assert mavf_score(1.0, 0.672774, w) == pytest.approx(0.945462, abs=1e-3)


def test_mavf_score_rejects_bad_weights():
    with pytest.raises(ValueError):
        mavf_score(0.5, 0.5, SwingWeights(percent_error=-1.0))
    with pytest.raises(ValueError):
        mavf_score(0.5, 0.5, SwingWeights(percent_error=0.0, transmission_time=0.0))


def test_mavf_weight_rescaling_invariance():
    small = SwingWeights(percent_error=5.0, transmission_time=1.0)
    large = SwingWeights(percent_error=500.0, transmission_time=100.0)
    for v_pe, v_tt in [(0.0, 0.0), (1.0, 0.3), (0.42, 0.87)]:
        assert mavf_score(v_pe, v_tt, small) == pytest.approx(
            mavf_score(v_pe, v_tt, large), rel=1e-12
        )


def test_mavf_stays_in_unit_interval_and_monotone():
    w = SwingWeights()
    last = -1.0
    for v in (0.0, 0.25, 0.5, 0.75, 1.0):
        score = mavf_score(v, 0.4, w)
        assert 0.0 <= score <= 1.0
        assert score > last
        last = score


def test_build_table_reference_case():
    table = build_table(PE_MEANS, TT_MEANS)
    want = {
        B: (0.33506, 0.0, 0.279217),
        D: (0.0, 1.0, 0.166667),
        Q: (1.0, 0.672774, 0.945462),
    }
    assert list(table.rows) == [B, D, Q]
    for p, row in table.rows.items():
        v_pe, v_tt, mavf = want[p]
        assert row.v_percent_error == pytest.approx(v_pe, abs=1e-3)
        assert row.v_transmission_time == pytest.approx(v_tt, abs=1e-3)
        assert row.mavf == pytest.approx(mavf, abs=1e-3)


def test_build_table_tied_metric_scores_one():
    table = build_table(PE_MEANS, {B: 1.5, D: 1.5, Q: 1.5})
    assert [row.v_transmission_time for row in table.rows.values()] == [1.0, 1.0, 1.0]
    assert table.row(Q).v_percent_error == 1.0
    assert table.row(D).v_percent_error == 0.0


def test_build_table_requires_matching_protocol_sets():
    with pytest.raises(ValueError):
        build_table({B: 1.0}, {B: 1.0, D: 2.0})
    with pytest.raises(ValueError):
        build_table({}, {})


def test_practicality_correction_reference_case():
    corrected = practicality_correction(build_table(PE_MEANS, TT_MEANS), baseline=B)
    # distance is less reliable than the baseline, so its speed credit drops.
    assert corrected.row(D).v_transmission_time == 0.0
    assert corrected.row(D).mavf == pytest.approx(0.0, abs=1e-3)
    # quality beats the baseline on reliability and keeps its score.
    assert corrected.row(Q).mavf == pytest.approx(0.945462, abs=1e-3)
    assert corrected.row(B).mavf == pytest.approx(0.279217, abs=1e-3)


def test_practicality_correction_spares_equal_reliability():
    pe = {B: 50.0, D: 50.0, Q: 40.0}
    tt = {B: 3.0, D: 1.0, Q: 2.0}
    corrected = practicality_correction(build_table(pe, tt), baseline=B)
    assert corrected.row(D).v_transmission_time == 1.0  # equal, not worse


def test_practicality_correction_baseline_defaults_to_bundle():
    # Each baseline zeroes a different set of speed credits here.
    table = build_table({B: 50.0, D: 60.0, Q: 40.0}, {B: 2.0, D: 1.0, Q: 3.0})
    corrected = practicality_correction(table)
    assert corrected == practicality_correction(table, baseline=B)
    assert [r.v_transmission_time for r in corrected.rows.values()] == [0.5, 0.0, 0.0]
    for other in (D, Q):
        assert corrected != practicality_correction(table, baseline=other)


def test_practicality_correction_other_baseline():
    corrected = practicality_correction(build_table(PE_MEANS, TT_MEANS), baseline=Q)
    assert corrected.row(B).v_transmission_time == 0.0
    assert corrected.row(D).v_transmission_time == 0.0
    assert corrected.row(Q).mavf == pytest.approx(0.945462, abs=1e-3)


def test_rank_reference_case():
    table = build_table(PE_MEANS, TT_MEANS)
    corrected = practicality_correction(table, baseline=B)
    assert rank(corrected) == [Q, B, D]
    # Raw scores rank the same way for this case.
    assert rank(table) == [Q, B, D]


def test_rank_tie_prefers_lower_percent_error():
    w = SwingWeights()
    rows = {
        B: DecisionRow(percent_error_mean=60.0, transmission_time_mean=1.0,
                       v_percent_error=0.5, v_transmission_time=0.5, mavf=0.5),
        D: DecisionRow(percent_error_mean=55.0, transmission_time_mean=2.0,
                       v_percent_error=0.5, v_transmission_time=0.5, mavf=0.5),
    }
    assert rank(DecisionTable(rows=rows, weights=w)) == [D, B]
