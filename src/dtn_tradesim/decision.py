"""Swing-weighted value scoring and protocol ranking.

Both study metrics are lower-is-better, so each protocol's metric value is
rescaled linearly onto [0, 1] against the observed worst and best, then
folded into a single score by normalized swing weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .routing import ProtocolKind


@dataclass(frozen=True)
class SwingWeights:
    percent_error: float = 100.0
    transmission_time: float = 20.0

    @property
    def total(self) -> float:
        return self.percent_error + self.transmission_time


@dataclass(frozen=True)
class DecisionRow:
    """One protocol's metric means, attribute values and score (MAVF)."""

    percent_error_mean: float
    transmission_time_mean: float
    v_percent_error: float
    v_transmission_time: float
    mavf: float


@dataclass(frozen=True)
class DecisionTable:
    """The scored rows, keyed by protocol in ProtocolKind order, and the weights."""

    rows: dict[ProtocolKind, DecisionRow]
    weights: SwingWeights

    def row(self, protocol: ProtocolKind) -> DecisionRow:
        return self.rows[protocol]


def value_linear(x: float, worst: float, best: float) -> float:
    """Linear value of a lower-is-better metric: worst maps to 0, best to 1."""
    if worst == best:
        raise ValueError("degenerate scale: worst and best coincide")
    return (worst - x) / (worst - best)


def _value(x: float, worst: float, best: float) -> float:
    """value_linear, except that a metric on which all protocols tie scores 1.0."""
    return 1.0 if worst == best else value_linear(x, worst, best)


def mavf_score(
    v_percent_error: float, v_transmission_time: float, weights: SwingWeights
) -> float:
    """Weight-normalized aggregate of the two attribute values."""
    if weights.percent_error < 0 or weights.transmission_time < 0 or weights.total == 0:
        raise ValueError(f"weights must be non-negative and not all zero: {weights}")
    return (
        weights.percent_error * v_percent_error
        + weights.transmission_time * v_transmission_time
    ) / weights.total


def build_table(
    percent_error: dict[ProtocolKind, float],
    transmission_time: dict[ProtocolKind, float],
    weights: SwingWeights = SwingWeights(),
) -> DecisionTable:
    """Score every protocol against the observed metric ranges.

    Anchors are local: the worst and best observed mean per metric.  On a
    metric where every protocol has the same mean there is no scale, and
    every protocol scores 1.0 on it.
    """
    if set(percent_error) != set(transmission_time) or not percent_error:
        raise ValueError("metric maps must cover the same non-empty protocol set")
    pe_worst, pe_best = max(percent_error.values()), min(percent_error.values())
    tt_worst, tt_best = max(transmission_time.values()), min(transmission_time.values())
    rows = {}
    for p in ProtocolKind:
        if p not in percent_error:
            continue
        v_pe = _value(percent_error[p], pe_worst, pe_best)
        v_tt = _value(transmission_time[p], tt_worst, tt_best)
        rows[p] = DecisionRow(
            percent_error_mean=percent_error[p],
            transmission_time_mean=transmission_time[p],
            v_percent_error=v_pe,
            v_transmission_time=v_tt,
            mavf=mavf_score(v_pe, v_tt, weights),
        )
    return DecisionTable(rows=rows, weights=weights)


def practicality_correction(
    table: DecisionTable, baseline: ProtocolKind = ProtocolKind.BUNDLE
) -> DecisionTable:
    """Zero the speed credit of protocols less reliable than the baseline.

    The baseline is the incumbent bundle protocol unless one is given.  A
    protocol whose percent-error mean is worse than the baseline's loses
    its transmission-time value (set to 0) and has its score recomputed;
    the baseline itself and anything at least as reliable stay untouched.
    """
    base_pe = table.row(baseline).percent_error_mean
    rows = dict(table.rows)
    for p, r in table.rows.items():
        if p is not baseline and r.percent_error_mean > base_pe:
            rows[p] = replace(
                r, v_transmission_time=0.0, mavf=mavf_score(r.v_percent_error, 0.0, table.weights)
            )
    return DecisionTable(rows=rows, weights=table.weights)


def rank(table: DecisionTable) -> list[ProtocolKind]:
    """Protocols ordered by descending score; ties favor lower percent error."""
    rows = table.rows
    return sorted(rows, key=lambda p: (-rows[p].mavf, rows[p].percent_error_mean, p.value))
