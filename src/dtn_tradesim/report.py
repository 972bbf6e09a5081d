"""Report bundle writer: raw packet data, aggregate tables, manifest.

Every table cell in the aggregate outputs can be recomputed from the raw
per-packet and network files in the same bundle.  Output is deterministic:
same config and seed give byte-identical files, so nothing here emits
timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import os

from .config import StudyConfig, config_lines
from .network import NetworkState
from .routing import ProtocolKind, Route
from .simulation import PacketState
from .stats import METRIC_NAMES
from .study import StudyReport

TTEST_HEADER = ["metric", "protocol_a", "protocol_b", "t", "df", "p", "significant"]


def _fmt(value: object) -> object:
    """CSV cell rendering: floats via shortest round-trip repr, bools lowercase."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def route_text(route: Route) -> str:
    return "-".join(str(node) for node in route)


def _write_table(
    out_dir: str,
    name: str,
    header: list[str],
    rows: list[dict[str, object]],
    fmt: str,
) -> list[str]:
    """Write one logical table as CSV, JSON, or both; returns file names."""
    written = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
        written.append(f"{name}.csv")
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{name}.json")
        clean = [
            {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in row.items()
            }
            for row in rows
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(clean, fh, indent=2)
            fh.write("\n")
        written.append(f"{name}.json")
    return written


def _packet_rows(report: StudyReport) -> list[dict[str, object]]:
    rows = []
    for i, run in enumerate(report.runs):
        for r in run.records:
            rows.append(
                {
                    "run": i,
                    "packet": r.packet_index,
                    "protocol": r.protocol.value,
                    "state": r.state.value,
                    "transmission_time_hr": r.transmission_time_hr,
                    "route": route_text(r.route),
                }
            )
    return rows


def _run_rows(report: StudyReport) -> list[dict[str, object]]:
    rows = []
    for i, run in enumerate(report.runs):
        for p in ProtocolKind:
            s = run.summaries[p]
            rows.append(
                {
                    "run": i,
                    "protocol": p.value,
                    "percent_error": s.percent_error,
                    "time_mean_hr": s.time_mean_hr,
                    "time_std_hr": s.time_std_hr,
                    "time_sem_hr": s.time_sem_hr,
                }
            )
    return rows


def _crm_rows(report: StudyReport) -> list[dict[str, object]]:
    rows = []
    for i, run in enumerate(report.runs):
        for p in ProtocolKind:
            for k, value in enumerate(run.summaries[p].crm_hr, start=1):
                rows.append(
                    {
                        "run": i,
                        "protocol": p.value,
                        "sample_index": k,
                        "crm_hr": float(value),
                    }
                )
    return rows


def _study_rows(report: StudyReport) -> list[dict[str, object]]:
    rows = []
    for metric in METRIC_NAMES:
        cells = report.study_summary.metric(metric)
        for p in ProtocolKind:
            s = cells[p]
            rows.append(
                {
                    "protocol": p.value,
                    "metric": metric,
                    "mean": s.mean,
                    "std": s.std,
                    "sem": s.sem,
                    "n": s.n,
                }
            )
    return rows


def _ttest_rows(report: StudyReport) -> list[dict[str, object]]:
    if report.ttests is None:
        return []
    rows = []
    protocols = list(ProtocolKind)
    for metric in METRIC_NAMES:
        entries = report.ttests[metric]
        for ai, a in enumerate(protocols):
            for b in protocols[ai + 1 :]:
                r = entries[(a, b)]
                rows.append(
                    {
                        "metric": metric,
                        "protocol_a": a.value,
                        "protocol_b": b.value,
                        "t": r.t,
                        "df": r.df,
                        "p": r.p,
                        "significant": r.significant,
                    }
                )
    return rows


def _decision_rows(report: StudyReport) -> list[dict[str, object]]:
    position = {p: k + 1 for k, p in enumerate(report.ranking)}
    rows = []
    for p in ProtocolKind:
        raw = report.decision_raw.row(p)
        corrected = report.decision_corrected.row(p)
        rows.append(
            {
                "protocol": p.value,
                "v_percent_error": raw.v_percent_error,
                "v_transmission_time": raw.v_transmission_time,
                "mavf": raw.mavf,
                "mavf_corrected": corrected.mavf,
                "rank": position[p],
            }
        )
    return rows


def _route_rows(report: StudyReport) -> list[dict[str, object]]:
    return [
        {
            "run": f.run_index,
            "protocol": f.protocol.value,
            "route": route_text(f.route),
            "frequency": f.frequency,
        }
        for f in report.frequent_routes
    ]


def _node_rows(network: NetworkState) -> list[dict[str, object]]:
    return [
        {"node_id": n.id, "kind": n.kind.value, "x_km": n.x, "y_km": n.y}
        for n in network.nodes
    ]


def _link_rows(network: NetworkState) -> list[dict[str, object]]:
    distance = network.default_distance.tolist()
    quality = network.default_quality.tolist()
    n = network.node_count
    return [
        {
            "node_a": a,
            "node_b": b,
            "default_distance_km": distance[a][b],
            "default_quality": quality[a][b],
        }
        for a in range(n)
        for b in range(a + 1, n)
    ]


def write_report(report: StudyReport) -> list[str]:
    """Write the full bundle into config.out_dir; returns written file names."""
    config: StudyConfig = report.config
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    fmt = config.format

    files: list[str] = []
    files += _write_table(
        out_dir,
        "packets",
        ["run", "packet", "protocol", "state", "transmission_time_hr", "route"],
        _packet_rows(report),
        fmt,
    )
    files += _write_table(
        out_dir,
        "runs",
        ["run", "protocol", "percent_error", "time_mean_hr", "time_std_hr", "time_sem_hr"],
        _run_rows(report),
        fmt,
    )
    files += _write_table(
        out_dir,
        "crm",
        ["run", "protocol", "sample_index", "crm_hr"],
        _crm_rows(report),
        fmt,
    )
    files += _write_table(
        out_dir,
        "study_summary",
        ["protocol", "metric", "mean", "std", "sem", "n"],
        _study_rows(report),
        fmt,
    )
    files += _write_table(out_dir, "ttest_matrix", TTEST_HEADER, _ttest_rows(report), fmt)
    files += _write_table(
        out_dir,
        "decision",
        ["protocol", "v_percent_error", "v_transmission_time", "mavf", "mavf_corrected", "rank"],
        _decision_rows(report),
        fmt,
    )
    files += _write_table(
        out_dir,
        "frequent_routes",
        ["run", "protocol", "route", "frequency"],
        _route_rows(report),
        fmt,
    )
    for i, run in enumerate(report.runs):
        files += _write_table(
            out_dir,
            f"network_nodes_run{i}",
            ["node_id", "kind", "x_km", "y_km"],
            _node_rows(run.network),
            fmt,
        )
        files += _write_table(
            out_dir,
            f"network_links_run{i}",
            ["node_a", "node_b", "default_distance_km", "default_quality"],
            _link_rows(run.network),
            fmt,
        )

    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"dtn-tradesim {report.provenance['tool_version']}\n")
        fh.write(f"seed={report.provenance['seed']}\n")
        fh.write(f"config_hash={report.provenance['config_hash']}\n")
        fh.write("ranking=" + ">".join(p.value for p in report.ranking) + "\n")
        if report.ttests is None:
            fh.write("ttests=skipped (run_count < 2)\n")
        fh.write("[config]\n")
        for line in config_lines(config):
            fh.write(line + "\n")
        fh.write("[files]\n")
        for name in files:
            fh.write(name + "\n")
    files.append("manifest.txt")
    return files
