"""Report bundle writer: raw packet data, aggregate tables, manifest.

Every table cell in the aggregate outputs can be recomputed from the raw
per-packet and network files in the same bundle.  Output is deterministic:
same config and seed give byte-identical files, so nothing here emits
timestamps.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
from collections.abc import Iterable
from dataclasses import fields
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import StudyConfig, config_lines
from .network import GROUND_ID, PROBE_ID, NodeKind
from .routing import ProtocolKind, Route
from .simulation import PacketState
from .stats import PROTOCOL_PAIRS
from .study import StudyReport

# Column names, then the rows: one value tuple per row, in column order.
Table = tuple[list[str], Iterable[tuple]]

# Rows encoded per chunk: big enough that per-chunk costs vanish, small enough
# that one chunk's encoded text stays well under a megabyte.
_CHUNK_ROWS = 2000

# Float repr text that JSON spells differently (NaN is written as null).
_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}

# Cell types that csv.writer itself writes as _csv_cell would: it writes a
# float by repr, and repr of a numpy float or str of a bool is not the cell.
_CSV_OWN_TYPES = {float, int, str}


def _csv_cell(value: object) -> object:
    """CSV cell rendering: floats via shortest round-trip repr, bools lowercase."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return value


def _json_cell(value: object) -> str:
    """JSON cell rendering: json.dumps, with NaN written as null."""
    if isinstance(value, float) and math.isnan(value):
        return "null"
    return json.dumps(value)


def _column_type(cells: tuple) -> type | None:
    """The exact type every cell shares, or None for a mixed column."""
    kinds = set(map(type, cells))
    return kinds.pop() if len(kinds) == 1 else None


def _json_column(cells: tuple):
    """One column's cells as JSON value text; a single map for a one-type column."""
    kind = _column_type(cells)
    if kind is float:
        text = list(map(float.__repr__, cells))
        return map(_JSON_FLOATS.get, text, text)
    if kind is int:
        return map(int.__repr__, cells)
    if kind is str:
        return map(encode_basestring_ascii, cells)
    return map(_json_cell, cells)


def route_text(route: Route) -> str:
    return "-".join(str(node) for node in route)


def _write_table(
    out_dir: str, name: str, columns: list[str], rows: Iterable[tuple], fmt: str
) -> list[str]:
    """Write one logical table as CSV, JSON, or both; returns file names.

    The bytes are those of csv.writer over _csv_cell of each cell, and of
    json.dump(indent=2) over one object per row with NaN as null.  rows is
    consumed once, _CHUNK_ROWS at a time, so of a table built lazily only one
    chunk is held.  A chunk whose cells all have one of _CSV_OWN_TYPES goes to
    csv.writer as it is; JSON transposes each chunk and encodes it column by
    column, so a column whose cells share one type is encoded by a single map.
    """
    written = [f"{name}.{ext}" for ext in ("csv", "json") if fmt in (ext, "both")]
    with contextlib.ExitStack() as stack:
        writer = json_fh = None
        if fmt in ("csv", "both"):
            path = os.path.join(out_dir, f"{name}.csv")
            fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
        if fmt in ("json", "both"):
            path = os.path.join(out_dir, f"{name}.json")
            json_fh = stack.enter_context(open(path, "w", encoding="utf-8"))
            keys = (encode_basestring_ascii(c).replace("%", "%%") for c in columns)
            row_text = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
        separator = "[\n"
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            if writer:
                if _CSV_OWN_TYPES.issuperset(map(type, chain.from_iterable(chunk))):
                    writer.writerows(chunk)
                else:
                    writer.writerows(map(_csv_cell, row) for row in chunk)
            if json_fh:
                json_fh.write(separator)
                by_column = map(_json_column, zip(*chunk))  # back to rows in the join
                json_fh.write(",\n".join(map(row_text.__mod__, zip(*by_column))))
                separator = ",\n"
            chunk = by_column = None  # drop this chunk before the next is cut
        if json_fh:
            json_fh.write("[]\n" if separator == "[\n" else "\n]\n")
    return written


def _packet_rows(report: StudyReport) -> Table:
    columns = ["run", "packet", "protocol", "state", "transmission_time_hr", "route"]
    text = functools.cache(route_text)  # each distinct route rendered once
    states = (PacketState.INTACT.value, PacketState.DAMAGED.value)  # by damage flag
    rows = (
        (i, k, p.value, states[d], t, text(route))
        for i, run in enumerate(report.runs)
        for k, p, t, d, route in run.outcomes()
    )
    return columns, rows


def _run_rows(report: StudyReport) -> Table:
    columns = [
        "run", "protocol", "percent_error", "time_mean_hr", "time_std_hr", "time_sem_hr"
    ]
    rows = []
    for i, run in enumerate(report.runs):
        for p in ProtocolKind:
            s = run.summaries[p]
            rows.append(
                (i, p.value, s.percent_error, s.time_mean_hr, s.time_std_hr, s.time_sem_hr)
            )
    return columns, rows


def _crm_rows(report: StudyReport) -> Table:
    columns = ["run", "protocol", "sample_index", "crm_hr"]
    rows = chain.from_iterable(
        zip(repeat(i), repeat(p.value), count(1), run.summaries[p].crm_hr.tolist())
        for i, run in enumerate(report.runs)
        for p in ProtocolKind
    )
    return columns, rows


def _study_rows(report: StudyReport) -> Table:
    columns = ["protocol", "metric", "mean", "std", "sem", "n"]
    rows = []
    for metric in fields(report.study_summary):
        cells = getattr(report.study_summary, metric.name)
        for p in ProtocolKind:
            s = cells[p]
            rows.append((p.value, metric.name, s.mean, s.std, s.sem, s.n))
    return columns, rows


def _ttest_cells(report: StudyReport):
    """(metric, a, b, result) for each unordered protocol pair, in table order."""
    if report.ttests is None:
        return
    for metric, entries in report.ttests.items():
        for a, b in PROTOCOL_PAIRS:
            yield metric, a, b, entries[(a, b)]


def _ttest_rows(report: StudyReport) -> Table:
    columns = ["metric", "protocol_a", "protocol_b", "t", "df", "p", "significant"]
    rows = [
        (metric, a.value, b.value, r.t, r.df, r.p, r.significant)
        for metric, a, b, r in _ttest_cells(report)
    ]
    return columns, rows


def _decision_rows(report: StudyReport) -> Table:
    columns = [
        "protocol", "v_percent_error", "v_transmission_time", "mavf", "mavf_corrected", "rank"
    ]
    position = {p: k + 1 for k, p in enumerate(report.ranking)}
    rows = []
    for p in ProtocolKind:
        raw = report.decision_raw.row(p)
        corrected = report.decision_corrected.row(p)
        rows.append(
            (
                p.value,
                raw.v_percent_error,
                raw.v_transmission_time,
                raw.mavf,
                corrected.mavf,
                position[p],
            )
        )
    return columns, rows


def _route_rows(report: StudyReport) -> Table:
    columns = ["run", "protocol", "route", "frequency"]
    rows = [
        (f.run_index, f.protocol.value, route_text(f.route), f.frequency)
        for f in report.frequent_routes
    ]
    return columns, rows


def _node_rows(report: StudyReport) -> Table:
    """Every run's nodes by id, one run's at a time."""
    columns = ["run", "node_id", "kind", "x_km", "y_km"]
    kinds = {PROBE_ID: NodeKind.PROBE, GROUND_ID: NodeKind.GROUND}
    rows = (
        (i, v, kinds.get(v, NodeKind.RELAY).value, x, y)
        for i, run in enumerate(report.runs)
        for v, (x, y) in enumerate(run.network.positions.tolist())
    )
    return columns, rows


def _link_rows(report: StudyReport) -> Table:
    """Every run's links in draw order (pairs a < b, row-major), one run's at a time."""
    columns = ["run", "node_a", "node_b", "default_distance_km", "default_quality"]
    rows = chain.from_iterable(
        zip(
            repeat(i),
            *np.argwhere(net.links).T.tolist(),  # node_a, node_b
            net.default_distance[net.links].tolist(),
            net.default_quality[net.links].tolist(),
        )
        for i, net in enumerate(run.network for run in report.runs)
    )
    return columns, rows


def write_report(report: StudyReport) -> list[str]:
    """Write the full bundle into config.out_dir; returns written file names.

    Table files that out_dir's old manifest lists and this bundle does not
    write are removed; files no manifest listed are left alone.
    """
    config: StudyConfig = report.config
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.txt")
    try:
        with open(manifest, encoding="utf-8", errors="replace") as fh:
            old_files = fh.read().partition("\n[files]\n")[2].splitlines()
    except FileNotFoundError:
        old_files = []

    # Each table is built just before it is written, and the large ones yield
    # their rows as the writer takes them, so no large table is held whole.
    tables = [
        ("packets", _packet_rows),
        ("runs", _run_rows),
        ("crm", _crm_rows),
        ("study_summary", _study_rows),
        ("ttest_matrix", _ttest_rows),
        ("decision", _decision_rows),
        ("frequent_routes", _route_rows),
        ("network_nodes", _node_rows),
        ("network_links", _link_rows),
    ]
    files: list[str] = []
    for name, build in tables:
        files += _write_table(out_dir, name, *build(report), config.format)

    degenerate = [
        f"{metric} {a.value}/{b.value}"
        for metric, a, b, r in _ttest_cells(report)
        if math.isnan(r.t)
    ]
    # Only bare table file names, so nothing outside out_dir is touched.
    for name in set(old_files).difference(files):
        if name.endswith((".csv", ".json")) and os.path.basename(name) == name:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"dtn-tradesim {report.provenance['tool_version']}\n")
        fh.write(f"seed={report.provenance['seed']}\n")
        fh.write(f"config_hash={report.provenance['config_hash']}\n")
        fh.write("ranking=" + ">".join(p.value for p in report.ranking) + "\n")
        if report.ttests is None:
            fh.write("ttests=skipped (run_count < 2)\n")
        if degenerate:
            fh.write("ttests=NaN where both variances are zero: ")
            fh.write(", ".join(degenerate) + "\n")
        fh.write("[config]\n")
        for line in config_lines(config):
            fh.write(line + "\n")
        fh.write("[files]\n")
        for name in files:
            fh.write(name + "\n")
    files.append("manifest.txt")
    return files
