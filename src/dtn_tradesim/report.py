"""Report bundle writer: raw packet data, aggregate tables, manifest.

Every table cell in the aggregate outputs can be recomputed from the raw
per-packet and network files in the same bundle.  Output is deterministic:
same config and seed give byte-identical files, so nothing here emits
timestamps.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import tempfile
from collections.abc import Collection, Iterable
from dataclasses import fields
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .config import StudyConfig, config_hash, config_lines
from .network import GROUND_ID, PROBE_ID, NodeKind
from .routing import ProtocolKind, Route
from .simulation import PROTOCOL_ORDER, PacketState
from .stats import NO_TEST_REASONS, PROTOCOL_PAIRS, no_test_reason
from .study import StudyReport

# Column names, then the rows: one value tuple per row, in column order.
Table = tuple[list[str], Iterable[tuple]]

# Rows encoded per chunk: big enough that per-chunk costs vanish, small enough
# that one chunk's encoded text stays well under a megabyte.
_CHUNK_ROWS = 2000

# Float repr text that JSON spells differently (NaN is written as null).
_JSON_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}

# Bool text, the same in CSV and JSON.
_BOOL_TEXT = {False: "false", True: "true"}

# A str cell holding one of these would need CSV quoting.
_CSV_QUOTED = re.compile('[,"\r\n]')


def _check_text(distinct: Collection[str]) -> None:
    """Raise ValueError unless every string is non-empty and needs no CSV quoting."""
    if "" in distinct or _CSV_QUOTED.search("".join(distinct)):
        bad = next(s for s in distinct if not s or _CSV_QUOTED.search(s))
        raise ValueError(f"table text {bad!r} is empty or holds a character CSV quotes")


def _column_type(cells: tuple) -> type | None:
    """The exact type every cell shares, or None for a mixed column."""
    kinds = set(map(type, cells))
    return kinds.pop() if len(kinds) == 1 else None


def _encode_column(cells: tuple, kind: type | None, want_json: bool):
    """(CSV text, JSON text) of one column's cells; the JSON text is None if not wanted.

    kind is _column_type(cells), one of four types.  A float is written as
    its repr, with NaN and +-inf respelled for JSON, and the two formats
    share the rest.  An int is its repr and a bool is true/false, the same
    text in both formats, encoded once per distinct value.  A str must pass
    _check_text; CSV writes it as is and JSON escapes it to ASCII, once per
    distinct value.  Any other column (mixed, None, numpy scalars) raises
    TypeError.
    """
    if kind is float:
        csv_text = list(map(float.__repr__, cells))
        return csv_text, list(map(_JSON_FLOATS.get, csv_text, csv_text)) if want_json else None
    if kind is str:
        distinct = set(cells)
        _check_text(distinct)
        if not want_json:
            return cells, None
        text = dict(zip(distinct, map(encode_basestring_ascii, distinct)))
        return cells, list(map(text.__getitem__, cells))
    if kind is int:  # ids, mostly: few distinct values per chunk
        text = {v: int.__repr__(v) for v in set(cells)}
    elif kind is bool:
        text = _BOOL_TEXT
    else:
        raise TypeError(f"table column of {getattr(kind, '__name__', 'mixed')} cells")
    csv_text = list(map(text.__getitem__, cells))
    return csv_text, csv_text


def _lay_out(layout: list, texts: list) -> list[str]:
    """layout once per row, its None slots filled in turn by each column's text."""
    width = len(layout)
    flat = layout * len(texts[0])
    slots = [k for k, piece in enumerate(layout) if piece is None]
    for slot, text in zip(slots, texts):
        flat[slot::width] = text
    return flat


def route_text(route: Route) -> str:
    return "-".join(str(node) for node in route)


def _write_table(
    out_dir: str, name: str, columns: list[str], rows: Iterable[tuple], fmt: str
) -> list[str]:
    """Write one logical table as CSV, JSON, or both; returns file names.

    The bytes are those of csv.writer over each row (floats as repr, bools
    as true/false), which quotes no cell here, and of json.dump(indent=2)
    over one object per row with NaN as null.  Column names must pass
    _check_text, and each column the type rules of _encode_column, with
    one cell type for the whole table; a table that breaks them raises and
    leaves what it wrote so far (write_report writes into a staging
    directory).  rows is consumed once, _CHUNK_ROWS at a time, so of a
    table built lazily only one chunk is held.  Each chunk is transposed
    and encoded column by column, so a float or int cell is turned into
    text once for both formats; each file's chunk is then its rows laid out
    between constant separators and written with one join.
    """
    _check_text(columns)
    want_csv, want_json = fmt in ("csv", "both"), fmt in ("json", "both")
    written = [f"{name}.{ext}" for ext in ("csv", "json") if fmt in (ext, "both")]
    with contextlib.ExitStack() as stack:
        if want_csv:
            path = os.path.join(out_dir, f"{name}.csv")
            csv_fh = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
            csv_fh.write(",".join(columns) + "\n")
            csv_layout = [None, ","] * (len(columns) - 1) + [None, "\n"]
        if want_json:
            path = os.path.join(out_dir, f"{name}.json")
            json_fh = stack.enter_context(open(path, "w", encoding="utf-8"))
            keys = [f"    {encode_basestring_ascii(c)}: " for c in columns]
            # Each row begins with the separator from the row before it.
            json_layout = [",\n  {\n" + keys[0]]
            for key in keys[1:]:
                json_layout += [None, ",\n" + key]
            json_layout += [None, "\n  }"]
        table_kinds = None  # each column's cell type, fixed by the first chunk
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            cells = list(zip(*chunk))
            kinds = list(map(_column_type, cells))
            if table_kinds not in (None, kinds):
                raise TypeError(f"a column of table {name!r} changes cell type between chunks")
            csv_texts, json_texts = zip(*map(_encode_column, cells, kinds, repeat(want_json)))
            if want_csv:
                csv_fh.write("".join(_lay_out(csv_layout, csv_texts)))
            if want_json:
                flat = _lay_out(json_layout, json_texts)
                if table_kinds is None:
                    flat[0] = "[" + flat[0][1:]
                json_fh.write("".join(flat))
            table_kinds = kinds
            # Drop this chunk before the next is cut.
            chunk = cells = csv_texts = json_texts = flat = None
        if want_json:
            json_fh.write("[]\n" if table_kinds is None else "\n]\n")
    return written


def _packet_rows(report: StudyReport) -> Table:
    """Every copy of every packet, built from each run's outcome columns.

    Rows go packet by packet and, within a packet, in PROTOCOL_ORDER, as
    RunResult.records gives them.
    """
    columns = ["run", "packet", "protocol", "state", "transmission_time_hr", "route"]
    text = functools.cache(route_text)  # each distinct route rendered once
    names = [p.value for p in PROTOCOL_ORDER]
    states = (PacketState.INTACT.value, PacketState.DAMAGED.value)  # by damage flag

    def run_rows(i, run):
        packets = run.times_hr.shape[1]
        # Each column packet by packet, a packet's copies in PROTOCOL_ORDER.
        return zip(
            repeat(i),
            np.arange(packets).repeat(len(names)).tolist(),
            names * packets,
            map(states.__getitem__, run.damaged.T.ravel().tolist()),
            run.times_hr.T.ravel().tolist(),
            map(text, chain.from_iterable(zip(*run.routes))),
        )

    return columns, chain.from_iterable(map(run_rows, count(), report.runs))


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

    The manifest's header lines (tool version, seed, config hash) and its
    [config] block are written from report.config.

    Every file is written into a staging directory inside out_dir first, so
    a write that raises leaves out_dir as it was.  Then the old manifest is
    removed, the tables are moved in, table files that the old manifest
    lists and this bundle does not write are removed (files no manifest
    listed are left alone), and the new manifest is moved in last.
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
    # The cells without a Welch test, grouped by the reason stats gives.
    untested: dict[str, list[str]] = {reason: [] for reason in NO_TEST_REASONS}
    for metric, a, b, _ in _ttest_cells(report):
        cells = getattr(report.study_summary, metric)
        if reason := no_test_reason(cells[a], cells[b]):
            untested[reason].append(f"{metric} {a.value}/{b.value}")
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".staging-") as staging:
        files: list[str] = []
        for name, build in tables:
            files += _write_table(staging, name, *build(report), config.format)
        with open(os.path.join(staging, "manifest.txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(f"dtn-tradesim {__version__}\n")
            fh.write(f"seed={config.seed}\n")
            fh.write(f"config_hash={config_hash(config)}\n")
            fh.write("ranking=" + ">".join(p.value for p in report.ranking) + "\n")
            for reason, named in untested.items():
                if named:
                    fh.write(f"ttests=NaN where {reason}: " + ", ".join(named) + "\n")
            fh.write("[config]\n")
            for line in config_lines(config):
                fh.write(line + "\n")
            fh.write("[files]\n")
            for name in files:
                fh.write(name + "\n")
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest)
        for name in files:
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
        # Only bare table file names, so nothing outside out_dir is touched.
        for name in set(old_files).difference(files):
            if name.endswith((".csv", ".json")) and os.path.basename(name) == name:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(out_dir, name))
        os.replace(os.path.join(staging, "manifest.txt"), manifest)
    files.append("manifest.txt")
    return files
