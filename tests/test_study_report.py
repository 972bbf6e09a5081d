"""Study orchestration and report bundle: aggregation, files, determinism."""

import csv
import hashlib
import json
import logging
import math
import os
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dtn_tradesim.config import StudyConfig
from dtn_tradesim.report import _CHUNK_ROWS, _column_type, _write_table, write_report
from dtn_tradesim.routing import ProtocolKind
from dtn_tradesim.stats import PROTOCOL_PAIRS, SummaryStats, significance_matrix
from dtn_tradesim.study import run_seed, run_study

from helpers import reference_link_rows, reference_node_rows, reference_write_table


def small_config(**kw):
    defaults = dict(packet_count=30, run_count=2, relay_count=6, seed=11)
    defaults.update(kw)
    return StudyConfig(**defaults)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_seed_is_pure_function_of_master_and_index():
    a = run_seed(42, 3)
    b = run_seed(42, 3)
    assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
    assert np.random.default_rng(a).random() == np.random.default_rng(b).random()
    assert run_seed(42, 3).spawn_key != run_seed(42, 4).spawn_key


def test_run_study_structure(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "bundle"))
    report = run_study(cfg)
    assert len(report.runs) == cfg.run_count
    assert set(report.study_summary.percent_error) == set(ProtocolKind)
    assert report.ttests is not None
    assert set(report.ranking) == set(ProtocolKind)
    assert len(report.frequent_routes) == cfg.run_count
    for run, frequent in zip(report.runs, report.frequent_routes):
        assert list(frequent) == list(run.summaries) == list(ProtocolKind)
        for p, (route, frequency) in frequent.items():
            routes = run.routes[list(ProtocolKind).index(p)]
            assert routes.count(route) == frequency == max(map(routes.count, routes))
    write_report(report)
    header = (tmp_path / "bundle" / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert header[1] == f"seed={cfg.seed}"
    assert re.fullmatch("config_hash=[0-9a-f]{64}", header[2])


def test_run_study_deterministic():
    a = run_study(small_config())
    b = run_study(small_config())
    for p in ProtocolKind:
        assert a.study_summary.percent_error[p] == b.study_summary.percent_error[p]
        assert a.study_summary.transmission_time[p] == b.study_summary.transmission_time[p]
    assert a.ranking == b.ranking
    assert [r.records for r in a.runs] == [r.records for r in b.runs]


def test_study_means_equal_mean_of_run_values():
    report = run_study(small_config())
    for p in ProtocolKind:
        run_pe = [run.summaries[p].percent_error for run in report.runs]
        run_tt = [run.summaries[p].time_hr.mean for run in report.runs]
        assert report.study_summary.percent_error[p].mean == pytest.approx(
            sum(run_pe) / len(run_pe), rel=1e-12
        )
        assert report.study_summary.transmission_time[p].mean == pytest.approx(
            sum(run_tt) / len(run_tt), rel=1e-12
        )


def test_single_run_ttests_are_nan(caplog):
    report = run_study(small_config(run_count=1))
    for metric, entries in report.ttests.items():
        assert list(entries) == list(PROTOCOL_PAIRS), metric
        assert all(math.isnan(r.p) and not r.significant for r in entries.values())
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    for p in ProtocolKind:
        s = report.study_summary.percent_error[p]
        assert s.n == 1 and math.isnan(s.std)
    # the decision stage still works off the single-run means
    assert len(report.ranking) == len(ProtocolKind)


def expected_headers():
    return {
        "packets.csv": ["run", "packet", "protocol", "state", "transmission_time_hr", "route"],
        "runs.csv": ["run", "protocol", "percent_error", "time_mean_hr", "time_std_hr", "time_sem_hr"],
        "crm.csv": ["run", "protocol", "sample_index", "crm_hr"],
        "study_summary.csv": ["protocol", "metric", "mean", "std", "sem", "n"],
        "ttest_matrix.csv": ["metric", "protocol_a", "protocol_b", "t", "df", "p", "significant"],
        "decision.csv": ["protocol", "v_percent_error", "v_transmission_time", "mavf", "mavf_corrected", "rank"],
        "frequent_routes.csv": ["run", "protocol", "route", "frequency"],
        "network_nodes.csv": ["run", "node_id", "kind", "x_km", "y_km"],
        "network_links.csv": ["run", "node_a", "node_b", "default_distance_km", "default_quality"],
    }


def summary_text(samples):
    """(mean, std, sem) of a 1-D sample as table text; one sample has NaN spread."""
    n = len(samples)
    std = float(np.std(samples, ddof=1)) if n > 1 else math.nan
    return [repr(float(np.mean(samples))), repr(std), repr(std / math.sqrt(n))]


@pytest.mark.parametrize(
    "keys",
    [
        dict(relay_count=4, sigma_frac=0.6, run_count=3, packet_count=40),
        dict(relay_count=20, run_count=3, packet_count=40),
        dict(run_count=1, packet_count=1),
    ],
    ids=["4_relays_sigma_0.6", "20_relays", "one_packet"],
)
def test_aggregate_tables_recompute_from_packets_csv(keys, tmp_path):
    # The report's promise: every aggregate cell follows from the raw
    # per-packet rows, here with plain 1-D numpy calls and a Counter.
    write_report(run_study(StudyConfig(seed=3, out_dir=str(tmp_path), **keys)))
    times, damaged, routes = {}, {}, {}
    for run, _, protocol, state, time_hr, route in read_csv(tmp_path / "packets.csv")[1:]:
        key = (int(run), protocol)
        times.setdefault(key, []).append(float(time_hr))
        damaged.setdefault(key, []).append(state == "damaged")
        routes.setdefault(key, []).append(route)
    runs = range(keys["run_count"])
    names = [p.value for p in ProtocolKind]

    run_rows, crm_rows, route_rows = [], [], []
    per_run = {"percent_error": {}, "transmission_time": {}}
    for i in runs:
        for name in names:
            t = times[(i, name)]
            percent_error = 100.0 * sum(damaged[(i, name)]) / len(t)
            per_run["percent_error"].setdefault(name, []).append(percent_error)
            per_run["transmission_time"].setdefault(name, []).append(float(np.mean(t)))
            run_rows.append([str(i), name, repr(percent_error), *summary_text(t)])
            crm = (np.cumsum(t) / np.arange(1, len(t) + 1)).tolist()
            crm_rows += [[str(i), name, str(k), repr(c)] for k, c in enumerate(crm, 1)]
            [(route, frequency)] = Counter(routes[(i, name)]).most_common(1)
            route_rows.append([str(i), name, route, str(frequency)])
    study_rows = [
        [name, metric, *summary_text(values[name]), str(len(runs))]
        for metric, values in per_run.items()
        for name in names
    ]

    for table, rows in [
        ("runs", run_rows),
        ("crm", crm_rows),
        ("study_summary", study_rows),
        ("frequent_routes", route_rows),
    ]:
        assert read_csv(tmp_path / f"{table}.csv")[1:] == rows, table


def test_write_report_csv_bundle(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "bundle"))
    report = run_study(cfg)
    files = write_report(report)
    assert "manifest.txt" in files
    for name, header in expected_headers().items():
        path = os.path.join(cfg.out_dir, name)
        assert os.path.exists(path), name
        rows = read_csv(path)
        assert rows[0] == header

    packets = read_csv(os.path.join(cfg.out_dir, "packets.csv"))
    assert len(packets) - 1 == cfg.run_count * cfg.packet_count * len(ProtocolKind)
    route = packets[1][5]
    assert all(part.isdigit() for part in route.split("-"))

    crm = read_csv(os.path.join(cfg.out_dir, "crm.csv"))
    assert len(crm) - 1 == cfg.run_count * cfg.packet_count * len(ProtocolKind)

    ttests = read_csv(os.path.join(cfg.out_dir, "ttest_matrix.csv"))
    assert len(ttests) - 1 == 6  # 3 pairs x 2 metrics
    assert {row[6] for row in ttests[1:]} <= {"true", "false"}

    decision = read_csv(os.path.join(cfg.out_dir, "decision.csv"))
    ranks = sorted(int(row[5]) for row in decision[1:])
    assert ranks == [1, 2, 3]


def test_write_report_csv_only_emits_no_json(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "csvonly"), format="csv")
    write_report(run_study(cfg))
    names = os.listdir(cfg.out_dir)
    assert not [n for n in names if n.endswith(".json")]
    assert "manifest.txt" in names


def test_write_report_json_matches_csv_rows(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "both"), format="both")
    write_report(run_study(cfg))
    with open(os.path.join(cfg.out_dir, "packets.json"), encoding="utf-8") as fh:
        packets = json.load(fh)
    csv_rows = read_csv(os.path.join(cfg.out_dir, "packets.csv"))
    assert len(packets) == len(csv_rows) - 1
    assert packets[0]["protocol"] in {p.value for p in ProtocolKind}
    with open(os.path.join(cfg.out_dir, "decision.json"), encoding="utf-8") as fh:
        decision = json.load(fh)
    assert {row["protocol"] for row in decision} == {p.value for p in ProtocolKind}


# sha256 of packets.csv for relay_count=1, run_count=3, packet_count=200, seed=2,
# where run 0 places its relay farther from the ground than the probe.
DEGENERATE_PACKETS_SHA256 = "7ef8c4c31dc87f36fb89329a314fac9f6ab7ceb2ef85293c6c1a7e7276fca50a"


def test_degenerate_fallback_warns_at_most_once_per_run(tmp_path, caplog):
    # Every bundle packet of the degenerate run falls back to the direct hop;
    # the warning names the same node each time, so it is logged once.
    cfg = StudyConfig(
        relay_count=1, run_count=3, packet_count=200, seed=2, out_dir=str(tmp_path / "b")
    )
    with caplog.at_level(logging.WARNING, logger="dtn_tradesim.routing"):
        report = run_study(cfg)
    warned = [r for r in caplog.records if "degenerate topology" in r.getMessage()]
    assert 1 <= len(warned) <= cfg.run_count
    write_report(report)
    with open(os.path.join(cfg.out_dir, "packets.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DEGENERATE_PACKETS_SHA256


@pytest.mark.parametrize("run_count", [1, 2, 5])
def test_ttest_matrix_has_six_rows_at_any_run_count(tmp_path, run_count):
    cfg = small_config(run_count=run_count, packet_count=5, out_dir=str(tmp_path / "b"))
    write_report(run_study(cfg))
    rows = read_csv(os.path.join(cfg.out_dir, "ttest_matrix.csv"))
    assert len(rows) - 1 == 6  # 3 pairs x 2 metrics


def test_single_run_ttest_matrix_has_six_nan_rows(tmp_path):
    cfg = small_config(run_count=1, out_dir=str(tmp_path / "onerun"))
    write_report(run_study(cfg))
    rows = read_csv(os.path.join(cfg.out_dir, "ttest_matrix.csv"))
    assert len(rows) - 1 == 6
    assert all(row[3:] == ["nan", "nan", "nan", "false"] for row in rows[1:])
    with open(os.path.join(cfg.out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    named = ", ".join(f"{r[0]} {r[1]}/{r[2]}" for r in rows[1:])
    assert f"\nttests=NaN where a sample has fewer than 2 values: {named}\n" in manifest
    assert manifest.count("ttests=") == 1


def test_zero_variance_ttests_written_as_nan(tmp_path):
    # Beta(50, 0.01) links almost never damage a copy: 0% error in most runs.
    cfg = small_config(beta_a=50.0, beta_b=0.01, format="both", out_dir=str(tmp_path / "flat"))
    write_report(run_study(cfg))
    with open(os.path.join(cfg.out_dir, "ttest_matrix.json"), encoding="utf-8") as fh:
        nan_cells = [row for row in json.load(fh) if row["t"] is None]
    assert nan_cells
    assert all(row["df"] is None and row["p"] is None for row in nan_cells)
    assert not any(row["significant"] for row in nan_cells)
    named = ", ".join(f"{r['metric']} {r['protocol_a']}/{r['protocol_b']}" for r in nan_cells)
    with open(os.path.join(cfg.out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    assert f"\nttests=NaN where both variances are zero: {named}\n" in manifest


def test_non_finite_sample_ttests_named_apart_from_zero_variance(tmp_path):
    # Times so large that their variance overflows: the Welch tests of that
    # metric have no number, and the manifest says why.
    cfg = small_config(beta_a=50.0, beta_b=0.01, out_dir=str(tmp_path / "inf"))
    report = run_study(cfg)
    times = dict(report.study_summary.transmission_time)
    times[ProtocolKind.BUNDLE] = SummaryStats(1e300, math.inf, cfg.run_count)
    report.study_summary = replace(report.study_summary, transmission_time=times)
    report.ttests = significance_matrix(report.study_summary)
    write_report(report)
    rows = read_csv(os.path.join(cfg.out_dir, "ttest_matrix.csv"))
    nan_time = [row[1:3] for row in rows if row[0] == "transmission_time" and row[3] == "nan"]
    assert nan_time == [["bundle", "distance_dijkstra"], ["bundle", "quality_dijkstra"]]
    with open(os.path.join(cfg.out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    named = "transmission_time bundle/distance_dijkstra, transmission_time bundle/quality_dijkstra"
    assert f"\nttests=NaN where a sample's mean or std is not finite: {named}\n" in manifest
    assert "ttests=NaN where both variances are zero: percent_error" in manifest


def test_manifest_lists_written_files(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "manifest"))
    files = write_report(run_study(cfg))
    with open(os.path.join(cfg.out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    for name in files:
        if name != "manifest.txt":
            assert name in manifest
    assert "config_hash=" in manifest
    assert "packet_count=30" in manifest


# A manifest in the older layout that wrote two network files per run.
PER_RUN_LAYOUT_MANIFEST = """dtn-tradesim 0.1.0
seed=11
[config]
format=csv
[files]
packets.csv
network_nodes_run0.csv
network_links_run0.csv
"""


@pytest.mark.parametrize("older", ["both_bundle", "per_run_network_files"])
def test_rewrite_removes_only_files_the_old_manifest_listed(tmp_path, older):
    out = tmp_path / "bundle"
    if older == "both_bundle":
        write_report(run_study(small_config(out_dir=str(out), format="both")))
    else:
        out.mkdir()
        for name in PER_RUN_LAYOUT_MANIFEST.split("[files]\n")[1].splitlines():
            (out / name).write_text("stale\n", encoding="utf-8")
        (out / "manifest.txt").write_text(PER_RUN_LAYOUT_MANIFEST, encoding="utf-8")
    # Only listed table files inside out_dir may go: not a file no manifest
    # listed, not a listed path outside out_dir, not a listed non-table file.
    with open(out / "manifest.txt", "a", encoding="utf-8") as fh:
        fh.write("../outside.csv\nlisted.txt\n")
    kept = [tmp_path / "outside.csv", out / "notes.txt", out / "listed.txt"]
    for path in kept:
        path.write_text("keep\n", encoding="utf-8")

    files = write_report(run_study(small_config(out_dir=str(out), format="csv")))

    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    listed = manifest.split("\n[files]\n")[1].splitlines() + ["manifest.txt"]
    assert set(os.listdir(out)) - {"notes.txt", "listed.txt"} == set(files) == set(listed)
    assert len(files) == 10
    for path in kept:
        assert path.read_text(encoding="utf-8") == "keep\n"


def snapshot_bundle(out_dir, files):
    data = {}
    for name in files:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data[name] = fh.read()
    return data


def test_reports_byte_identical_across_executions(tmp_path):
    import shutil

    out = str(tmp_path / "bundle")
    files_a = write_report(run_study(small_config(out_dir=out)))
    data_a = snapshot_bundle(out, files_a)
    shutil.rmtree(out)
    files_b = write_report(run_study(small_config(out_dir=out)))
    data_b = snapshot_bundle(out, files_b)
    assert files_a == files_b
    for name in files_a:
        assert data_a[name] == data_b[name], name


def test_different_seed_changes_packets(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_report(run_study(small_config(out_dir=str(out_a))))
    write_report(run_study(small_config(out_dir=str(out_b), seed=12)))
    with open(out_a / "packets.csv", "rb") as fh:
        data_a = fh.read()
    with open(out_b / "packets.csv", "rb") as fh:
        data_b = fh.read()
    assert data_a != data_b


def adversarial_tables():
    """name -> (columns, rows) covering each cell type and chunk edge of the writer."""
    inf = math.inf
    floats = [math.nan, inf, -inf, -0.0, 0.0, 1e-300, 5e-324, 0.1, 1e22, -2.5]
    texts = ["plain", "0-4-1", "caf\u00e9 \U0001f600", "tab\there", "back\\slash", "\u00fcber"]
    tables = {
        "floats": (["value", "negated"], [(v, -v) for v in floats]),
        "mixed": (
            ["run", "big_int", "flag", "value", "route"],
            [
                (0, 2**70, True, math.nan, "0-1"),
                (1, -(2**70), False, 2.5, "0-2-1"),
                (2, 2**64, True, -inf, "0-1"),
                (3, 0, False, 1e22, "caf\u00e9"),
            ],
        ),
        "flags": (
            ["flag", "all_true", "all_false"], [(k % 3 == 0, True, False) for k in range(5)]
        ),
        "text": (
            ["text", "share %", "\u00fcber", "caf\u00e9 \U0001f600"],
            [(t, t, len(t), t.upper()) for t in texts],
        ),
        "single_column": (["only"], [("a",), ("b",), ("a",)]),
        "empty": (["run", "value"], []),
    }
    for count in (_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1):
        rows = [
            (k, k * 0.1 if k % 7 else math.nan, f"0-{k % 5}-1", k % 3 == 0)
            for k in range(count)
        ]
        tables[f"rows_{count}"] = (["k", "value", "route", "flag"], rows)
    return tables


@pytest.mark.parametrize("name", sorted(adversarial_tables()))
def test_write_table_matches_stdlib_reference(tmp_path, monkeypatch, name):
    columns, rows = adversarial_tables()[name]
    reference = tmp_path / "reference"
    reference.mkdir()
    files = reference_write_table(str(reference), name, columns, rows, "both")
    # The bytes do not depend on where chunks end, so the chunk edges are
    # read off the rows pulled from the generator whenever a column is encoded.
    pulled, encoded_at = 0, set()

    def stream():  # one pass only, so a second read finds nothing
        nonlocal pulled
        for row in rows:
            pulled += 1
            yield row

    def column_type(cells):
        encoded_at.add(pulled)
        return _column_type(cells)

    monkeypatch.setattr("dtn_tradesim.report._column_type", column_type)
    for kind, given in {"list": rows, "generator": stream()}.items():
        encoded_at.clear()
        ours = tmp_path / kind
        ours.mkdir()
        assert _write_table(str(ours), name, columns, given, "both") == files, kind
        for file in files:
            assert (ours / file).read_bytes() == (reference / file).read_bytes(), (kind, file)
    # Each chunk is encoded as soon as its last row is pulled, and no sooner.
    ends = {min(start + _CHUNK_ROWS, len(rows)) for start in range(0, len(rows), _CHUNK_ROWS)}
    assert encoded_at == ends
    # Each format alone encodes only the text it writes, to the same bytes.
    for ext in ("csv", "json"):
        alone = tmp_path / f"{ext}_alone"
        alone.mkdir()
        file = f"{name}.{ext}"
        assert _write_table(str(alone), name, columns, iter(rows), ext) == [file]
        assert (alone / file).read_bytes() == (reference / file).read_bytes(), file


def rejected_tables():
    """name -> (error, columns, rows) of a table with one column or name it must refuse."""
    chunks = 2 * _CHUNK_ROWS + 1
    return {
        "mixed": (TypeError, ["x"], [(1,), (2.5,)]),
        "none": (TypeError, ["x"], [(None,), (None,)]),
        "numpy_float": (TypeError, ["x", "y"], [(np.float64(0.1), 1), (np.float64(0.2), 2)]),
        "comma": (ValueError, ["x"], [("a,b",)]),
        "quote": (ValueError, ["x"], [('say "hi"',)]),
        "newline": (ValueError, ["x"], [("two\nlines",)]),
        "carriage_return": (ValueError, ["x"], [("cr\rhere",)]),
        "empty_string": (ValueError, ["x"], [("a",), ("",)]),
        "comma_in_column_name": (ValueError, ["x,y"], [(1,)]),
        # Every chunk is checked, not only the first.
        "comma_in_middle_chunk": (
            ValueError,
            ["k", "route"],
            [(k, "a,b" if k == _CHUNK_ROWS + 7 else f"0-{k % 5}-1") for k in range(chunks)],
        ),
        # The first chunk fixes each column's type for the whole table.
        "split": (TypeError, ["x"], [(k,) for k in range(_CHUNK_ROWS)] + [(0.5,)]),
    }


@pytest.mark.parametrize("name", list(rejected_tables()))
def test_write_table_rejects_cells_it_cannot_write_plainly(tmp_path, name):
    error, columns, rows = rejected_tables()[name]
    for fmt in ("csv", "json", "both"):
        with pytest.raises(error):
            _write_table(str(tmp_path), name, columns, rows, fmt)


def snapshot_dir(path):
    """Every entry of a directory: file name -> bytes."""
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


@pytest.mark.parametrize("name", [*rejected_tables(), "json_cannot_be_opened"])
def test_refused_write_report_leaves_out_dir_as_it_was(tmp_path, monkeypatch, name):
    out = tmp_path / "bundle"
    write_report(run_study(small_config(format="both", seed=0, out_dir=str(out))))
    before = snapshot_dir(out)
    report = run_study(small_config(format="both", seed=9, out_dir=str(out)))
    if name == "json_cannot_be_opened":
        # A table's JSON file fails to open after its CSV file was written.
        error = IsADirectoryError

        def fake_open(path, *args, **kwargs):
            if os.path.basename(path) == "crm.json":
                raise IsADirectoryError(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr("dtn_tradesim.report.open", fake_open, raising=False)
    else:
        # A table written after six others refuses a cell or a column name.
        error, columns, rows = rejected_tables()[name]
        monkeypatch.setattr("dtn_tradesim.report._route_rows", lambda report: (columns, rows))
    with pytest.raises(error):
        write_report(report)
    assert snapshot_dir(out) == before
    assert not [entry for entry in os.listdir(out) if entry.startswith(".staging-")]


def run_slices(ext, data):
    """Split a merged network table's bytes by run and drop the run column.

    Each slice is laid out as a table file of that run alone: the CSV keeps
    the header, and the JSON is an array of that run's objects.  Runs must
    appear in ascending blocks.
    """
    text = data.decode("utf-8")
    parts, runs = {}, []
    if ext == "csv":
        header, *lines = text.splitlines(keepends=True)
        assert header.startswith("run,")
        for line in lines:
            run, _, rest = line.partition(",")
            runs.append(int(run))
            parts.setdefault(int(run), [header[len("run,") :]]).append(rest)
        joined = {run: "".join(p) for run, p in parts.items()}
    else:
        head, sep, tail = "[\n  {\n", "\n  },\n  {\n", "\n  }\n]\n"
        assert text.startswith(head) and text.endswith(tail)
        for obj in text[len(head) : -len(tail)].split(sep):
            first, _, rest = obj.partition("\n")
            run = int(re.fullmatch(r'    "run": (\d+),', first)[1])
            runs.append(run)
            parts.setdefault(run, []).append(rest)
        joined = {run: head + sep.join(p) + tail for run, p in parts.items()}
    assert runs == sorted(runs)
    return {run: part.encode("utf-8") for run, part in joined.items()}


@pytest.mark.parametrize("relay_count", [6, 1])
def test_network_tables_split_into_reference_per_run_files(tmp_path, relay_count):
    cfg = small_config(
        run_count=3, packet_count=5, relay_count=relay_count, format="both",
        out_dir=str(tmp_path / "bundle"),
    )
    report = run_study(cfg)
    write_report(report)
    for table, reference_rows in (
        ("network_nodes", reference_node_rows),
        ("network_links", reference_link_rows),
    ):
        for ext in ("csv", "json"):
            slices = run_slices(ext, (tmp_path / "bundle" / f"{table}.{ext}").read_bytes())
            assert list(slices) == list(range(cfg.run_count))
            for i, run in enumerate(report.runs):
                name = f"{table}_run{i}"
                reference_write_table(str(tmp_path), name, *reference_rows(run.network), ext)
                assert slices[i] == (tmp_path / f"{name}.{ext}").read_bytes(), name


# sha256 of every file of the default seed-0 bundle in both formats, written
# to the default out_dir so that the manifest is stable.  Over all of them,
# `sha256sum * | sha256sum` in the bundle directory gives
# 5122ad0e7d73f8af185edfa250d3bc30bb8020a7c48df63492fa97777913212e.
# A deliberate change to the model or its random streams updates them and
# declares the change.
GOLDEN_SHA256 = {
    "crm.csv": "691f425a0055e755ea2f6e0dda6508baa9c9ee1f6af990f00d410bd560bf16bf",
    "crm.json": "b43ee4ea2bdd2d7443db5d3393a769cded12d63dfa5f116ce409f9635c46127a",
    "decision.csv": "a5df04f0109ec2925827795b6aa60a0c7fe11462f97d02371e954e3ef7a1ce1c",
    "decision.json": "aa6b19068c4ccb7c8596ecce0c39e9091052eba1829efd344b1c1dadaddb8f86",
    "frequent_routes.csv": "c72309f8ae9d413855ee5b24cc8d22e73f8932ecdc13ed4744f90df67a792e65",
    "frequent_routes.json": "7c4f3812f76fd91ca91be12403b13beedba7be3423333472627d26b4e51516ff",
    "manifest.txt": "26741d099848bd7cf08976ae7035144dc404c60bbe3e067d32da80640ac952f1",
    "network_links.csv": "eb76e196cfc565cdb75b557e95b77d39851d228c90d14407c30d1a99af1bea95",
    "network_links.json": "83cdcbb1f605abb85e0fa4ea1eb5001d2819993c9d2c7f6c2d8128eefd8af59f",
    "network_nodes.csv": "a454c9461222aadb82ac818ac961e7a6d5a7ddd411d33c7bf4da4e246905ce89",
    "network_nodes.json": "10f89a0c7bd8c1a1a74f1fde5ae40d46c4efd4192a1d3d63ac62074d64053ff9",
    "packets.csv": "d0bff79ba43a807155abe9b1446b7a49869d5cb4f439aceda987abef7823c1c8",
    "packets.json": "a48043dece6af53292db28218489b5eef047abb5104e815c11ed81304bf74f77",
    "runs.csv": "88e2dad4f1679b3f871f742454fb3ae655f916935544d2961f0802100c662042",
    "runs.json": "c1f6900993f8e4d8bb0588e7d992b27097da45e832dc5497597a5697669ebb08",
    "study_summary.csv": "c401a5a076747d369a0d4443ba449a267fdef8ead2f18c717a9606c960661e8d",
    "study_summary.json": "0ba5b60a3485598829069bbe0b199b4f909beccb4de13ccc0d731b66dd2d0ea4",
    "ttest_matrix.csv": "a0c1d992557aec98593484b1876c85d2fbe32b708387f80d49a1dac2dfe0f13a",
    "ttest_matrix.json": "5f16138622de5fbea1ef1bae7b7681b9bf1346fda5b7140d7f1e239f0bba6374",
}


# sha256 of the per-run network files the bundle held before the network
# tables gained a run column; each run's slice of the merged tables, without
# that column, must still hash to them.
PER_RUN_NETWORK_SHA256 = {
    "network_links_run0.csv": "950643c48bdd85d6258026fdd7f19fb71b6520eae617c5726a66f419a0bd7644",
    "network_links_run0.json": "6ea9b347cf6f341b09d992603a81c43a3b7cd9fec3f66edc46fff96adba851ad",
    "network_links_run1.csv": "cb84f8b787837f41c96d1f331c06ac1b31e07aec3129647d5db4ee16cd6fc393",
    "network_links_run1.json": "bd2c9811c184d8d560feb79fe7f514a06339b9981b843ada45efa8ad471965fd",
    "network_links_run2.csv": "c7e0b76abc2756e6871a083e54a559c9ca4e5df47471c8bcb304d78cec68259f",
    "network_links_run2.json": "80e264780f4ec059f3c8866391f63150859af61601ece72e4bfbe3b48fec008d",
    "network_links_run3.csv": "1644af1fc52ebf952c657880d38497c37fff0f0a77a2e89f4c2498536b1f8faf",
    "network_links_run3.json": "07141624b9c19d5fa49a9514c6fa49cbc2fe062ec24a2223603e00c171a247f0",
    "network_links_run4.csv": "4dc4bab14a01e96edffeadf9b1b330488409b92befdb7c2404078495738014c5",
    "network_links_run4.json": "34e02cc08a3ccbec46fd3d65baf3b5738304aad900cf937b1921013382e64138",
    "network_nodes_run0.csv": "7a5b9dacdaaaf8771d276062d5fe5f950d15e1006868bf63e3ffffa228ec0d59",
    "network_nodes_run0.json": "9716f51a670153768313267daf1c7541ffadd34d51dc7ccd33ad56b202375c36",
    "network_nodes_run1.csv": "7967c93cff875400935d0946151df68a8c36d7c700b198f5297fe902f70d7cbb",
    "network_nodes_run1.json": "1c7243b5f1c16c552f2b805f86b20b9cc63747016ebc66333e54fbffc12aa546",
    "network_nodes_run2.csv": "39097ce6675ede2ccc7ae5e037c3130622151aefdce3f049f4d6485f7ee9c9de",
    "network_nodes_run2.json": "4fa55b02072e5e40c199ebb9a6d9196226a3caad81ee481812612888376702a6",
    "network_nodes_run3.csv": "bd5854896a60f2215f51b778449ee0909a547cccd1321a0ae5537aaea51dec80",
    "network_nodes_run3.json": "686fe411c513b3224d2e3900e76f9bf9c73b42675865c0c4e21e96e5d7a56077",
    "network_nodes_run4.csv": "46da0abccc694d9f6820cd82e719823a91b26eac92e98280303de6d6767ce3ae",
    "network_nodes_run4.json": "fdd8a51392fbd49adbf5444d1a11149d8324aeac2e9d336f4cddd242321154fb",
}


def test_default_study_golden_bundle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = write_report(run_study(StudyConfig(seed=0, format="both")))
    assert sorted(files) == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        with open(os.path.join("report", name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
    per_run = {}
    for table in ("network_nodes", "network_links"):
        for ext in ("csv", "json"):
            with open(os.path.join("report", f"{table}.{ext}"), "rb") as fh:
                slices = run_slices(ext, fh.read())
            for i, part in slices.items():
                per_run[f"{table}_run{i}.{ext}"] = hashlib.sha256(part).hexdigest()
    assert per_run == PER_RUN_NETWORK_SHA256


# sha256 of packets.csv for seed-0 studies at 40 relays, 2 runs x 10 packets,
# at 60 relays, 5 runs x 40 packets (perfbench's dense_60 shape), and at
# 4 and 16 relays, 20 runs x 50 packets (4 is many_runs_small's graph size),
# and at 120 relays, 1 run x 3 packets (the largest graph of the relay sweep).
# The golden bundle above runs 10 relays, below routing.LAYERED_MIN_NODES;
# the 40-, 60- and 120-relay graphs are above it, so they pin the routes the
# layered search picks. The 4-relay studies pin a graph with few links over
# many runs, so many network builds, resets and perturbations. 16 relays
# (18 nodes) is the smallest graph that the layered search serves.
_RELAYS_4 = {"relay_count": 4, "run_count": 20, "packet_count": 50}
_RELAYS_16 = {"relay_count": 16, "run_count": 20, "packet_count": 50}
_RELAYS_40 = {"relay_count": 40, "run_count": 2, "packet_count": 10}
_RELAYS_60 = {"relay_count": 60, "run_count": 5, "packet_count": 40}
_RELAYS_120 = {"relay_count": 120, "run_count": 1, "packet_count": 3}


@pytest.mark.parametrize(
    "keys, digest",
    [
        (_RELAYS_40, "a8e4c0fcf22d4ca75a03ca8dd72c5ea8bb1bac4ff79635b5a3b31e59a21b9d03"),
        (
            {**_RELAYS_40, "sigma_frac": 0.6},
            "82eb812dca920a0cc699813221b5cd3ba9a989bbe257beffac40f18f5e264672",
        ),
        (_RELAYS_60, "f3f5866ebbc8a9abb90da52592195b34c6aa9d0e8c793de9a8b56d035c34ca97"),
        (
            {**_RELAYS_60, "sigma_frac": 0.6},
            "5ec84b53ac28a9604cc17bf837c80fab4999ad090bf7c831ff92e5906cdcc564",
        ),
        (_RELAYS_4, "ccc877a60495e316cdf576a0d364cb26efb6a72eea1f9b2aff742c293e7042cf"),
        (
            {**_RELAYS_4, "sigma_frac": 0.6},
            "d90021dab8cf58b82e147f6dacac29b170d4eff1667d7035f4eeba914ee059e0",
        ),
        (_RELAYS_16, "21f8b2e39b6f369a3c646a4ec50e76c4341b986c54b95d1f1f026127f40c24fd"),
        (
            {**_RELAYS_16, "sigma_frac": 2.0},
            "648e82680e79c6fda800b152e62b1d17a6d9a8a1ed4fcd1d7ffd631292f36dbe",
        ),
        (_RELAYS_120, "32ac300f28e461c93bf061e613e09775c9dfe0f8029a7993bdb410224d75a879"),
        (
            {**_RELAYS_120, "sigma_frac": 0.6},
            "14b450eb12f04f1bdd84de1eb79f2928c524785537387857f33a061cdff7db2e",
        ),
    ],
    ids=[
        "default",
        "sigma_0.6",
        "60_relays_default",
        "60_relays_sigma_0.6",
        "4_relays_default",
        "4_relays_sigma_0.6",
        "16_relays_default",
        "16_relays_sigma_2.0",
        "120_relays_default",
        "120_relays_sigma_0.6",
    ],
)
def test_large_relay_graph_golden_packets(tmp_path, keys, digest):
    config = StudyConfig(seed=0, out_dir=str(tmp_path), **keys)
    write_report(run_study(config))
    assert hashlib.sha256((tmp_path / "packets.csv").read_bytes()).hexdigest() == digest


# sha256 of the raw draws the engine makes, in the engine's call forms, from
# the stream of run 0 under master seed 0, sized for 6 relays (8 nodes, 28
# links): node placement (uniform), link qualities (beta), one perturbation
# (standard_normal into a buffer) and survival draws (random).  numpy does
# not promise that Generator streams stay the same across versions, and
# every golden digest above rests on these; they were pinned under numpy
# 2.4.6.
ENGINE_DRAWS_SHA256 = "c0477c4d470019c42f6c20ddfc69be8609e01f77cdeb9fd7a1e85c9a279b1ee0"


def test_engine_random_streams_are_pinned():
    rng = np.random.default_rng(run_seed(0, 0))
    parts = [rng.uniform(1.0, 9.0, 6), rng.uniform(-4.5, 4.5, 6), rng.beta(3.0, 2.0, size=28)]
    normals = np.empty(56)
    rng.standard_normal(out=normals)
    parts.append(normals)
    parts.append(np.array([rng.random() for _ in range(16)]))
    digest = hashlib.sha256(b"".join(p.astype("<f8").tobytes() for p in parts)).hexdigest()
    assert digest == ENGINE_DRAWS_SHA256, (
        f"numpy {np.__version__} draws other values from the engine's random "
        "streams than numpy 2.4.6, under which the golden digests were pinned: "
        "they need a re-pin under this numpy; this does not show that the "
        "engine broke"
    )
