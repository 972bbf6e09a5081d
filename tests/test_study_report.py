"""Study orchestration and report bundle: aggregation, files, determinism."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from dtn_tradesim.config import StudyConfig
from dtn_tradesim.report import write_report
from dtn_tradesim.routing import ProtocolKind
from dtn_tradesim.study import run_seed, run_study


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


def test_run_study_structure():
    cfg = small_config()
    report = run_study(cfg)
    assert len(report.runs) == cfg.run_count
    assert set(report.study_summary.percent_error) == set(ProtocolKind)
    assert report.ttests is not None
    assert set(report.ranking) == set(ProtocolKind)
    assert len(report.frequent_routes) == cfg.run_count * len(ProtocolKind)
    assert report.provenance["seed"] == str(cfg.seed)
    assert len(report.provenance["config_hash"]) == 64


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
        run_tt = [run.summaries[p].time_mean_hr for run in report.runs]
        assert report.study_summary.percent_error[p].mean == pytest.approx(
            sum(run_pe) / len(run_pe), rel=1e-12
        )
        assert report.study_summary.transmission_time[p].mean == pytest.approx(
            sum(run_tt) / len(run_tt), rel=1e-12
        )


def test_single_run_skips_ttests(caplog):
    report = run_study(small_config(run_count=1))
    assert report.ttests is None
    assert any("skipping significance" in r.message for r in caplog.records)
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
        "network_nodes_run0.csv": ["node_id", "kind", "x_km", "y_km"],
        "network_links_run0.csv": ["node_a", "node_b", "default_distance_km", "default_quality"],
    }


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


def test_skipped_ttests_leave_header_only_table(tmp_path):
    cfg = small_config(run_count=1, out_dir=str(tmp_path / "onerun"))
    write_report(run_study(cfg))
    rows = read_csv(os.path.join(cfg.out_dir, "ttest_matrix.csv"))
    assert len(rows) == 1  # schema header, no data
    with open(os.path.join(cfg.out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    assert "ttests=skipped" in manifest


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


# sha256 of two files of the default seed-0 bundle.  A deliberate change to
# the model or its random streams updates them and declares the change.
GOLDEN_SHA256 = {
    "packets.csv": "d0bff79ba43a807155abe9b1446b7a49869d5cb4f439aceda987abef7823c1c8",
    "network_links_run0.csv": "950643c48bdd85d6258026fdd7f19fb71b6520eae617c5726a66f419a0bd7644",
    "network_nodes_run0.csv": "7a5b9dacdaaaf8771d276062d5fe5f950d15e1006868bf63e3ffffa228ec0d59",
}


def test_default_study_golden_bundle(tmp_path):
    out_dir = str(tmp_path / "out")
    write_report(run_study(StudyConfig(seed=0, out_dir=out_dir)))
    for name, digest in GOLDEN_SHA256.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name
