"""Tests for the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from bundle_check import BundleError, check_bundle
from spans import self_times

sys.path.insert(0, str(run.SRC))

from dtn_tradesim import load_config, run_study, write_report  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"relay_count": 4, "run_count": 2, "packet_count": 3}


def test_self_time_subtracts_merged_clipped_children():
    # span 0 [0, 100] has children 1 [10, 30] and 2 [20, 50], which overlap,
    # and 3 [90, 120], which runs past its parent's end.  Span 4 [12, 18] is
    # a grandchild and must not count against span 0.
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    assert self_times(start, end, parent).tolist() == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_self_time_of_sequential_children_and_leaves():
    start = [0, 5, 20, 60]
    end = [80, 15, 40, 70]
    parent = [-1, 0, 0, -1]
    assert self_times(start, end, parent).tolist() == [50, 10, 20, 10]


@pytest.fixture
def bundle(tmp_path):
    config = load_config(overrides=dict(TINY, out_dir=str(tmp_path / "bundle")))
    written = write_report(run_study(config))
    return config, written


def test_checker_accepts_a_good_bundle(bundle):
    config, written = bundle
    facts = check_bundle(config.out_dir, config, written)
    assert facts["files"] == len(written)
    assert set(facts["max_hops"]) == set(run.PROTOCOLS)


def test_checker_rejects_corrupted_route(bundle):
    config, written = bundle
    path = f"{config.out_dir}/packets.csv"
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    head, _, route = lines[1].rstrip("\n").rpartition(",")
    lines[1] = f"{head},{route[::-1]}\n"  # now runs from the ground to the probe
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    with pytest.raises(BundleError, match="does not go from 0 to 1"):
        check_bundle(config.out_dir, config, written)


def test_checker_rejects_missing_manifest_entry(bundle):
    config, written = bundle
    path = f"{config.out_dir}/manifest.txt"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("runs.csv\n", ""))
    with pytest.raises(BundleError, match="manifest mismatch"):
        check_bundle(config.out_dir, config, written)


def test_checker_rejects_wrong_row_count(bundle):
    config, written = bundle
    bigger = load_config(overrides=dict(TINY, packet_count=4, out_dir=config.out_dir))
    with pytest.raises(BundleError, match="rows, expected"):
        check_bundle(config.out_dir, bigger, written)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace, monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, lines, _ = run.measure("tiny", 0, 0, bool(trace), setup_runs=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert any(line.startswith("check studies_failed 0/") for line in lines)


def test_every_metric_name_is_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
