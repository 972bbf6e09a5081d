"""Study benchmark for dtn-tradesim: whole studies through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_default --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Load is a closed loop in this one single-threaded process: one study
(``run_study`` then ``write_report``) at a time, back to back, until the next
one would end past ``--seconds``.  The workload seed only derives the study
seeds; the program sees nothing but the resulting ``StudyConfig``.  Every
bundle is checked.  ``--trace 0`` prints the end-to-end metrics, with times
normalized to host speed (see hostref.py), and ``--trace 1`` the per-layer
ones; see perfbench/README.md.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded worker: keep any numpy backend from starting threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from bundle_check import check_bundle  # noqa: E402
from hostref import NOMINAL_S, reference_seconds  # noqa: E402
from spans import Tracer, instrumented, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The benchmark's study seed 0 under paper_default must reproduce the
# behaviour anchor: `dtn-tradesim run` with defaults writes this packets.csv.
ANCHOR_DIGEST = "d0bff79ba43a807155abe9b1446b7a49869d5cb4f439aceda987abef7823c1c8"

# name -> StudyConfig overrides.  Why each exists is in README.md.
WORKLOADS: dict[str, dict[str, object]] = {
    "paper_default": {},
    "dense_60": {"relay_count": 60, "run_count": 5, "packet_count": 40},
    "many_runs_small": {
        "relay_count": 4,
        "run_count": 200,
        "packet_count": 50,
        "format": "both",
    },
}

# Fresh interpreters per run for setup_s; one costs 0.1-0.3 s.
SETUP_RUNS = 9

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import dtn_tradesim
t1 = time.perf_counter()
dtn_tradesim.load_config(overrides=json.loads(sys.argv[1]))
t2 = time.perf_counter()
from hostref import reference_seconds
print(json.dumps([t1 - t0, t2 - t1, reference_seconds()]))
"""

# After each study, once its objects are freed, the host-speed kernel runs
# for about this share of the study's wall time (at least once).
REF_SHARE = 0.05

PROTOCOLS = ("bundle", "distance_dijkstra", "quality_dijkstra")


def study_seed(seed: int, k: int) -> int:
    """Seed of the k-th distinct study in a run; study 0 uses the workload seed."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def schedule(seed: int, trace: bool):
    """(study seed, traced) pairs in run order.

    The workload seed runs twice first, so every run repeats one seed and
    compares the two packets.csv digests.  A traced run follows each untraced
    study with a traced one on the same seed; the pairs give the overhead.
    """
    if not trace:
        yield seed, False
    for k in itertools.count():
        s = study_seed(seed, k)
        yield s, False
        if trace:
            yield s, True


def resolve(workload: str, seed: int, out_dir: str | None = None):
    from dtn_tradesim import load_config

    overrides = dict(WORKLOADS[workload], seed=seed)
    if out_dir is not None:
        overrides["out_dir"] = out_dir
    return load_config(overrides=overrides)


def measure_setup(workload: str, seed: int, runs: int) -> list[tuple[float, float, float]]:
    """(import s, load_config s, kernel s) from each of ``runs`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    arg = json.dumps(dict(WORKLOADS[workload], seed=seed))
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, arg],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def run_one(config, tracer=None) -> dict:
    """One study: run_study, write_report, then check the bundle."""
    from dtn_tradesim import run_study, write_report

    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    shutil.rmtree(config.out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with span("study.run_study"):
        report = run_study(config)
    t1 = time.perf_counter()
    with span("report.write_report"):
        written = write_report(report)
    t2 = time.perf_counter()
    facts = check_bundle(config.out_dir, config, written)
    return {"run_s": t1 - t0, "write_s": t2 - t1, **facts}


def run_studies(workload: str, seed: int, seconds: float, trace: bool, tracer=None):
    """Closed loop of studies until ``seconds`` pass; returns one record per study."""
    out_dir = str(OUT / f"bundle-{workload}")
    records: list[dict] = []
    digests: dict[int, str] = {}
    # A step is one study, or one untraced/traced pair when tracing.  The loop
    # stops after the repeated seed, between steps, and before a step that
    # would end past the window.
    unit = 2 if trace else 1
    t_start = last = time.perf_counter()
    step = 0.0
    try:
        for i, (s, traced) in enumerate(schedule(seed, trace)):
            if i % unit == 0:
                now = time.perf_counter()
                step, last = (now - last if i else 0.0), now
                if i >= 2 and now - t_start + step > seconds:
                    break
            config = resolve(workload, s, out_dir)
            rec = {"index": i, "seed": s, "traced": traced}
            mark = tracer.mark() if traced else 0
            t_study = time.perf_counter()
            try:
                if traced:
                    tracer.study_id = i
                    with instrumented(tracer):
                        rec.update(run_one(config, tracer))
                else:
                    rec.update(run_one(config))
                first = digests.setdefault(s, rec["packets_digest"])
                if first != rec["packets_digest"]:
                    raise RuntimeError(
                        f"seed {s}: packets.csv digest {rec['packets_digest'][:12]} "
                        f"differs from the earlier run's {first[:12]}"
                    )
            except Exception as exc:  # a failed study is counted, not fatal
                rec["error"] = f"{type(exc).__name__}: {exc}"
                if traced:
                    tracer.truncate(mark)
            n_ref = max(1, round(REF_SHARE * (time.perf_counter() - t_study) / NOMINAL_S))
            rec["ref_s"] = sum(reference_seconds() for _ in range(n_ref))
            rec["ref_n"] = n_ref
            records.append(rec)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return records


def host_speed(records) -> float:
    """Kernel's nominal time over its mean time next to these studies (1 = nominal)."""
    return NOMINAL_S * sum(r["ref_n"] for r in records) / sum(r["ref_s"] for r in records)


def end_to_end_metrics(config, records, setup) -> tuple[dict, dict]:
    """(host-normalized end-to-end metrics, the same as raw wall figures).

    Times are rescaled to the host speed at which the reference kernel takes
    NOMINAL_S: wall seconds times the speed the kernel measured next to them.
    study_s and packets_per_s are means over the run's studies, not medians:
    every study after the repeated first one is a different input, and a
    median of a handful of unlike studies spreads more from seed to seed than
    their mean does.
    """
    ok = [r for r in records if "error" not in r and not r["traced"]]
    speed = host_speed(ok)
    run_s = sum(r["run_s"] for r in ok)
    wall = {
        "study_s": (run_s + sum(r["write_s"] for r in ok)) / len(ok),
        "packets_per_s": config.run_count * config.packet_count * len(ok) / run_s,
        "setup_s": statistics.median(imp + load for imp, load, _ in setup),
    }
    metrics = {
        "study_s": (wall["study_s"] * speed, "s"),
        "packets_per_s": (wall["packets_per_s"] / speed, "1/s"),
        "setup_s": (
            statistics.median((imp + load) * NOMINAL_S / ref for imp, load, ref in setup),
            "s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    wall["host_speed"] = speed
    return metrics, wall


def per_layer_metrics(tracer, records, pairs, setup) -> dict:
    # Spans of failed studies were dropped, so every span here is counted.
    traced = [r for r in records if r["traced"] and "error" not in r]
    seed_study = traced[0]
    n = len(traced)
    cols = tracer.arrays()
    name, study = cols["name"], cols["study"]
    start, end = cols["start_ns"], cols["end_ns"]
    dur = (end - start) / 1e9
    ids = {nm: k for k, nm in enumerate(tracer.names)}

    def mask(nm):
        return name == ids.get(nm, -1)

    def per_study_s(*names):
        return float(sum(dur[mask(nm)].sum() for nm in names)) / n

    def seed_calls(nm):
        return int((mask(nm) & (study == seed_study["index"])).sum())

    def mean_us(nm):
        return float(dur[mask(nm)].mean() * 1e6)

    m = {}
    m["network.build_s"] = (per_study_s("network.place_nodes", "network.build_network"), "s")
    m["network.reset_s"] = (per_study_s("network.reset"), "s")
    m["network.perturb_s"] = (per_study_s("network.perturb"), "s")
    m["network.perturb_calls"] = (seed_calls("network.perturb"), "count")
    m["network.perturb_us"] = (mean_us("network.perturb"), "us")
    for p in PROTOCOLS:
        m[f"routing.{p}_s"] = (per_study_s(f"routing.{p}"), "s")
        m[f"routing.{p}_calls"] = (seed_calls(f"routing.{p}"), "count")
        m[f"routing.{p}_us"] = (mean_us(f"routing.{p}"), "us")
    for p in PROTOCOLS:
        m[f"routing.revisit_routes.{p}"] = (seed_study["revisit_routes"].get(p, 0), "count")
        m[f"routing.max_hops.{p}"] = (seed_study["max_hops"].get(p, 0), "hops")
    run_study_s = per_study_s("study.run_study")
    m["routing.dijkstra_share"] = (
        per_study_s("routing.distance_dijkstra", "routing.quality_dijkstra") / run_study_s,
        "ratio",
    )
    packet_ms = dur[mask("simulation.simulate_packet")] * 1e3
    p50, p90 = np.percentile(packet_ms, [50, 90])
    m["simulation.packet_ms.p50"] = (float(p50), "ms")
    m["simulation.packet_ms.p90"] = (float(p90), "ms")
    selfs = self_times(start, end, cols["parent"]) / 1e9
    m["simulation.self_s"] = (float(selfs[mask("simulation.simulate_packet")].sum()) / n, "s")
    m["simulation.hop_outcome_s"] = (per_study_s("simulation.hop_outcome"), "s")
    m["simulation.summarize_s"] = (per_study_s("simulation.summarize"), "s")
    steps = seed_calls("network.perturb")
    hops = sum(seed_calls(f"routing.{p}") for p in PROTOCOLS)
    m["simulation.steps"] = (steps, "count")
    m["simulation.hops"] = (hops, "count")
    m["simulation.hops_per_step"] = (hops / steps, "hops/step")
    m["study.run_study_s"] = (run_study_s, "s")
    m["study.aggregate_s"] = (run_study_s - per_study_s("simulation.run_simulation"), "s")
    m["stats.ttests_s"] = (per_study_s("stats.significance_matrix"), "s")
    m["decision.s"] = (
        per_study_s("decision.build_table", "decision.practicality_correction", "decision.rank"),
        "s",
    )
    write_s = per_study_s("report.write_report")
    m["report.write_s"] = (write_s, "s")
    m["report.files"] = (seed_study["files"], "count")
    m["report.bytes"] = (seed_study["bytes"], "bytes")
    m["report.mb_per_s"] = (sum(r["bytes"] for r in traced) / 1e6 / (write_s * n), "MB/s")
    m["report.share"] = (write_s / (run_study_s + write_s), "ratio")
    m["trace.overhead_ratio"] = (
        statistics.median(
            (t["run_s"] + t["write_s"]) / (u["run_s"] + u["write_s"]) for u, t in pairs
        ),
        "ratio",
    )
    m["setup.import_s"] = (statistics.median(imp for imp, _, _ in setup), "s")
    m["config.load_s"] = (statistics.median(load for _, load, _ in setup), "s")
    m["host.speed"] = (host_speed(traced), "ratio")
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dtn_tradesim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Never look for a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment(seed: int) -> dict:
    from dtn_tradesim.config import config_lines

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "configs": {w: config_lines(resolve(w, seed)) for w in WORKLOADS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS):
    """Run one workload; return (result object, human-readable lines, per-study times)."""
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(workload, seed, setup_runs)
    tracer = Tracer() if trace else None
    records = run_studies(workload, seed, seconds, trace, tracer)
    config = resolve(workload, seed)
    failures = [r for r in records if "error" in r]
    lines = [f"env {json.dumps(environment(seed), sort_keys=True)}"]
    lines += [f"study {r['index']} seed {r['seed']} failed: {r['error']}" for r in failures]
    ok = {r["index"]: r for r in records if "error" not in r}
    # (untraced, traced) studies of one seed, both successful.
    pairs = [(ok[i - 1], r) for i, r in ok.items() if r["traced"] and i - 1 in ok]
    metrics = {}
    if trace and pairs:
        metrics = per_layer_metrics(tracer, records, pairs, setup)
        tracer.save(str(OUT / f"spans-{workload}-seed{seed}.npz"))
    elif not trace and ok:
        metrics, wall = end_to_end_metrics(config, records, setup)
        lines += [f"wall {k} {v:.6g}" for k, v in wall.items()]
    lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(
        f"check studies_failed {len(failures)}/{len(records)} "
        f"({len(failures) / len(records):.4f} ratio)"
    )
    if workload == "paper_default" and seed == 0:
        first = next((r for r in records if "packets_digest" in r and r["seed"] == 0), None)
        got = first["packets_digest"] if first else "none"
        verdict = "match" if got == ANCHOR_DIGEST else "MISMATCH"
        lines.append(f"check anchor_packets_digest {verdict} {got}")
    result = {
        "correct": not failures and bool(metrics),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    studies = [
        {k: r.get(k) for k in ("index", "seed", "traced", "run_s", "write_s", "ref_s", "ref_n", "error")}
        for r in records
    ]
    return result, lines, studies


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            print(f"[{workload}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not out:
            code = 1
            combined["correct"] = False
            continue
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{workload}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit an unsigned 64-bit int")
    if not (SRC / "dtn_tradesim" / "__init__.py").is_file():
        print(f"error: no dtn_tradesim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import dtn_tradesim

    if Path(dtn_tradesim.__file__).resolve().parent != SRC / "dtn_tradesim":
        print(f"error: imported dtn_tradesim from {dtn_tradesim.__file__}", file=sys.stderr)
        return 2
    result, lines, studies = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"lines": lines, "result": result, "studies": studies}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
