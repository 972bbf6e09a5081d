"""Command-line behavior: subcommands, overrides, exit codes."""

import collections
import csv
import itertools
import math
import os
import random
import warnings

import pytest

import dtn_tradesim.simulation as simulation
from dtn_tradesim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIMULATION, main


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text("packet_count=50\nrun_count=2\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out
    assert "packet_count=50" in out


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text("relay_count=0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "--config", "/no/such/file.cfg"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_file_not_utf8_is_one_line_config_error(command, tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_bytes(b"relay_count=4\n\xff\n")
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file {path}: ")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run"])
def test_nul_in_config_path_is_one_line_config_error(command, capsys):
    assert main([command, "--config", "a\x00b"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file ")
    assert "embedded null" in err and err.count("\n") == 1


def test_run_small_study(tmp_path, capsys):
    out_dir = str(tmp_path / "report")
    code = main(
        [
            "run",
            "--seed",
            "3",
            "--runs",
            "2",
            "--packets",
            "20",
            "--relays",
            "5",
            "--out",
            out_dir,
        ]
    )
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out_dir, "manifest.txt"))
    assert os.path.exists(os.path.join(out_dir, "packets.csv"))
    out = capsys.readouterr().out
    assert "ranking:" in out


def test_run_flags_override_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("run_count=4\npacket_count=25\n")
    out_dir = str(tmp_path / "report")
    code = main(["run", "--config", str(path), "--runs", "2", "--out", out_dir])
    assert code == EXIT_OK
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    assert "run_count=2" in manifest
    assert "packet_count=25" in manifest


def test_run_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text("warp_factor=9\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "warp_factor" in capsys.readouterr().err


def test_run_output_collision_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "report"
    blocker.write_text("a file, not a directory")
    code = main(
        ["run", "--runs", "1", "--packets", "5", "--relays", "3", "--out", str(blocker)]
    )
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_run_too_large_for_memory_is_simulation_exit(tmp_path, capsys):
    # numpy refuses a (3, 10**15) result array at once, before touching memory.
    code = main(["run", "--runs", "1", "--packets", str(10**15), "--out", str(tmp_path)])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1


def test_run_end_to_end_km_past_welch_squares_writes_bundle(tmp_path):
    # Times near 1e81 hr: their variances squared would overflow a float.
    out_dir = tmp_path / "far"
    flags = "--end-to-end-km 1e90 --runs 3 --packets 5 --relays 4"
    assert main(["run", *flags.split(), "--out", str(out_dir)]) == EXIT_OK
    with open(out_dir / "ttest_matrix.csv", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh) if row["metric"] == "transmission_time"]
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(float(row[key])) for key in ("t", "df", "p"))
        assert 0.0 < float(row["p"]) <= 0.5


def run_without_warnings(flags: str, out_dir) -> int:
    """main's exit code for a run; fails if the run raised any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", *flags.split(), "--out", str(out_dir)])
    assert [str(w.message) for w in caught] == []
    return code


def test_run_sigma_frac_past_distance_overflow_writes_bundle(tmp_path):
    # Perturbed distances overflow to inf, so some searches find no finite
    # path and take the direct hop.  The overflow raises no warning.
    out_dir = tmp_path / "overflow"
    assert run_without_warnings("--sigma-frac 1.7e308 --relays 4", out_dir) == EXIT_OK
    assert (out_dir / "manifest.txt").is_file()


def test_run_end_to_end_km_past_std_squares_writes_bundle(tmp_path):
    # Times near 1e195 hr: np.std's squares overflow to inf, with no warning.
    out_dir = tmp_path / "farther"
    flags = "--end-to-end-km 1e200 --runs 3 --packets 5 --relays 4"
    assert run_without_warnings(flags, out_dir) == EXIT_OK
    assert (out_dir / "manifest.txt").is_file()


def test_run_sigma_frac_overflow_over_zero_quality_writes_bundle(tmp_path):
    # Beta(1e-300, 2) draws qualities of exactly 0, and 0 * inf is NaN: the
    # survival draw used to reject that NaN quality with a ValueError.  A
    # zero default now stays at its floor, 0.
    out_dir = tmp_path / "zero_quality"
    flags = "--sigma-frac 1.7e308 --beta-a 1e-300 --relays 4 --runs 2 --packets 3"
    assert run_without_warnings(flags, out_dir) == EXIT_OK
    assert (out_dir / "manifest.txt").is_file()


def test_run_json_format(tmp_path):
    out_dir = str(tmp_path / "report")
    code = main(
        [
            "run",
            "--runs",
            "1",
            "--packets",
            "10",
            "--relays",
            "4",
            "--format",
            "json",
            "--out",
            out_dir,
        ]
    )
    assert code == EXIT_OK
    names = os.listdir(out_dir)
    assert "packets.json" in names
    assert "packets.csv" not in names
    assert "manifest.txt" in names


@pytest.mark.parametrize("flags", [["--runs", "abc"], ["--format", "xml"]])
def test_bad_flag_value_is_config_error(flags, capsys):
    assert main(["run", *flags]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["run", "--bogus", "1"], EXIT_CONFIG, "unrecognized arguments: --bogus 1"),
        # A prefix of two flags is unknown, not ambiguous: no prefix matching.
        (["run", "--pack", "5"], EXIT_CONFIG, "unrecognized arguments: --pack 5"),
        (["validate"], EXIT_CONFIG, "required: --config"),
        ([], EXIT_CONFIG, "required: command"),
        (["run", "--help"], EXIT_OK, None),
        # The practicality baseline and the step budget are not config keys.
        (["run", "--baseline", "bundle"], EXIT_CONFIG, "unrecognized arguments: --baseline"),
        (
            ["run", "--step-budget-factor", "10"],
            EXIT_CONFIG,
            "unrecognized arguments: --step-budget-factor",
        ),
    ],
    ids=[
        "unknown-flag",
        "flag-prefix",
        "validate-no-config",
        "no-command",
        "run-help",
        "no-baseline-flag",
        "no-step-budget-flag",
    ],
)
def test_usage_error_is_config_error(argv, code, message, capsys):
    try:
        got = main(argv)
    except SystemExit as exc:  # --help prints usage and exits through argparse
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    if message is not None:
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert message in err


def test_empty_out_dir_is_one_line_config_error(tmp_path, capsys):
    # Refused with the config, not after the study when the bundle is written.
    path = tmp_path / "study.cfg"
    path.write_text("out_dir=\n")
    for argv in (["validate", "--config", str(path)], ["run", "--out", ""]):
        assert main(argv) == EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert err == "configuration error: out_dir must be a non-empty path, got ''\n", argv


def test_unprintable_out_dir_is_one_line_config_error(tmp_path, capsys):
    # A NUL would reach os.makedirs only after the whole study; a line break
    # would let the out_dir= line of the manifest forge its [files] block.
    path = tmp_path / "study.cfg"
    path.write_text(f"out_dir={tmp_path}/x\x00y\n")
    broken = str(tmp_path / "D\n[files]\nvictim.csv")
    for argv in (
        ["validate", "--config", str(path)],
        ["run", "--config", str(path), "--runs", "1", "--packets", "2"],
        ["run", "--out", broken, "--runs", "1", "--packets", "2"],
    ):
        assert main(argv) == EXIT_CONFIG, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("configuration error: out_dir must be a printable path, got ")
        assert captured.err.count("\n") == 1, argv
        assert os.listdir(tmp_path) == ["study.cfg"], argv


def test_derived_long_flags(tmp_path):
    out_dir = str(tmp_path / "report")
    flags = "--run-count 1 --packet-count 4 --relay-count 3 --min-coord-km 2e4"
    code = main(["run", *flags.split(), "--out-dir", out_dir])
    assert code == EXIT_OK
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        manifest = fh.read()
    assert "relay_count=3" in manifest
    assert "min_coord_km=20000.0" in manifest


def test_step_budget_fault_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # A budget of one step per node: no route of 4 relays at sigma 0.6
    # reaches the ground that soon, so the run stops with a simulation fault.
    monkeypatch.setattr(simulation, "STEP_BUDGET_FACTOR", 1)
    flags = "--relays 4 --sigma-frac 0.6 --runs 1 --packets 20 --seed 0"
    code = main(["run", *flags.split(), "--out", str(tmp_path / "report")])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("simulation fault: run 0: packet ")
    assert "step budget 6 exceeded with copies still in flight: " in err
    assert " route 0-" in err


def test_edge_config_sweep_ends_in_documented_exit_codes(tmp_path):
    """Accepted edge configs end in a bundle or an exit code, never an exception."""
    fixed = {
        # Percent error without variance, for every protocol or for the two
        # Dijkstra protocols: t-tests with both variances zero.
        "--beta-a 50 --beta-b 0.01 --runs 2 --packets 20": EXIT_OK,
        "--sigma-frac 0.6 --relays 30 --runs 2 --packets 100": EXIT_OK,
        # One relay: every protocol takes the same route and time, no scale.
        "--relays 1 --runs 2 --packets 20": EXIT_OK,
        "--sigma-frac nan": EXIT_CONFIG,
    }
    rng = random.Random(5)
    grid = itertools.product(("1", "2", "120"), (("3", "2"), ("50", "0.01")), ("0", "0.6"), "12")
    cases = [(flags.split(), code) for flags, code in fixed.items()]
    for relays, (a, b), sigma, runs in grid:
        flags = ["--relays", relays, "--beta-a", a, "--beta-b", b, "--sigma-frac", sigma]
        flags += ["--runs", runs, "--packets", str(rng.randint(1, 20))]
        cases.append((flags, None))
    for k, (flags, want) in enumerate(cases):
        argv = ["run", *flags, "--seed", str(k)]
        code = main(argv + ["--out", str(tmp_path / f"r{k}")])
        if want is None:
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SIMULATION, EXIT_IO), argv
        else:
            assert code == want, argv


# Float keys for the fuzz below: zero, the smallest subnormal, every tenth
# power of ten from 1e-300 to 1e300, and nearly the float maximum.
FUZZ_FLOATS = (0.0, 5e-324, *(float(f"1e{k}") for k in range(-300, 301, 10)), 1.7e308)
FUZZ_FLOAT_KEYS = ("sigma_frac", "beta_a", "beta_b", "end_to_end_km", "min_coord_km")


def fuzz_flags(seed: int, count: int):
    """count seeded `run` flag lists: <= 10 relays, <= 3 runs x 3 packets."""
    r = random.Random(seed)
    for _ in range(count):
        flags = ["--relays", str(r.randint(1, 10)), "--runs", str(r.randint(1, 3))]
        flags += ["--packets", str(r.randint(1, 3)), "--seed", str(r.randrange(2**32))]
        flags += ["--format", r.choice(("csv", "json", "both"))]
        for key in FUZZ_FLOAT_KEYS:
            flags += ["--" + key.replace("_", "-"), repr(r.choice(FUZZ_FLOATS))]
        yield flags


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzzed_configs_end_in_bundle_or_documented_exit(tmp_path, capsys):
    # Every config ends in a bundle or a documented exit code with a one-line
    # message, never an exception or a numpy warning (an error here).
    failures = []
    codes = collections.Counter()
    for k, flags in enumerate(fuzz_flags(seed=2, count=200)):
        out_dir = tmp_path / f"f{k}"
        try:
            code = main(["run", *flags, "--out", str(out_dir)])
        except Exception as exc:  # any escape is a failure, reported below
            failures.append((flags, repr(exc)))
            continue
        finally:
            err = capsys.readouterr().err
        codes[code] += 1
        if code not in (EXIT_OK, EXIT_CONFIG, EXIT_SIMULATION, EXIT_IO):
            failures.append((flags, f"exit {code}"))
        elif code != EXIT_OK and err.count("\n") != 1:
            failures.append((flags, f"exit {code} with stderr {err!r}"))
        elif code == EXIT_OK and not (out_dir / "manifest.txt").is_file():
            failures.append((flags, "exit 0 without a manifest"))
    assert failures == []
    # Both outcomes occur, so the list exercises runs as well as rejections.
    assert codes[EXIT_OK] >= 50 and codes[EXIT_CONFIG] >= 50, codes
