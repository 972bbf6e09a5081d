"""Exact relations between runs of the engine.

Each relation compares the engine with itself under a change of the study's
size or scale, so it holds under any random stream, not only the one the
golden digests pin: a packet's record may not depend on packet_count, a
run's on run_count, and a route or a damage flag not on the unit of length.
4 relays route through the list search and 20 relays through the layered
one.
"""

import numpy as np
import pytest

from dtn_tradesim.config import StudyConfig
from dtn_tradesim.report import write_report
from dtn_tradesim.simulation import PROTOCOL_ORDER, run_simulation
from dtn_tradesim.study import run_study

RELAYS = [4, 20]


def run(seed: int, **keys):
    return run_simulation(StudyConfig(**keys), np.random.default_rng(seed))


@pytest.mark.parametrize("sigma", [0.05, 0.6])
@pytest.mark.parametrize("relays", RELAYS)
def test_packet_prefix(relays, sigma):
    short = run(11, relay_count=relays, sigma_frac=sigma, packet_count=17)
    full = run(11, relay_count=relays, sigma_frac=sigma, packet_count=40)
    np.testing.assert_array_equal(short.times_hr, full.times_hr[:, :17])
    np.testing.assert_array_equal(short.damaged, full.damaged[:, :17])
    assert short.routes == [routes[:17] for routes in full.routes]
    for p in PROTOCOL_ORDER:
        np.testing.assert_array_equal(short.summaries[p].crm_hr, full.summaries[p].crm_hr[:17])


@pytest.mark.parametrize("relays", RELAYS)
def test_run_prefix(relays):
    keys = dict(relay_count=relays, sigma_frac=0.2, packet_count=10, seed=12)
    short = run_study(StudyConfig(run_count=4, **keys))
    full = run_study(StudyConfig(run_count=7, **keys))
    for a, b in zip(short.runs, full.runs[:4], strict=True):
        np.testing.assert_array_equal(a.network.positions, b.network.positions)
        np.testing.assert_array_equal(a.times_hr, b.times_hr)
        np.testing.assert_array_equal(a.damaged, b.damaged)
        assert a.routes == b.routes


@pytest.mark.parametrize("relays", RELAYS)
def test_unperturbed_run_repeats_each_protocols_route_and_time(relays):
    result = run(13, relay_count=relays, sigma_frac=0.0, packet_count=30)
    for j in range(len(PROTOCOL_ORDER)):
        assert len(set(result.routes[j])) == 1
        assert len(set(result.times_hr[j].tolist())) == 1


# Scaling by 2**k: multiplying a float by a power of two only moves its
# exponent, so it is exact, and every difference, sum, quotient, hypot and
# comparison of scaled values is the scaled result of the unscaled one, as long
# as no value overflows or goes subnormal.  So k stays where none does: at
# k = 40 the largest values, squared time deviations in a run's std, stay
# below 1e30 hours**2, and at k = -3 the smallest length is min_coord_km / 8,
# 1250 km, with hour times near 0.1 whose differences lie far above the
# subnormal range (below 2.2e-308).  The study-level test keeps k = 7, where
# the time stds stay inside stats._PLAIN_STD, so welch_t divides both
# studies' stds by the same 1.0.
SCALES = [-3, 5, 40]


def scaled(k: int, **keys) -> dict:
    """keys with end_to_end_km and min_coord_km (or their defaults) times 2**k."""
    base = StudyConfig(**keys)
    return dict(
        keys,
        end_to_end_km=base.end_to_end_km * 2.0**k,
        min_coord_km=base.min_coord_km * 2.0**k,
    )


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.6, 3.0])
@pytest.mark.parametrize("relays", [1, 4, 10, 20])
def test_power_of_two_scaling_of_lengths_scales_times_only(relays, sigma, k):
    keys = dict(relay_count=relays, sigma_frac=sigma, packet_count=30)
    base = run(11, **keys)
    big = run(11, **scaled(k, **keys))
    np.testing.assert_array_equal(big.network.positions, base.network.positions * 2.0**k)
    assert big.routes == base.routes
    np.testing.assert_array_equal(big.damaged, base.damaged)
    np.testing.assert_array_equal(big.times_hr, base.times_hr * 2.0**k)


@pytest.mark.parametrize("relays, sigma", [(10, 0.05), (4, 0.6), (20, 0.2)])
def test_power_of_two_scaling_keeps_tests_decision_and_routes(relays, sigma, tmp_path):
    keys = dict(relay_count=relays, sigma_frac=sigma, run_count=4, packet_count=20, seed=7)
    reports = [
        run_study(StudyConfig(**config, out_dir=str(tmp_path / name)))
        for name, config in (("base", keys), ("scaled", scaled(7, **keys)))
    ]
    for report in reports:
        write_report(report)
    base, big = reports
    assert big.ranking == base.ranking
    for name in ("ttest_matrix.csv", "decision.csv", "frequent_routes.csv"):
        assert (tmp_path / "scaled" / name).read_bytes() == (tmp_path / "base" / name).read_bytes()
