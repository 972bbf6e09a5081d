"""Exact relations between runs of the engine.

Each relation compares the engine with itself under a change of the study's
size, so it holds under any random stream, not only the one the golden
digests pin: a packet's record may not depend on packet_count, a run's on
run_count. 4 relays route through the list search and 20 relays through the
layered one.
"""

import numpy as np
import pytest

from dtn_tradesim.config import StudyConfig
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
