"""Monte Carlo engine: hop outcomes, packet transit, per-run aggregation."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

import dtn_tradesim.simulation as simulation
from dtn_tradesim.errors import SimulationFault
from dtn_tradesim.network import (
    SPEED_OF_LIGHT_KM_S,
    CostKind,
    NodeKind,
    build_network,
    perturb,
    place_nodes,
    reset,
)
from dtn_tradesim.config import StudyConfig
from dtn_tradesim.routing import ProtocolKind, dijkstra_path, next_hop
from dtn_tradesim.simulation import (
    PROTOCOL_ORDER,
    PacketRecord,
    PacketState,
    cumulative_running_mean,
    hop_outcome,
    run_simulation,
    simulate_packet,
    summarize_protocol_records,
)

from helpers import (
    build_custom_network,
    build_random_network,
    reference_packet,
    rng,
    set_link,
)

STRAIGHT_LINE_HOURS = 1.27e9 / SPEED_OF_LIGHT_KM_S / 3600.0


class FixedDraw:
    """Stub generator returning one fixed uniform value."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_hop_outcome_survives_below_quality():
    assert hop_outcome(FixedDraw(0.3), 0.5) is True


def test_hop_outcome_boundary_draw_is_lost():
    assert hop_outcome(FixedDraw(0.5), 0.5) is False


def test_hop_outcome_extremes():
    r = rng(0)
    assert all(hop_outcome(r, 1.0) for _ in range(1000))
    assert not any(hop_outcome(r, 0.0) for _ in range(1000))


def test_hop_outcome_rejects_out_of_range_quality():
    with pytest.raises(ValueError):
        hop_outcome(rng(0), 1.5)


def test_hop_outcome_calibration():
    r = rng(123)
    n = 100_000
    q = 0.8
    survived = sum(hop_outcome(r, q) for _ in range(n))
    tol = 3 * math.sqrt(q * (1 - q) / n)
    assert abs(survived / n - q) < tol


def two_hop_network():
    """probe(0) -> relay(2) -> ground(1) is the only sensible route."""
    network = build_custom_network(
        [
            (NodeKind.PROBE, 1.0e6, 0.0),
            (NodeKind.GROUND, 0.0, 0.0),
            (NodeKind.RELAY, 4.0e5, 1.0e3),
        ],
        min_coord_km=1.0e3,
    )
    return network


def test_all_perfect_links_never_damage():
    network = build_random_network(seed=31)
    network.default_quality[:] = 1.0
    reset(network)
    records = simulate_packet(network, rng(1), sigma_frac=0.0)
    assert all(r.state is PacketState.INTACT for r in records)


def test_all_dead_links_always_damage_but_still_arrive():
    network = build_random_network(seed=31)
    network.default_quality[:] = 0.0
    reset(network)
    records = simulate_packet(network, rng(1), sigma_frac=0.0)
    for r in records:
        assert r.state is PacketState.DAMAGED
        assert r.route[0] == network.probe_id
        assert r.route[-1] == network.ground_id
        assert len(r.route) >= 3


def test_transmission_time_never_beats_straight_line():
    network = build_random_network(seed=33)
    r = rng(9)
    for k in range(50):
        reset(network)
        for record in simulate_packet(network, r, sigma_frac=0.05, packet_index=k):
            assert record.transmission_time_hr >= STRAIGHT_LINE_HOURS - 1e-12


def test_packet_record_is_a_read_only_tuple_of_five_fields():
    assert PacketRecord._fields == (
        "packet_index",
        "protocol",
        "route",
        "transmission_time_hr",
        "state",
    )
    network = build_random_network(seed=37, relay_count=4)
    records = simulate_packet(network, rng(2), sigma_frac=0.05, packet_index=7)
    assert [r.protocol for r in records] == list(PROTOCOL_ORDER)
    for record in records:
        assert type(record) is PacketRecord and record.packet_index == 7
        with pytest.raises(AttributeError):
            record.route = ()
        # Documented: a record equals (and hashes as) the plain tuple of its
        # fields, in field order, so it also unpacks by position.
        fields = tuple(getattr(record, name) for name in PacketRecord._fields)
        assert record == fields and hash(record) == hash(fields)


def test_static_network_routes_match_single_shot_paths():
    network = build_random_network(seed=37)
    records = simulate_packet(network, rng(2), sigma_frac=0.0)
    by_protocol = {r.protocol: r for r in records}
    for protocol, kind in (
        (ProtocolKind.DISTANCE_DIJKSTRA, CostKind.TRANSMISSION_TIME),
        (ProtocolKind.QUALITY_DIJKSTRA, CostKind.QUALITY_COMPLEMENT),
    ):
        want = dijkstra_path(network, kind, network.probe_id, network.ground_id)
        assert by_protocol[protocol].route == want


def test_copies_share_one_state_sequence(monkeypatch):
    # Record each per-step network state, then re-derive every copy's hop
    # from the log alone; the realized routes must fall out exactly.
    network = build_random_network(seed=41)
    log = []
    real_perturb = simulation.perturb

    def recording_perturb(net, r, sigma):
        out = real_perturb(net, r, sigma)
        log.append((net.current_quality.copy(), net.current_distance.copy()))
        return out

    monkeypatch.setattr(simulation, "perturb", recording_perturb)
    records = simulate_packet(network, rng(3), sigma_frac=0.05)

    for record in records:
        route = record.route
        for step, (u, v) in enumerate(zip(route, route[1:])):
            quality, distance = log[step]
            np.copyto(network.current_quality, quality)
            np.copyto(network.current_distance, distance)
            assert next_hop(network, record.protocol, u, network.ground_id) == v


REFERENCE_CASES = [
    pytest.param(relays, sigma, 3.0, id=f"{relays}_relays_sigma_{sigma}")
    for relays in (1, 2, 4, 10, 16)
    for sigma in (0.0, 0.05, 0.6, 1.7e308)
] + [
    pytest.param(relays, sigma, 1e-300, id=f"{relays}_relays_sigma_{sigma}_beta_a_1e-300")
    for relays in (4, 16)
    for sigma in (0.6, 1.7e308)
]


@pytest.mark.parametrize("relays, sigma, beta_a", REFERENCE_CASES)
def test_engine_matches_one_packet_reference(monkeypatch, relays, sigma, beta_a):
    # run_simulation against reference_packet, packet by packet from one
    # stream: the records must match byte for byte, and every step's
    # perturbed links value for value (np.array_equal, so a zero quality's
    # sign, which no comparison, cost or draw can see, does not count).
    # At 16 relays the Dijkstra hops come from the layered search.  No
    # bundle digest pins the perturbed values themselves.
    cfg = StudyConfig(
        relay_count=relays, sigma_frac=sigma, beta_a=beta_a, packet_count=5, run_count=1
    )
    engine_steps = []
    real_perturb = simulation.perturb

    def recording_perturb(net, r, sigma_frac):
        out = real_perturb(net, r, sigma_frac)
        engine_steps.append((net.current_quality.copy(), net.current_distance.copy()))
        return out

    monkeypatch.setattr(simulation, "perturb", recording_perturb)
    got = run_simulation(cfg, rng(17)).records

    r = rng(17)
    network = build_network(place_nodes(cfg, r), r, cfg)
    budget = simulation.STEP_BUDGET_FACTOR * network.node_count
    want, reference_steps = [], []
    for k in range(cfg.packet_count):
        records, steps = reference_packet(network, r, sigma, k, step_budget=budget)
        want.extend(records)
        reference_steps.extend(steps)
    assert len(engine_steps) == len(reference_steps)
    for step, (engine, reference) in enumerate(zip(engine_steps, reference_steps)):
        for layer, a, b in zip(("quality", "distance"), engine, reference):
            assert np.array_equal(a, b), f"step {step}: {layer} differs"
    assert repr(got) == repr(want)


def test_step_loop_calls_each_layer_through_module_globals(monkeypatch):
    # perfbench's traced run times the layers by replacing these globals, so
    # the loop must look each one up at call time: perturb once per step,
    # next_hop and hop_outcome once per hop of each copy.
    calls = {"perturb": 0, "next_hop": 0, "hop_outcome": 0}
    for name in calls:
        real = getattr(simulation, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(simulation, name, counted)
    network = build_random_network(seed=41, relay_count=6)
    records = simulate_packet(network, rng(3), sigma_frac=0.6)
    hops = [len(r.route) - 1 for r in records]
    assert calls == {"perturb": max(hops), "next_hop": sum(hops), "hop_outcome": sum(hops)}


def test_two_hop_loss_rate_matches_link_quality_product():
    network = two_hop_network()
    q1, q2 = 0.85, 0.7
    set_link(network, 0, 2, quality=q1)
    set_link(network, 2, 1, quality=q2)
    set_link(network, 0, 1, quality=0.5)

    n = 10_000
    r = rng(55)
    intact = {p: 0 for p in ProtocolKind}
    for k in range(n):
        reset(network)
        for record in simulate_packet(network, r, sigma_frac=0.0, packet_index=k):
            assert record.route == (0, 2, 1)
            if record.state is PacketState.INTACT:
                intact[record.protocol] += 1
    want = q1 * q2
    tol = 3 * math.sqrt(want * (1 - want) / n)
    for p in ProtocolKind:
        assert abs(intact[p] / n - want) < tol


def test_step_budget_violation_raises():
    network = build_random_network(seed=43)
    with pytest.raises(SimulationFault, match="step budget"):
        # Nothing can cross probe->relay->ground within a single step.
        simulate_packet(network, rng(4), sigma_frac=0.05, step_budget=1)


def test_step_budget_defaults_to_ten_steps_per_node(monkeypatch):
    assert simulation.STEP_BUDGET_FACTOR == 10
    network = build_random_network(seed=43)
    # The default is read at each call, so a smaller factor takes effect.
    monkeypatch.setattr(simulation, "STEP_BUDGET_FACTOR", 0)
    with pytest.raises(SimulationFault, match=r"^packet 0: step budget 0 exceeded "):
        simulate_packet(network, rng(4), sigma_frac=0.05)


def test_step_budget_fault_names_each_route_in_flight(monkeypatch):
    monkeypatch.setattr(simulation, "STEP_BUDGET_FACTOR", 1)
    cfg = StudyConfig(relay_count=4, sigma_frac=0.6, packet_count=20, run_count=1)
    with pytest.raises(SimulationFault) as info:
        run_simulation(cfg, rng(0))
    budget = cfg.relay_count + 2
    _, in_flight = str(info.value).split("in flight: ")
    for entry in in_flight.split("; "):
        protocol, route = entry.split(" route ")
        nodes = [int(v) for v in route.split("-")]
        ProtocolKind(protocol)  # raises for an unknown protocol name
        assert len(nodes) == budget + 1
        assert nodes[0] == 0 and 1 not in nodes


def test_cumulative_running_mean_examples():
    assert np.allclose(cumulative_running_mean([1.0, 2.0, 3.0]), [1.0, 1.5, 2.0])
    assert np.allclose(cumulative_running_mean([5.0]), [5.0])
    with pytest.raises(ValueError):
        cumulative_running_mean([])


def make_columns(times, damaged_counts):
    """A run's (protocol, packet) columns, row j for PROTOCOL_ORDER[j].

    Every protocol gets the given times; protocol j's first
    damaged_counts[j] packets are damaged.
    """
    columns = np.array([times] * len(PROTOCOL_ORDER), dtype=np.float64)
    damaged = np.arange(columns.shape[1]) < np.array(damaged_counts)[:, None]
    return columns, damaged


def test_percent_error_is_damaged_share():
    summaries = summarize_protocol_records(*make_columns([1.5] * 500, (182, 0, 500)))
    assert list(summaries) == list(PROTOCOL_ORDER)
    errors = [summaries[p].percent_error for p in PROTOCOL_ORDER]
    assert errors == [pytest.approx(36.4), 0.0, 100.0]


def test_run_summary_sem_definition():
    times = list(rng(7).normal(1.5, 0.2, size=400))
    for summary in summarize_protocol_records(*make_columns(times, (10, 10, 10))).values():
        assert summary.time_sem_hr == pytest.approx(summary.time_std_hr / math.sqrt(400))
        assert np.allclose(summary.crm_hr, cumulative_running_mean(times))


def test_single_packet_run_has_undefined_spread():
    for summary in summarize_protocol_records(*make_columns([1.2], (0, 0, 0))).values():
        assert summary.time_mean_hr == pytest.approx(1.2)
        assert math.isnan(summary.time_std_hr)
        assert math.isnan(summary.time_sem_hr)


@pytest.mark.parametrize("packets", [1, 2, 7, 8, 9, 128, 129])
def test_summaries_equal_per_row_numpy_calls_bit_for_bit(packets):
    # One call along the packet axis must sum each row as the 1-D call does.
    # The sizes straddle numpy's pairwise-sum blocks (8-way unrolling, blocks
    # of 128); at one packet the std is NaN.
    r = rng(packets)
    for scale in (1.0, 1e-3, 1e6):
        times = r.lognormal(0.0, 1.0, size=(len(PROTOCOL_ORDER), packets)) * scale
        damaged = r.random(times.shape) < 0.3
        summaries = summarize_protocol_records(times, damaged)
        for row, d, p in zip(times, damaged, PROTOCOL_ORDER):
            s = summaries[p]
            assert s.time_mean_hr == float(np.mean(row))
            if packets == 1:
                assert math.isnan(s.time_std_hr) and math.isnan(s.time_sem_hr)
            else:
                std = float(np.std(row, ddof=1))
                assert s.time_std_hr == std
                assert s.time_sem_hr == std / math.sqrt(packets)
            assert s.crm_hr.tolist() == (np.cumsum(row) / np.arange(1, packets + 1)).tolist()
            assert s.percent_error == 100.0 * int(np.count_nonzero(d)) / packets


def small_config(**kw):
    defaults = dict(packet_count=40, run_count=2, relay_count=6, seed=5)
    defaults.update(kw)
    return StudyConfig(**defaults)


def test_run_simulation_deterministic():
    cfg = small_config()
    a = run_simulation(cfg, rng(99))
    b = run_simulation(cfg, rng(99))
    assert a.records == b.records
    for p in ProtocolKind:
        assert a.summaries[p].percent_error == b.summaries[p].percent_error
        assert a.summaries[p].time_mean_hr == b.summaries[p].time_mean_hr


def test_run_simulation_resets_between_packets():
    # The engine must equal a hand-rolled loop of reset + simulate per packet,
    # though it resets only once, after the last packet: each packet's first
    # perturb rewrites the whole current state from the defaults.
    cfg = small_config(packet_count=5)
    result = run_simulation(cfg, rng(21))
    got = result.records

    r = rng(21)
    network = build_network(place_nodes(cfg, r), r, cfg)
    want = []
    for k in range(cfg.packet_count):
        reset(network)
        want.extend(simulate_packet(network, r, cfg.sigma_frac, packet_index=k))
    assert got == want
    for j, p in enumerate(PROTOCOL_ORDER):
        replayed = [r for r in want if r.protocol is p]
        assert result.times_hr[j].tolist() == [r.transmission_time_hr for r in replayed]
        assert result.damaged[j].tolist() == [
            r.state is PacketState.DAMAGED for r in replayed
        ]
        assert result.routes[j] == [r.route for r in replayed]


def test_run_simulation_returns_network_at_defaults():
    result = run_simulation(small_config(packet_count=3), rng(4))
    network = result.network
    assert network._current.tobytes() == network._defaults.tobytes()


def test_run_result_holds_columns_not_records():
    # 3,000 packets at 4 relays: one frozen-dataclass record per copy cost
    # about 230 B; the time, damage and route columns with interned routes
    # cost about 26 B.
    cfg = StudyConfig(relay_count=4, packet_count=3000, run_count=1)
    run_simulation(small_config(relay_count=4), rng(0))  # warm lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = run_simulation(cfg, rng(0))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    copies = cfg.packet_count * len(PROTOCOL_ORDER)
    assert held / copies < 64, f"{held / copies:.0f} B per packet copy"
    assert result.times_hr.size == copies


def test_run_simulation_summary_counts():
    cfg = small_config()
    result = run_simulation(cfg, rng(1))
    assert len(result.records) == cfg.packet_count * len(ProtocolKind)
    for p in ProtocolKind:
        s = result.summaries[p]
        assert 0.0 <= s.percent_error <= 100.0
        assert s.time_mean_hr >= STRAIGHT_LINE_HOURS - 1e-12
        assert len(s.crm_hr) == cfg.packet_count
        assert s.crm_hr[-1] == pytest.approx(s.time_mean_hr)
