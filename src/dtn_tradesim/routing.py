"""Next-hop strategies: two shortest-path variants and greedy store-and-forward."""

from __future__ import annotations

import logging
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from enum import Enum

import numpy as np

from .network import _QUALITY_COST, _TIME_COST, CostKind, NetworkState, _link_costs

logger = logging.getLogger(__name__)

# A route is the ordered node-id sequence from source to destination.
Route = tuple[int, ...]


class ProtocolKind(Enum):
    BUNDLE = "bundle"
    DISTANCE_DIJKSTRA = "distance_dijkstra"
    QUALITY_DIJKSTRA = "quality_dijkstra"


PROTOCOL_COST_KIND = {
    ProtocolKind.DISTANCE_DIJKSTRA: CostKind.TRANSMISSION_TIME,
    ProtocolKind.QUALITY_DIJKSTRA: CostKind.QUALITY_COMPLEMENT,
}

# next_hop dispatches by identity on these (and network's cost kinds):
# reading a member off its Enum class, or hashing one for a dict lookup,
# runs Python code on every call.
_BUNDLE = ProtocolKind.BUNDLE
_DISTANCE = ProtocolKind.DISTANCE_DIJKSTRA
_QUALITY = ProtocolKind.QUALITY_DIJKSTRA

# dijkstra_path and next_hop switch from _search to _layered_next_hop at this
# graph size, where the layered search starts to win per search.
# Timed per search on a 2-vCPU VM (seed 1, 40 perturbed states per size,
# every source, both cost kinds, dst = ground; alternating passes, 14 at
# sigma 0.05 and 7 at sigma 0.6), the list search wins every pass up to 14
# relays (8.8-8.9 against 9.8-10.0 us at 12, sigma 0.05).  At 15 relays the
# layered search wins at sigma 0.05 (11.1-11.3 against 12.4-12.6 us) but
# loses at sigma 0.6 (15.9-16.3 against 15.4-15.8), so the two disagree
# there.  From 16 relays it wins every pass at both, by 11% at sigma 0.05
# and 6% at 0.6 (medians), and by 15-25% at 17.  numpy's per-call overhead
# outweighs the list loop on small graphs.  End to end, 16-relay
# run_simulation is 10% faster with the switch here than with the list
# search at sigma 0.05 and 4% slower at sigma 0.6.  Both kernels pick the
# same hop.
LAYERED_MIN_NODES = 18


def dijkstra_path(network: NetworkState, kind: CostKind, src: int, dst: int) -> Route:
    """Route that the next hops under the given cost kind trace from src to dst.

    Each hop is the first hop of the best path from the current node, so on a
    fixed state this is the minimum-cost route a packet follows.  Preferring
    fewer hops among equal-cost paths keeps step-by-step replanning loop-free
    even when whole neighborhoods tie at zero cost.
    """
    _check_endpoints(network, src, dst)
    search = _layered_next_hop if network.node_count >= LAYERED_MIN_NODES else _search
    route = [src]
    while route[-1] != dst:
        route.append(search(network, kind, route[-1], dst))
    return tuple(route)


def _search_costs(network: NetworkState, kind: CostKind) -> np.ndarray:
    """A fresh n x n cost matrix for one search, the direct link priced at inf.

    A penalty for that link above the sum of every cost exceeds every path
    that avoids it, and once relays exist such a path joins every pair of
    nodes, so the penalty never decides a hop, prunes a path or ties with
    another.  inf decides the same without a sum over the whole matrix.
    """
    costs = _link_costs(network, kind)
    p, g = network.probe_id, network.ground_id
    costs[p, g] = costs[g, p] = math.inf
    return costs


def _search(network: NetworkState, kind: CostKind, src: int, dst: int) -> int:
    """First hop from src toward dst by dense Dijkstra, stopped once dst settles.

    Labels are (cost, hops, first hop), compared in that order: paths with
    equal cost and hops that start alike give every extension the same first
    hop, so the first hop settles the lexicographic order.  Exact cost ties
    settle the fewer-hop node first; nodes equal in both cannot improve each
    other, as a path through one adds a hop.  Costs are non-negative, so a
    settled label is final and each cost row is read once.  The cost rows
    are Python lists built from the current state in one conversion, with
    the direct link set to inf in them (see _search_costs).  When every
    unsettled node costs inf, no finite path reaches dst and dst is the hop,
    as in _layered_next_hop: so on the two-node network, whose only link is
    the direct one, and when perturbed distances overflowed.

    The search stops early by an A* bound: last, the cheapest link into dst,
    is the minimum of dst's row off the diagonal (NetworkState's link
    matrices are symmetric, so the row holds the links into dst).  Every
    path to dst through an open node costs at least best + last, as costs
    are non-negative and floating-point addition is monotone, so once
    best + last > cost[dst] dst's label is final.  The test is strict: a
    path of equal cost and fewer hops would still replace dst's label.
    dst's row is never relaxed (the search returns when dst settles), so its
    diagonal is set to inf for the minimum.  The first test comes before the
    hop, first-hop and open-node lists are built: when the cheapest one-hop
    label plus last is above the direct label, dst is the hop and no node
    settles.  It never ends a search from the probe to the ground, whose
    direct label is inf.
    """
    n = network.node_count
    inf = math.inf
    rows = _link_costs(network, kind).tolist()
    p, g = network.probe_id, network.ground_id
    rows[p][g] = rows[g][p] = inf
    into = rows[dst]
    into[dst] = inf
    last = min(into)
    cost = rows[src]  # one-hop labels, whose first hop is their end node
    cost[src] = inf  # settled nodes go to inf so min() skips them
    best = min(cost)
    if best + last > cost[dst]:
        return dst  # the direct label is final before any node settles
    hops = [1] * n
    first = list(range(n))
    remaining = list(range(n))
    remaining.remove(src)
    while best < inf:
        u = cost.index(best)
        if cost.count(best) > 1:
            for v in remaining:
                if cost[v] == best and hops[v] < hops[u]:
                    u = v
        if u == dst:
            return first[u]
        remaining.remove(u)
        cost[u] = inf
        hu = hops[u] + 1
        fu = first[u]
        row = rows[u]
        for v in remaining:
            c = best + row[v]
            if c <= cost[v] and (c < cost[v] or (hu, fu) < (hops[v], first[v])):
                cost[v] = c
                hops[v] = hu
                first[v] = fu
        best = min(cost)
        if best + last > cost[dst]:
            return first[dst]
    return dst


def _cap(top: float, last: float) -> float:
    """A cost c <= top with c + last >= top in floating point.

    A path of cost c or more, extended by any link into dst (each costs at
    least last), costs at least top.  top - last rounds to a neighbor of the
    exact difference; if it rounds below, the next float up is at or above
    it, and addition is monotone, so one step restores the bound.  With
    last = inf every extension costs inf and top itself is returned.
    """
    if last == math.inf:
        return top
    c = top - last
    if c + last < top:
        c = math.nextafter(c, math.inf)
    return c


def _layered_next_hop(network: NetworkState, kind: CostKind, src: int, dst: int) -> int:
    """The first hop _search returns, found by hop-indexed relaxation.

    Layer k holds each node's cheapest exactly-k-hop path, kept only if it is
    strictly cheaper than the node's fewer-hop paths and than the best path
    to dst so far: any other path is matched by one with no more cost and
    fewer hops.  So a kept path never revisits a node and the layers run out
    within n - 1 steps.  The frontier is kept in lexicographic order of its
    paths, so argmin, which returns the first of equal minima, picks the
    smallest path among exact cost ties; a later path to dst wins only if
    strictly cheaper, because it has more hops.  This is _search's order:
    cost, then hops, then the node sequence.  The direct link's cost is inf
    (_search_costs), so on the two-node network the frontier starts empty
    and dst is the hop.

    A path is also dropped once it cannot reach dst strictly cheaper than
    top, the best cost to dst so far: every link into dst costs at least
    last, the minimum of dst's row off the diagonal (NetworkState's link
    matrices are symmetric), so a path of cost _cap(top, last) or more ends
    at dst no cheaper than top.  Unlike _search's, this test is not strict,
    because a later path to dst has more hops and must be strictly cheaper.
    best holds each node's best cost capped there, so one comparison applies
    both bounds, and the cap is recomputed only when dst improves.  dst's
    row is never gathered (dst never joins the frontier), so its diagonal is
    set to inf for the minimum.  Other diagonals keep their (non-negative)
    link costs: a frontier node's path extended by its own diagonal costs no
    less than that node's best, so the strict comparison never keeps it,
    and src's own entry is set aside only while the first frontier is
    picked.

    Each layer is reduced before any argmin: one minimum over the gathered
    rows gives every node's cheapest path in the layer, the value at the
    position argmin would return.  dst's column gets its own argmin only
    when dst improves, the search ends as soon as no node is kept, and the
    predecessors of the kept nodes come from an argmin over their columns
    alone.
    """
    costs = _search_costs(network, kind)
    into = costs[dst]
    into[dst] = math.inf
    last = float(into.min())
    best = costs[src].copy()  # one-hop paths
    top = float(best[dst])
    cap = _cap(top, last)
    best[src] = math.inf
    frontier = (best < cap).nonzero()[0]
    best[src] = 0.0
    np.minimum(best, cap, out=best)
    cost = best[frontier]
    first = frontier  # first hop of each frontier path
    hop = dst
    while frontier.size:
        reach = costs.take(frontier, axis=0)
        reach += cost[:, None]
        # each node's cheapest path in this layer; reach.min(axis=0) adds a
        # Python-level wrapper call
        low = np.minimum.reduce(reach)
        if low[dst] < top:
            top = float(low[dst])
            hop = first[reach[:, dst].argmin()]
            np.minimum(best, _cap(top, last), out=best)
        nodes = (low < best).nonzero()[0]
        if not nodes.size:
            break
        # frontier position of each kept node's best predecessor
        via = reach.take(nodes, axis=1).argmin(axis=0)
        order = via.argsort(kind="stable")  # nodes ascend, so ties keep node order
        frontier = nodes[order]
        cost = best[frontier] = low[frontier]
        first = first[via[order]]
    return int(hop)


def _check_endpoints(network: NetworkState, src: int, dst: int) -> None:
    n = network.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"node ids out of range 0..{n - 1}: {src} -> {dst}")
    if src == dst:
        raise ValueError(f"endpoints must differ, got {src} -> {dst}")


def _bundle_next_hop(network: NetworkState, current: int, dst: int) -> int:
    """Greedy hop choice: best current-quality link among forward candidates.

    Candidates are the nodes strictly closer to dst than the current node by
    build-time geometry (dst itself counts, at distance zero); judging
    progress against the fixed geometry keeps every route loop-free.  From
    the probe the direct hop to the ground station is excluded whenever
    relays exist.  An empty candidate set falls back to dst; that depends
    on the geometry alone, so it is logged once per network, node and dst.
    """
    to_dst = network.default_distance[dst].tolist()  # diagonal: 0.0 at dst
    quality = network.current_quality[current].tolist()
    cur_d = to_dst[current]
    skip_direct = current == network.probe_id and network.node_count > 2
    excluded = network.ground_id if skip_direct else -1
    best = -1
    best_q = -1.0
    for v, d_v in enumerate(to_dst):
        if d_v < cur_d and v != excluded and quality[v] > best_q:
            # strict: quality ties keep the lowest node id
            best_q = quality[v]
            best = v
    if best < 0:
        if (current, dst) not in network.fallback_warned:
            network.fallback_warned.add((current, dst))
            logger.warning(
                "degenerate topology: no forward candidate from node %d toward %d, "
                "falling back to the direct hop",
                current,
                dst,
            )
        return dst
    return best


def next_hop(
    network: NetworkState, protocol: ProtocolKind, current: int, dst: int
) -> int:
    """Single forwarding decision for one protocol under the current state.

    Node ids outside 0..n-1, or current == dst, raise ValueError, and so
    does a protocol that is not a ProtocolKind.  A Dijkstra protocol's hop
    comes from the kernel that dijkstra_path uses at this graph size (see
    LAYERED_MIN_NODES), under its cost kind in PROTOCOL_COST_KIND; both are
    picked by plain comparisons, without a call or a dict lookup.
    """
    n = network.node_count
    if not (0 <= current < n and 0 <= dst < n) or current == dst:
        _check_endpoints(network, current, dst)  # raises with the message
    if protocol is _BUNDLE:
        return _bundle_next_hop(network, current, dst)
    if protocol is _DISTANCE:
        kind = _TIME_COST
    elif protocol is _QUALITY:
        kind = _QUALITY_COST
    else:
        raise ValueError(f"unknown protocol: {protocol!r}")
    if n >= LAYERED_MIN_NODES:
        return _layered_next_hop(network, kind, current, dst)
    return _search(network, kind, current, dst)


def most_frequent_path(routes: Iterable[Sequence[int]]) -> Route:
    """Most common route in the collection; ties keep the first seen."""
    best = Counter(map(tuple, routes)).most_common(1)
    if not best:
        raise ValueError("route collection is empty")
    return best[0][0]
