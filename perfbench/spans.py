"""In-memory span recorder that instruments dtn_tradesim from outside.

The layers call each other through module attributes looked up at call time
(``simulation.perturb``, ``study.run_simulation``, ...), so replacing those
attributes with timing wrappers records a span at every layer boundary
without editing a source file.  Spans live in flat arrays while a run is
going and are written out once, when it ends.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

# (module, attribute, span name).  Every call the program makes across one of
# these boundaries becomes a span.  next_hop is absent: its span name depends
# on the protocol argument, so it gets its own wrapper.
BOUNDARIES = (
    ("simulation", "place_nodes", "network.place_nodes"),
    ("simulation", "build_network", "network.build_network"),
    ("simulation", "reset", "network.reset"),
    ("simulation", "perturb", "network.perturb"),
    ("simulation", "hop_outcome", "simulation.hop_outcome"),
    ("simulation", "simulate_packet", "simulation.simulate_packet"),
    ("simulation", "summarize_protocol_records", "simulation.summarize"),
    ("study", "run_simulation", "simulation.run_simulation"),
    ("study", "significance_matrix", "stats.significance_matrix"),
    ("study", "build_table", "decision.build_table"),
    ("study", "practicality_correction", "decision.practicality_correction"),
    ("study", "rank", "decision.rank"),
    ("study", "most_frequent_path", "routing.most_frequent_path"),
)


class Tracer:
    """Spans with name, start, end, parent span and study id.

    Times are ``perf_counter_ns`` readings.  A span's parent is the span that
    was open when it started (-1 at top level); ``study`` tags every span
    with the study that caused it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.study = array("i")
        self.study_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def mark(self) -> int:
        return len(self.start)

    def truncate(self, mark: int) -> None:
        """Drop every span recorded since ``mark`` (a study that failed)."""
        for col in (self.name, self.start, self.end, self.parent, self.study):
            del col[mark:]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.study.append(self.study_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def wrap_next_hop(self, fn):
        """next_hop(network, protocol, current, dst), one span name per protocol."""
        ids = {}
        open_, close = self._open, self._close

        def traced(network, protocol, current, dst):
            nid = ids.get(protocol)
            if nid is None:
                nid = ids[protocol] = self.name_id(f"routing.{protocol.value}")
            i = open_(nid)
            try:
                return fn(network, protocol, current, dst)
            finally:
                close(i)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "study": np.frombuffer(self.study, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch every boundary in BOUNDARIES (and next_hop) for the duration."""
    from dtn_tradesim import simulation, study

    modules = {"simulation": simulation, "study": study}
    saved = []
    try:
        for mod_name, attr, span_name in BOUNDARIES:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span_name, original))
        saved.append((simulation, "next_hop", simulation.next_hop))
        simulation.next_hop = tracer.wrap_next_hop(simulation.next_hop)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so a child that starts early, ends late or overlaps a
    sibling never makes self time negative or counts twice.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    children: dict[int, list[int]] = {}
    for i in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[i]), []).append(int(i))
    out = (end - start).astype(np.int64)
    for p, kids in children.items():
        lo, hi = int(start[p]), int(end[p])
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted((max(lo, int(start[k])), min(hi, int(end[k]))) for k in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
