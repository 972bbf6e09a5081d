"""Host-speed reference: a fixed kernel that shares no code with dtn_tradesim.

A shared 2-vCPU host can run the same Python code 30% slower or faster for
minutes at a time, and a fixed loop slows by the same factor as a study.
Timing this kernel next to the studies gives the host's speed during a run,
and the end-to-end times are rescaled to the speed at which the kernel
takes NOMINAL_S.  The kernel mixes the kinds of work a study does: heap and
dict operations on tuples, small numpy draws and clips, and float repr.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# A fixed scale: about the kernel's time on the 2-vCPU Linux VM (Python 3.11,
# numpy 2.4) where the baseline was measured, so that normalized times there
# read close to wall seconds.
NOMINAL_S = 0.025


def _kernel() -> int:
    heap: list[tuple[float, int, tuple[int, ...]]] = []
    seen: dict[int, int] = {}
    for i in range(10000):
        key = (i * 7919) % 1009
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, (key * 0.5, i, (key, i)))
    while heap:
        heapq.heappop(heap)
    rng = np.random.default_rng(12345)
    z = np.zeros(64)
    for _ in range(500):
        z = np.clip(z + rng.standard_normal(64), -1.0, 1.0)
    return len(",".join(repr(k * 0.1) for k in range(5000))) + len(seen)


def reference_seconds() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
