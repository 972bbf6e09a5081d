"""perfbench's traced runs see every layer they wrap.

perfbench/spans.py times the layers by replacing module attributes (see its
BOUNDARIES), so each layer must be called through its module global.  A call
through a name bound at import would run untraced and its layer would vanish
from the benchmark's per-layer report; this test catches that without running
the benchmark.  spans.py is loaded from its file and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dtn_tradesim.config import StudyConfig
from dtn_tradesim.report import write_report
from dtn_tradesim.routing import ProtocolKind
from dtn_tradesim.study import run_study

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("relay_count", [4, 20])  # the list and the layered search
def test_every_wrapped_layer_records_a_span(relay_count, tmp_path):
    spans = load_spans()
    config = StudyConfig(
        relay_count=relay_count, run_count=2, packet_count=5, out_dir=str(tmp_path / "b")
    )
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        write_report(run_study(config))
    # Names are registered when a wrapper is made; only recorded spans count.
    recorded = {tracer.names[i] for i in tracer.name}
    wanted = {name for _, _, name in spans.BOUNDARIES}
    wanted |= {f"routing.{p.value}" for p in ProtocolKind}
    assert wanted - recorded == set()
