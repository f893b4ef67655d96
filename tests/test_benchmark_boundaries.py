"""The benchmark's tracer wraps functions by name; each must still exist
on the object the tracer names, or the benchmark fails at start-up."""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_are_defined_on_their_owners():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{boundary}: {getattr(owner, '__name__', owner)}.{attr}"
               for table in (spans.SPANS, spans.COUNTERS)
               for boundary, targets in table.items()
               for owner, attr in targets if attr not in owner.__dict__]
    assert not missing
