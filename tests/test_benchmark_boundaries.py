"""The benchmark's tracer wraps functions by name; each must still exist
on the object the tracer names, or the benchmark fails at start-up."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PY = PERFBENCH / "spans.py"


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_traced_names_are_defined_on_their_owners():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{boundary}: {getattr(owner, '__name__', owner)}.{attr}"
               for table in (spans.SPANS, spans.COUNTERS)
               for boundary, targets in table.items()
               for owner, attr in targets if attr not in owner.__dict__]
    assert not missing


def test_one_job_of_each_decode_and_verify_family_checks():
    """A change to `Scheme` or its `meta` that the benchmark relies on
    fails here instead of in a benchmark run."""
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    for workload, families in (("decode", {"compound", "two_source", "gf81"}),
                               ("verify", {"double_relay", "product_alphabet",
                                           "adversary_free", "linear_relay",
                                           "impossibility"})):
        fixtures = workloads.setup(workload)
        stream = workloads.job_stream(workload, 1, fixtures, refs)
        ran = set()
        for job in itertools.islice(stream, 30):
            if job.family not in ran:
                ran.add(job.family)
                assert job.check(job.fn()), (workload, job.key)
        assert ran == families


def test_every_region_job_checks():
    """A ported value or exactness flag that the benchmark would count as
    wrong fails here instead of in a benchmark run."""
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference.json").read_text())["region"]
    for entry in workloads.REGIONS:
        job = workloads._region_job(entry, refs[str(entry)])
        assert job.check(job.fn()), job.key


def test_every_hamming_job_checks():
    """A change to `hamming.HammingSpec` that the capacity workload's
    two-block specs rely on fails here instead of in a benchmark run."""
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference.json").read_text())["hamming"]
    for entry in workloads.HAMMING_SPECS:
        job = workloads._hamming_job(entry, refs[str(entry)])
        assert job.check(job.fn()), job.key
