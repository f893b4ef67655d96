"""The benchmark's tracer wraps functions by name; each must still exist
on the object the tracer names, or the benchmark fails at start-up."""

import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

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


def test_every_capacity_job_checks():
    """A capacity value, witness or exactness flag that the capacity
    workload would count as wrong fails here instead of in a benchmark run:
    every circulant power and random table at the workload's node budget.
    The seven circulants that finish inside that budget stay exact."""
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    exact = set()
    for family, entries, build in (
            ("circulant", workloads.CIRCULANTS, workloads.circulant_channel),
            ("random_table", workloads.RANDOM_TABLES, workloads.random_table)):
        for entry in entries:
            job = workloads._capacity_job(family, entry, build(*entry), refs[family][str(entry)])
            res = job.fn()
            assert job.check(res), job.key
            if res.exact and family == "circulant":
                exact.add(entry)
    assert exact == {
        (6, (0, 1), 3), (6, (0, 2), 3), (11, (0, 2, 7), 2), (12, (0, 1), 2),
        (14, (0, 1), 2), (16, (0, 1), 2), (18, (0, 1), 2)}


def test_every_verify_job_checks():
    """A fan-out, verification or impossibility answer that the verify
    workload would count as wrong fails here instead of in a benchmark run:
    every linear-relay, adversary-free, impossibility and product-alphabet
    job, and double-relay jobs whose sub-codes a fixed seed draws."""
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    fixtures = workloads.setup("verify")
    schemes = fixtures["product_alphabet"]
    jobs = [workloads._relay_job(e, refs["linear_relay"][str(e)])
            for e in workloads.LINEAR_RELAYS]
    jobs += [workloads._af_job(e, refs["adversary_free"][str(e)]) for e in workloads.AF_BUILDS]
    jobs += [workloads._impossibility_job(e, refs["impossibility"][str(e)])
             for e in workloads.IMPOSSIBILITY]
    jobs += [workloads._product_alphabet_job(key, *schemes[key])
             for key in workloads.PRODUCT_ALPHABET]
    rng = random.Random(1706)
    jobs += [workloads._double_relay_job(rng, fixtures["double_relay"]) for _ in range(4)]
    for job in jobs:
        assert job.check(job.fn()), job.key


def _check_and_summary(job):
    result = job.fn()
    assert job.check(result), job.key
    return job.summary(result)


def test_one_job_of_each_capacity_family_checks_and_summarises(monkeypatch):
    """The capacity summaries read `upper_bits`, `lower_bits`,
    `upper_value`, `value` and `bits`; a change to the value types that
    breaks them fails here instead of in a benchmark run.  Covers exact and
    budget-exhausted capacities, an exact and an inexact beta, and both
    answers of a two-block Hamming job."""
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference.json").read_text())
    rand = workloads.RANDOM_TABLES[0]
    circ = workloads.CIRCULANTS[0]
    region = workloads.REGIONS[0]
    ham = workloads.HAMMING_SPECS[-1]
    answers = [_check_and_summary(job) for job in (
        workloads._capacity_job("random_table", "rand", workloads.random_table(*rand),
                                refs["random_table"][str(rand)]),
        workloads._region_job(region, refs["region"][str(region)]),
        workloads._hamming_job(ham, refs["hamming"][str(ham)]),
        workloads._beta_job((2, 4, 3), refs["beta"]["(2, 4, 3)"]),
        # outside the reference: the six constant words stand in for the
        # unknown largest size, which the inexact answer must bracket
        workloads._beta_job((6, 7, 4), 6))]
    monkeypatch.setattr(workloads, "NODE_BUDGET", 1)
    answers += [_check_and_summary(job) for job in (
        workloads._capacity_job("circulant", "circ", workloads.circulant_channel(*circ),
                                refs["circulant"][str(circ)]),
        workloads._hamming_job(ham, refs["hamming"][str(ham)]))]
    assert [a.exact for a in answers] == [True, True, True, True, False, False, False]
    assert answers[4].gap == pytest.approx(3.0) and answers[5].gap > 0
    assert answers[6].summary == ["hamming", None] and answers[6].gap > 0
