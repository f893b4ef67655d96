"""One measured process: set up a workload, run its jobs, check them.

Started by `run.py` in a fresh interpreter.  `--t0` is the parent's
`time.monotonic()` just before it started this process.  Once setup is
done the worker prints `READY <json>` with its setup time, then runs jobs
until their summed time reaches `--seconds` and at least `--min-jobs` have
run (or, with `--jobs`, exactly that many jobs), and prints
`RESULT <json>` last.  Each job's output is checked right after it,
outside the timed region.

The machine's speed drifts: on shared virtual machines, stretches of
seconds run all code up to 1.5 times slower.  A fixed calibration loop
runs between jobs (at most every `CALIBRATION_EVERY_S`), and each job's
time is scaled by `CALIBRATION_MS` over the mean of the calibrations just
before and after it.  Setup time, from `--t0` to the end of setup, is
scaled the same way by the median of `SETUP_CALIBRATIONS` calibrations
run just before setup starts and as many just after it ends; the time of
those before it is taken out of the setup time.  The setup time,
latencies and throughput reported are these scaled values, in the time of
a machine whose calibration loop takes `CALIBRATION_MS`; the raw
wall-clock values are reported beside them.

Every run starts cold on purpose: `gf._field_cache`, `gf._extension_cache`,
`ExtensionField._mul_memo` and `codes._beta_memo` live for the whole
process, so a warm process would time lookups instead of work.
"""

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CALIBRATION_MS = 2.85        # calibrate() on an idle 2-vCPU Xeon VM
CALIBRATION_EVERY_S = 0.1
SETUP_CALIBRATIONS = 15
_CAL_SETS = [frozenset(random.Random(i).sample(range(256), 40)) for i in range(64)]


def calibrate():
    """Time, in milliseconds, of a fixed pure-Python loop with the mix of
    work advnet does: tuple and dict traffic, frozenset intersections and
    big-integer bit operations.  No advnet code runs in it, so a faster
    program does not change it."""
    start = time.perf_counter()
    acc, seen = 0, {}
    for i in range(2000):
        seen[(i, i % 13)] = i
        acc += len(_CAL_SETS[i % 64] & _CAL_SETS[(i * 5 + 1) % 64])
        acc += seen.get((i - 1, (i - 1) % 13), 0) & 1
        acc |= 1 << (i % 300)
    return (time.perf_counter() - start) * 1000.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--min-jobs", type=int, default=0,
                   help="keep going past --seconds until this many jobs ran")
    p.add_argument("--jobs", type=int, default=None,
                   help="run exactly this many jobs instead of a time budget")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None,
                   help="trace layer boundaries and write the spans here")
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    return p.parse_args(argv)


def quantile(values, q):
    """Interpolated quantile (inclusive method) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run(args):
    # Calibrations bracket setup; the time of those before it is not setup.
    cal_start = time.monotonic()
    setup_cals = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    cal_wall = time.monotonic() - cal_start
    tracer = None
    if args.trace_out:
        from spans import Tracer      # imports advnet
        tracer = Tracer()
        tracer.install()
    import workloads

    with open(args.reference) as fh:
        refs = json.load(fh)
    fixtures = workloads.setup(args.workload)
    if tracer is not None and args.workload == "decode":
        for _net, scheme in fixtures.values():
            tracer.wrap_decoders(scheme)
    setup_wall = time.monotonic() - args.t0 - cal_wall
    setup_cals += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    setup_cal = statistics.median(setup_cals)
    print("READY " + json.dumps({"setup_s": setup_wall * CALIBRATION_MS / setup_cal,
                                 "wall_setup_s": setup_wall,
                                 "setup_calibration_ms": setup_cal}), flush=True)
    if args.setup_only:
        return None

    stream = workloads.job_stream(args.workload, args.seed, fixtures, refs)
    latencies, digest = [], hashlib.sha256()
    by_family = {}
    failed = exact = raised = 0
    gap_sum = 0.0
    failures = {}
    busy = 0.0
    calibrations, cal_index = [calibrate()], []
    last_cal = time.perf_counter()
    while ((busy < args.seconds or len(latencies) < args.min_jobs) if args.jobs is None
           else len(latencies) < args.jobs):
        if tracer is not None:
            tracer.active = False
        job = next(stream)
        if time.perf_counter() - last_cal >= CALIBRATION_EVERY_S:
            calibrations.append(calibrate())
            last_cal = time.perf_counter()
        cal_index.append(len(calibrations) - 1)
        if tracer is not None:
            tracer.job = len(latencies)
            tracer.active = True
        error = result = None
        start = time.perf_counter()
        try:
            result = job.fn()
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        busy += elapsed
        latencies.append(elapsed * 1000.0)
        by_family.setdefault(job.family, []).append(elapsed * 1000.0)

        if error is not None:           # a raising job is a failed job
            failed += 1
            tag = f"{job.family}:{type(error).__name__}"
            failures[tag] = failures.get(tag, 0) + 1
            digest.update(json.dumps([job.key, "raised", type(error).__name__]).encode())
            continue
        answer = job.summary(result)
        digest.update(json.dumps([job.key, answer.summary]).encode())
        if not job.check(result):
            failed += 1
            tag = f"{job.family}:wrong"
            failures[tag] = failures.get(tag, 0) + 1
            continue
        if answer.raised is not None:
            raised += 1
        if answer.exact:
            exact += 1
        else:
            gap_sum += answer.gap

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibrations.append(calibrate())
    scaled = [ms * 2 * CALIBRATION_MS / (calibrations[k] + calibrations[k + 1])
              for ms, k in zip(latencies, cal_index)]
    n = len(latencies)
    out = {
        "jobs": n,
        "busy_s": busy,
        "jobs_per_s": n * 1000.0 / sum(scaled),
        "job_ms_p50": quantile(scaled, 0.5),
        "job_ms_p90": quantile(scaled, 0.9),
        "wall_jobs_per_s": n / busy,
        "wall_job_ms_p50": quantile(latencies, 0.5),
        "wall_job_ms_p90": quantile(latencies, 0.9),
        "calibration_ms": statistics.median(calibrations),
        "exact_frac": exact / n,
        "gap_sum": gap_sum,
        "failed": failed,
        "raised": raised,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "families": {f: [len(v), sum(v) / 1000.0, statistics.median(v)]
                     for f, v in sorted(by_family.items())},
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.spans)
        tracer.write(args.trace_out)
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    out = run(args)
    if out is not None:
        print("RESULT " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
