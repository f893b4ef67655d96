"""advnet benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload capacity|decode|verify --seed N \\
        [--seconds 30] [--trace 0|1]

Run from the root of a checkout of the repository; the program is imported
from `src/`.  Every measurement runs in a fresh interpreter (see
worker.py), one at a time, each with one thread.

--trace 0: the measured process, which runs for --seconds and at least
    `MIN_JOBS` jobs, between two halves of `SETUP_PROBES` setup-only
    processes, so that the setup samples span the whole run.
    setup_s is the median over all of them of the time from starting the
    interpreter to the end of setup, as each worker reports it.  The other
    metrics come from the measured process's jobs.
--trace 1: an untraced process runs jobs for half of --seconds; a traced
    process then runs exactly as many jobs with the same seed and writes
    its spans to perfbench/out/.  The two must give identical job outputs;
    the difference in busy time is reported as the tracing overhead.

Setup time, job latencies and throughput are scaled by a calibration loop
to remove the machine's speed drift (see worker.py); the report shows the
raw wall-clock values beside them.  The report lists every metric with its
unit; the last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("capacity", "decode", "verify")
# Setup-only processes per run: about 6 s of them.  Capacity's setup is
# only imports, short and noisy, so it takes more samples.
SETUP_PROBES = {"capacity": 24, "decode": 8, "verify": 8}
MIN_JOBS = 150      # so that 15 samples lie above p90 even on a slow machine
TIME_LIMIT_S = 170.0

END_TO_END = {      # reported on the result line
    "jobs_per_s": "jobs/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
REPORT_ONLY = {     # printed in the report, not gated: zero on some workloads,
    "exact_frac": "ratio", "gap_sum": "log", "failed_frac": "ratio",   # or raw clock
    "wall_jobs_per_s": "jobs/s", "wall_job_ms_p50": "ms", "wall_job_ms_p90": "ms",
    "wall_setup_s": "s", "calibration_ms": "ms",
}


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    return p.parse_args(argv)


def spawn(args, deadline, extra):
    """Run worker.py to completion; returns (READY record, RESULT record)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--reference", args.reference,
           "--t0", repr(time.monotonic())] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    records = {}
    for line in out.splitlines():
        tag, _, payload = line.partition(" ")
        if tag in ("READY", "RESULT"):
            records[tag] = json.loads(payload)
    if "READY" not in records:
        raise BenchError("worker printed no READY line")
    if "RESULT" not in records and "--setup-only" not in extra:
        raise BenchError("worker printed no RESULT line")
    return records["READY"], records.get("RESULT")


def end_to_end(args, deadline):
    def probes(n):
        return [spawn(args, deadline, ["--setup-only"])[0] for _ in range(n)]

    count = SETUP_PROBES[args.workload]
    readies = probes(count // 2)
    ready, res = spawn(args, deadline, ["--seconds", str(args.seconds),
                                        "--min-jobs", str(MIN_JOBS)])
    readies += [ready] + probes(count - count // 2)
    metrics = {name: res[name] for name in END_TO_END.keys() | REPORT_ONLY.keys()
               if name in res}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in readies)
    metrics["wall_setup_s"] = statistics.median(r["wall_setup_s"] for r in readies)
    metrics["failed_frac"] = (res["failed"] + res["raised"]) / res["jobs"]
    notes = [f"jobs {res['jobs']} in {res['busy_s']:.2f} s busy; p90 has "
             f"{res['jobs'] - int(0.9 * res['jobs'])} samples above it",
             "setup_s samples " + ", ".join(f"{r['setup_s']:.4f}" for r in readies)]
    notes += [f"family {name:18s} {n:5d} jobs {busy:8.3f} s busy, median {p50:9.3f} ms"
              for name, (n, busy, p50) in res["families"].items()]
    if res["raised"]:
        notes.append(f"{res['raised']} jobs raised the exception their reference records")
    if res["failures"]:
        notes.append(f"failures {res['failures']}")
    gated = {k: (metrics[k], u) for k, u in END_TO_END.items()}
    shown = dict(gated, **{k: (metrics[k], u) for k, u in REPORT_ONLY.items()})
    return res["failed"] == 0, res["jobs"], res["failed"], gated, shown, notes


def per_layer(args, deadline):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    _, base = spawn(args, deadline, ["--seconds", str(args.seconds / 2)])
    spans_path = out_dir / f"spans_{args.workload}_{args.seed}.json"
    _, traced = spawn(args, deadline, ["--jobs", str(base["jobs"]),
                                       "--trace-out", str(spans_path)])
    same = base["digest"] == traced["digest"]
    overhead = traced["busy_s"] - base["busy_s"]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (traced["spans"], "count")
    notes = [f"jobs {base['jobs']}: untraced {base['busy_s']:.3f} s, traced "
             f"{traced['busy_s']:.3f} s busy, overhead {overhead:.3f} s "
             f"({100 * overhead / base['busy_s']:.1f}%)",
             f"traced outputs {'equal' if same else 'DIFFER from'} untraced outputs",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    correct = same and base["failed"] == 0 and traced["failed"] == 0
    return correct, traced["jobs"], traced["failed"], metrics, metrics, notes


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "advnet" / "__init__.py").is_file():
        print(f"no advnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, gated, shown, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
