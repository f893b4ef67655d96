"""Self-test of the benchmark itself (not of advnet).

    python3 perfbench/selftest.py

From the root of a checkout, with short runs of `run.py`:
  1. every workload prints every end-to-end metric of BENCHMARK.json with
     its unit, and its outputs check as correct;
  2. every traced workload prints every per-layer metric with its unit,
     and each layer boundary records at least one call on the workload it
     is mapped to below;
  3. a planted wrong reference value makes the capacity workload report
     failed jobs and `correct: false`.
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# boundary -> the workload on which it must record calls
MAPPED = {
    "gf.rref": "decode", "gf.matmul": "decode", "gf.make": "decode",
    "gf.field_op": "decode", "codes.rank_decode": "decode",
    "codes.beta": "capacity", "codes.decode_hamming": "verify",
    "search.mis": "capacity", "search.greedy": "capacity",
    "channel.adjacency": "capacity", "channel.confusable": "capacity",
    "channel.capacity": "capacity", "hamming.brute_force_capacity": "capacity",
    "hamming.fanout": "capacity", "network.fanouts": "verify",
    "network.evaluate": "decode", "network.cuts": "capacity",
    "regions.bound": "capacity", "regions.verify": "verify",
    "schemes.build": "verify", "schemes.transfer": "verify",
    "schemes.decode": "decode",
}

# Short runs; capacity needs longer because beta(3,6,3) alone takes ~7 s
# and budget exhaustion (search.greedy) needs a few circulant jobs.
SECONDS = {"capacity": 24, "decode": 4, "verify": 4}


def bench(workload, seconds, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def expect(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(set(MAPPED) == {n.rsplit(".", 1)[0] for n in layers if n.endswith(".calls")},
           "every per-layer boundary is mapped to a workload")
    for w in spec["workloads"]:
        name = w["name"]
        res, report = bench(name, 2 if name != "capacity" else 10, 0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(res["correct"] and got == e2e, f"{name}: end-to-end metrics and units")
        for metric in ("exact_frac", "gap_sum", "failed_frac"):
            expect(any(line.split()[:1] == [metric] for line in report),
                   f"{name}: report shows {metric}")
        res, report = bench(name, SECONDS[name], 1)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(res["correct"] and got == layers, f"{name}: per-layer metrics and units")
        for boundary, home in MAPPED.items():
            if home == name:
                calls = res["metrics"][f"{boundary}.calls"]["value"]
                expect(calls >= 1, f"{name}: {boundary} records {calls} calls")
    refs = json.loads((HERE / "reference.json").read_text())
    refs["random_table"] = {k: v + 1 for k, v in refs["random_table"].items()}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    planted = out / "planted_reference.json"
    planted.write_text(json.dumps(refs))
    res, _ = bench("capacity", 10, 0, "--reference", str(planted))
    expect(res["failed"] > 0 and not res["correct"],
           f"planted wrong reference: {res['failed']} of {res['attempted']} jobs failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
