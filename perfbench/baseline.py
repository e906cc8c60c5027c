"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Runs `run.py` as a separate command for each (workload, seed), with
`run_seconds` from BENCHMARK.json. For each end-to-end metric it records
every value, the median and the quartile spread (q3 - q1) / median, with
quartiles as `statistics.quantiles(n=4)` gives them; the traced run adds
the per-layer metrics of the first seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit or None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, walls, attempted = {}, [], []
        for seed in seeds:
            start = time.monotonic()
            result = run_once(workload, seed, seconds, 0)
            walls.append(time.monotonic() - start)
            attempted.append(result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)
        traced = run_once(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "run_wall_s": summary(walls),
            "attempted": attempted,
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
