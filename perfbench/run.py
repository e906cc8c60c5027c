"""sdlp benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With --trace 0 it starts PARTS
child processes one after another (a closed loop with one client); each
generates its own slice of the workload's instances, then times exchanges
and solves for S / PARTS seconds. It prints every end-to-end metric and, as
the last line, one JSON object. With --trace 1 it starts one child that
runs slice 0 untraced, traced and untraced again, and reports the
per-layer metrics of the traced pass.
Every answer is checked; a wrong answer exits non-zero without a result.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PARTS = 3
TIME_LIMIT_S = 170
WORKLOADS = ("spdke-heisenberg", "elem-abelian", "matrix-inner", "mixed-small")

END_TO_END_UNITS = {
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "solves_per_s": "1/s",
    "exchange_p50_ms": "ms",
    "exchange_p90_ms": "ms",
    "answered_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


LAYERS = ("protocol", "solvers", "reductions", "oracles", "integers", "groups", "linalg", "ff")
PER_LAYER = [f"{layer}.{part}" for layer in LAYERS for part in ("calls", "self_s", "fails")] + [
    "ff.mul",
    "ff.inv",
    "linalg.matrix_new",
    "linalg.matmul",
    "linalg.inverse",
    "linalg.invertible_ratio",
    "groups.mul",
    "groups.endo_apply",
    "groups.endo_compose",
    "groups.endo_pow",
    "groups.rho_pow",
    "oracles.dlog",
    "oracles.dlog_s",
    "oracles.dlog_hit_ratio",
    "oracles.element_order",
    "oracles.endo_order",
    "reductions.quotient",
    "reductions.shift",
    "reductions.to_automorphism",
    "solvers.entries",
    "solvers.declines",
    "solvers.accept_ratio",
    "trace_overhead",
]
LAYER_UNITS = {
    name: "s" if name.endswith("_s") else "ratio" if name.endswith(("_ratio", "_overhead")) else "count"
    for name in PER_LAYER
}


class ChildFailed(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def run_child(workload, seed, part, parts, seconds, mode, timeout, spans=None):
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--part", str(part), "--parts", str(parts), "--seconds", repr(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} part {part} did not finish within {timeout:.0f} s", 1) from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} part {part} exited {proc.returncode}:\n{proc.stderr}", proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(children, scaled=True):
    """Aggregate the children's timings.

    With `scaled`, each time is divided by the machine slowdown measured
    next to it (see child.py), which reports it at the calibration
    kernel's reference speed. Instances may have been timed different
    numbers of times, so each is weighted once: latency percentiles are
    taken over per-instance medians, and throughput is instances over the
    summed per-instance mean solve time.
    """

    def per_instance(key):
        out = []
        for c in children:
            for times, slow in zip(c[key], c["slowdown"]):
                out.append([t / s for t, s in zip(times, slow)] if scaled else times)
        return out

    exchange = [statistics.median(runs) for runs in per_instance("exchange_s")]
    solve_runs = per_instance("solve_s")
    solve = [statistics.median(runs) for runs in solve_runs]
    attempted = sum(len(runs) for runs in solve_runs)
    failed = sum(len(c["failures"]) for c in children)
    setup = [c["setup_s"] / c["setup_slowdown"] if scaled else c["setup_s"] for c in children]
    metrics = {
        "solve_p50_ms": percentile(solve, 0.5) * 1e3,
        "solve_p90_ms": percentile(solve, 0.9) * 1e3,
        "solves_per_s": len(solve) / sum(statistics.fmean(runs) for runs in solve_runs),
        "exchange_p50_ms": percentile(exchange, 0.5) * 1e3,
        "exchange_p90_ms": percentile(exchange, 0.9) * 1e3,
        "answered_share": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sdlp", "__init__.py")):
        print(f"no sdlp sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            child = run_child(args.workload, args.seed, 0, PARTS, args.seconds, "trace", TIME_LIMIT_S, spans)
            attempted, failed = child["items"], len(child["failures"])
            metrics, units = child["layers"], LAYER_UNITS
            print(f"traced slice 0: {attempted} instances, {child['spans']} spans written to {spans}")
            print("hot leaf methods are counted, not timed: their time is in the self_s of the calling layer")
        else:
            children = []
            for part in range(PARTS):
                remaining = deadline - time.monotonic()
                children.append(run_child(args.workload, args.seed, part, PARTS, args.seconds / PARTS, "e2e", remaining))
            attempted, failed, metrics = end_to_end(children)
            units = END_TO_END_UNITS
            instances = sum(len(c["solve_s"]) for c in children)
            slowdown = statistics.median(s for c in children for runs in c["slowdown"] for s in runs)
            kinds = collections.Counter(kind for c in children for kind in c["failures"])
            print(f"{instances} instances, {attempted} timed attempts, {failed} failed {dict(kinds)}")
            print(f"median machine slowdown {slowdown:.3f}; unscaled wall times:")
            for name, value in end_to_end(children, scaled=False)[2].items():
                print(f"  {name:28} {value:>14.6g} {units[name]}")
            print("scaled to the calibration kernel's reference speed:")
    except ChildFailed as err:
        print(err, file=sys.stderr)
        return err.code
    for name, value in metrics.items():
        print(f"  {name:28} {value:>14.6g} {units[name]}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
