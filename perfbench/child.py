"""One slice of a workload in its own process.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and
PYTHONHASHSEED pinned. It generates its slice of instances (set-up), then
either times exchanges and solves pass after pass over the slice until its
time share is spent (`--mode e2e`), or makes untraced and traced passes
over the slice (`--mode trace`). It prints one JSON object as the last
line of its output; a wrong answer exits with code 3.
"""

import argparse
import copy
import gzip
import hashlib
import json
import os
import resource
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, WrongAnswer, make_items, run_item

EXIT_WRONG_ANSWER = 3
SPAN_FIELDS = ("id", "parent", "layer", "name", "start", "end", "self_s", "instance")
# The exchange is cheap next to the solve, so each timed attempt runs it
# three times and keeps the median; one interruption then cannot move the
# exchange percentiles of workloads whose instances are timed only once or
# twice in a run.
EXCHANGE_REPEATS = 3

# Machine-speed calibration. Other tenants of a shared host slow this
# process down by up to half, in spells that last from a second to
# minutes, and CPU time slows as much as wall time. A fixed kernel that
# does not touch sdlp is timed between consecutive timed instances; each
# instance's times are reported with its slowdown, the mean kernel time on
# either side of it over KERNEL_REFERENCE_S. The kernel mixes
# interpreter-bound tuple arithmetic with big-integer pow in C, because
# each part alone tracks the slowdown of the workloads with a slope of
# about 0.8 and 1.1 respectively.
KERNEL_P = 65521
KERNEL_MATRIX = tuple(tuple((7 * i + 13 * j + 1) % KERNEL_P for j in range(3)) for i in range(3))
KERNEL_REFERENCE_S = 3.1e-4  # about the best kernel time on a quiet 2.1 GHz Xeon vCPU


def kernel():
    """20 powers of a 3x3 matrix mod p with tuples and a dict, then 125
    modular powers with a 61-bit modulus."""
    M, seen = KERNEL_MATRIX, {}
    for r in range(20):
        cols = tuple(zip(*M))
        M = tuple(tuple(sum(a * b for a, b in zip(row, col)) % KERNEL_P for col in cols) for row in M)
        seen[M] = r
    return len(seen) + sum(pow(3, e, (1 << 61) - 1) for e in range(1000, 1125))


def kernel_s():
    """Best of two timings of the calibration kernel."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def run_pass(workload, items, config, tracer=None):
    """Run every item once on a fresh copy; returns the outcomes."""
    outcomes = []
    for index, item in enumerate(copy.deepcopy(items)):
        if tracer is None:
            outcomes.append(run_item(workload, item, config))
        else:
            tracer.instance = index
            outcomes.append(run_item(workload, item, config, tracer.pause))
    return outcomes


def measure(workload, items, budget_s):
    """Time the slice pass after pass until `budget_s` has elapsed. The
    first pass always completes; later ones may stop part way. Returns the
    raw times and slowdowns per instance, one entry per attempt."""
    config = workload.make_config()
    exchange_s = [[] for _ in items]
    solve_s = [[] for _ in items]
    slowdown = [[] for _ in items]
    failures = []
    start = time.perf_counter()
    kernel_before = kernel_s()
    first_pass = True
    while True:
        for index, item in enumerate(copy.deepcopy(items)):
            if not first_pass and time.perf_counter() - start >= budget_s:
                return {"exchange_s": exchange_s, "solve_s": solve_s, "slowdown": slowdown, "failures": failures}
            outcome = run_item(workload, item, config, exchange_repeats=EXCHANGE_REPEATS)
            kernel_after = kernel_s()
            exchange_s[index].append(outcome.exchange_s)
            solve_s[index].append(outcome.solve_s)
            slowdown[index].append((kernel_before + kernel_after) / 2 / KERNEL_REFERENCE_S)
            kernel_before = kernel_after
            if outcome.failed:
                failures.append(outcome.failed)
        first_pass = False


def digest(outcomes):
    return hashlib.sha256(repr([(o.failed, o.answer) for o in outcomes]).encode()).hexdigest()


def trace(workload, items, spans_path):
    """An untraced pass, a traced pass and another untraced pass, each on
    fresh copies with a fresh config; all three must give the same answers.
    The untraced time is the mean of the two passes around the traced one,
    which cancels a steady drift in machine speed."""
    before = run_pass(workload, items, workload.make_config())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, items, workload.make_config(), tracer)
    finally:
        tracer.uninstall()
    after = run_pass(workload, items, workload.make_config())
    if not digest(before) == digest(traced) == digest(after):
        raise WrongAnswer("traced and untraced passes gave different answers")
    untraced_s = sum(o.exchange_s + o.solve_s for o in before + after) / 2
    traced_s = sum(o.exchange_s + o.solve_s for o in traced)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with gzip.open(spans_path, "wt") as out:
        for span in sorted(tracer.spans):
            record = dict(zip(SPAN_FIELDS, span), raised=span[8] and span[8].__name__)
            out.write(json.dumps(record) + "\n")
    return {
        "layers": layer_metrics(tracer, traced_s, untraced_s),
        "counts": tracer.counts,
        "answers": digest(traced),
        "failures": [o.failed for o in traced if o.failed],
        "spans": len(tracer.spans),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time share of this process")
    parser.add_argument("--mode", choices=("e2e", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    args = parser.parse_args(argv)
    kernel_at_start = kernel_s()

    workload = WORKLOADS[args.workload]
    items = make_items(workload, args.seed, args.part, args.parts)
    setup_s = time.monotonic() - args.t0
    setup_slowdown = (kernel_at_start + kernel_s()) / 2 / KERNEL_REFERENCE_S
    try:
        if args.mode == "e2e":
            result = measure(workload, items, args.seconds)
        else:
            result = trace(workload, items, args.spans)
    except WrongAnswer as err:
        print(f"wrong answer: {err}", file=sys.stderr)
        return EXIT_WRONG_ANSWER
    result["setup_s"] = setup_s
    result["setup_slowdown"] = setup_slowdown
    result["items"] = len(items)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
