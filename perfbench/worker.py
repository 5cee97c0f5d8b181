"""One workload process: set up, then run whole passes in a closed loop.

Started by ``run.py`` with ``src`` on PYTHONPATH and the thread pins in its
environment; prints one JSON object as its last line of standard output.

Set-up time runs from the first statement of this file, before numpy and
hoferlab are imported, to the end of the warm-up op, so it covers import,
input generation and one op.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_ERRORS = 5


class Loop:
    """Runs passes of a workload and keeps op latencies and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self):
        """One pass over the workload's ops; returns (wall seconds, digest list)."""
        digests = []
        start = time.perf_counter()
        for op in self.workload.ops():
            t0 = time.perf_counter()
            self.attempted += 1
            try:
                digests.append(op())
            except Exception:  # noqa: BLE001 - an op failure is counted, not fatal
                self.failed += 1
                digests.append(None)
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(traceback.format_exc(limit=3))
            latency = time.perf_counter() - t0
            parts = getattr(self.workload, "parts", None)
            self.latencies.extend(parts if parts else [latency])
        return time.perf_counter() - start, digests


def measure(loop, seconds):
    """Closed loop of whole passes; a pass starts only if it should end in time."""
    passes, digests = [], set()
    begin = time.perf_counter()
    while True:
        wall, dig = loop.run_pass()
        passes.append(wall)
        digests.add(json.dumps(dig))
        mean = sum(passes) / len(passes)
        if time.perf_counter() - begin + mean > seconds:
            break
    return {"passes": passes, "digest": sorted(digests)[0], "deterministic": len(digests) == 1}


def measure_traced(loop, seconds, trace_prefix):
    """Pairs of (untraced pass, traced pass) on the same inputs.

    Per-layer values are medians over the traced passes; counts are the
    same in every pass. The spans of the last traced pass are saved.
    """
    rows, same = [], True
    begin = time.perf_counter()
    while True:
        tracer = Tracer()
        if len(rows) % 2:   # alternate which side runs first
            with tracer:
                traced_s, traced = loop.run_pass()
            plain_s, plain = loop.run_pass()
        else:
            plain_s, plain = loop.run_pass()
            with tracer:
                traced_s, traced = loop.run_pass()
        same = same and plain == traced
        rows.append(tracer.metrics(traced_s - plain_s))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rows) > seconds:
            break
    tracer.save(trace_prefix, {"passes": len(rows), "outputs_equal": same})
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    return {"per_layer": metrics, "pairs": len(rows), "digest": json.dumps(plain),
            "deterministic": same}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up op and report the set-up time")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    workload.warmup()
    setup_s = time.perf_counter() - SETUP_START

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    loop = Loop(workload)
    if args.trace:
        prefix = os.path.join(args.workdir, f"trace-{args.workload}-{args.seed}")
        result = measure_traced(loop, args.seconds, prefix)
    else:
        result = measure(loop, args.seconds)
    result.update(numpy=numpy.__version__, setup_s=setup_s, latencies=loop.latencies,
                  attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
