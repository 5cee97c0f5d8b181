"""hoferlab benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the workload runs untraced and the last line of
standard output is a JSON object with every end-to-end metric. Each op of
a pass is timed on every repeat and its latency is the best of its repeats
(see README.md for why). ``verify-all`` runs one suite per fresh process,
as a user's ``hoferlab verify`` does, and its op is the whole suite; the
other workloads repeat passes in three processes that share ``--seconds``.
Processes that stop after the warm-up op, one before each measuring
process and one after the last, add set-up samples. With ``--trace 1`` one process
alternates untraced and traced passes over the same inputs, checks that
both give the same outputs, and reports the per-layer metrics. The line
before the result records the environment and the sample counts behind
each metric.

Exit codes: 0 a result was printed, 1 a workload process failed or ran out
of time, 2 the hoferlab sources are not under ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER_METRICS  # noqa: E402

WORKLOADS = ("verify-all", "flow-cloud", "snowflake-groups")
# A user runs one suite per process, so verify-all starts a fresh process
# for every suite until --seconds have passed. Its op is the whole suite,
# timed check by check so that each check gets its own best.
WHOLE_SUITE = ("verify-all",)
# The other workloads share --seconds between this many processes.
MEASURING_PROCESSES = 3
DEADLINE_S = 170.0
WORKDIR = ".bench_out"
PINNED = {"HOFERLAB_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = (("setup_s", "s"), ("suite_s", "s"), ("ops_per_s", "1/s"),
              ("op_s_p50", "s"), ("op_s_p90", "s"), ("ok_frac", "ratio"),
              ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """A workload process failed; no result is printed."""


def percentile(values, q):
    """Linear interpolation between order statistics, as numpy's default."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(n):
    """Highest percentile up to p90 that leaves at least ten samples above it.

    Below 20 samples no percentile above the median qualifies, and the
    median is reported.
    """
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, numpy_version):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": _git_commit(root), "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu, "nproc": os.cpu_count(),
            "pinned": PINNED}


def run_worker(args, seconds, trace, deadline, setup_only=False):
    env = dict(os.environ, **PINNED)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--size", args.size, "--workdir", os.path.abspath(WORKDIR)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another workload process")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"workload process still running after {remaining:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args, deadline):
    """Worker results, and the set-up samples of an untraced run.

    A set-up-only process runs before each measuring process and after the
    last one, so the set-up samples are spread over the whole run.
    """
    if args.trace:
        return [run_worker(args, args.seconds, 1, deadline)], None

    def setup_only():
        return run_worker(args, 0, 0, deadline, setup_only=True)["setup_s"]

    whole_suite = args.workload in WHOLE_SUITE
    runs, setup = [], []
    begin = time.monotonic()
    while not runs or (time.monotonic() - begin < args.seconds if whole_suite
                       else len(runs) < MEASURING_PROCESSES):
        setup.append(setup_only())
        runs.append(run_worker(args, 0 if whole_suite else args.seconds / MEASURING_PROCESSES,
                               0, deadline))
        setup.append(runs[-1]["setup_s"])
    setup.append(setup_only())
    return runs, setup


def best_latencies(runs):
    """Best time of each op of the pass over all of its repeats, in pass order."""
    best = None
    for r in runs:
        n = len(r["latencies"]) // len(r["passes"])
        for i in range(0, len(r["latencies"]), n):
            rep = r["latencies"][i:i + n]
            best = rep if best is None else [min(a, b) for a, b in zip(best, rep)]
    return best


def end_to_end(workload, runs, setup_samples, attempted, failed):
    best = best_latencies(runs)
    suite = sum(best)
    ops = [suite] if workload in WHOLE_SUITE else best
    q = tail_quantile(len(ops))
    values = {"setup_s": statistics.median(setup_samples),
              "suite_s": suite,
              "ops_per_s": len(ops) / suite,
              "op_s_p50": statistics.median(ops),
              "op_s_p90": percentile(ops, q),
              "ok_frac": (attempted - failed) / attempted,
              "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}
    samples = {"setup_s": len(setup_samples), "ops_per_pass": len(ops),
               "repeats_per_op": sum(len(r["passes"]) for r in runs),
               "op_s_p90_quantile": q}
    return values, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the inputs for smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hoferlab", "__init__.py")):
        print("error: run from the repository root; src/hoferlab is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        runs, setup = collect(args, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for text in r["errors"]:
            sys.stderr.write(text)
    deterministic = (all(r["deterministic"] for r in runs) and
                     len({r["digest"] for r in runs}) == 1)
    if args.trace:
        metrics = {name: {"value": runs[0]["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_METRICS}
        samples = {"traced_passes": runs[0]["pairs"]}
    else:
        values, samples = end_to_end(args.workload, runs, setup, attempted, failed)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "environment": environment(os.getcwd(), runs[0]["numpy"]),
                      "samples": samples, "outputs_repeat": deterministic}))
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
