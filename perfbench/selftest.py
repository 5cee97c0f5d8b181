"""Smoke tests for the benchmark itself.

Run from the repository root (the file name keeps it out of the default
test collection, so timing noise cannot fail the library's own suite):

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at ``--size tiny`` with an explicit seed, untraced and
traced. ``verify-all`` has no smaller size and runs the full suite, which
makes it the slowest case (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Functions each workload must call at least once in its traced pass.
EXERCISED = {
    "verify-all": (
        ["cli.main", "expr.eval_env", "expr.step_values", "expr.diff",
         "lengths.length_k", "lengths.coarse_length_k", "lengths.hofer_like_length_k",
         "lengths.flux_harmonic", "hampath.reverse", "hampath.concatenate",
         "hampath.reparametrize", "hampath.conjugate", "hampath.disjoint_product",
         "grid.Grid.points", "flow.integrate", "flow.displaced", "snowflake.sharp",
         "snowflake.sharp_fixed_exponent", "snowflake.brute_force_sharp",
         "snowflake.quasi_constant", "experiments.shell_decay_report",
         "experiments.shell_lp_norm", "experiments.disjoint_bound_check",
         "experiments.square_displacement", "experiments.commutator_bound_report",
         "experiments.commutator_tracer_flow"]
        + [f"verify.check.{name}" for name in (
            "path_algebra_reverse", "path_algebra_concat", "path_algebra_reparam",
            "monotonicity", "coarse_dominates", "lp_quasinorm", "snowflake",
            "constants_anchors", "disjoint_bound", "hofer_like", "flux", "flow_shift",
            "flow_oscillator", "square_displacement", "shell_decay", "half_space_shift",
            "commutator")]),
    "flow-cloud": ["expr.eval_env", "expr.diff", "flow.integrate", "flow.displaced",
                   "flow.c0_distance", "flow.polygon_area"],
    "snowflake-groups": ["snowflake.sharp", "snowflake.sharp_fixed_exponent",
                         "snowflake.brute_force_sharp", "snowflake.quasi_constant"],
}
# Layers a workload must not touch at all.
UNTOUCHED = {"snowflake-groups": ["expr.eval_env", "expr.step_values", "expr.diff",
                                  "lengths.length_k", "flow.integrate"],
             "flow-cloud": ["lengths.length_k", "snowflake.sharp", "expr.step_values"]}


def bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(result, spec_metrics):
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name


def test_spec_matches_the_code():
    import run
    import spans
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER_METRICS)
    assert WORKLOADS == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert_metrics(result, SPEC["end_to_end"])
    for name in ("setup_s", "suite_s", "ops_per_s", "op_s_p50", "op_s_p90", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_its_layers(workload):
    result = result_of(bench(workload, 1))
    assert_metrics(result, SPEC["per_layer"])
    with open(os.path.join(ROOT, ".bench_out", f"trace-{workload}-{SEED}.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["outputs_equal"] is True
    calls = {name: row["calls"] for name, row in trace["table"].items()}
    missing = [name for name in EXERCISED[workload] if calls.get(name, 0) < 1]
    assert not missing
    touched = [name for name in UNTOUCHED.get(workload, []) if calls.get(name, 0)]
    assert not touched
    if workload == "snowflake-groups":
        assert result["metrics"]["expr.eval_env.calls"]["value"] == 0


def test_inputs_repeat_for_a_seed():
    from workloads import FlowCloud, SnowflakeGroups

    a, b = FlowCloud(SEED, "tiny", None), FlowCloud(SEED, "tiny", None)
    assert (a.cloud.points == b.cloud.points).all()
    assert [f.to_json() for _, f in a.cases] == [f.to_json() for _, f in b.cases]
    c, d = SnowflakeGroups(SEED, "tiny", None), SnowflakeGroups(SEED, "tiny", None)
    assert all((x[3] == y[3]).all() for x, y in zip(c.items, d.items))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("snowflake-groups", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
