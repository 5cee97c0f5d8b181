"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line. Criteria are numbered; the stated
runtime budgets are asserted with wall-clock measurements.

The infimum-over-paths metrics themselves are not computable objects;
every numeric check here is either an identity between computed path
functionals, an explicit constant, or a fitted rate with its stated
tolerance.
"""

import json
import os
import subprocess
import sys
import time

from hoferlab import verify
from hoferlab.experiments import constants

SEED = 42


def report(criterion, passed, budget_s, elapsed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s / {budget_s}s) {detail}")
    assert passed, detail
    assert elapsed < budget_s, f"criterion {criterion} exceeded {budget_s}s budget"


def test_criterion_1_path_algebra_identities():
    t0 = time.monotonic()
    rev = verify.check_path_algebra_reverse(SEED)
    cat = verify.check_path_algebra_concat(SEED)
    rep = verify.check_path_algebra_reparam(SEED)
    elapsed = time.monotonic() - t0
    passed = rev["passed"] and cat["passed"] and rep["passed"]
    report(1, passed, 60, elapsed,
           f"reverse dev {rev['measured']['max_rel_dev']:.2e} (tol 1e-9), "
           f"splice dev {cat['measured']['max_rel_dev']:.2e} (tol 1e-9), "
           f"reparam dev {rep['measured']['max_rel_dev']:.2e} (tol 1e-8)")


def test_criterion_2_monotonicity_exact(monkeypatch):
    monkeypatch.setattr(verify, "CORPUS_ORDER", 4)
    t0 = time.monotonic()
    mono = verify.check_monotonicity(SEED)
    elapsed = time.monotonic() - t0
    report(2, mono["passed"], 60, elapsed,
           f"min per-order term {mono['measured']['min_per_order_term']:.3e} >= 0")


def test_criterion_3_snowflake_transform():
    t0 = time.monotonic()
    res = verify.check_snowflake(SEED)
    elapsed = time.monotonic() - t0
    m = res["measured"]
    report(3, res["passed"], 30, elapsed,
           f"oracle gap {m['oracle']:.2e} (tol 1e-12), sandwich slack "
           f"{m['sandwich']:.2e}, beta-subadd slack {m['beta_subadd']:.2e}, "
           f"zero sets {m['zero_sets']}, class functions {m['class_fn']}, "
           f"fixed-exponent sandwich slack {m['dk_sandwich']:.2e}")


def test_criterion_4_degeneracy_rates():
    t0 = time.monotonic()
    res = verify.check_shell_decay()
    elapsed = time.monotonic() - t0
    rows = res["measured"]
    detail = ", ".join(
        f"{key}: slope {row['slope']:+.3f} vs {row.get('expected', 0):+.3f}"
        for key, row in rows.items() if "expected" in row)
    tails = ", ".join(f"{key} tail {row['tail_ratio']:.3f}"
                      for key, row in rows.items() if "tail_ratio" in row)
    report(4, res["passed"], 300, elapsed, detail + "; " + tails + " (< 0.1)")


def test_criterion_5_flow_and_square_displacement():
    t0 = time.monotonic()
    shift = verify.check_flow_shift()
    osc = verify.check_flow_oscillator()
    sq = verify.check_square_displacement()
    elapsed = time.monotonic() - t0
    passed = shift["passed"] and osc["passed"] and sq["passed"]
    report(5, passed, 120, elapsed,
           f"shift err {shift['measured']['max_error']:.1e} (tol 1e-10), "
           f"oscillator err {osc['measured']['error_256']:.1e} (tol 1e-8) "
           f"order {osc['measured']['observed_order']:.2f} (>= 3.7), "
           f"square certs {sorted(sq['measured'])} all within 2%")


def test_criterion_6_disjoint_support_bound():
    t0 = time.monotonic()
    res = verify.check_disjoint_bound(SEED)
    elapsed = time.monotonic() - t0
    report(6, res["passed"], 60, elapsed,
           f"20 configs (m in 2,3; k in 0,1,2), worst bound ratio "
           f"{res['measured']['max_ratio']:.3f} <= 1")


def test_criterion_7_constants_ledger_golden():
    t0 = time.monotonic()
    golden_path = os.path.join(os.path.dirname(__file__), "data",
                               "constants_golden.json")
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    mismatches = []
    for k in range(6):
        ledger = constants(k)
        for name, values in golden["entries"].items():
            want = values[k]
            got = ledger.entries[name]
            if isinstance(want, list):
                from fractions import Fraction
                ok = got == Fraction(want[0], want[1])
            else:
                ok = got == want
            if not ok:
                mismatches.append((name, k, got, want))
    led0 = constants(0)
    anchors = (led0.entries["hofer_C"] == 3840 and led0.entries["sikorav_C"] == 240
               and led0.entries["bi_bound"] == 4
               and golden["k0_note_must_contain"] in led0.note)
    elapsed = time.monotonic() - t0
    report(7, not mismatches and anchors, 60, elapsed,
           f"all 11 entries match for k=0..5; k=0 anchors 3840/240/4 with "
           f"'128' annotation present; mismatches: {mismatches}")


def test_criterion_8_hofer_like_lengths():
    t0 = time.monotonic()
    hl = verify.check_hofer_like(SEED)
    fx = verify.check_flux(SEED)
    elapsed = time.monotonic() - t0
    passed = hl["passed"] and fx["passed"]
    report(8, passed, 60, elapsed,
           f"pure-harmonic dev {hl['measured']['pure_harmonic_dev']:.1e}, "
           f"reparam dev {hl['measured']['max_reparam_rel_dev']:.2e} (tol 1e-8), "
           f"flux violation {fx['measured']['max_violation']:.2e} (tol 1e-8)")


def test_criterion_9_verify_determinism(tmp_path):
    t0 = time.monotonic()
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "hoferlab", "verify", "--suite", "all",
             "--seed", str(SEED), "--out", str(out)],
            capture_output=True, text=True, timeout=900)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "summary.json").read_bytes())
    elapsed = time.monotonic() - t0
    identical = outs[0] == outs[1]
    summary = json.loads(outs[0])
    report(9, identical and summary["all_passed"], 600, elapsed,
           f"two runs byte-identical ({len(outs[0])} bytes), "
           f"{len(summary['checks'])} checks all pass")
