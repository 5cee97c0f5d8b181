"""Corpus generators and the verification suites."""

import numpy as np
import pytest

from hoferlab import corpus, snowflake as sf, verify
from hoferlab import expr as E


def test_corpus_reproducible():
    a = corpus.random_path(np.random.default_rng(42))
    b = corpus.random_path(np.random.default_rng(42))
    assert a == b


def test_corpus_paths_valid_and_supported():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = corpus.random_path(rng)
        assert f.pieces[0].t_start == 0.0 and f.pieces[-1].t_end == 1.0
        # bumps live inside the default box
        pts = corpus.DEFAULT_GRID.points()
        vals = E.eval_env(f.pieces[0].hamiltonian, E.point_env(pts, 0.3))
        assert np.all(np.isfinite(vals))


def test_positive_profile_positive():
    rng = np.random.default_rng(1)
    ts = np.linspace(0, 1, 101)
    for _ in range(30):
        p = corpus.positive_profile(rng)
        vals = E.eval_env(p, {"t": ts})
        assert np.min(vals) > 0.0


def test_time_change_monotone_and_fixed_ends():
    rng = np.random.default_rng(2)
    ts = np.linspace(0, 1, 201)
    for _ in range(30):
        s = corpus.random_time_change(rng)
        d = E.diff(s, "t")
        assert float(E.eval_env(s, {"t": 0.0})) == pytest.approx(0.0, abs=1e-12)
        assert float(E.eval_env(s, {"t": 1.0})) == pytest.approx(1.0, abs=1e-12)
        assert np.min(E.eval_env(d, {"t": ts})) > 0.0


def test_class_function_weights_constant_on_classes():
    rng = np.random.default_rng(3)
    g = sf.symmetric_group(3)
    w = corpus.random_weights(rng, g, "class")
    for cl in g.conjugacy_classes():
        assert len({float(w[a]) for a in cl}) == 1
    assert w[g.identity] == 0.0


def test_dk_mode_weights_in_class():
    rng = np.random.default_rng(4)
    g = sf.cyclic_group(6)
    for k in (0, 1, 2):
        w = verify.dk_mode_weights(rng, g, k)
        assert sf.quasi_constant(g.with_weights(w)) <= 2.0 ** k * (1 + 1e-12)


def test_run_suite_core_passes_and_is_deterministic():
    a = verify.run_suite("core", seed=42)
    assert a["all_passed"], [c for c in a["checks"] if not c["passed"]]
    b = verify.run_suite("core", seed=42)
    assert verify.summary_bytes(a) == verify.summary_bytes(b)


def test_corpus_expressions_roundtrip_through_printer():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = corpus.random_path(rng)
        for piece in f.pieces:
            assert E.parse(E.to_source(piece.hamiltonian)) == piece.hamiltonian


def test_summary_bytes_stable_shape():
    summary = {"suite": "core", "seed": 1, "checks": [], "all_passed": True,
               "note": "n"}
    payload = verify.summary_bytes(summary)
    assert payload.endswith(b"\n")
    assert b"all_passed" in payload


def test_run_suite_shares_values_without_changing_a_check(monkeypatch):
    # each check alone, as perfbench times it through ``verify.CHECKS``
    alone = {name: verify.CHECKS[name](42) for name in verify.CORE_SUITE}
    calls = []

    def recording(name, check):
        def run(seed):                 # forwards exactly one positional argument
            calls.append(name)
            return check(seed)
        return run

    for name, check in list(verify.CHECKS.items()):
        monkeypatch.setitem(verify.CHECKS, name, recording(name, check))
    verify.run_suite("core", 7)
    calls.clear()
    summary = verify.run_suite("core", 42)
    assert calls == list(verify.CORE_SUITE)
    assert summary["checks"] == [alone[name] for name in verify.CORE_SUITE]
    # one store across two seeds and two orders still gives each check its own values
    first = verify.SuiteSeed(7)
    verify.check_monotonicity(first, count=6, k=2)
    shared = verify.SuiteSeed(42)
    shared.lengths = first.lengths
    for k in (2, 3):
        for check in (verify.check_monotonicity, verify.check_path_algebra_reverse,
                      verify.check_path_algebra_concat):
            assert check(shared, count=6, k=k) == check(42, count=6, k=k)
    assert all(isinstance(v, float) for per_order in shared.lengths.values()
               for v in per_order)
