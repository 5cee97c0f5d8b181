"""Shell family, displacement constructions, commutators, constants, disjoint bound."""

import json
import os
from fractions import Fraction

import numpy as np
import pytest

from hoferlab import expr as E
from hoferlab import flow as fl
from hoferlab import hampath as hp
from hoferlab import lengths as ln
from hoferlab.errors import CertificateFailed, ConjugationUnsupported
from hoferlab.experiments import (commutator_bound_report, commutator_path,
                                  commutator_tracer_flow, constants,
                                  disjoint_bound_check, half_space_shift,
                                  shell_decay_report, shell_lp_norm,
                                  shift_certificate, square_displacement,
                                  conjugate_by_shift)
from hoferlab.experiments import commutator, displacement, shell_family
from hoferlab.experiments.shell_family import MIRROR_OFFSET, ShellFamilySpec
from hoferlab.grid import Grid

DATA = os.path.join(os.path.dirname(__file__), "data")


# --- shell family ---

def direct_shell_formula(x, y, t, m):
    """Independent coding of the moving-shell Hamiltonian."""
    r = np.sqrt(x ** 2 + (y - 2.0 * t) ** 2)
    return 2.0 * x * E.step_values(m * (r - 1.0), 0.25, 0.75)


def test_shell_expression_matches_direct_formula():
    spec = ShellFamilySpec(4)
    h = spec.hamiltonian()
    rng = np.random.default_rng(0)
    t = 0.37
    rho = rng.uniform(0.7, 1.3, 400)
    th = rng.uniform(0.0, 2 * np.pi, 400)
    x = rho * np.cos(th)
    y = 2 * t + rho * np.sin(th)
    pts = np.stack([x, y], axis=1)
    got = E.evaluate(h, pts, t)
    want = direct_shell_formula(x, y, t, 4)
    assert np.abs(got - want).max() < 1e-12


def test_shell_support_is_exactly_the_shell():
    spec = ShellFamilySpec(8)
    h = spec.hamiltonian()
    t = 0.5
    lo, hi = spec.shell_bounds
    rng = np.random.default_rng(1)
    rho = np.concatenate([rng.uniform(0.0, lo - 1e-9, 200),
                          rng.uniform(hi + 1e-9, 3.0, 200)])
    th = rng.uniform(0, 2 * np.pi, 400)
    pts = np.stack([rho * np.cos(th), 2 * t + rho * np.sin(th)], axis=1)
    assert np.abs(E.evaluate(h, pts, t)).max() == 0.0


def test_shell_norm_time_invariant():
    spec = ShellFamilySpec(4)
    d1 = E.diff(spec.hamiltonian(), "t")
    vals = [shell_lp_norm(spec, [d1], [(0, 0.5)], t)[0] for t in (0.1, 0.5, 0.9)]
    assert max(vals) - min(vals) < 1e-9 * max(vals)


def unblocked_shell_lp_norm(spec, derivative, p, t, radial_panels=16, theta_samples=256):
    """One expression on the whole polar grid at once, as shell_lp_norm was written."""
    rho, w_rho = ln.gauss_legendre_panels(*spec.shell_bounds, radial_panels)
    theta = np.linspace(0.0, 2.0 * np.pi, theta_samples, endpoint=False)
    w_theta = 2.0 * np.pi / theta_samples
    centers_x = [0.0] + ([MIRROR_OFFSET] if spec.closed_mode else [])
    total = 0.0
    for cx in centers_x:
        R, TH = np.meshgrid(rho, theta, indexing="ij")
        X = cx + R * np.cos(TH)
        Y = 2.0 * t + R * np.sin(TH)
        env = {"x1": X.ravel(), "y1": Y.ravel(), "t": float(t)}
        vals = E.eval_array(derivative, env, X.size)
        integrand = (np.abs(vals) ** p).reshape(R.shape) * R
        total += float(np.einsum("r,rt->", w_rho, integrand)) * w_theta
    return total ** (1.0 / p)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("theta_samples, block", [(256, None), (128, None), (96, None),
                                                  (128, 100)])
def test_shell_norm_blocks_match_unblocked(closed, theta_samples, block, monkeypatch):
    # 80 radial rows: 128 and 96 samples give 32- and 42-row blocks, the last
    # one partial; a 100-point block is shorter than a row, so one row each
    monkeypatch.setattr(shell_family, "THETA_SAMPLES", theta_samples)
    if block is not None:
        monkeypatch.setattr(shell_family, "SHELL_BLOCK", block)
    spec = ShellFamilySpec(8, closed_mode=closed)
    x1, t = E.Var("x1"), E.Var("t")
    exprs = E.time_derivatives(spec.hamiltonian(), 2) + [
        (t + 0.3) ** 3,                                       # t alone: a scalar
        E.const(1.5),
        E.call("sin", x1) * E.call("exp", -(E.Var("y1") - 1.0) ** 2)]
    # one pass serves every (expression, p) pair, in any order
    pairs = [(i, p) for p in (0.5, 1.0 / 3.0, 2.0) for i in reversed(range(len(exprs)))]
    for time in (0.25, 0.6):
        got = shell_lp_norm(spec, exprs, pairs, time)
        want = [unblocked_shell_lp_norm(spec, exprs[i], p, time, theta_samples=theta_samples)
                for i, p in pairs]
        assert got == want


@pytest.fixture
def coarse_angles(monkeypatch):
    # 128 angular samples keep these tests quick
    monkeypatch.setattr(shell_family, "THETA_SAMPLES", 128)


def test_shell_decay_quick_slopes(coarse_angles):
    rep, = shell_decay_report([4, 8, 16], [(1, 0.5, [0, 1])])
    assert abs(rep.slopes[0] - (-2.0)) < 0.2
    assert abs(rep.slopes[1] - (-1.0)) < 0.2
    assert rep.to_csv().startswith("m,")
    assert "#" in rep.to_dat()
    assert "np.float64" not in rep.to_dat() + rep.to_csv()


def test_shell_closed_mode_doubles_p_power(coarse_angles):
    a, = shell_decay_report([8, 16], [(1, 0.5, [1])])
    b, = shell_decay_report([8, 16], [(1, 0.5, [1])], closed_mode=True)
    for j in range(2):
        ratio = b.max_norms[1][j] / a.max_norms[1][j]
        assert ratio == pytest.approx(2.0 ** (1 / 0.5), rel=1e-9)
    assert abs(b.slopes[1] - a.slopes[1]) < 1e-9


@pytest.mark.parametrize("closed", [False, True])
def test_shell_requests_share_one_pass(closed, coarse_angles, monkeypatch):
    requests = [(1, 0.5, None), (2, 1.0 / 3.0, None), (0, 0.5, None), (2, 1.0, [2])]
    alone = [shell_decay_report([2, 4], [r], closed_mode=closed)[0] for r in requests]
    chains, passes = [], []
    counted = lambda fn, log: lambda *a, **kw: log.append(1) or fn(*a, **kw)
    monkeypatch.setattr(E, "time_derivatives", counted(E.time_derivatives, chains))
    monkeypatch.setattr(shell_family, "shell_lp_norm", counted(shell_lp_norm, passes))
    together = shell_decay_report([2, 4], requests, closed_mode=closed)
    # one chain per m, one polar pass per (m, t): 3 peak times and 10 Gauss nodes
    assert len(chains) == 2 and len(passes) == 2 * 13
    for rep, want in zip(together, alone):
        assert rep.to_json() == want.to_json()
        assert rep.to_csv() == want.to_csv()


def test_shell_path_displaces_unit_disc():
    # the induced flow moves the unit disc off itself for modest m
    grid = Grid.box([-2.0, -2.0], [2.0, 4.0], (32, 32))
    path = hp.autonomous_path(ShellFamilySpec(2).hamiltonian(), 2, grid)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (600, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < 0.995][:250]
    fm = fl.integrate(path, fl.TracerCloud(pts), 512)
    cert = fl.displaced(fm, lambda x: np.linalg.norm(x, axis=1) < 1.0)
    assert cert.displaced


# --- square displacement ---

@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_square_displacement_certificate(c):
    path, cert = square_displacement(c)
    assert cert.displaced and cert.margin > 0
    for k, v in cert.lengths.items():
        assert abs(v - c) <= 0.02 * c
    # autonomous: every order above zero contributes nothing
    assert len({round(v, 12) for v in cert.lengths.values()}) == 1


def test_square_displacement_rejects_nonpositive():
    with pytest.raises(ValueError):
        square_displacement(-1.0)


def test_square_displacement_certificate_failure_visible(monkeypatch):
    # an eps large enough to blow the 2% budget must raise, not pass
    monkeypatch.setattr(displacement, "SQUARE_EPS", 0.05)
    with pytest.raises(CertificateFailed):
        square_displacement(1.0)


# --- half-space shift ---

def test_shift_tracer_cases():
    cert = shift_certificate(1.5, 0.25)
    assert cert.fixed_error < 1e-8
    assert cert.shift_error < 1e-6
    # explicit probes: x1 = -2 eps fixed, x1 = 1 shifted by exactly (v, 0)
    path = half_space_shift(1.5, 0.25)
    cloud = fl.TracerCloud(np.array([[-0.5, 0.3], [1.0, -2.0]]))
    fm = fl.integrate(path, cloud, 128)
    assert np.abs(fm.final.points[0] - cloud.points[0]).max() < 1e-10
    assert np.abs(fm.final.points[1] - (cloud.points[1] + [1.5, 0.0])).max() < 1e-8


def test_shift_conjugation_preserves_lengths():
    grid = Grid.box([-6.0, -6.0], [6.0, 6.0], (48, 48))
    h = E.parse("step((x1 - 2)/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)*(1 + t*t)")
    f = hp.HamiltonianPath((hp.Piece(0.0, 1.0, h),), 2, grid)
    g = conjugate_by_shift(f, 1.5)   # 1.5 = 6 cells on this grid
    for k in (0, 1, 2):
        a = ln.length_k(f, k, grid, 10).total
        b = ln.length_k(g, k, grid, 10).total
        assert b == pytest.approx(a, rel=1e-6)


# --- commutator ---

def _gauss_path(cx, cy, amp, grid):
    # mild derivatives keep fixed-step RK4 sharp; tails are disjoint to
    # machine precision at separation 6
    src = f"{amp}*exp(-((x1 - {cx})^2) - (y1 - {cy})^2)*(1 + t)"
    return hp.autonomous_path(E.parse(src), 2, grid)


def test_commutator_identity_conjugator():
    grid = Grid.box([-4.0, -4.0], [4.0, 4.0], (16, 16))
    f = _gauss_path(0.0, 0.0, 0.9, grid)
    comm = commutator_path(f, hp.AffineSymplectic.identity(2))
    rng = np.random.default_rng(4)
    cloud = fl.TracerCloud(rng.uniform(-1.5, 1.5, (20, 2)))
    fm = fl.integrate(comm, cloud, 256)
    assert np.abs(fm.final.points - cloud.points).max() < 1e-7


def test_commutator_bound_affine_rotation():
    grid = Grid.box([-3.0, -3.0], [3.0, 3.0], (20, 20))
    h = E.parse("step(x1/0.7, 0.5, 1)*step(y1/0.7, 0.5, 1)*sin(t + 1)")
    f = hp.HamiltonianPath((hp.Piece(0.0, 1.0, h),), 2, grid)
    theta = hp.AffineSymplectic(
        np.array([[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]]),
        np.zeros(2))
    for k in (0, 1, 2):
        rep = commutator_bound_report(f, theta, k, grid)
        assert rep.ok()
        assert rep.bound == pytest.approx(2.0 ** (k + 1) * rep.length_f, rel=1e-12)


def test_commutator_conjugator_validation():
    grid = Grid.box([-2.0, -2.0], [2.0, 2.0], (12, 12))
    f = hp.autonomous_path(E.parse("step(x1, 0.4, 0.8)*step(y1, 0.4, 0.8)"), 2, grid)
    with pytest.raises(ConjugationUnsupported):
        commutator_path(f, "not affine")


def test_commutator_disjoint_supports_commute(monkeypatch):
    grid = Grid.box([-6.0, -6.0], [6.0, 6.0], (16, 16))
    f = _gauss_path(-3.0, -3.0, 0.9, grid)
    g = _gauss_path(3.0, 3.0, -0.7, grid)
    rng = np.random.default_rng(5)
    cloud = fl.TracerCloud(rng.uniform(-4.5, 4.5, (30, 2)))
    stages, integrate = [], fl.integrate
    monkeypatch.setattr(fl, "integrate", lambda *a: stages.append(integrate(*a)) or stages[-1])
    fm = commutator_tracer_flow(f, g, cloud)
    assert np.abs(fm.final.points - cloud.points).max() < 1e-7
    # the stats carry the largest step-error estimate of the four stages
    assert [s.stats["steps_per_piece"] for s in stages] == [commutator.STAGE_STEPS] * 4
    assert fm.stats["steps_per_stage"] == commutator.STAGE_STEPS
    assert 0.0 < fm.stats["max_step_error"] == max(s.stats["max_step_error"] for s in stages)


# --- constants ledger ---

def test_constants_against_golden_file():
    with open(os.path.join(DATA, "constants_golden.json"), "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    for k in range(6):
        ledger = constants(k)
        for name, values in golden["entries"].items():
            want = values[k]
            got = ledger.entries[name]
            if isinstance(want, list):
                assert got == Fraction(want[0], want[1])
            else:
                assert got == want, (name, k)
    assert golden["k0_note_must_contain"] in constants(0).note


def test_constants_k0_anchor_rows():
    led = constants(0)
    assert led.entries["hofer_C"] == 3840
    assert led.entries["sikorav_C"] == 240
    assert led.entries["bi_bound"] == 4
    assert "128" in led.note


def test_constants_note_only_at_k0():
    assert constants(1).note is None
    assert constants(0).note is not None


def test_constants_exact_types():
    led = constants(5)
    for name, value in led.as_rows():
        assert isinstance(value, (int, Fraction))
    with pytest.raises(ValueError):
        constants(21)


def test_constants_formats():
    led = constants(2)
    assert "quasi_triangle" in led.to_csv()
    assert "k = 2" in led.format_table()
    js = led.to_json()
    assert js["entries"]["sandwich_low"] == {"numerator": 1, "denominator": 64}


# --- disjoint-support bound ---

def _bump_path(cx, cy, amp, grid):
    src = (f"{amp}*step((x1 - {cx})/0.45, 0.5, 1)"
           f"*step((y1 - {cy})/0.45, 0.5, 1)*(1 + t*t)")
    return hp.autonomous_path(E.parse(src), 2, grid)


def test_disjoint_bound_single_path_trivial():
    grid = Grid.box([-4.0, -4.0], [4.0, 4.0], (24, 24))
    f = _bump_path(0.0, 0.0, 1.0, grid)
    rep = disjoint_bound_check([f], [((-0.5, -0.5), (0.5, 0.5))], 1, grid)
    assert rep.ok() and rep.ratio <= 1.0


def test_disjoint_bound_two_and_three_members():
    grid = Grid.box([-4.0, -4.0], [4.0, 4.0], (36, 36))
    centers = [(-2.6, -2.6), (0.0, 0.0), (2.6, 2.6)]
    amps = [1.0, -2.0, 0.7]
    for m in (2, 3):
        paths = [_bump_path(c[0], c[1], a, grid)
                 for c, a in zip(centers[:m], amps[:m])]
        boxes = [((c[0] - 0.5, c[1] - 0.5), (c[0] + 0.5, c[1] + 0.5))
                 for c in centers[:m]]
        for k in (0, 1, 2):
            rep = disjoint_bound_check(paths, boxes, k, grid)
            assert rep.ok()
            assert len(rep.product_per_order) == k + 1


def test_disjoint_bound_measured_ratio_two_translated_copies():
    # two equal-size translated bumps: measured ratio stays below 1/(k+1)
    # of the constant's headroom at k = 0 (max/min telescoping gives ~2 max)
    grid = Grid.box([-4.0, -4.0], [4.0, 4.0], (36, 36))
    paths = [_bump_path(-2.0, 0.0, 1.0, grid), _bump_path(2.0, 0.0, -1.0, grid)]
    boxes = [((-2.5, -0.5), (-1.5, 0.5)), ((1.5, -0.5), (2.5, 0.5))]
    rep = disjoint_bound_check(paths, boxes, 0, grid)
    assert rep.ok()
    assert rep.ratio <= 1.0
