"""Tracer integration, distances, and displacement certificates."""

import warnings

import numpy as np
import pytest

from hoferlab import corpus
from hoferlab import expr as E
from hoferlab import flow as F
from hoferlab import hampath as hp
from hoferlab.errors import (BlowUp, CloudMismatch, GradientUnavailable, ParameterOutOfRange,
                             StepErrorWarning)
from hoferlab.grid import Grid

GRID = Grid.box([-4.0, -4.0], [4.0, 4.0], (8, 8))


def apath(src):
    return hp.autonomous_path(E.parse(src), 2, GRID)


def test_shift_example_exact():
    # H = 2*x1 moves every point by 2t along y1
    f = apath("2*x1")
    cloud = F.TracerCloud(np.array([[0.5, -1.0], [1.0, 2.0], [-2.0, 0.3]]))
    fm = F.integrate(f, cloud, 64)
    assert np.abs(fm.final.points - (cloud.points + [0.0, 2.0])).max() < 1e-10


def test_zero_hamiltonian_is_identity():
    f = apath("0")
    cloud = F.TracerCloud(np.array([[0.1, 0.2]]))
    fm = F.integrate(f, cloud, 16)
    assert np.array_equal(fm.final.points, cloud.points)


def test_oscillator_rotation_and_rk4_order():
    f = apath("(x1*x1 + y1*y1)/2")
    cloud = F.TracerCloud(np.array([[1.0, 0.0], [0.3, -0.7], [0.0, 1.0]]))
    th = 1.0
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    exact = cloud.points @ rot.T
    err256 = np.abs(F.integrate(f, cloud, 256).final.points - exact).max()
    err128 = np.abs(F.integrate(f, cloud, 128).final.points - exact).max()
    assert err256 < 1e-8
    assert np.log2(err128 / err256) > 3.7


def test_piecewise_path_integration():
    # first half shifts by 2t along y1 at doubled rate, second half undoes it
    f = hp.concatenate(apath("2*x1"), apath("-2*x1"))
    cloud = F.TracerCloud(np.array([[1.0, 0.0]]))
    fm = F.integrate(f, cloud, 64)
    assert np.abs(fm.final.points - cloud.points).max() < 1e-12


def test_velocity_on_the_plan_matches_the_raw_field():
    # a cutoff and a t-only factor in the first piece; in the second, dH/dx1
    # is constant in x/y, so its component evaluates to a scalar
    f = hp.concatenate(
        apath("step(x1/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)*(1 + 0.5*sin(3*t))*x1^2"),
        apath("sin(3*t)*x1 + step(y1/0.8, 0.5, 1)"))
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 2))
    for piece in f.pieces:
        field = F._gradient_field(piece.hamiltonian, 2)
        plan = E.share_subtrees(field)
        for t in np.linspace(piece.t_start, piece.t_end, 5):
            env = E.point_env(pts, t)
            want = np.stack([E.eval_array(c, env, len(pts)) for c in field], axis=1)
            assert np.array_equal(F._velocity(plan, pts.T, t), want.T)
    assert E.variables(field[1]) == {"t"}


def _column_velocity(field, pts, t):
    """The velocity before coordinate rows: (N, 2n) points, strided output columns."""
    assignments, components = field
    env = E.point_env(pts, t)
    for name, e, _ in assignments:
        env[name] = E.eval_env(e, env)
    out = np.empty_like(pts)
    for j, e in enumerate(components):
        v = E.eval_env(e, env)
        out[:, j] = v if np.ndim(v) else float(v)
    return out


def _allocating_rk4(field, rows, t0, t1, steps):
    """RK4 before in-place stages: the textbook expressions on (N, 2n) points,
    read from and written back to the (2n, N) ``rows``, with ``_rk4``'s counts."""
    h = (t1 - t0) / steps
    x = rows.T.copy()
    for n in range(steps):
        t = t0 + n * h
        k1 = _column_velocity(field, x, t)
        k2 = _column_velocity(field, x + 0.5 * h * k1, t + 0.5 * h)
        k3 = _column_velocity(field, x + 0.5 * h * k2, t + 0.5 * h)
        k4 = _column_velocity(field, x + h * k3, t + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.abs(x).max() > F.SAFETY_RADIUS:
            raise BlowUp("tracer left the safety box")
    rows[...] = x.T
    return np.full(len(x), steps), 0, 4 * steps * len(x)


def _gaussian(amp, cx, cy):
    return apath(f"{amp}*exp(-((x1 - {cx})^2 + (y1 - {cy})^2)/1.28)*(1 + 0.5*sin(3*t))")


def _oracle_cases():
    """(name, path, points, tolerances) to integrate with both integrators.

    Both components of the shift 2*x1 evaluate to scalars, as do the extra
    axes of the wider cloud. The corpus paths run without tol: their cutoffs
    need steps of a thousandth of a piece and less, so a tol run takes
    seconds each.
    """
    rng = np.random.default_rng(7)
    plane = rng.uniform(-2.0, 2.0, (200, 2))
    g1, g2, g3 = _gaussian(0.9, 0.3, -0.2), _gaussian(-0.9, -0.5, 0.6), _gaussian(0.9, 0.1, 0.7)
    after_g1 = F.integrate(g1, F.TracerCloud(plane), 64).final.points
    grid4 = Grid.box([-2.0] * 4, [2.0] * 4, (4, 4, 4, 4))
    four = hp.autonomous_path(E.parse("(x1^2 + y1^2)/2 + x1*x2*y2 + sin(y1)*x2^2/4"), 4, grid4)
    both = (None, 1e-8)
    corpus_rng = np.random.default_rng(42)
    return [("shift", apath("2*x1"), plane, both),
            ("oscillator", apath("(x1^2 + y1^2)/2"), plane, both),
            ("gauss", g1, plane, both), ("gauss", g2, plane, both),
            ("spliced", hp.concatenate(g2, g3), plane, both),
            ("reverse", hp.reverse(g1), after_g1, both),
            ("4-D", four, rng.uniform(-1.0, 1.0, (50, 4)), both),
            ("wider cloud", g1, rng.uniform(-1.0, 1.0, (50, 6)), both),
            ("one tracer", g2, np.array([[0.4, -0.3]]), both)] + [
        (f"corpus{i}", corpus.random_path(corpus_rng), rng.uniform(-1.5, 1.5, (60, 2)), (None,))
        for i in range(5)]


def test_rows_and_in_place_stages_match_the_column_integrator(monkeypatch):
    # coordinate rows and in-place stages change no value of fixed-step RK4:
    # the final points and the stats equal those of the column velocity with
    # allocating stages
    for name, f, pts, _ in _oracle_cases():
        cloud = F.TracerCloud(pts)
        got = F.integrate(f, cloud, 16)
        with monkeypatch.context() as m:
            m.setattr(F, "_velocity", _column_velocity)
            m.setattr(F, "_rk4", _allocating_rk4)
            want = F.integrate(f, cloud, 16)
        assert got.final.points.flags.c_contiguous, name
        assert np.array_equal(got.final.points, want.final.points), name
        assert got.stats == want.stats, name


def test_c0_distance_examples():
    cloud = F.TracerCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
    a = F.integrate(apath("2*x1"), cloud, 16)
    b = F.integrate(apath("0"), cloud, 16)
    assert F.c0_distance(a, a) == 0.0
    assert F.c0_distance(a, b) == pytest.approx(2.0, abs=1e-12)
    # rotation vs identity on the unit circle: chord length 2 sin(1/2)
    angles = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    circle = F.TracerCloud(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    rot = F.integrate(apath("(x1*x1 + y1*y1)/2"), circle, 256)
    ident = F.integrate(apath("0"), circle, 8)
    assert F.c0_distance(rot, ident) == pytest.approx(2 * np.sin(0.5), rel=1e-6)


def test_c0_distance_cloud_mismatch():
    a = F.integrate(apath("0"), F.TracerCloud(np.array([[0.0, 0.0]])), 8)
    b = F.integrate(apath("0"), F.TracerCloud(np.array([[1.0, 0.0]])), 8)
    with pytest.raises(CloudMismatch):
        F.c0_distance(a, b)


def ball_region(center, radius):
    return lambda pts: np.linalg.norm(pts - np.asarray(center), axis=1) < radius


def _ball_cloud(radius, n=300, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, (4 * n, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < radius][:n]
    return F.TracerCloud(pts)


def test_displaced_identity_false():
    cloud = _ball_cloud(0.5)
    fm = F.integrate(apath("0"), cloud, 8)
    cert = F.displaced(fm, ball_region([0.0, 0.0], 0.5))
    assert not cert.displaced and cert.margin == 0.0


def test_displaced_shifted_ball():
    cloud = _ball_cloud(0.5)
    fm = F.integrate(apath("2*x1"), cloud, 16)   # shift by 2 along y1
    cert = F.displaced(fm, ball_region([0.0, 0.0], 0.5))
    assert cert.displaced and cert.margin >= 1.0
    assert cert.samples == cloud.points.shape[0]


def test_displaced_blocked_margin_matches_unblocked(monkeypatch):
    # 500 region tracers take DISPLACED_BLOCK // 500 = 32 rows per block: 16
    # blocks, the last one short; the margin equals the unblocked minimum
    n = 500
    per_block = F.DISPLACED_BLOCK // n
    assert n > 4 * per_block and n % per_block
    blocks = []
    squared = F._squared_distances

    def recording(rows, cols):
        blocks.append(len(rows) * len(cols))
        return squared(rows, cols)

    monkeypatch.setattr(F, "_squared_distances", recording)
    cloud = _ball_cloud(0.5, n=n, seed=1)
    fm = F.integrate(apath("2*x1"), cloud, 16)
    cert = F.displaced(fm, ball_region([0.0, 0.0], 0.5))
    assert cert.samples == n
    assert len(blocks) == -(-n // per_block) and sum(blocks) == n * n
    assert max(blocks) <= F.DISPLACED_BLOCK
    a0, a1 = fm.initial.points, fm.final.points
    d2 = np.sum((a1[:, None, :] - a0[None, :, :]) ** 2, axis=-1)
    assert cert.margin == float(np.sqrt(d2.min()))
    # in 4-D and 6-D the shift moves (x1, y1) by (0, 2) and leaves the other
    # axes, so the margin sums squares over every axis
    for dim in (4, 6):
        rng = np.random.default_rng(dim)
        pts = rng.uniform(-0.3, 0.3, (4 * n, dim))
        pts = pts[np.linalg.norm(pts, axis=1) < 0.5][:n]
        fm = F.integrate(apath("2*x1"), F.TracerCloud(pts), 16)
        cert = F.displaced(fm, ball_region(np.zeros(dim), 0.5))
        assert cert.samples == n and cert.displaced
        a0, a1 = fm.initial.points, fm.final.points
        d2 = np.sum((a1[:, None, :] - a0[None, :, :]) ** 2, axis=-1)
        assert cert.margin == float(np.sqrt(d2.min()))


def test_displaced_returns_before_any_distance_when_one_tracer_stays(monkeypatch):
    cloud = _ball_cloud(0.5, n=500, seed=2)
    region = ball_region([0.0, 0.0], 0.5)
    moved = cloud.points + [0.0, 2.0]
    assert F.displaced(F.FlowMap(cloud, F.TracerCloud(moved), "", {}), region).displaced
    moved[137] = [0.1, -0.1]
    assert region(moved).sum() == 1

    def no_distances(rows, cols):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(F, "_squared_distances", no_distances)
    cert = F.displaced(F.FlowMap(cloud, F.TracerCloud(moved), "", {}), region)
    assert (cert.displaced, cert.margin, cert.samples) == (False, 0.0, 500)


def test_blow_up_guard(monkeypatch):
    f = apath("-100*y1")      # dx/dt = +100
    cloud = F.TracerCloud(np.array([[0.0, 0.0]]))
    F.integrate(f, cloud, 64)
    monkeypatch.setattr(F, "SAFETY_RADIUS", 10.0)
    with pytest.raises(BlowUp):
        F.integrate(f, cloud, 64)


def test_nan_tracer_raises_blow_up():
    # at x1 = 30, exp(x1^2)*exp(-x1^2) is inf*0 = NaN, and a NaN coordinate
    # fails the safety check as a far one does, with or without tol
    f = apath("exp(x1^2)*exp(-x1^2)*y1")
    cloud = F.TracerCloud(np.array([[30.0, 0.5], [0.1, 0.2]]))
    with np.errstate(over="ignore", invalid="ignore"):
        for tol in (None, 1e-8):
            with pytest.raises(BlowUp, match="NaN"):
                F.integrate(f, cloud, 16, tol=tol)


def test_error_estimate_and_auto_doubling():
    f = apath("(x1*x1 + y1*y1)/2 + x1^4/8")
    cloud = F.TracerCloud(np.array([[1.2, 0.0], [0.5, 0.9], [0.0, 0.0]]))
    fm = F.integrate(f, cloud, 16, tol=1e-10)
    assert fm.stats["steps_per_piece"] > 16
    assert 0.0 < fm.stats["max_step_error"] <= 1e-10
    # the tracer at rest takes the fewest steps, each accepted: 16 in its run
    # and 8 in its half-step run, which it matches exactly
    alone = F.integrate(f, F.TracerCloud(np.zeros((1, 2))), 16, tol=1e-10).stats
    assert (alone["accepted"], alone["rejected"]) == (16 + 8, 0)
    assert alone["evaluations"] == (1 + 6 * 16) + (1 + 6 * 8)
    assert alone["max_step_error"] == 0.0
    assert fm.stats["accepted"] > 3 * (16 + 8)


def test_one_step_per_piece_is_out_of_range():
    # a 1-step run has no distinct half-step run, so its error estimate
    # would read 0 (the true error here is about 8e-3)
    f = apath("(x1*x1 + y1*y1)/2")
    cloud = F.TracerCloud(np.array([[1.0, 0.0]]))
    for steps in (1, 0):
        with pytest.raises(ParameterOutOfRange) as err:
            F.integrate(f, cloud, steps, tol=1e-3)
        assert err.value.name == "steps_per_piece"
    fm = F.integrate(f, cloud, 2, tol=1e-3)
    assert 0.0 < fm.stats["max_step_error"] <= 1e-3


def test_each_tracer_ends_as_when_integrated_alone():
    # each tracer steps as its own ODE: the same floats and the same counts
    # as when it is integrated alone
    for name, f, pts, tols in _oracle_cases():
        if 1e-8 not in tols:
            continue
        cloud = F.TracerCloud(pts[:12])
        fm = F.integrate(f, cloud, 16, tol=1e-8)
        alone = [F.integrate(f, F.TracerCloud(p[None]), 16, tol=1e-8) for p in cloud.points]
        assert np.array_equal(fm.final.points, np.vstack([a.final.points for a in alone])), name
        for key in ("accepted", "rejected", "evaluations"):
            assert fm.stats[key] == sum(a.stats[key] for a in alone), (name, key)
        for key in ("max_step_error", "steps_per_piece"):
            assert fm.stats[key] == max(a.stats[key] for a in alone), (name, key)


def _attempts(times, pieces):
    """(accepted, rejected) steps of the pair runs of one tracer, read from the
    times of its velocity calls.

    Each run goes through every piece, and each piece opens with one call at
    its start. Each attempt then makes six, at t + c*h for c = 1/5, 3/10, 4/5,
    8/9, 1 and 1, so t and h follow from the first and the last. A piece
    ends when an attempt reaches its end and the next call opens the next
    piece, or the next run. An attempt is rejected when the next attempt on
    its piece starts where it started.
    """
    accepted = rejected = i = 0
    while i < len(times):
        for piece, following in zip(pieces, pieces[1:] + pieces[:1]):
            assert times[i] == piece.t_start
            i += 1
            starts = []
            while True:
                h = (times[i + 5] - times[i]) / 0.8
                starts.append(times[i + 5] - h)
                i += 6
                if times[i - 1] == piece.t_end and (i == len(times)
                                                    or times[i] == following.t_start):
                    break
            again = sum(abs(b - a) < 1e-12 for a, b in zip(starts, starts[1:]))
            accepted += len(starts) - again
            rejected += again
    return accepted, rejected


def test_doubling_reuses_the_previous_round(monkeypatch):
    # each round runs the tracers whose own estimate still misses tol, with
    # the step bounds halved, and takes their previous result as the
    # half-step run
    f = hp.concatenate(apath("(x1*x1 + y1*y1)/2 + x1^4/8"), apath("2*x1"))
    cloud = F.TracerCloud(np.array([[1.2, 0.0], [0.5, 0.9], [0.05, -0.1], [0.0, 0.0],
                                    [-0.8, 0.6]]))
    counted = []
    pair = F._dormand_prince

    def counting(field, x, t0, t1, steps, tol, cell):
        counted.append((steps, x.shape[1], tol, cell))
        return pair(field, x, t0, t1, steps, tol, cell)

    monkeypatch.setattr(F, "_dormand_prince", counting)
    F.integrate(f, cloud, 2, tol=1e-10)
    runs = counted[::2]
    assert counted[1::2] == runs                  # each run goes through both pieces
    # the run and its half-step run on every tracer, then three doublings on
    # fewer and fewer; each halving of the step bounds divides the local
    # tolerance by 2**4
    steps = [s for s, _, _, _ in runs]
    sizes = [n for _, n, _, _ in runs]
    assert steps == [2, 1, 4, 8, 16]
    assert sizes[:2] == [5, 5] and sizes[2] < 5 and sizes[2:] == sorted(sizes[2:], reverse=True)
    for s, _, tol, cell in runs:
        assert tol == pytest.approx(F.LOCAL_TOL * 1e-10 * (2 / s) ** 4)
        assert cell == 2 / s


def test_pair_counts_match_a_wrapped_velocity(monkeypatch):
    f = hp.concatenate(apath("(x1*x1 + y1*y1)/2 + x1^4/8"), _gaussian(0.9, 0.3, -0.2))
    pts = np.array([[1.2, 0.0], [0.5, 0.9], [0.05, -0.1], [-0.8, 0.6]])
    calls = []
    velocity = F._velocity

    def counting(field, x, t):
        calls.append((x.shape[1], float(np.ravel(t)[0])))
        return velocity(field, x, t)

    monkeypatch.setattr(F, "_velocity", counting)
    # without tol, RK4 counts four evaluations per step of the run (4 steps
    # per piece) and of its half-step run (2), on every tracer of both pieces
    fm = F.integrate(f, F.TracerCloud(pts), 4)
    steps = (4 + 2) * 2 * len(pts)
    assert fm.stats["evaluations"] == sum(n for n, _ in calls) == 4 * steps
    assert (fm.stats["accepted"], fm.stats["rejected"]) == (steps, 0)
    assert (fm.stats["steps_per_piece"], fm.stats["pieces"]) == (4, 2)
    calls.clear()
    fm = F.integrate(f, F.TracerCloud(pts), 4, tol=1e-9)
    assert fm.stats["evaluations"] == sum(n for n, _ in calls)
    want = np.zeros(2, dtype=int)
    for p in pts:
        calls.clear()
        alone = F.integrate(f, F.TracerCloud(p[None]), 4, tol=1e-9)
        assert alone.stats["evaluations"] == len(calls)
        counted = _attempts([t for _, t in calls], f.pieces)
        assert (alone.stats["accepted"], alone.stats["rejected"]) == counted
        want += counted
    assert (fm.stats["accepted"], fm.stats["rejected"]) == tuple(want)
    assert fm.stats["rejected"] > 0 and fm.stats["pieces"] == 2


def test_pair_ends_within_tol_of_fine_rk4():
    # each tracer's estimate compares it with its half-step run; on these
    # fields it also bounds the distance to 1024-step RK4, or to the exact map
    tol = 1e-8
    for name, f, pts, tols in _oracle_cases():
        if tol not in tols:
            continue
        cloud = F.TracerCloud(pts)
        got = F.integrate(f, cloud, 16, tol=tol)
        assert got.stats["max_step_error"] <= tol, name
        if name == "shift":
            want = pts + [0.0, 2.0]
        elif name == "oscillator":
            want = pts @ np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]).T
        else:
            want = F.integrate(f, cloud, 1024).final.points
        assert np.abs(got.final.points - want).max() <= tol, name


# seed-42 corpus path 5, tracer 169 of default_rng(0).uniform(-2, 2, (300, 2)),
# integrated alone by integrate(path, cloud, 65536): RK4 at 65536 steps per piece
TRACER_169_AT_TIME_1 = (-1.0055947857916732, 0.023284438893152248)


def test_no_step_moves_a_tracer_more_than_one_cell():
    # the pair is exact on the shift, which moves a tracer by 2 per unit of
    # time, so only the cap of one cell (0.05 here) per step makes it take
    # 40 steps in its run and 20 in its half-step run
    fine = Grid.box([-2.0, -2.0], [2.0, 2.0], (80, 80))
    f = hp.autonomous_path(E.parse("2*x1"), 2, fine)
    fm = F.integrate(f, F.TracerCloud(np.array([[0.3, -1.0]])), 16, tol=1e-8)
    assert (fm.stats["steps_per_piece"], fm.stats["accepted"]) == (40, 40 + 20)
    assert np.abs(fm.final.points - [[0.3, 1.0]]).max() <= 1e-12


def test_corpus_tracer_ends_within_its_estimate_of_the_resolved_point():
    # The tracer crosses cutoff transition bands at speeds up to 37 on a
    # 0.2 grid. At 32 steps per piece it ends within 1e-5 of the resolved
    # point at every tol, and its estimate is at least its distance to it:
    # a sum of local estimates once read 5.9e-7 here at tol 1e-6, 3.4e-4
    # away, and before the cap of one cell per step a step jumped a band
    # with a local estimate of 5e-11 and the tracer ended 0.29 away.
    rng = np.random.default_rng(42)
    f = [corpus.random_path(rng) for _ in range(6)][5]
    cloud = F.TracerCloud(np.random.default_rng(0).uniform(-2.0, 2.0, (300, 2))[169:170])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepErrorWarning)
        for tol in (1e-6, 1e-8, 1e-10):
            fm = F.integrate(f, cloud, 32, tol=tol)
            off = np.abs(fm.final.points[0] - TRACER_169_AT_TIME_1).max()
            assert off <= 1e-5, tol
            assert off <= max(fm.stats["max_step_error"], tol), tol


def test_tol_out_of_range_is_refused():
    # a NaN tol would pass no tracer's test
    f = apath("(x1*x1 + y1*y1)/2")
    cloud = F.TracerCloud(np.array([[1.0, 0.0]]))
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ParameterOutOfRange) as err:
            F.integrate(f, cloud, 16, tol=tol)
        assert err.value.name == "tol"


def test_missed_tolerance_warns():
    # a fast rotation at tol 1e-12 still misses after the last doubling,
    # where it takes every step at the floor, 1/(2 * 2**(MAX_DOUBLINGS +
    # FLOOR_HALVINGS)) of the piece at 2 steps per piece
    f = apath("20*(x1*x1 + y1*y1)/2")
    cloud = F.TracerCloud(np.array([[1.0, 0.0], [0.3, -0.7]]))
    with pytest.warns(StepErrorWarning, match="misses tol 1e-12"):
        fm = F.integrate(f, cloud, 2, tol=1e-12)
    assert fm.stats["steps_per_piece"] == 2 * 2 ** (F.MAX_DOUBLINGS + F.FLOOR_HALVINGS)
    assert fm.stats["max_step_error"] > 1e-12


def test_the_floor_bounds_the_steps_on_a_fast_field():
    # on a 0.05 grid the cap of one cell per step asks this rotation for
    # steps of 0.0025 and less, below the floor: the floor wins, so no run
    # takes more than 2 * 2**(MAX_DOUBLINGS + FLOOR_HALVINGS) steps
    fine = Grid.box([-2.0, -2.0], [2.0, 2.0], (80, 80))
    f = hp.autonomous_path(E.parse("20*(x1*x1 + y1*y1)/2"), 2, fine)
    cloud = F.TracerCloud(np.array([[1.0, 0.0], [0.3, -0.7]]))
    with pytest.warns(StepErrorWarning, match="misses tol 1e-06"):
        fm = F.integrate(f, cloud, 2, tol=1e-6)
    assert fm.stats["steps_per_piece"] <= 2 * 2 ** (F.MAX_DOUBLINGS + F.FLOOR_HALVINGS)


def test_area_conservation_nonlinear():
    # evolved polygonal loop keeps its enclosed area within 1e-6 at 256 steps;
    # the loop needs enough vertices that its own discretization stays below
    # the tolerance (the deficit is O(1/vertices^2), not integrator drift)
    f = apath("(x1*x1 + y1*y1)/2 + x1^4/8")
    angles = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    loop = F.TracerCloud(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    fm = F.integrate(f, loop, 256)
    a0 = F.polygon_area(loop.points)
    a1 = F.polygon_area(fm.final.points)
    assert abs(a1 - a0) < 1e-6 * abs(a0)


def test_conjugated_flow_equivariance():
    f = apath("(x1*x1 + y1*y1)/2")
    theta = hp.AffineSymplectic(np.array([[0.0, -1.0], [1.0, 0.0]]),
                                np.array([0.4, -0.2]))
    g = hp.conjugate(f, theta)
    rng = np.random.default_rng(2)
    cloud = F.TracerCloud(rng.uniform(-1.0, 1.0, (30, 2)))
    lhs = F.integrate(g, cloud, 256).final.points
    apply = lambda a, x: x @ a.linear.T + a.shift
    pulled = F.TracerCloud(apply(theta.inverse(), cloud.points))
    rhs = apply(theta, F.integrate(f, pulled, 256).final.points)
    assert np.abs(lhs - rhs).max() < 1e-7


def test_gradient_unavailable_on_foreign_node():
    class Foreign(E.Expression):
        pass

    with pytest.raises(GradientUnavailable):
        E.diff(Foreign(), "x1")


def test_cloud_csv_roundtrip():
    cloud = F.TracerCloud(np.array([[0.125, -2.5], [3.75, 0.0625]]))
    back = F.TracerCloud.from_csv(cloud.to_csv())
    assert np.array_equal(back.points, cloud.points)


@pytest.mark.parametrize("dimension", [2, 4, 6])
def test_cloud_csv_roundtrip_is_exact(dimension):
    points = np.random.default_rng(dimension).normal(scale=1e3, size=(17, dimension))
    points[0, 0] = 5e-324
    text = F.TracerCloud(points).to_csv()
    back = F.TracerCloud.from_csv(text)
    assert np.array_equal(back.points, points) and back.to_csv() == text


@pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.0\n", "y1,x1\n1.0,2.0\n",
                                  "x1,y1,x2\n1.0,2.0,3.0\n", "x1,y1\n1.0,2.0,3.0,4.0\n",
                                  "x1,y1\n1.0,2.0\n3.0\n", ""],
                         ids=["no-header", "swapped", "odd", "wide-row", "short-row", "empty"])
def test_cloud_csv_rejects_a_header_or_row_that_does_not_fit(text):
    with pytest.raises(ValueError):
        F.TracerCloud.from_csv(text)


def test_cloud_csv_header_names_the_coordinates():
    cloud = F.TracerCloud(np.zeros((2, 4)))
    header = cloud.to_csv().splitlines()[0].split(",")
    assert header == E.coordinates(4) == ["x1", "y1", "x2", "y2"]


def test_flow_stats_and_hash_stable():
    f = apath("2*x1")
    cloud = F.TracerCloud(np.array([[0.0, 0.0]]))
    a = F.integrate(f, cloud, 32)
    b = F.integrate(f, cloud, 32)
    assert a.path_hash == b.path_hash
    assert a.stats == b.stats
