"""Grids and the spatial sizes of samples on them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoferlab import expr as E
from hoferlab import grid as G
from hoferlab.errors import ParameterOutOfRange

from pointwise import evaluate


def box(res=16, half=4.0):
    return G.Grid.box([-half, -half], [half, half], (res, res))


def sample(src, g, t=0.0):
    return evaluate(E.parse(src), g.points(), t)


def test_constant_field_oscillation_zero():
    g = box()
    assert G.oscillation(sample("3", g)) == 0.0


def test_oscillation_linear_converges_to_analytic():
    # analytic max - min of 2*x1 on [-4, 4] is 16; midpoint sampling
    # underestimates by exactly one cell, vanishing under refinement
    vals = []
    for res in (16, 64, 256, 1024):
        vals.append(G.oscillation(sample("2*x1", box(res))))
        assert vals[-1] == pytest.approx(16.0 * (1 - 1.0 / res), rel=1e-12)
    assert vals[-1] == pytest.approx(16.0, rel=2e-3)


def test_oscillation_translation_invariant():
    g = box()
    f = sample("sin(x1)*y1", g)
    # shifting the field cancels in max - min up to one rounding of the sums
    assert G.oscillation(f + 17.25) == pytest.approx(G.oscillation(f), abs=1e-13)


def test_shell_oscillation_against_1d_oracle():
    # odd shell function: sampled oscillation approaches twice the 1-D max
    # along the x1 axis, located by dense scanning
    m = 1
    e = E.parse("2*x1*step(sqrt(x1^2 + y1^2) - 1, 0.25, 0.75)")
    xs = np.linspace(0.0, 2.0, 200001)
    profile = 2.0 * xs * E.step_values(xs - 1.0, 0.25, 0.75)
    oracle_max = profile.max()
    g = box(1200, 2.0)
    osc = G.oscillation(evaluate(e, g.points(), 0.0))
    assert 0.0 < osc <= 2 * 2.0 * (1 + 0.75)
    assert osc == pytest.approx(2.0 * oracle_max, rel=2e-3)


def test_lp_norm_zero_field():
    assert G.lp_norm(np.zeros(16 * 16), 0.5, box().cell_volume) == 0.0


def test_lp_norm_rejects_nonpositive_p():
    with pytest.raises(ParameterOutOfRange) as err:
        G.lp_norm(np.ones(4), 0, 1.0)
    assert err.value.name == "p"


def test_lp_norm_indicator_closed_form():
    # plateau cutoff is exactly 1 on the inner box; measure the indicator part
    g = G.Grid.box([-2, -2], [2, 2], (256, 256))
    f = sample("step(x1, 0.5, 0.6)*step(y1, 0.5, 0.6)", g)
    for p in (0.5, 1.0, 2.0):
        v = G.lp_norm(f, p, g.cell_volume)
        # between the inner plateau (area 1) and the full support (area 1.44)
        assert 1.0 ** (1 / p) - 1e-6 <= v <= (1.2 ** 2) ** (1 / p) + 1e-6


@given(st.floats(min_value=0.25, max_value=3.0),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_lp_norm_absolutely_homogeneous(p, lam):
    g = G.Grid.box([-1, -1], [1, 1], (8, 8))
    rng = np.random.default_rng(3)
    f = rng.normal(size=64)
    vol = g.cell_volume
    assert G.lp_norm(lam * f, p, vol) == pytest.approx(abs(lam) * G.lp_norm(f, p, vol),
                                                       rel=1e-12, abs=1e-12)


def test_lp_quasinorm_constant_p_half():
    # relaxed triangle constant 2^((1-p)/p) = 2 at p = 1/2
    g = G.Grid.box([-1, -1], [1, 1], (10, 10))
    rng = np.random.default_rng(11)
    kp, vol = 2.0, g.cell_volume
    for _ in range(60):
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        lhs = G.lp_norm(a + b, 0.5, vol)
        assert lhs <= kp * (G.lp_norm(a, 0.5, vol) + G.lp_norm(b, 0.5, vol)) + 1e-12


def test_lp_norm_refinement_second_order():
    errs = []
    ref = None
    for res in (8, 16, 32, 64, 512):
        g = box(res, 2.0)
        v = G.lp_norm(sample("exp(-x1^2 - y1^2)", g), 2.0, g.cell_volume)
        if res == 512:
            ref = v
        else:
            errs.append(v)
    diffs = [abs(v - ref) for v in errs]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[1] / diffs[0] == pytest.approx(0.25, abs=0.15)


def test_torus_points_exclude_duplicate_endpoint():
    g = G.Grid.torus([1.0, 1.0], (4, 4))
    axis = g.axis_points(0)
    assert axis[0] == 0.0 and axis[-1] == pytest.approx(0.75)
    assert len(axis) == 4


def test_cell_volume():
    g = G.Grid.box([0, 0], [1, 2], (10, 20))
    assert g.cell_volume == pytest.approx(0.1 * 0.1)


def test_grid_validation():
    with pytest.raises(ValueError):
        G.Grid.box([0, 0], [1, 1], (1, 8))
    with pytest.raises(ValueError):
        G.Grid.box([0, 0], [0, 1], (8, 8))
    with pytest.raises(ValueError):
        G.Grid(3, "box", (0,), (1,), (8,))


def test_grid_json_roundtrip():
    for g in (box(12), G.Grid.torus([1.0, 3.0], (8, 16))):
        assert G.Grid.from_json(g.to_json()) == g


def test_support_margin_warning():
    # grid.leaks is the one support rule: the samples reach 1e-9 of their
    # oscillation on the mask
    g = box(16, 1.0)
    layer = np.any(np.abs(g.points()) > 1.0 - g.spacings[0], axis=1)
    assert G.leaks(sample("x1", g), layer)
    assert not G.leaks(sample("step(x1, 0.2, 0.4)*step(y1, 0.2, 0.4)", g), layer)
    values = np.zeros(len(layer))
    values[np.flatnonzero(~layer)[:2]] = (1.0, -1.0)     # oscillation 2
    edge = np.flatnonzero(layer)[0]
    for v, leak in ((2e-9, True), (-2e-9, True), (1.999e-9, False), (0.0, False)):
        values[edge] = v
        assert G.leaks(values, layer) is leak
    assert not G.leaks(values, np.zeros(len(layer), dtype=bool))
    # a field of zero oscillation never leaks, whatever its value on the mask
    assert not G.leaks(np.full(len(layer), 5.0), layer)
