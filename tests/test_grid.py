"""Grids, fields, and the spatial norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoferlab import expr as E
from hoferlab import grid as G
from hoferlab.errors import GeometryError


def box(res=16, half=4.0):
    return G.Grid.box([-half, -half], [half, half], (res, res))


def test_constant_field_oscillation_zero():
    g = box()
    f = G.sample(E.parse("3"), g, 0.0)
    assert G.oscillation(f) == 0.0


def test_oscillation_linear_converges_to_analytic():
    # analytic max - min of 2*x1 on [-4, 4] is 16; midpoint sampling
    # underestimates by exactly one cell, vanishing under refinement
    vals = []
    for res in (16, 64, 256, 1024):
        f = G.sample(E.parse("2*x1"), box(res), 0.0)
        vals.append(G.oscillation(f))
        assert vals[-1] == pytest.approx(16.0 * (1 - 1.0 / res), rel=1e-12)
    assert vals[-1] == pytest.approx(16.0, rel=2e-3)


def test_oscillation_translation_invariant():
    g = box()
    f = G.sample(E.parse("sin(x1)*y1"), g, 0.0)
    # shifting the field cancels in max - min up to one rounding of the sums
    shifted = G.Field(f.values + 17.25, g)
    assert G.oscillation(shifted) == pytest.approx(G.oscillation(f), abs=1e-13)


def test_shell_oscillation_against_1d_oracle():
    # odd shell function: sampled oscillation approaches twice the 1-D max
    # along the x1 axis, located by dense scanning
    m = 1
    e = E.parse("2*x1*step(sqrt(x1^2 + y1^2) - 1, 0.25, 0.75)")
    xs = np.linspace(0.0, 2.0, 200001)
    profile = 2.0 * xs * E.step_values(xs - 1.0, 0.25, 0.75)
    oracle_max = profile.max()
    g = box(1200, 2.0)
    osc = G.oscillation(G.sample(e, g, 0.0))
    assert 0.0 < osc <= 2 * 2.0 * (1 + 0.75)
    assert osc == pytest.approx(2.0 * oracle_max, rel=2e-3)


def test_lp_norm_zero_field():
    g = box()
    assert G.lp_norm(G.Field(np.zeros(16 * 16), g), 0.5) == 0.0


def test_sup_norm():
    g = box()
    f = G.sample(E.parse("2*x1"), g, 0.0)
    assert G.sup_norm(f) == pytest.approx(8.0 * (1 - 1.0 / 16), rel=1e-12)


def test_lp_norm_indicator_closed_form():
    # plateau cutoff is exactly 1 on the inner box; measure the indicator part
    g = G.Grid.box([-2, -2], [2, 2], (256, 256))
    e = E.parse("step(x1, 0.5, 0.6)*step(y1, 0.5, 0.6)")
    f = G.sample(e, g, 0.0)
    for p in (0.5, 1.0, 2.0):
        v = G.lp_norm(f, p)
        # between the inner plateau (area 1) and the full support (area 1.44)
        assert 1.0 ** (1 / p) - 1e-6 <= v <= (1.2 ** 2) ** (1 / p) + 1e-6


@given(st.floats(min_value=0.25, max_value=3.0),
       st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_lp_norm_absolutely_homogeneous(p, lam):
    g = G.Grid.box([-1, -1], [1, 1], (8, 8))
    rng = np.random.default_rng(3)
    f = G.Field(rng.normal(size=64), g)
    scaled = G.Field(lam * f.values, g)
    assert G.lp_norm(scaled, p) == pytest.approx(abs(lam) * G.lp_norm(f, p),
                                                 rel=1e-12, abs=1e-12)


def test_lp_quasinorm_constant_p_half():
    # relaxed triangle constant 2^((1-p)/p) = 2 at p = 1/2
    g = G.Grid.box([-1, -1], [1, 1], (10, 10))
    rng = np.random.default_rng(11)
    kp = 2.0
    for _ in range(60):
        a = G.Field(rng.normal(size=100), g)
        b = G.Field(rng.normal(size=100), g)
        lhs = G.lp_norm(G.Field(a.values + b.values, g), 0.5)
        assert lhs <= kp * (G.lp_norm(a, 0.5) + G.lp_norm(b, 0.5)) + 1e-12


def test_lp_norm_refinement_second_order():
    e = E.parse("exp(-x1^2 - y1^2)")
    errs = []
    ref = None
    for res in (8, 16, 32, 64, 512):
        v = G.lp_norm(G.sample(e, box(res, 2.0), 0.0), 2.0)
        if res == 512:
            ref = v
        else:
            errs.append(v)
    diffs = [abs(v - ref) for v in errs]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[1] / diffs[0] == pytest.approx(0.25, abs=0.15)


def test_mean_zero_examples():
    g = G.Grid.torus([2.0, 2.0], (32, 32))
    const = G.sample(E.parse("5"), g, 0.0)
    out = G.mean_zero_normalize(const)
    assert np.abs(out.values).max() == 0.0
    wave = G.sample(E.parse("sin(3.141592653589793*x1)"), g, 0.0)
    normalized = G.mean_zero_normalize(wave)
    assert np.abs(normalized.values - wave.values).max() < 1e-12
    rng = np.random.default_rng(5)
    f = G.Field(rng.uniform(1.0, 3.0, 32 * 32), g)
    z = G.mean_zero_normalize(f)
    assert abs(G.mean(z)) < 1e-12 * max(G.oscillation(f), 1.0)


def test_mean_zero_requires_torus():
    f = G.sample(E.parse("x1"), box(), 0.0)
    with pytest.raises(GeometryError):
        G.mean_zero_normalize(f)


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
    g = box(16, 1.0)
    leaky = G.sample(E.parse("x1"), g, 0.0)
    with pytest.warns(G.SupportMarginWarning):
        G.check_support_margin(leaky)
    bump = G.sample(E.parse("step(x1, 0.2, 0.4)*step(y1, 0.2, 0.4)"), g, 0.0)
    assert G.check_support_margin(bump)
