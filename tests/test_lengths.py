"""Length functionals: closed forms, algebra identities, torus variant."""

import gc
import tracemalloc

import numpy as np
import pytest

from hoferlab import corpus
from hoferlab import expr as E
from hoferlab import grid as G
from hoferlab import hampath as hp
from hoferlab import lengths as L
from hoferlab.cli import _jsonable
from hoferlab.errors import ParameterOutOfRange
from hoferlab.experiments import square_displacement
from hoferlab.grid import Grid

from pointwise import evaluate

GRID = Grid.box([-2.0, -2.0], [2.0, 2.0], (20, 20))
BUMP = "step(x1/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)"   # plateau max exactly 1


def path_of(*specs):
    pieces = tuple(hp.Piece(a, b, E.parse(src)) for a, b, src in specs)
    return hp.HamiltonianPath(pieces, 2, GRID)


def test_autonomous_derivative_orders_vanish():
    f = path_of((0.0, 1.0, BUMP))
    rep = L.length_k(f, 4, GRID, 10)
    assert rep.per_order[0] == pytest.approx(1.0, rel=1e-12)
    assert rep.per_order[1:] == (0.0, 0.0, 0.0, 0.0)
    assert rep.total == pytest.approx(1.0, rel=1e-12)


def test_linear_time_closed_form():
    # F = t*h with sampled osc(h) = 1 exactly: per-order (1/2, 1)
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    rep = L.length_k(f, 1, GRID, 10)
    assert rep.per_order[0] == pytest.approx(0.5, rel=1e-12)
    assert rep.per_order[1] == pytest.approx(1.0, rel=1e-12)
    assert rep.total == pytest.approx(1.5, rel=1e-12)
    # L_p sizes scale the same way: per-order (c/2, c), on one piece or two
    c = G.lp_norm(evaluate(E.parse(BUMP), GRID.points(), 0.0), 0.5, GRID.cell_volume)
    split = path_of((0.0, 0.5, f"t*{BUMP}"), (0.5, 1.0, f"t*{BUMP}"))
    for g in (f, split):
        rep = L.length_kp(g, 1, 0.5, GRID, 10)
        assert rep.per_order == pytest.approx((c / 2.0, c), rel=1e-12)


def test_order_zero_is_plain_length():
    # the order-0 value is the time integral of the oscillation, for any k
    f = path_of((0.0, 1.0, f"sin(t)*{BUMP}"))
    r0 = L.length_k(f, 0, GRID, 20)
    r3 = L.length_k(f, 3, GRID, 20)
    assert r0.total == pytest.approx(r3.per_order[0], rel=1e-12)


def test_length_k_memory_stays_bounded():
    # 3 x 4096 grid; the size table must free its blocks and hoisted
    # cutoffs when it returns, without waiting for the cyclic collector
    path, _ = square_displacement(1.0)
    L.length_k(path, 5, path.domain, 10)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(6):
            L.length_k(path, 5, path.domain, 10)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    mib = 2.0 ** 20
    assert (current - base) / mib < 0.25
    assert (peak - base) / mib < 1.25


def test_report_total_consistency_and_note():
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    rep = L.length_k(f, 2, GRID, 10)
    assert rep.total == pytest.approx(sum(rep.per_order), rel=1e-12)
    assert "upper bound" in rep.note
    assert _jsonable(rep)["quadrature"]["scheme"] == "gauss-legendre-5"


def test_report_serializes_plain_floats():
    import json as _json
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    for rep in (L.length_k(f, 1, GRID, 10), L.coarse_length_k(f, 1, GRID, 65)):
        _json.dumps(_jsonable(rep))
        assert "np.float64" not in rep.to_csv()


def test_monotone_in_k():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = corpus.random_path(rng)
        rep = L.length_k(f, 4, time_samples=10)
        totals = np.cumsum(rep.per_order)
        assert np.all(np.diff(totals) >= 0)
        assert all(v >= 0 for v in rep.per_order)


def test_reverse_invariance():
    rng = np.random.default_rng(1)
    for _ in range(8):
        f = corpus.random_path(rng)
        a = L.length_k(f, 3, time_samples=10).total
        b = L.length_k(hp.reverse(f), 3, time_samples=10).total
        assert b == pytest.approx(a, rel=1e-9)


def test_concatenate_exact_identity_and_bound():
    rng = np.random.default_rng(2)
    for _ in range(6):
        f = corpus.random_path(rng)
        g = corpus.random_path(rng)
        c = hp.concatenate(f, g)
        rc = L.length_k(c, 2, time_samples=10)
        rf = L.length_k(f, 2, time_samples=10)
        rg = L.length_k(g, 2, time_samples=10)
        for i in range(3):
            want = 2.0 ** i * (rf.per_order[i] + rg.per_order[i])
            assert rc.per_order[i] == pytest.approx(want, rel=1e-9)
        assert rc.total <= 2.0 ** 2 * (rf.total + rg.total) * (1 + 1e-9)


def test_concat_order_zero_additive():
    f = path_of((0.0, 1.0, BUMP))
    g = path_of((0.0, 1.0, f"2*{BUMP}"))
    c = hp.concatenate(f, g)
    r = L.length_k(c, 0, GRID, 10)
    assert r.total == pytest.approx(3.0, rel=1e-12)


def test_reparametrization_invariance_order_zero():
    rng = np.random.default_rng(3)
    for _ in range(6):
        f = corpus.random_path(rng, smooth=True)
        s = corpus.random_time_change(rng)
        g = hp.reparametrize(f, s)
        a = L.length_k(f, 0, time_samples=30).total
        b = L.length_k(g, 0, time_samples=30).total
        assert b == pytest.approx(a, rel=1e-8)


TWO_SPEED_LAMBDA = 0.7    # two_speed_time_change maps [0, TWO_SPEED_LAMBDA] onto [0, 1/2]


def two_speed_time_change():
    """Piecewise-linear s: s(TWO_SPEED_LAMBDA) = 1/2, linear on either side."""
    lam = TWO_SPEED_LAMBDA
    t = E.Var("t")
    first = E.mul(E.const(0.5 / lam), t)
    second = E.add(E.const(0.5), E.mul(E.const(0.5 / (1.0 - lam)),
                                       E.sub(t, E.const(lam))))
    return [hp.Piece(0.0, lam, first), hp.Piece(lam, 1.0, second)]


def test_two_speed_change_pieces():
    pieces = two_speed_time_change()
    assert pieces[0].t_end == 0.7
    assert float(E.eval_env(pieces[0].hamiltonian, {"t": 0.7})) == pytest.approx(0.5)
    assert float(E.eval_env(pieces[1].hamiltonian, {"t": 1.0})) == pytest.approx(1.0)


def test_reparametrization_changes_higher_orders():
    # two-speed replay of a time-dependent path changes the order-1 term
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    g = hp.reparametrize(f, two_speed_time_change())
    a = L.length_k(f, 1, GRID, 30).total
    b = L.length_k(g, 1, GRID, 30).total
    assert abs(a - b) > 1e-3


def test_conjugation_invariance_lattice_adapted():
    # cell-aligned shift: substituted samples coincide with original ones
    f = path_of((0.0, 1.0, f"sin(t + 1)*{BUMP}"))
    h_cell = 4.0 / 20
    theta = hp.AffineSymplectic.translation([h_cell * 2, -h_cell])
    g = hp.conjugate(f, theta)
    for k in (0, 2):
        a = L.length_k(f, k, GRID, 10).total
        b = L.length_k(g, k, GRID, 10).total
        assert b == pytest.approx(a, rel=1e-6)
    # quarter-turn rotation preserves the centered lattice too
    rot = hp.AffineSymplectic(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    gr = hp.conjugate(f, rot)
    a = L.length_k(f, 1, GRID, 10).total
    b = L.length_k(gr, 1, GRID, 10).total
    assert b == pytest.approx(a, rel=1e-6)


def test_coarse_closed_forms():
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    rep = L.coarse_length_k(f, 1, GRID, 65)
    assert rep.per_order[0] == pytest.approx(1.0, rel=1e-12)   # max_t t * 1
    assert rep.per_order[1] == pytest.approx(1.0, rel=1e-12)
    aut = path_of((0.0, 1.0, BUMP))
    assert L.coarse_length_k(aut, 3, GRID, 65).total == pytest.approx(1.0, rel=1e-12)


def test_coarse_division_refinement_invariant():
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    refined = path_of((0.0, 0.5, f"t*{BUMP}"), (0.5, 1.0, f"t*{BUMP}"))
    a = L.coarse_length_k(f, 2, GRID, 65)
    b = L.coarse_length_k(refined, 2, GRID, 65)
    assert a.per_order == b.per_order


def test_coarse_dominates_integral():
    rng = np.random.default_rng(4)
    for _ in range(6):
        f = corpus.random_path(rng)
        a = L.length_k(f, 2, time_samples=10).total
        b = L.coarse_length_k(f, 2, time_samples=65).total
        assert a <= b + 1e-12


def test_length_kp_zero_and_separable():
    zero = path_of((0.0, 1.0, "0"))
    assert L.length_kp(zero, 2, 0.5, GRID, 10).total == 0.0
    # separable bump: ||F(., t)||_p = |a(t)| * (1-D integral)^(2/p) by symmetry;
    # oracle is an independent dense 1-D trapezoid quadrature
    fine = Grid.box([-2.0, -2.0], [2.0, 2.0], (200, 200))
    f = hp.HamiltonianPath((hp.Piece(0.0, 1.0, E.parse(f"t*{BUMP}")),), 2, fine)
    p = 0.5
    rep = L.length_kp(f, 0, p, fine, 20)
    xs = np.linspace(-2.0, 2.0, 400001)
    one_d = np.trapezoid(E.step_values(xs / 0.8, 0.5, 1.0) ** p, xs)
    expected = 0.5 * (one_d ** 2) ** (1.0 / p)    # integral of t over [0,1] = 1/2
    assert rep.total == pytest.approx(expected, rel=5e-3)


def test_per_piece_rows_match_per_node_oracle():
    # a plain loop over each piece's Gauss nodes that sizes one time
    # derivative at one node at a time must give the same rows bit for bit
    rng = np.random.default_rng(14)
    k = 3
    for _ in range(8):
        f = corpus.random_path(rng)
        pts, vol = f.domain.points(), f.domain.cell_volume
        cases = [(G.oscillation, L.length_k(f, k, time_samples=10))]
        cases += [(lambda v, p=p: G.lp_norm(v, p, vol), L.length_kp(f, k, p, time_samples=10))
                  for p in (0.5, 2.0)]
        for size, rep in cases:
            rows = rep.per_piece
            assert len(rows) == len(f.pieces)
            for piece, row in zip(f.pieces, rows):
                chain = E.time_derivatives(piece.hamiltonian, k)
                nodes, weights = L.gauss_legendre_panels(piece.t_start, piece.t_end, 2)
                want = np.zeros(k + 1)
                for t, w in zip(nodes, weights):
                    want += w * np.array([size(evaluate(d, pts, t)) for d in chain])
                assert row == tuple(float(v) for v in want)


def test_quadrature_convergence():
    # profile with single-sign derivatives of every order, so each per-order
    # integrand is smooth and the composite rule converges at spectral rate
    f = path_of((0.0, 1.0, f"exp(t)*{BUMP}"))
    a = L.length_k(f, 2, GRID, 10).total
    b = L.length_k(f, 2, GRID, 20).total
    assert b == pytest.approx(a, rel=1e-6)


def test_time_samples_precondition():
    f = path_of((0.0, 1.0, BUMP))
    with pytest.raises(ValueError):
        L.length_k(f, 1, GRID, 4)


@pytest.mark.parametrize("functional", [L.length_k, L.coarse_length_k])
def test_negative_order_is_out_of_range(functional):
    # expr.time_derivatives is the one check on k
    with pytest.raises(ParameterOutOfRange) as err:
        functional(path_of((0.0, 1.0, BUMP)), -1)
    assert err.value.name == "k"


# --- torus split paths ---

def torus_path(lam, u_src):
    grid = corpus.TORUS_GRID
    piece = hp.TorusPiece(0.0, 1.0, tuple(E.parse(s) for s in lam), E.parse(u_src))
    return hp.TorusSymplecticPath((piece,), 2, grid)


def test_pure_harmonic_totals_one_every_k():
    phi = torus_path(("1", "0"), "0")
    for k in range(4):
        rep = L.hofer_like_length_k(phi, k, time_samples=10)
        assert rep.total == pytest.approx(1.0, rel=1e-12)


def test_potential_only_reduces_to_plain_length():
    u = "sin(6.283185307179586*x1)*(1 + t)"
    phi = torus_path(("0", "0"), u)
    grid = corpus.TORUS_GRID
    ham = hp.HamiltonianPath((hp.Piece(0.0, 1.0, E.parse(u)),), 2, grid)
    for k in (0, 1, 2):
        a = L.hofer_like_length_k(phi, k, time_samples=10).total
        b = L.length_k(ham, k, grid, 10).total
        assert a == pytest.approx(b, rel=1e-12)


def test_hl_reparametrization_invariance():
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi = corpus.random_torus_path(rng, smooth=True)
        s = corpus.random_time_change(rng)
        psi = hp.reparametrize(phi, s)
        a = L.hofer_like_length_k(phi, 0, time_samples=30).total
        b = L.hofer_like_length_k(psi, 0, time_samples=30).total
        assert b == pytest.approx(a, rel=1e-8)
    # a two-piece path, split by t*t at the preimage of its breakpoint
    pieces = (hp.TorusPiece(0.0, 0.5, (E.parse("1 + t"), E.parse("0")),
                            E.parse("t*sin(6.283185307179586*x1)")),
              hp.TorusPiece(0.5, 1.0, (E.parse("2"), E.parse("-t")),
                            E.parse("cos(6.283185307179586*y1)")))
    phi = hp.TorusSymplecticPath(pieces, 2, corpus.TORUS_GRID)
    psi = hp.reparametrize(phi, E.parse("t*t"))
    assert psi.breakpoints == pytest.approx([0.0, np.sqrt(0.5), 1.0])
    a = L.hofer_like_length_k(phi, 0, time_samples=30).total
    b = L.hofer_like_length_k(psi, 0, time_samples=30).total
    assert b == pytest.approx(a, rel=1e-12)


def test_torus_reparametrize_substitutes_every_expression():
    # each expression e of a piece becomes s'(t) * e(x, s(t))
    rng = np.random.default_rng(8)
    for _ in range(3):
        phi = corpus.random_torus_path(rng, smooth=True)
        s = corpus.random_time_change(rng)
        ds = E.diff(s, "t")
        (piece,) = phi.pieces
        want = hp.TorusPiece(0.0, 1.0, tuple(E.mul(ds, E.substitute_time(lam, s))
                                             for lam in piece.harmonic),
                             E.mul(ds, E.substitute_time(piece.exact, s)))
        assert hp.reparametrize(phi, s).pieces == (want,)


def test_torus_reverse_and_concatenate_identities():
    # flux is a homomorphism; hl keeps every order under reversal and scales
    # order i by 2^i under the two-speed splice, as length_k does
    rng = np.random.default_rng(11)
    for i in range(10):
        phi = corpus.random_torus_path(rng, smooth=bool(i % 2))
        psi = corpus.random_torus_path(rng, smooth=bool(i % 2))
        flux_phi, flux_psi = L.flux_harmonic(phi), L.flux_harmonic(psi)
        assert np.abs(L.flux_harmonic(hp.reverse(phi)) + flux_phi).max() <= 1e-12
        assert np.abs(L.flux_harmonic(hp.concatenate(phi, psi))
                      - flux_phi - flux_psi).max() <= 1e-12
        a, b, r, c = (L.hofer_like_length_k(x, 3, time_samples=10).per_order
                      for x in (phi, psi, hp.reverse(phi), hp.concatenate(phi, psi)))
        for j in range(4):
            assert abs(r[j] - a[j]) <= 1e-12 * max(a[j], 1e-300)
            want = 2.0 ** j * (a[j] + b[j])
            assert abs(c[j] - want) <= 1e-12 * max(want, 1e-300)


def test_flux_examples():
    assert np.allclose(L.flux_harmonic(torus_path(("1", "0"), "0")), [1.0, 0.0])
    wobble = torus_path(("sin(6.283185307179586*t)", "0"), "0")
    assert abs(L.flux_harmonic(wobble)[0]) < 1e-14


def test_flux_inequality():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi = corpus.random_torus_path(rng)
        flux = L.flux_harmonic(phi)
        # time integral of the coefficient l1 size bounds the flux l1 size
        nodes, weights = np.polynomial.legendre.leggauss(30)
        ts = 0.5 + 0.5 * nodes
        ws = 0.5 * weights
        total = 0.0
        for lam in phi.pieces[0].harmonic:
            vals = np.array([abs(float(E.eval_env(lam, {"t": float(t)}))) for t in ts])
            total += float(np.dot(ws, vals))
        assert np.abs(flux).sum() <= total + 1e-10


def test_harmonic_coefficients_must_be_time_only():
    with pytest.raises(ValueError):
        torus_path(("x1", "0"), "0")


def test_torus_path_needs_torus_grid():
    from hoferlab.errors import GeometryError
    piece = hp.TorusPiece(0.0, 1.0, (E.parse("1"), E.parse("0")), E.parse("0"))
    with pytest.raises(GeometryError):
        hp.TorusSymplecticPath((piece,), 2, GRID)


def test_torus_json_roundtrip():
    phi = torus_path(("1", "sin(6.283185307179586*t)"), "cos(6.283185307179586*x1)")
    back = hp.TorusSymplecticPath.from_json(phi.to_json())
    assert back == phi


def test_functionals_refuse_a_grid_of_another_shape():
    f = path_of((0.0, 1.0, f"t*{BUMP}"))
    phi = corpus.random_torus_path(np.random.default_rng(3))
    box4 = Grid.box([-2.0] * 4, [2.0] * 4, (4,) * 4)
    torus2 = Grid.torus([1.0, 1.0], (8, 8))
    calls = [lambda g: L.length_k(f, 1, g), lambda g: L.coarse_length_k(f, 1, g),
             lambda g: L.length_kp(f, 1, 0.5, g)]
    for measure in calls:
        for grid in (box4, torus2):
            with pytest.raises(ParameterOutOfRange) as err:
                measure(grid)
            assert err.value.name == "grid"
        # another box of the path's dimension is a finer or wider sampling of the same path
        assert measure(Grid.box([-3.0, -3.0], [3.0, 3.0], (30, 30))).total > 0.0
    # a torus of other periods samples phi's potential on a quarter of its period
    quarter = Grid.torus([0.25, 0.25], phi.domain.resolution)
    for grid in (GRID, Grid.torus([1.0, 1.0, 1.0, 1.0], (4,) * 4), quarter):
        with pytest.raises(ParameterOutOfRange) as err:
            L.hofer_like_length_k(phi, 1, grid)
        assert err.value.name == "grid"
