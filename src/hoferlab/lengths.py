"""Length functionals on the piecewise-smooth paths of ``hampath``.

Four variants are computed, each with a per-derivative-order breakdown:

* ``length_k``          sum over orders i <= k of the time integral of the
                        spatial oscillation of the i-th time derivative;
* ``coarse_length_k``   time suprema instead of time integrals;
* ``length_kp``         L_p spatial norms instead of oscillations;
* ``hofer_like_length_k``  the flat-torus variant on a ``TorusSymplecticPath``:
                        the l^1 size of the constant-form coefficients plus
                        the oscillation of the exact potential.

Every number produced here is a sampled length of the *given* path, never the
infimum-over-paths metric, which the exact length bounds from above; sampling
can read below the exact length.

Time quadrature is composite 5-point Gauss-Legendre per piece, in one
per-piece loop that the three integral variants share. The coarse
functional is sampled on a global uniform closed lattice plus the piece
ends (``PiecewisePath.lattice``, on which ``hampath.first_leak`` checks
supports too), which makes it exactly invariant under division refinements
whose new breakpoints lie on the lattice.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import ParameterOutOfRange
from .grid import Grid, lp_norm, oscillation
from .hampath import HamiltonianPath, TorusSymplecticPath

UPPER_BOUND_NOTE = ("path length only: an upper bound for the infimum-over-paths "
                    "(quasi)metric, which is not computed")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True)
class LengthReport:
    total: float
    per_order: tuple               # indexed i = 0..k
    per_piece: tuple               # per_piece[l][i]
    quadrature: dict
    kind: str = "k"
    note: str = UPPER_BOUND_NOTE

    def __post_init__(self):
        if abs(self.total - sum(self.per_order)) > 1e-12 * max(1.0, abs(self.total)):
            raise ValueError("total must equal the sum of per-order terms")

    def to_csv(self):
        out = io.StringIO()
        out.write("piece," + ",".join(f"order_{i}" for i in range(len(self.per_order))) + "\n")
        for l, row in enumerate(self.per_piece):
            out.write(f"{l}," + ",".join(repr(v) for v in row) + "\n")
        out.write("all," + ",".join(repr(v) for v in self.per_order) + "\n")
        return out.getvalue()


def gauss_legendre_panels(a, b, panels):
    """Composite Gauss-Legendre nodes/weights on [a, b], 5 nodes per panel."""
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * _GL_NODES)
        weights.append(half * _GL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def _time_rule(piece, time_samples):
    """Time quadrature on one piece with at least ``time_samples`` nodes."""
    panels = max(2, int(np.ceil(time_samples / 5)))
    return gauss_legendre_panels(piece.t_start, piece.t_end, panels)


def _size_table(expressions, pts, times, size):
    """(times x expressions) table of ``size`` of each expression sampled on ``pts``.

    ``size`` maps one (N,) row of samples to a float; the spatial sizes are
    ``grid.oscillation`` and ``grid.lp_norm``. Every length functional is a
    reduction of this table. The values come from ``expr.eval_over_time`` in
    blocks of time nodes, so one block of at most ``expr.TABLE_BLOCK`` values
    (or one (N,) row, when N is larger) is alive per evaluation and per shared
    mixed subtree, plus one (N,) array per t-free subtree.
    """
    table = np.empty((len(times), len(expressions)))
    for rows, i, vals in ex.eval_over_time(expressions, pts, times):
        table[rows, i] = [size(row) for row in vals]
    return table


def _time_integral(weights, sizes):
    """Quadrature of a (nodes x orders) size table, accumulated node by node."""
    row = np.zeros(sizes.shape[1])
    for w, row_sizes in zip(weights, sizes):
        row += w * row_sizes
    return tuple(float(v) for v in row)


def _report(per_piece, combine, quadrature, kind):
    """Per-order values combine the per-piece rows; the total sums the orders."""
    per_order = tuple(float(v) for v in combine(per_piece, axis=0))
    return LengthReport(float(sum(per_order)), per_order, tuple(per_piece),
                        quadrature, kind=kind)


def length_k(f: HamiltonianPath, k: int, grid: Grid = None,
             time_samples: int = 10) -> LengthReport:
    """Sum_{i<=k} integral of osc_x(d^i H / dt^i) dt over each piece."""
    return _integral_length(f, k, grid, time_samples, _derivative_sizes(oscillation), "k")


def length_kp(f: HamiltonianPath, k: int, p: float, grid: Grid = None,
              time_samples: int = 10) -> LengthReport:
    """Sum_{i<=k} integral of the spatial L_p norm of d^i H / dt^i."""
    vol = _sampling_grid(f, grid).cell_volume
    return _integral_length(f, k, grid, time_samples,
                            _derivative_sizes(lambda v: lp_norm(v, p, vol)), "kp", p=p)


def check_sampling(time_samples):
    """The precondition on ``time_samples`` that every length functional shares
    (``expr.time_derivatives`` checks ``k`` before anything is evaluated)."""
    if time_samples < 8:
        raise ParameterOutOfRange("time_samples", "need at least 8 time samples")


def _derivative_sizes(size):
    """Per-piece table of ``size`` of each time derivative of a Hamiltonian piece."""
    return lambda piece, k, pts, nodes: _size_table(ex.time_derivatives(piece.hamiltonian, k),
                                                    pts, nodes, size)


def _torus_sizes(piece, k, pts, nodes):
    """Per-piece table of l^1 of the coefficient derivatives plus osc of the potential's."""
    # |d^i lambda_j / dt^i| per (node, j, i); the coefficients depend on t
    # only, so one sample point suffices. The l^1 sum runs over j in order.
    coeffs = [d for lam in piece.harmonic for d in ex.time_derivatives(lam, k)]
    per_coeff = _size_table(coeffs, pts[:1], nodes, lambda v: abs(float(v[0])))
    per_coeff = per_coeff.reshape(len(nodes), len(piece.harmonic), k + 1)
    l1 = sum(per_coeff[:, j] for j in range(len(piece.harmonic)))
    return l1 + _size_table(ex.time_derivatives(piece.exact, k), pts, nodes, oscillation)


def _sampling_grid(f, grid):
    """``grid``, or the path's domain; a grid of another dimension or geometry, or a
    torus of other periods, is refused."""
    shape = lambda g: f"{g.dimension}-dimensional {g.geometry}" + (
        f" of periods {list(g.upper)}" if g.geometry == "torus" else "")
    if grid is not None and shape(grid) != shape(f.domain):
        raise ParameterOutOfRange("grid", f"grid is a {shape(grid)}, the path's domain a "
                                  f"{shape(f.domain)}")
    return grid or f.domain


def _integral_length(f, k, grid, time_samples, piece_sizes, kind, **quad_extra):
    """Time integrals of the (nodes x orders) table ``piece_sizes(piece, k, pts, nodes)``."""
    check_sampling(time_samples)
    grid = _sampling_grid(f, grid)
    pts = grid.points()
    per_piece = []
    for piece in f.pieces:
        nodes, weights = _time_rule(piece, time_samples)
        per_piece.append(_time_integral(weights, piece_sizes(piece, k, pts, nodes)))
    quad = {"time_samples": int(time_samples), "scheme": "gauss-legendre-5", **quad_extra}
    return _report(per_piece, np.sum, quad, kind)


def coarse_length_k(f: HamiltonianPath, k: int, grid: Grid = None,
                    time_samples: int = 129) -> LengthReport:
    """Sum_{i<=k} of the supremum over pieces and times of the oscillation.

    Sampled on ``f.lattice(time_samples)``, the global closed lattice
    {j/(S-1)} plus the piece ends, so breakpoints are evaluated from both
    adjacent pieces and refining a division at a lattice point cannot change
    the result.
    """
    check_sampling(time_samples)
    grid = _sampling_grid(f, grid)
    pts = grid.points()
    per_piece = []
    for piece, ts in zip(f.pieces, f.lattice(time_samples)):
        sizes = _size_table(ex.time_derivatives(piece.hamiltonian, k), pts, ts,
                            oscillation)
        per_piece.append(tuple(float(v) for v in sizes.max(axis=0)))
    return _report(per_piece, np.max,
                   {"time_samples": int(time_samples), "scheme": "closed-lattice-sup"},
                   "coarse")


def hofer_like_length_k(phi: TorusSymplecticPath, k: int, grid: Grid = None,
                        time_samples: int = 10) -> LengthReport:
    """Sum_{i<=k} integral of (l^1 of coefficient derivatives + osc of the
    potential's derivative)."""
    return _integral_length(phi, k, grid, time_samples, _torus_sizes, "hl")


def flux_harmonic(phi: TorusSymplecticPath) -> np.ndarray:
    """Componentwise time integral of the constant-form coefficients."""
    out = np.zeros(phi.dimension)
    origin = np.zeros((1, phi.dimension))
    for piece in phi.pieces:
        nodes, weights = _time_rule(piece, 20)
        # contiguous rows: np.dot sums a strided column in another order
        vals = _size_table(piece.harmonic, origin, nodes, lambda v: float(v[0])).T.copy()
        for j in range(phi.dimension):
            out[j] += float(np.dot(weights, vals[j]))
    return out

