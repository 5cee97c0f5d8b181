"""Piecewise-smooth paths of both types, their JSON and their algebra.

A path is an ordered list of pieces tiling [0, 1] exactly. A
``HamiltonianPath`` piece carries one Hamiltonian expression; a flat-torus
``TorusSymplecticPath`` piece carries constant-form coefficients and an exact
potential. ``PiecewisePath`` holds the tiling rule and one JSON codec, in
which each piece type writes its own fields. The algebra mirrors how paths of
diffeomorphisms compose: time reversal (negate and flip time), two-speed
concatenation (each half replayed at double speed with doubled
Hamiltonian) and reparametrization by a monotone time change replay each
piece along a time map, for both path types. Conjugation by an affine
symplectic map (substituted into the expression; on a torus it would have
to preserve the lattice) and pointwise sums of disjointly supported
families take ``HamiltonianPath``s only. Splices and sums need one domain.

Supports are checked by sampling: ``first_leak`` evaluates each piece on
the path's ``lattice`` (the times the coarse length samples too) and
applies ``grid.leaks`` to the grid points outside a box.

Continuity of the underlying flow at piece boundaries is deliberately not
part of the data model; the flow module checks it where experiments care.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .errors import GeometryError, NotMonotone, ParameterOutOfRange, SupportOverlap
from .grid import Grid, leaks


@dataclass(frozen=True)
class Piece:
    t_start: float
    t_end: float
    hamiltonian: ex.Expression

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(f"piece needs t_start < t_end, got [{self.t_start}, {self.t_end}]")

    def map(self, fn):
        """The piece with ``fn`` applied to its Hamiltonian."""
        return replace(self, hamiltonian=fn(self.hamiltonian))

    def fields_json(self):
        return {"expr": ex.to_source(self.hamiltonian)}

    @staticmethod
    def parse_fields(spec):
        return (ex.parse(spec["expr"]),)


@dataclass(frozen=True)
class TorusPiece:
    t_start: float
    t_end: float
    harmonic: tuple        # 2n coefficient Expressions, functions of t only
    exact: ex.Expression   # potential U(x, t); mean is irrelevant to osc

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("piece needs t_start < t_end")
        for lam in self.harmonic:
            if ex.variables(lam) - {"t"}:
                raise ValueError("harmonic coefficients must depend on t only")

    def map(self, fn):
        """The piece with ``fn`` applied to every coefficient and the potential."""
        return replace(self, harmonic=tuple(fn(lam) for lam in self.harmonic),
                       exact=fn(self.exact))

    def fields_json(self):
        return {"harmonic": [ex.to_source(l) for l in self.harmonic],
                "exact": ex.to_source(self.exact)}

    @staticmethod
    def parse_fields(spec):
        return tuple(ex.parse(l) for l in spec["harmonic"]), ex.parse(spec["exact"])


@dataclass(frozen=True)
class PiecewisePath:
    """Pieces tiling [0, 1] without gaps, each naming only coordinates within
    ``dimension``; each piece type (a path type's ``PIECE``) has ``map``, which
    applies a function to every expression, and reads and writes its own JSON fields."""

    pieces: tuple
    dimension: int
    domain: Grid

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("path needs at least one piece")
        if self.pieces[0].t_start != 0.0 or self.pieces[-1].t_end != 1.0:
            raise ValueError("pieces must start at 0 and end at 1")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.t_end != b.t_start:
                raise ValueError(f"gap/overlap at t={a.t_end} vs {b.t_start}")
        for p in self.pieces:
            p.map(self._check_coordinates)

    def _check_coordinates(self, e):
        if ex.spatial_dimension(e) > self.dimension:
            raise ValueError("piece references coordinates beyond the declared dimension")
        return e

    @property
    def breakpoints(self):
        return [p.t_start for p in self.pieces] + [1.0]

    def piece_at(self, t):
        for p in self.pieces:
            if p.t_start <= t <= p.t_end:
                return p
        raise ValueError(f"t={t} outside [0,1]")

    def lattice(self, samples):
        """Per piece, its times on the closed lattice {j/(samples-1)} and its two
        ends, so a breakpoint is sampled from both adjacent pieces."""
        nodes = np.linspace(0.0, 1.0, samples)
        return [np.unique(np.concatenate([[p.t_start],
                                          nodes[(nodes >= p.t_start) & (nodes <= p.t_end)],
                                          [p.t_end]]))
                for p in self.pieces]

    def to_json(self):
        return {
            "dimension": self.dimension,
            "pieces": [{"t0": p.t_start, "t1": p.t_end, **p.fields_json()}
                       for p in self.pieces],
            "domain": self.domain.to_json(),
        }

    @classmethod
    def from_json(cls, spec):
        pieces = tuple(cls.PIECE(float(p["t0"]), float(p["t1"]), *cls.PIECE.parse_fields(p))
                       for p in spec["pieces"])
        return cls(pieces, int(spec["dimension"]), Grid.from_json(spec["domain"]))


@dataclass(frozen=True)
class HamiltonianPath(PiecewisePath):
    PIECE = Piece


@dataclass(frozen=True)
class TorusSymplecticPath(PiecewisePath):
    PIECE = TorusPiece

    def __post_init__(self):
        if self.domain.geometry != "torus":
            raise GeometryError("symplectic paths with a harmonic part live on a torus")
        super().__post_init__()
        for p in self.pieces:
            if len(p.harmonic) != self.dimension:
                raise ValueError("need one coefficient per constant 1-form, i.e. 2n")


def path_from_json(spec) -> PiecewisePath:
    """A TorusSymplecticPath when the first piece has ``harmonic``, else a HamiltonianPath."""
    if spec.get("pieces") and "harmonic" in spec["pieces"][0]:
        return TorusSymplecticPath.from_json(spec)
    return HamiltonianPath.from_json(spec)


def autonomous_path(expression, dimension, domain) -> HamiltonianPath:
    return HamiltonianPath((Piece(0.0, 1.0, expression),), dimension, domain)


@dataclass(frozen=True)
class AffineSymplectic:
    """x -> linear @ x + shift with linear^T J linear = J (coordinates x1,y1,...)."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=float)
        b = np.asarray(self.shift, dtype=float)
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "shift", b)
        d = L.shape[0]
        if L.shape != (d, d) or b.shape != (d,) or d % 2 != 0:
            raise ValueError("linear must be 2n x 2n and shift length 2n")
        if not (np.all(np.isfinite(L)) and np.all(np.isfinite(b))):
            raise ValueError("linear and shift must hold finite numbers")
        J = standard_symplectic_matrix(d)
        if np.abs(L.T @ J @ L - J).max() > 1e-10:
            raise ValueError("linear part is not symplectic")

    @staticmethod
    def identity(dimension):
        return AffineSymplectic(np.eye(dimension), np.zeros(dimension))

    @staticmethod
    def translation(shift):
        shift = np.asarray(shift, dtype=float)
        return AffineSymplectic(np.eye(len(shift)), shift)

    def inverse(self):
        Linv = np.linalg.inv(self.linear)
        return AffineSymplectic(Linv, -Linv @ self.shift)

    def as_substitution(self):
        """Variable map realizing x -> self(x), i.e. x_j := (L x + b)_j."""
        names = ex.coordinates(self.linear.shape[0])
        mapping = {}
        for row, out_name in enumerate(names):
            acc = ex.const(self.shift[row])
            for col, in_name in enumerate(names):
                c = self.linear[row, col]
                if c != 0.0:
                    acc = ex.add(acc, ex.mul(ex.const(c), ex.Var(in_name)))
            mapping[out_name] = acc
        return mapping


def standard_symplectic_matrix(dimension):
    """J for the 2-form sum dx_i ^ dy_i in interleaved coordinates."""
    J = np.zeros((dimension, dimension))
    for i in range(dimension // 2):
        J[2 * i, 2 * i + 1] = 1.0
        J[2 * i + 1, 2 * i] = -1.0
    return J


# --- the path algebra ---

def _replay(piece, a, b, s, scale):
    """``piece`` moved to [a, b], each expression e becoming scale(e(x, s(t)))."""
    return replace(piece.map(lambda e: scale(ex.substitute_time(e, s))), t_start=a, t_end=b)


def reverse(f: PiecewisePath) -> PiecewisePath:
    """Time-reversed path: piece [a,b] becomes [1-b,1-a] carrying -H(x, 1-t)."""
    one_minus_t = ex.sub(ex.const(1.0), ex.Var("t"))
    return replace(f, pieces=tuple(_replay(p, 1.0 - p.t_end, 1.0 - p.t_start, one_minus_t, ex.neg)
                                   for p in reversed(f.pieces)))


def concatenate(f: PiecewisePath, g: PiecewisePath) -> PiecewisePath:
    """Two-speed splice: f replayed on [0,1/2], then g on [1/2,1].

    Each half carries twice its Hamiltonian at double speed, so the spliced
    family generates "f's endpoint, then g's flow applied after it".
    """
    if type(f) is not type(g) or f.dimension != g.dimension:
        raise ValueError(f"cannot concatenate a {type(f).__name__} of dimension {f.dimension} "
                         f"with a {type(g).__name__} of dimension {g.dimension}")
    common_domain([f, g])
    two_t = ex.mul(ex.const(2.0), ex.Var("t"))
    two_t_minus_one = ex.sub(two_t, ex.const(1.0))
    double = lambda e: ex.mul(ex.const(2.0), e)
    first = [_replay(p, p.t_start / 2.0, p.t_end / 2.0, two_t, double) for p in f.pieces]
    second = [_replay(p, (p.t_start + 1.0) / 2.0, (p.t_end + 1.0) / 2.0, two_t_minus_one,
                      double) for p in g.pieces]
    return replace(f, pieces=tuple(first + second))


def _invert_monotone(s_piece, target, lo, hi):
    """Solve s(t) = target for t in [lo, hi] by bisection (s monotone)."""
    f = lambda t: float(ex.eval_env(s_piece, {"t": t})) - target
    a, b = lo, hi
    fa = f(a)
    if fa > 1e-14:
        raise NotMonotone(f"reparametrization leaves no preimage for {target}")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < 1e-14:
            break
        if f(m) < 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def reparametrize(f: PiecewisePath, s) -> PiecewisePath:
    """Replay f along a monotone time change s: [0,1] -> [0,1].

    ``s`` is an Expression in t, or a list of Pieces for a piecewise-smooth
    change; derivatives are taken symbolically. Every expression e(x, t) of
    a new piece is s'(t) * e(x, s(t)), so any path type whose pieces have
    ``map`` works; the identity change returns f itself.
    """
    if isinstance(s, ex.Expression) and s == ex.Var("t"):
        return f
    if isinstance(s, ex.Expression):
        s_pieces = [Piece(0.0, 1.0, s)]
    else:
        s_pieces = list(s)
    d_pieces = [Piece(p.t_start, p.t_end, ex.diff(p.hamiltonian, "t")) for p in s_pieces]

    # validate endpoints and monotonicity by sampling
    first, last = s_pieces[0], s_pieces[-1]
    s0 = float(ex.eval_env(first.hamiltonian, {"t": 0.0}))
    s1 = float(ex.eval_env(last.hamiltonian, {"t": 1.0}))
    if abs(s0) > 1e-12 or abs(s1 - 1.0) > 1e-12:
        raise NotMonotone(f"time change must fix 0 and 1, got s(0)={s0}, s(1)={s1}")
    for sp, dp in zip(s_pieces, d_pieces):
        ts = np.linspace(sp.t_start, sp.t_end, 257)
        dv = ex.eval_array(dp.hamiltonian, {"t": ts}, ts.size)
        if dv.min() < -1e-12:
            raise NotMonotone(f"s' reaches {dv.min()} on [{sp.t_start}, {sp.t_end}]")

    # split at every preimage of an f-breakpoint, then substitute
    out = []
    for sp, dp in zip(s_pieces, d_pieces):
        lo, hi = sp.t_start, sp.t_end
        s_lo = float(ex.eval_env(sp.hamiltonian, {"t": lo}))
        s_hi = float(ex.eval_env(sp.hamiltonian, {"t": hi}))
        cuts = [lo]
        for b in f.breakpoints:
            if s_lo + 1e-15 < b < s_hi - 1e-15:
                cuts.append(_invert_monotone(sp.hamiltonian, b, lo, hi))
        cuts.append(hi)
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= 1e-15:
                continue
            mid_s = float(ex.eval_env(sp.hamiltonian, {"t": 0.5 * (a + b)}))
            base = f.piece_at(min(max(mid_s, 0.0), 1.0))
            out.append(_replay(base, a, b, sp.hamiltonian,
                               lambda e: ex.mul(dp.hamiltonian, e)))
    out[0] = replace(out[0], t_start=0.0)
    out[-1] = replace(out[-1], t_end=1.0)
    fixed = [out[0]]
    for p in out[1:]:
        fixed.append(replace(p, t_start=fixed[-1].t_end))
    return replace(f, pieces=tuple(fixed))


def conjugate(f: HamiltonianPath, theta: AffineSymplectic) -> HamiltonianPath:
    """Path of theta . f_t . theta^{-1}: each piece becomes H(theta^{-1}(x), t).

    A theta of lower dimension acts on the first coordinates, as theta x id."""
    if theta.linear.shape[0] > f.dimension:
        raise ParameterOutOfRange("theta", f"theta acts in dimension {theta.linear.shape[0]}, "
                                           f"above the path's dimension {f.dimension}")
    mapping = theta.inverse().as_substitution()
    pieces = tuple(replace(p, hamiltonian=ex.substitute(p.hamiltonian, mapping))
                   for p in f.pieces)
    return replace(f, pieces=pieces)


def common_domain(paths):
    """The domain that all ``paths`` share; a ValueError names the first two that differ."""
    domain = paths[0].domain
    for f in paths[1:]:
        if f.domain != domain:
            raise ValueError(f"paths live on different domains: {domain.to_json()} "
                             f"and {f.domain.to_json()}")
    return domain


def _common_division(paths):
    cuts = sorted({b for f in paths for b in f.breakpoints})
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > 1e-15:
            merged.append(c)
    return merged


def box_corners(paths, boxes):
    """One (lo, hi) pair of corner arrays per path, each of the path's dimension,
    with lo < hi on every axis.

    Raises ValueError naming the count or ``boxes[i]`` otherwise.
    """
    boxes = list(boxes)
    if len(boxes) != len(paths):
        raise ValueError(f"need one box per path: {len(paths)} paths, {len(boxes)} boxes")
    out = []
    for i, (f, box) in enumerate(zip(paths, boxes)):
        corners = [np.asarray(c, dtype=float) for c in box]
        if len(corners) != 2 or any(c.shape != (f.dimension,) for c in corners):
            raise ValueError(f"boxes[{i}] must be [lo, hi] corners of "
                             f"{f.dimension} coordinates each")
        if not np.all(corners[0] < corners[1]):
            raise ValueError(f"boxes[{i}] needs lo < hi on every axis")
        out.append(tuple(corners))
    return out


def first_leak(f: HamiltonianPath, grid: Grid, lo, hi, samples):
    """First time of ``f.lattice(samples)`` at which a piece's Hamiltonian, sampled
    on ``grid``, leaks (``grid.leaks``) at the points outside the box [lo, hi];
    None when it never does, or when no grid point lies outside the box."""
    pts = grid.points()
    outside = np.any((pts < lo) | (pts > hi), axis=1)
    if not outside.any():
        return None
    for piece, times in zip(f.pieces, f.lattice(samples)):
        for rows, _, vals in ex.eval_over_time([piece.hamiltonian], pts, times):
            for t, row in zip(times[rows], vals):
                if leaks(row, outside):
                    return float(t)
    return None


def validate_disjoint_supports(paths, boxes, samples):
    """Sampling check that each path's Hamiltonian vanishes outside its box on
    its own domain at every time of its ``lattice(samples)``, and that the
    boxes are disjoint."""
    boxes = box_corners(paths, boxes)
    for i, (f, (lo, hi)) in enumerate(zip(paths, boxes)):
        t = first_leak(f, f.domain, lo, hi, samples)
        if t is not None:
            raise SupportOverlap(f"path {i} leaks outside its declared box at t={t}")
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo_i, hi_i = boxes[i]
            lo_j, hi_j = boxes[j]
            if all(l < h for l, h in zip(np.maximum(lo_i, lo_j), np.minimum(hi_i, hi_j))):
                raise SupportOverlap(f"declared boxes {i} and {j} intersect")


def disjoint_product(paths, boxes, samples) -> HamiltonianPath:
    """Pointwise sum of disjointly supported paths on a common division.

    The sum generates the simultaneous (= composed, by disjointness) flow.
    Supports in ``boxes`` are validated by sampling on the paths' common
    domain at the times of the ``samples``-point lattice.
    """
    paths = list(paths)
    common_domain(paths)
    validate_disjoint_supports(paths, boxes, samples)
    division = _common_division(paths)
    pieces = []
    for a, b in zip(division, division[1:]):
        mid = 0.5 * (a + b)
        total = None
        for f in paths:
            h = f.piece_at(mid).hamiltonian
            total = h if total is None else ex.add(total, h)
        pieces.append(Piece(a, b, total))
    return replace(paths[0], pieces=tuple(pieces))
