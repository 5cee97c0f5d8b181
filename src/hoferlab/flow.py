"""Tracer-point integration of the Hamiltonian ODE.

The vector field convention is fixed by contracting the symplectic form
sum dx_i ^ dy_i against the field and equating with -dH, which gives

    dx_i/dt = -dH/dy_i,      dy_i/dt = +dH/dx_i.

Under this convention H = 2*x1 moves points by (0, 2t): a shift by 2t along
y1, which is the validation example wired into the tests.

Integration is classical RK4 with fixed steps per piece. RK4 is not
symplectic; a step-doubling error estimate is recorded and, when a target
tolerance is supplied, the step count doubles until the estimate meets it.
Each doubling round reuses the previous round's result as its half-step
run, and the subtrees the velocity components share are evaluated once per
RK4 stage. The steps run on the cloud as (2n, N) coordinate rows, so every
expression reads and writes contiguous rows. The stage inputs and the update
are formed in place, in the grouping of the textbook formula, and equal it
bit for bit.

A displacement certificate returns at once when a region tracer ends inside
the region; otherwise it takes the margin over blocks of at most
``DISPLACED_BLOCK`` squared distances.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import BlowUp, CloudMismatch, ParameterOutOfRange, StepErrorWarning
from .hampath import HamiltonianPath

SAFETY_RADIUS = 1e6       # a tracer coordinate beyond it, or NaN, stops integrate with BlowUp
MAX_DOUBLINGS = 6
# squared distances per block in ``displaced``: 128 KiB of float64
DISPLACED_BLOCK = 2 ** 14


@dataclass(frozen=True)
class TracerCloud:
    points: np.ndarray            # (N, 2n)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] % 2 != 0:
            raise ValueError("points must be a nonempty (N, 2n) array")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def from_csv(text):
        """Cloud from ``to_csv`` text: a header naming the coordinates in order, then rows."""
        rows = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = [name.strip() for name in rows[0].split(",")] if rows else []
        if header != ex.coordinates(len(header)):
            raise ValueError(f"header {rows[0]!r} does not read "
                             f"{','.join(ex.coordinates(len(header)))}")
        data = [list(map(float, ln.split(","))) for ln in rows[1:]]
        if any(len(row) != len(header) for row in data):
            raise ValueError(f"every row needs {len(header)} values, one per header name")
        if not np.all(np.isfinite(data)):
            raise ValueError("every value must be a finite number")
        return TracerCloud(np.array(data))

    def to_csv(self):
        out = io.StringIO()
        out.write(",".join(ex.coordinates(self.points.shape[1])) + "\n")
        for row in self.points:
            out.write(",".join(repr(float(c)) for c in row) + "\n")
        return out.getvalue()


@dataclass(frozen=True)
class FlowMap:
    initial: TracerCloud
    final: TracerCloud
    path_hash: str
    stats: dict

    def __post_init__(self):
        if self.initial.points.shape != self.final.points.shape:
            raise ValueError("initial and final clouds must have equal shape")

    def stats_json(self):
        return json.dumps(self.stats, sort_keys=True)


def _gradient_field(piece_hamiltonian, dimension):
    """Per-coordinate velocity expressions (-dH/dy_i, +dH/dx_i)."""
    names = ex.coordinates(dimension)
    vel = []
    for x, y in zip(names[::2], names[1::2]):
        vel += [ex.neg(ex.diff(piece_hamiltonian, y)), ex.diff(piece_hamiltonian, x)]
    return vel


def _velocity(field, x, t):
    """Velocity at the (2n, N) coordinate rows ``x``, as (2n, N) rows.

    ``field`` is ``expr.share_subtrees`` of the components. Each coordinate
    name is bound to a contiguous row of ``x`` and each component is written
    into a row of the output, so no expression reads or writes a strided column.
    """
    assignments, components = field
    env = dict(zip(ex.coordinates(len(x)), x))
    env["t"] = float(t)
    for name, e, _ in assignments:
        env[name] = ex.eval_env(e, env)
    out = np.empty_like(x)
    for j, e in enumerate(components):
        out[j] = ex.eval_env(e, env)
    return out


def _rk4(field, pts, t0, t1, steps):
    """RK4 from the (N, 2n) cloud ``pts``; returns a C-ordered (N, 2n) array.

    The steps run on the (2n, N) coordinate rows. The stage inputs and the
    update are formed in place, in the grouping of
    x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), so each value is the same float.
    """
    h = (t1 - t0) / steps
    x = pts.T.copy()
    y = np.empty_like(x)
    for n in range(steps):
        t = t0 + n * h
        k1 = _velocity(field, x, t)
        np.multiply(k1, 0.5 * h, out=y)
        y += x
        k2 = _velocity(field, y, t + 0.5 * h)
        np.multiply(k2, 0.5 * h, out=y)
        y += x
        k3 = _velocity(field, y, t + 0.5 * h)
        np.multiply(k3, h, out=y)
        y += x
        k4 = _velocity(field, y, t + h)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        k2 += x
        x = k2
        if not np.abs(x).max() <= SAFETY_RADIUS:      # a NaN coordinate fails too
            raise BlowUp(f"tracer left the safety box (radius {SAFETY_RADIUS:g}) "
                         "or became NaN")
    return x.T.copy()


def integrate(f: HamiltonianPath, cloud: TracerCloud, steps_per_piece: int = 256,
              tol: float = None) -> FlowMap:
    """Time-1 images of the tracers under the piecewise Hamiltonian flow.

    The error estimate compares against a half-step integration. With ``tol``
    set, steps double (up to ``MAX_DOUBLINGS`` times) until the estimate passes;
    each round's half-step run is the previous round's result, so a round
    integrates once. A ``StepErrorWarning`` says when the estimate still
    misses ``tol`` after the last doubling. The velocity components of a
    piece share their common subtrees (``expr.share_subtrees``), which are
    evaluated once per RK4 stage on the cloud's (2n, N) coordinate rows, with
    the stages formed in place (``_rk4``). A tracer coordinate that passes
    ``SAFETY_RADIUS`` or becomes NaN raises ``BlowUp``.
    """
    if steps_per_piece < 2:
        # the error estimate needs a half-step run that differs from the run
        raise ParameterOutOfRange("steps_per_piece", "need at least 2 steps per piece")
    pts0 = cloud.points
    dim = pts0.shape[1]
    if dim < f.dimension:
        raise ValueError("cloud dimension below the path dimension")
    fields = [(p.t_start, p.t_end, ex.share_subtrees(_gradient_field(p.hamiltonian, dim)))
              for p in f.pieces]

    def run(steps):
        x = pts0
        for t0, t1, vel in fields:
            x = _rk4(vel, x, t0, t1, steps)
        return x

    steps = steps_per_piece
    final = run(steps)
    half = run(steps // 2)
    while True:
        err = float(np.abs(final - half).max())
        if tol is None or err <= tol:
            break
        if steps >= steps_per_piece * 2 ** MAX_DOUBLINGS:
            warnings.warn(f"step-error estimate {err:.3g} misses tol {tol:g} at "
                          f"{steps} steps per piece", StepErrorWarning, stacklevel=2)
            break
        steps *= 2
        half, final = final, run(steps)
    stats = {"steps_per_piece": steps, "pieces": len(f.pieces),
             "max_step_error": err}
    path_hash = _hash_path(f)
    return FlowMap(cloud, TracerCloud(final), path_hash, stats)


def _hash_path(f):
    import hashlib
    return hashlib.sha256(json.dumps(f.to_json(), sort_keys=True).encode()).hexdigest()[:16]


def c0_distance(a: FlowMap, b: FlowMap) -> float:
    """Max tracer displacement between two flows of the same cloud.

    A sampled lower bound for the true sup-distance between the maps.
    """
    if a.initial.points.shape != b.initial.points.shape or \
            not np.array_equal(a.initial.points, b.initial.points):
        raise CloudMismatch("flow maps do not share an initial cloud")
    return float(np.linalg.norm(a.final.points - b.final.points, axis=1).max())


@dataclass(frozen=True)
class DisplacementCertificate:
    displaced: bool
    margin: float
    samples: int


def displaced(flow: FlowMap, region_test) -> DisplacementCertificate:
    """Sampled certificate that the flow moves region A off itself.

    ``region_test`` maps an (N, 2n) array to a boolean membership mask. The
    margin is the smallest distance from any displaced A-tracer back to the
    initial A-sample set. When some A-tracer ends inside the region the
    certificate is (False, 0.0) and no distance is computed. Otherwise the
    distances are taken in blocks of max(1, DISPLACED_BLOCK // N_A) rows, so
    a block holds at most max(DISPLACED_BLOCK, N_A) values.
    """
    init = flow.initial.points
    mask = np.asarray(region_test(init), dtype=bool)
    if not mask.any():
        raise ValueError("no tracers sample the region")
    samples = int(mask.sum())
    a0 = init[mask]
    a1 = flow.final.points[mask]
    if np.asarray(region_test(a1), dtype=bool).any():
        return DisplacementCertificate(displaced=False, margin=0.0, samples=samples)
    rows = max(1, DISPLACED_BLOCK // len(a0))
    d2_min = np.min([_squared_distances(a1[i:i + rows], a0).min()
                     for i in range(0, len(a1), rows)])
    margin = float(np.sqrt(d2_min))
    return DisplacementCertificate(displaced=margin > 0.0, margin=margin, samples=samples)


def _squared_distances(rows, cols):
    """(len(rows), len(cols)) squared distances, summed one axis at a time.

    Pairwise without scipy and without a (rows, cols, 2n) temporary; callers
    pass blocks of rows so that a block holds at most
    max(DISPLACED_BLOCK, len(cols)) values. For 2n < 8 the sums equal
    ``np.sum(..., axis=-1)`` of that temporary bit for bit (NumPy adds fewer
    than 8 terms in order); from 2n = 8 on NumPy sums pairwise, so they can
    differ in the last bit.
    """
    d2 = (rows[:, None, 0] - cols[None, :, 0]) ** 2
    for j in range(1, rows.shape[1]):
        d2 += (rows[:, None, j] - cols[None, :, j]) ** 2
    return d2


def box_region(lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def test(pts):
        pts = np.asarray(pts, dtype=float)
        return np.all((pts > lower) & (pts < upper), axis=1)

    return test


def polygon_area(loop_points):
    """Shoelace area of a polygon in the (x1, y1) plane; flows preserve it."""
    x = loop_points[:, 0]
    y = loop_points[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
