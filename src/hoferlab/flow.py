"""Tracer-point integration of the Hamiltonian ODE.

The vector field convention is fixed by contracting the symplectic form
sum dx_i ^ dy_i against the field and equating with -dH, which gives

    dx_i/dt = -dH/dy_i,      dy_i/dt = +dH/dx_i.

Under this convention H = 2*x1 moves points by (0, 2t): a shift by 2t along
y1, which is the validation example wired into the tests.

``integrate`` runs each piece through one of two steppers on the cloud's
(2n, N) coordinate rows: classical RK4 at fixed steps (``_rk4``, what the
verify checks run; it is not symplectic), or, with a tolerance, the embedded
Dormand–Prince 5(4) pair with a step size per tracer (``_dormand_prince``;
Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer, Nørsett & Wanner,
Solving Ordinary Differential Equations I, ch. II.4). Its docstring states
the step rules, the error estimate and the stats.

A displacement certificate returns at once when a region tracer ends inside
the region; otherwise it takes the margin over blocks of at most
``DISPLACED_BLOCK`` squared distances.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import BlowUp, CloudMismatch, ParameterOutOfRange, StepErrorWarning
from .hampath import HamiltonianPath

SAFETY_RADIUS = 1e6       # a tracer coordinate beyond it, or NaN, stops integrate with BlowUp
MAX_DOUBLINGS = 3         # with tol, a tracer's step bounds halve at most 3 times
FLOOR_HALVINGS = 3        # the pair tests no step at or below 1/2**3 of its longest step
# the pair's first run tests each step at 16 * tol per unit of time: whether
# a tracer meets tol is decided by the half-step run, and a local test at
# tol itself made a flow-cloud pass about a third slower
LOCAL_TOL = 16
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
    ``t`` is a float, a row with a value per tracer, or a row of one value
    that every tracer shares.
    """
    assignments, components = field
    env = dict(zip(ex.coordinates(len(x)), x))
    env["t"] = t if isinstance(t, np.ndarray) else float(t)
    for name, e, _ in assignments:
        env[name] = ex.eval_env(e, env)
    out = np.empty_like(x)
    for j, e in enumerate(components):
        out[j] = ex.eval_env(e, env)
    return out


def _check_box(x):
    """Raise ``BlowUp`` when a coordinate of ``x`` passes ``SAFETY_RADIUS`` or is NaN."""
    if not np.abs(x).max() <= SAFETY_RADIUS:      # a NaN coordinate fails too
        raise BlowUp(f"tracer left the safety box (radius {SAFETY_RADIUS:g}) "
                     "or became NaN")


def _rk4(field, x, t0, t1, steps):
    """Classical RK4 over the piece [t0, t1] in ``steps`` steps from the (2n, N) rows ``x``.

    The stage inputs and the update are formed in place, in the grouping of
    x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), so each value is the same float.
    ``x`` is overwritten with the rows at t1. Returns what ``_dormand_prince``
    returns: each tracer's count of accepted steps, and the rejected steps
    (none) and velocity evaluations (four per step) summed over the tracers.
    """
    h = (t1 - t0) / steps
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
        x += k2
        _check_box(x)
    return np.full(x.shape[1], steps), 0, 4 * steps * x.shape[1]


# Dormand & Prince (1980), RK5(4)7M: the stage nodes, the stage rows (the
# last row is the fifth-order update, so its stage is the next step's first,
# FSAL) and the weights of the estimate y5 - y4
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = ((),
         (1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _dormand_prince(field, x, t0, t1, steps, tol, cell):
    """Dormand–Prince 5(4) over the piece [t0, t1] from the (2n, N) rows ``x``.

    Each tracer has its own t and h, and t is bound as a row; while every
    active tracer has the same t and h, the stage times are bound as a row
    of one, so the subtrees of t alone are evaluated once, on the same array
    as for one tracer alone. A step is accepted when its estimate is at most
    ``tol * h``. No step is longer than (t1 - t0) / ``steps`` or moves its
    tracer more than ``cell`` along any axis at the velocity it starts from,
    unless that would take it below the floor, 1/2**FLOOR_HALVINGS of the
    longest step; a step at the floor is taken without the test. The piece
    end is a hard stop, and a tracer that reaches it leaves the active set.
    ``x`` is overwritten with the rows at t1. Returns each tracer's count of
    accepted steps, and the rejected steps and velocity evaluations summed
    over the tracers.
    """
    hmax = (t1 - t0) / steps
    floor = hmax / 2 ** FLOOR_HALVINGS
    out = x
    taken = np.empty(x.shape[1], dtype=np.int64)
    active = np.arange(x.shape[1])
    t = np.full(x.shape[1], float(t0))
    h = np.full(x.shape[1], hmax)
    k = [_velocity(field, x, t[:1])] + [None] * 6
    accepted = np.zeros(x.shape[1], dtype=np.int64)
    rejected, evaluations = 0, x.shape[1]
    y = np.empty_like(x)
    while active.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            # fmin skips the NaN of a NaN velocity, which the safety check stops
            h = np.maximum(np.fmin(np.fmin(h, hmax), cell / np.abs(k[0]).max(axis=0)), floor)
        rest = t1 - t
        ends = h >= rest * (1.0 - 1e-9)       # no sliver of a step before the piece end
        h = np.where(ends, rest, h)
        lockstep = t.min() == t.max() and h.min() == h.max()
        ts, hs = (t[:1], h[:1]) if lockstep else (t, h)
        for i in range(1, 7):
            np.multiply(k[0], _DP_A[i][0], out=y)
            for a, kj in zip(_DP_A[i][1:], k[1:i]):
                if a:
                    y += a * kj
            y *= h
            y += x
            if i == 5:
                k[1] = None                    # the last stage to read k2 is the sixth
            k[i] = _velocity(field, y, ts + _DP_C[i] * hs)
        evaluations += 6 * active.size
        term = _DP_E[0] * k[0]
        for e, kj in zip(_DP_E[2:], k[2:]):
            term += e * kj
        est = np.abs(term).max(axis=0)         # per unit step; NaN fails the test
        ok = (h <= floor) | (est <= tol)
        np.copyto(x, y, where=ok)
        np.copyto(k[0], k[6], where=ok)
        k[1:] = [None] * 6
        _check_box(x)
        t = np.where(ok, np.where(ends, t1, t + h), t)
        accepted += ok
        rejected += active.size - int(np.count_nonzero(ok))
        # the estimate per unit step scales as h**4: propose 0.9 of the step
        # that would just meet tol, within [0.2, 5] times this one (a NaN
        # estimate shrinks it)
        with np.errstate(divide="ignore", invalid="ignore"):
            h *= np.fmin(np.fmax(0.9 * (est / tol) ** -0.25, 0.2), 5.0)
        done = ok & ends
        if done.any():
            finished = active[done]
            out[:, finished] = x.compress(done, axis=1)
            taken[finished] = accepted[done]
            keep = ~done
            active, t, h, accepted = active[keep], t[keep], h[keep], accepted[keep]
            x, k[0] = x.compress(keep, axis=1), k[0].compress(keep, axis=1)
            y = np.empty_like(x)
    return taken, rejected, evaluations


def integrate(f: HamiltonianPath, cloud: TracerCloud, steps_per_piece: int = 256,
              tol: float = None) -> FlowMap:
    """Time-1 images of the tracers under the piecewise Hamiltonian flow.

    The velocity components of a piece share their common subtrees
    (``expr.share_subtrees``), evaluated once per stage on the cloud's (2n, N)
    coordinate rows. Each piece runs through one stepper. Without ``tol`` it
    is classical RK4 at ``steps_per_piece`` fixed steps, with the stages
    formed in place (``_rk4``).

    With ``tol`` (0 < tol < inf) it is the embedded Dormand–Prince 5(4) pair
    with a step size per tracer (``_dormand_prince``): the steps run on the
    rows of the tracers still short of the piece end, t is bound as a row,
    and the last stage of a step is the first of the next. A step is
    accepted when its local estimate is at most ``LOCAL_TOL * tol * h``. No
    step is longer than 1/``steps_per_piece`` of its piece, nor moves its
    tracer more than the smallest spacing of ``f.domain`` along an axis at
    the velocity it starts from, so no step jumps a cutoff's transition band
    wider than a cell. A step at the floor, 1/2**``FLOOR_HALVINGS`` of the
    longest, is taken without the local test.

    Each tracer's error estimate compares its run against a half-step run,
    whose step bounds are doubled (with ``tol``, the local tolerance is
    multiplied by 2**4 too, as the local estimate scales as h**4), so the
    estimate sees how the flow amplifies earlier errors;
    ``stats["max_step_error"]`` is the largest. Without ``tol`` the estimate
    is only reported. With ``tol``, every tracer whose estimate misses
    ``tol`` (or is NaN) is integrated again with the step bounds halved and
    the local tolerance divided by 2**4, up to ``MAX_DOUBLINGS`` times; its
    previous result is the new run's half-step run, so a round integrates
    once, and only the tracers still missing. A ``StepErrorWarning`` says
    when some estimate still misses ``tol`` after the last doubling. So no
    run takes more than ``steps_per_piece`` * 2**(``MAX_DOUBLINGS`` +
    ``FLOOR_HALVINGS``) steps per piece. Piece ends are hard stops. Each
    tracer is its own ODE, so its final point is the same float as when it
    is integrated alone.

    ``stats`` holds ``steps_per_piece``, the most steps any tracer took on
    one piece; ``pieces``; ``max_step_error``; and ``accepted``,
    ``rejected`` and ``evaluations``, the steps and velocity evaluations of
    every run summed over the tracers (RK4 rejects none and makes four
    evaluations per step). A tracer coordinate that passes
    ``SAFETY_RADIUS`` or becomes NaN raises ``BlowUp``.
    """
    if steps_per_piece < 2:
        # the error estimate needs a half-step run that differs from the run
        raise ParameterOutOfRange("steps_per_piece", "need at least 2 steps per piece")
    if tol is not None and not 0 < tol < math.inf:
        raise ParameterOutOfRange("tol", f"tol must satisfy 0 < tol < inf, got {tol}")
    pts0 = cloud.points
    dim = pts0.shape[1]
    if dim < f.dimension:
        raise ParameterOutOfRange("cloud", f"cloud has {dim} coordinates, "
                                  f"below the path's dimension {f.dimension}")
    fields = [(p.t_start, p.t_end, ex.share_subtrees(_gradient_field(p.hamiltonian, dim)))
              for p in f.pieces]
    stats = {"steps_per_piece": 0, "pieces": len(f.pieces), "max_step_error": 0.0,
             "accepted": 0, "rejected": 0, "evaluations": 0}

    def run(pts, steps):
        scale = steps / steps_per_piece
        x = pts.T.copy()
        for t0, t1, vel in fields:
            taken, rejected, evaluations = (
                _rk4(vel, x, t0, t1, steps) if tol is None else _dormand_prince(
                    vel, x, t0, t1, steps, LOCAL_TOL * tol / scale ** 4,
                    min(f.domain.spacings) / scale))
            stats["steps_per_piece"] = max(stats["steps_per_piece"], int(taken.max()))
            stats["accepted"] += int(taken.sum())
            stats["rejected"] += rejected
            stats["evaluations"] += evaluations
        return x.T.copy()

    steps = steps_per_piece
    final = run(pts0, steps)
    per = np.abs(final - run(pts0, steps // 2)).max(axis=1)
    # per-tracer doubling; ``not <=`` keeps a NaN estimate in the set
    todo = np.flatnonzero(~(per <= tol)) if tol is not None else ()
    while len(todo):
        if steps >= steps_per_piece * 2 ** MAX_DOUBLINGS:
            warnings.warn(f"step-error estimate {per.max():.3g} misses tol {tol:g} after "
                          f"{MAX_DOUBLINGS} doublings, at steps of at most 1/{steps} of a "
                          "piece", StepErrorWarning, stacklevel=2)
            break
        steps *= 2
        new = run(pts0[todo], steps)
        per[todo] = np.abs(new - final[todo]).max(axis=1)
        final[todo] = new
        todo = todo[~(per[todo] <= tol)]
    stats["max_step_error"] = float(per.max())
    return FlowMap(cloud, TracerCloud(final), _hash_path(f), stats)


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
