"""Explicit displacement constructions with numerical certificates.

``square_displacement`` builds an autonomous planar Hamiltonian depending
only on y1 whose time-1 flow translates the open square (0,a) x (0,a) of
area c = a^2 off itself while the path length stays within 2% of c. The
profile is a linear ramp of slope -a(1+eps), eps = SQUARE_EPS, across a
slightly widened window, glued to zero by a plateau cutoff; the flow
shifts x1 by exactly a(1+eps) for every tracer with y1 in the window, so
the translate clears the square with margin a*eps, and the oscillation of
the profile is c(1+eps) plus the small window widening.

``half_space_shift`` builds the non-compactly-supported conjugator whose
flow fixes the half-space x1 <= -eps and translates x1 >= 0 by +v. With
the sign convention dx/dt = -dH/dy fixed by the flow module, the
generating function must be H = -eta(x1) * v * y1 for a rightward shift.
The ramp eta is realized inside the DSL as a wide plateau cutoff equal to
1 on [0, 2*window] and 0 left of -eps; certificates only sample the
working window, far from the artificial right-hand falloff.

Neither construction raises when its certificate fails: each returns the
certificate, and its ``ok()`` says whether it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import expr as ex
from .. import flow as fl
from .. import lengths as ln
from ..errors import ParameterOutOfRange
from ..grid import Grid
from ..hampath import HamiltonianPath, autonomous_path

# half-width of the half-space shift's working window (the x1 ramp and its grid)
SHIFT_WINDOW = 16.0
SQUARE_EPS = 0.004    # relative overshoot of the square's translation (margin a*SQUARE_EPS)


@dataclass(frozen=True)
class SquareCertificate:
    area: float
    lengths: dict          # k -> measured length
    displaced: bool
    margin: float
    tolerance: float

    def ok(self):
        return self.displaced and all(
            abs(v - self.area) <= self.tolerance * self.area for v in self.lengths.values())


def square_displacement(area: float, k_max: int = 5):
    """Autonomous path displacing the open square of the given area.

    Returns (path, certificate); the certificate's ``ok()`` is false when the
    displacement or the length budget (2% of the area) fails.
    """
    if not 0 < area < math.inf:
        raise ParameterOutOfRange("area", "area must be a finite number > 0")
    if not 0 <= k_max <= ex.MAX_DIFF_ORDER:
        raise ParameterOutOfRange("k_max", f"k_max must be in [0, {ex.MAX_DIFF_ORDER}]")
    a = math.sqrt(area)
    v = a * (1.0 + SQUARE_EPS)
    mu = 0.002 * a
    y1 = ex.Var("y1")
    # ramp v*(a/2 - y1) on [-mu, a+mu], cut to zero outside [-2mu, a+2mu];
    # the cutoff argument is scaled by 1/mu so the glue sees a unit-width
    # transition and cannot underflow for small windows
    cutoff = ex.step(ex.div(ex.sub(y1, ex.const(a / 2.0)), ex.const(mu)),
                     a / (2.0 * mu) + 1.0, a / (2.0 * mu) + 2.0)
    h = ex.mul(ex.mul(ex.const(v), ex.sub(ex.const(a / 2.0), y1)), cutoff)
    lo = min(-4.0 * mu - 0.5 * a, -0.5)
    hi = max(a + 4.0 * mu + 0.5 * a, a + 0.5)
    grid = Grid.box([lo - a, lo], [hi + a + v, hi], (3, 4096))
    path = autonomous_path(h, 2, grid)

    lengths = {}
    for k in range(k_max + 1):
        lengths[k] = ln.length_k(path, k, time_samples=10).total

    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, a, (512, 2))
    cloud = fl.TracerCloud(pts)
    fm = fl.integrate(path, cloud, steps_per_piece=32)
    cert_flow = fl.displaced(fm, fl.box_region([0.0, 0.0], [a, a]))
    return path, SquareCertificate(area, lengths, cert_flow.displaced, cert_flow.margin, 0.02)


@dataclass(frozen=True)
class ShiftCertificate:
    v: float
    eps: float
    fixed_error: float     # max drift of tracers left of -eps
    shift_error: float     # max deviation from (+v, 0, ...) right of 0
    window: float

    def ok(self):
        return self.fixed_error < 1e-8 and self.shift_error < 1e-6


def half_space_shift(v: float, eps: float) -> HamiltonianPath:
    """Path generated by H = -eta(x1) * v * y1 shifting {x1 >= 0} by +v."""
    if not 0 < v < math.inf:
        raise ParameterOutOfRange("v", "v must be a finite number > 0")
    if not 0 < eps < math.inf:
        raise ParameterOutOfRange("eps", "eps must be a finite number > 0")
    x1, y1 = ex.Var("x1"), ex.Var("y1")
    # unit-width transition in the scaled argument: eta = 1 on [0, 2*window],
    # 0 left of -eps and right of 2*window + eps
    eta = ex.step(ex.div(ex.sub(x1, ex.const(SHIFT_WINDOW)), ex.const(eps)),
                  SHIFT_WINDOW / eps, SHIFT_WINDOW / eps + 1.0)
    h = ex.neg(ex.mul(ex.mul(eta, ex.const(v)), y1))
    grid = Grid.box([-SHIFT_WINDOW, -SHIFT_WINDOW], [SHIFT_WINDOW, SHIFT_WINDOW], (16, 16))
    return autonomous_path(h, 2, grid)


def shift_certificate(v: float, eps: float) -> ShiftCertificate:
    """Integrate 64 probe tracers on each side of the transition zone."""
    path = half_space_shift(v, eps)
    rng = np.random.default_rng(0)
    span = 8.0
    fixed_pts = np.column_stack([rng.uniform(-span, -2.0 * eps, 64),
                                 rng.uniform(-span, span, 64)])
    moved_pts = np.column_stack([rng.uniform(1e-9, span, 64),
                                 rng.uniform(-span, span, 64)])
    fm_fixed = fl.integrate(path, fl.TracerCloud(fixed_pts), 128)
    fm_moved = fl.integrate(path, fl.TracerCloud(moved_pts), 128)
    fixed_err = float(np.abs(fm_fixed.final.points - fixed_pts).max())
    shift_err = float(np.abs(fm_moved.final.points - (moved_pts + [v, 0.0])).max())
    return ShiftCertificate(v, eps, fixed_err, shift_err, SHIFT_WINDOW)
