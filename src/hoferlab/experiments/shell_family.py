"""Degenerating family of shell-supported Hamiltonians.

For a sharpness parameter m, the Hamiltonian equals 2*x1 times a plateau
cutoff of the distance to the unit sphere centered at the moving point
(0, 2t), with the cutoff collapsing at rate 1/m:

    H_m(x, y, t) = 2 x1 * step(m*(r - 1), 1/4, 3/4),
    r = sqrt(x1^2 + (y1 - 2t)^2)            (planar case).

The time-1 flow displaces the unit disc for every m, while the spatial L_p
size of the i-th time derivative scales like m^{(i*p - 1)/p}: the p-power
picks up m^{i*p} from differentiating the cutoff and a shell volume ~ 2/m.
For i*p < 1 that decays, which is the degeneracy mechanism this module
measures. A closed-domain variant adds a mirrored negated copy on a
disjoint shell so the family stays mean-zero.

Spatial integrals use polar quadrature around the moving center:
RADIAL_PANELS Gauss-Legendre panels across the shell, each 1.5/(16m) wide,
so under the 1/(8m) that resolves the cutoff for every m, and THETA_SAMPLES
uniform angular samples for the smooth periodic direction. One call serves
every (order, p) pair asked at one t and evaluates the polar grid once, in blocks
of whole radial rows of at most SHELL_BLOCK points. Their temporaries stay
below glibc's default 128 KiB trim threshold, so freeing them does not trim
the heap, and the next block does not fault its pages back in; whole-grid
arrays (160 KiB each) cost about half the check's time in minor faults.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .. import expr as ex
from ..errors import ParameterOutOfRange
from ..lengths import gauss_legendre_panels


# x1 distance from the shell to its mirrored copy in closed mode
MIRROR_OFFSET = 8.0
# plateau and support radii of the cutoff, in units of 1/m around the unit sphere
SHELL_INNER, SHELL_OUTER = 0.25, 0.75
# polar grid points per block in shell_lp_norm: 32 KiB of float64
SHELL_BLOCK = 2 ** 12
# Gauss-Legendre panels across the shell and uniform angles of the polar rule
RADIAL_PANELS, THETA_SAMPLES = 16, 256


@dataclass(frozen=True)
class ShellFamilySpec:
    m: int
    closed_mode: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ParameterOutOfRange("m", "m must be >= 1")

    @property
    def shell_bounds(self):
        return (1.0 - SHELL_OUTER / self.m, 1.0 + SHELL_OUTER / self.m)

    def hamiltonian(self) -> ex.Expression:
        x1, y1, t = ex.Var("x1"), ex.Var("y1"), ex.Var("t")
        r = ex.call("sqrt", x1 ** 2 + (y1 - 2.0 * t) ** 2)
        h = 2.0 * x1 * ex.step(float(self.m) * (r - 1.0), SHELL_INNER, SHELL_OUTER)
        if self.closed_mode:
            shifted = ex.substitute(h, {"x1": ex.sub(x1, ex.const(MIRROR_OFFSET))})
            h = ex.sub(h, shifted)
        return h


def shell_lp_norm(spec: ShellFamilySpec, expressions, pairs, t: float) -> list:
    """L_p norms of shell-supported expressions at time t, by polar quadrature.

    ``pairs`` lists (expression index, p); returns one norm per pair. The
    subtrees the expressions share are evaluated once per block
    (``expr.share_subtrees``); a block is whole radial rows of at most
    ``SHELL_BLOCK`` points (one row when a row is longer). Per block, each
    expression that a pair names is evaluated once, and its |v|^p fills the
    block's rows of the integrand of each such pair.
    """
    rho, w_rho = gauss_legendre_panels(*spec.shell_bounds, RADIAL_PANELS)
    theta = np.linspace(0.0, 2.0 * np.pi, THETA_SAMPLES, endpoint=False)
    w_theta = 2.0 * np.pi / THETA_SAMPLES
    cos_theta, sin_theta = np.cos(theta), np.sin(theta)
    x1, y1 = ex.coordinates(2)
    assignments, rewritten = ex.share_subtrees(expressions)
    integrands = np.empty((len(pairs), len(rho), THETA_SAMPLES))
    rows = max(1, SHELL_BLOCK // THETA_SAMPLES)
    totals = [0.0] * len(pairs)
    for cx in [0.0] + ([MIRROR_OFFSET] if spec.closed_mode else []):
        for start in range(0, len(rho), rows):
            R = rho[start:start + rows, None]
            X = cx + R * cos_theta
            Y = 2.0 * t + R * sin_theta
            env = {x1: X.ravel(), y1: Y.ravel(), "t": float(t)}
            for name, e, _ in assignments:
                env[name] = ex.eval_env(e, env)
            sizes = {}         # one expression's |v| at a time when pairs come sorted
            for (i, p), integrand in zip(pairs, integrands):
                if i not in sizes:
                    sizes = {i: np.abs(ex.eval_array(rewritten[i], env, X.size)).reshape(X.shape)}
                np.multiply(sizes[i] ** p, R, out=integrand[start:start + rows])
        for n, integrand in enumerate(integrands):
            totals[n] += float(np.einsum("r,rt->", w_rho, integrand)) * w_theta
    return [total ** (1.0 / p) for total, (_, p) in zip(totals, pairs)]


@dataclass(frozen=True)
class ShellDecayReport:
    m_values: tuple
    p: float
    k: int
    max_norms: dict          # order -> tuple of max-over-t norms per m
    integrals: dict          # order -> tuple of time integrals per m
    totals: tuple            # full (k,p)-length of the path per m
    slopes: dict             # order -> fitted log-log slope of max_norms
    expected_slopes: dict    # order -> (i*p - 1)/p

    def to_csv(self):
        out = io.StringIO()
        orders = sorted(self.max_norms)
        out.write("m," + ",".join(f"max_norm_i{i},integral_i{i}" for i in orders)
                  + ",total_kp\n")
        for j, m in enumerate(self.m_values):
            cells = []
            for i in orders:
                cells += [repr(float(self.max_norms[i][j])), repr(float(self.integrals[i][j]))]
            out.write(f"{m}," + ",".join(cells) + f",{self.totals[j]!r}\n")
        return out.getvalue()

    def to_dat(self):
        """log-log columns for plotting: log m then log max-norm per order."""
        out = io.StringIO()
        orders = sorted(self.max_norms)
        out.write("# log_m " + " ".join(f"log_norm_i{i}" for i in orders) + "\n")
        for j, m in enumerate(self.m_values):
            row = [np.log(m)] + [np.log(self.max_norms[i][j]) for i in orders]
            out.write(" ".join(repr(float(v)) for v in row) + "\n")
        return out.getvalue()

    def to_json(self):
        return {"m_values": list(self.m_values), "p": self.p, "k": self.k,
                "max_norms": {str(i): list(v) for i, v in self.max_norms.items()},
                "integrals": {str(i): list(v) for i, v in self.integrals.items()},
                "totals": list(self.totals),
                "slopes": {str(i): v for i, v in self.slopes.items()},
                "expected_slopes": {str(i): v for i, v in self.expected_slopes.items()}}


def shell_decay_report(m_values, requests, closed_mode: bool = False) -> list:
    """Decay tables and fitted log-log slopes for the shell family, one per request.

    A request is (k, p, orders), orders None meaning 0..k. Per m and order i
    a report tabulates the max over sampled t of the spatial L_p norm and its
    time integral, fits the slope of the max norm against m, and sums the
    integrals into the (k,p)-length. Requests share one derivative chain per
    m and one ``shell_lp_norm`` pass per (m, t) over every (order, p) pair;
    each report is bit for bit the report of its request alone.
    """
    checked = []
    for k, p, orders in requests:
        if not 0 < p < math.inf:
            raise ParameterOutOfRange("p", "p must be a finite number > 0")
        if not 0 <= k <= ex.MAX_DIFF_ORDER:
            raise ParameterOutOfRange("k", f"k must be in [0, {ex.MAX_DIFF_ORDER}]")
        orders = list(range(k + 1)) if orders is None else sorted(orders)
        if not orders or not 0 <= orders[0] <= orders[-1] <= ex.MAX_DIFF_ORDER:
            raise ParameterOutOfRange("orders",
                                      f"orders must be drawn from [0, {ex.MAX_DIFF_ORDER}]")
        checked.append((k, p, orders))
    m_values = tuple(int(m) for m in m_values)
    if len(set(m_values)) < 2:
        raise ParameterOutOfRange("m", "fitting a slope needs two distinct m values")
    pairs = sorted({(i, p) for _, p, orders in checked for i in orders})
    gl_t, gl_w = np.polynomial.legendre.leggauss(10)
    t_nodes = 0.5 + 0.5 * gl_t
    t_weights = 0.5 * gl_w
    tables = []              # per m: (peak norms, node norms), each {(order, p): norm} per t
    for m in m_values:
        spec = ShellFamilySpec(m, closed_mode=closed_mode)
        derivs = ex.time_derivatives(spec.hamiltonian(), pairs[-1][0])
        norms_at = lambda t: dict(zip(pairs, shell_lp_norm(spec, derivs, pairs, t)))
        tables.append(([norms_at(t) for t in (0.25, 0.5, 0.75)],
                       [norms_at(t) for t in t_nodes]))
    logs_m = np.log(np.array(m_values, dtype=float))
    dm = logs_m - logs_m.mean()
    reports = []
    for k, p, orders in checked:
        max_norms = {i: tuple(max(norms[i, p] for norms in peaks) for peaks, _ in tables)
                     for i in orders}
        integrals = {i: tuple(float(sum(w * norms[i, p] for norms, w in zip(nodes, t_weights)))
                              for _, nodes in tables) for i in orders}
        totals = tuple(sum(integrals[i][j] for i in orders) for j in range(len(m_values)))
        logs_v = {i: np.log(np.array(max_norms[i])) for i in orders}
        slopes = {i: float(np.dot(dm, v - v.mean()) / np.dot(dm, dm)) for i, v in logs_v.items()}
        reports.append(ShellDecayReport(m_values, p, k, max_norms, integrals, totals, slopes,
                                        {i: (i * p - 1.0) / p for i in orders}))
    return reports
