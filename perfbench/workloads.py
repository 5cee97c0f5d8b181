"""The four benchmark workloads: seeded inputs, one pass of ops, output checks.

A workload builds all of its inputs from the seed when constructed (this is
timed as set-up). ``ops()`` returns one pass: a list of zero-argument
callables run one after another by a single caller. Each op returns a
value for the pass digest and raises ``OpFailed`` when an output check does
not hold. The checks hold for every seed; none of them is a timing. An op
that times several parts of itself (``VerifyAll``) leaves their latencies
in ``parts``, and they are recorded in place of the op's own latency.

Every seeded choice keeps the amount of work per pass the same from seed to
seed (fixed group list, fixed Gaussian widths, fixed region sample count), so that
runs with different seeds measure the same work on different numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

from hoferlab import cli, corpus, expr as ex, flow as fl, grid as gr, hampath as hp
from hoferlab import snowflake as sf, verify


class OpFailed(Exception):
    """An output check did not hold."""


def require(cond, message):
    if not cond:
        raise OpFailed(message)


def _digest_floats(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


class VerifyAll:
    """``hoferlab verify --suite all`` in-process; one op is one whole suite.

    While the suite runs, each check is timed through ``verify.CHECKS``, so
    the suite reports 18 part latencies: one per check and one for the rest
    of the command (parsing, summary, file). The suite has no size knob, so
    ``tiny`` runs the same suite. The warm-up runs the suite's checks that
    take under 0.1 s each, which loads every layer without running the
    suite itself.
    """

    WARMUP_CHECKS = ("lp_quasinorm", "constants_anchors", "flow_shift", "flow_oscillator",
                     "snowflake")

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.out_dir = os.path.join(workdir, f"verify-{os.getpid()}")
        self.parts = None

    def warmup(self):
        for name in self.WARMUP_CHECKS:
            verify.CHECKS[name](self.seed)

    def ops(self):
        return [self.suite]

    def suite(self):
        self.parts = None
        times = {}

        def timed(name, check):
            def run(seed):
                start = time.perf_counter()
                try:
                    return check(seed)
                finally:
                    times[name] = time.perf_counter() - start
            return run

        checks = dict(verify.CHECKS)
        verify.CHECKS.update({name: timed(name, fn) for name, fn in checks.items()})
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--suite", "all", "--seed", str(self.seed),
                                 "--out", self.out_dir])
            wall = time.perf_counter() - start
        finally:
            verify.CHECKS.update(checks)
        self.parts = [times[name] for name in verify.ALL_SUITE]
        self.parts.append(wall - sum(self.parts))
        with open(os.path.join(self.out_dir, "summary.json"), "rb") as fh:
            payload = fh.read()
        summary = json.loads(payload)
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        require(code == 0 and summary["all_passed"],
                f"verify exited {code}; failed checks {failed}")
        return hashlib.sha256(payload).hexdigest()


class FlowCloud:
    """Tracer clouds integrated to a stated tolerance; one op is one certified flow.

    The cloud is 10^4 seeded tracers in [-2, 2]^2, a fixed fifth of them
    inside the box region whose displacement is certified, so the
    certificate's (N_A, N_A, 2) distance array has the same size for every
    seed. A 256-point circle outside the region carries the polygon-area
    check. The Gaussian bumps have a fixed amplitude, width and time
    profile; the seed moves their centres and signs. With 10^4
    tracers the step-doubling estimate is a maximum over the whole bump, so
    every seed needs the same step counts.
    """

    TOL = 1e-8
    FIRST_STEPS = 16
    TRACERS = {"full": 10_000, "tiny": 200}
    IN_REGION = 0.2           # share of the tracers sampled inside the region
    REGION = 0.9              # the region is the box [-0.9, 0.9]^2
    LOOP_POINTS = 256
    EXACT_TOL = 1e-7          # exact-answer cases, at a step-error estimate <= 1e-8
    AREA_DRIFT = 1e-3         # relative change of the loop's polygon area
    IDENTITY_TOL = 1e-6       # g followed by reverse(g) is the identity map
    AMPLITUDE = 0.9
    WIDTH = 0.8

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        domain = gr.Grid.box([-4.0, -4.0], [4.0, 4.0], (8, 8))
        n = self.TRACERS[size]
        n_in = int(n * self.IN_REGION)
        inside = rng.uniform(-self.REGION, self.REGION, (n_in, 2))
        outside = np.empty((0, 2))
        while len(outside) < n - n_in:
            cand = rng.uniform(-2.0, 2.0, (n, 2))
            outside = np.vstack([outside, cand[np.abs(cand).max(axis=1) > self.REGION]])
        theta = np.linspace(0.0, 2.0 * np.pi, self.LOOP_POINTS, endpoint=False)
        centre = 1.4 * rng.choice([-1.0, 1.0], 2)
        radius = rng.uniform(0.3, 0.4)
        loop = np.stack([centre[0] + radius * np.cos(theta),
                         centre[1] + radius * np.sin(theta)], axis=1)
        self.n_cloud = n
        self.cloud = fl.TracerCloud(np.vstack([inside, outside[:n - n_in], loop]))
        self.loop_area = fl.polygon_area(loop)
        self.region = fl.box_region([-self.REGION] * 2, [self.REGION] * 2)
        self.identity = fl.FlowMap(self.cloud, self.cloud, "identity", {})

        def auto(source):
            return hp.autonomous_path(ex.parse(source), 2, domain)

        self.g1, g2, g3 = (auto(self._gaussian(rng)) for _ in range(3))
        self.cases = [("shift", auto("2*x1")), ("oscillator", auto("(x1^2 + y1^2)/2")),
                      ("gauss", self.g1), ("gauss", g2), ("spliced", hp.concatenate(g2, g3)),
                      ("reverse", hp.reverse(self.g1))]
        self._after_g1 = None

    @classmethod
    def _gaussian(cls, rng):
        amp = cls.AMPLITUDE * float(rng.choice([-1.0, 1.0]))
        cx, cy = (float(c) for c in rng.uniform(-0.8, 0.8, 2))
        return (f"{amp!r}*exp(-((x1 - {cx!r})^2 + (y1 - {cy!r})^2)/{2 * cls.WIDTH ** 2!r})"
                f"*(1 + 0.5*sin(3*t))")

    def warmup(self):
        self.ops()[0]()

    def ops(self):
        return [lambda kind=kind, f=f: self.solve(kind, f) for kind, f in self.cases]

    def solve(self, kind, f):
        # reverse(g1) starts where g1 left the cloud, so the pair maps every tracer home
        start = self._after_g1 if kind == "reverse" else self.cloud
        fm = fl.integrate(f, start, steps_per_piece=self.FIRST_STEPS, tol=self.TOL)
        err = fm.stats["max_step_error"]
        require(err <= self.TOL, f"{kind}: step-error estimate {err} above tol {self.TOL}")
        if f is self.g1:
            self._after_g1 = fm.final
        if kind == "reverse":
            fm = fl.FlowMap(self.cloud, fm.final, fm.path_hash, fm.stats)
            dist = fl.c0_distance(fm, self.identity)
            require(dist <= self.IDENTITY_TOL, f"g then reverse(g) moved a tracer by {dist}")
        cert = fl.displaced(fm, self.region)
        final = fm.final.points
        pts0 = self.cloud.points
        drift = abs(fl.polygon_area(final[self.n_cloud:]) - self.loop_area) / self.loop_area
        require(drift <= self.AREA_DRIFT, f"{kind}: loop area drifted by {drift:.3g}")
        if kind == "shift":
            dev = float(np.abs(final - (pts0 + [0.0, 2.0])).max())
            require(dev <= self.EXACT_TOL and cert.displaced,
                    f"shift: deviation {dev} from (0, 2), displaced={cert.displaced}")
        elif kind == "oscillator":
            c, s = np.cos(1.0), np.sin(1.0)
            exact = pts0 @ np.array([[c, -s], [s, c]]).T
            dev = float(np.abs(final - exact).max())
            require(dev <= self.EXACT_TOL, f"oscillator: deviation {dev} from the rotation")
        require(cert.margin >= 0.0 and (cert.margin > 0.0) == cert.displaced,
                f"{kind}: inconsistent certificate {cert}")
        return _digest_floats(final, [err, cert.margin, cert.samples])


def _enumeration_depth(order):
    """Longest word length whose enumeration fits the brute-force budget."""
    n = 1
    while n < order and order ** (n + 1) <= sf.ENUMERATION_BUDGET:
        n += 1
    return n


class SnowflakeGroups:
    """Snowflake transforms of seeded weights; one op is one (group, weight).

    The group list is fixed so every seed does the same Dijkstra work. Per
    group: three generic-exponent weights (generic, symmetric, class
    function) and one fixed-exponent weight built by ``verify.dk_mode_weights``.
    """

    GROUPS = {"full": (("Z7", lambda: sf.cyclic_group(7)), ("D4", lambda: sf.dihedral_group(4)),
                       ("S4", lambda: sf.symmetric_group(4)),
                       ("D16", lambda: sf.dihedral_group(16)),
                       ("Z64", lambda: sf.cyclic_group(64)),
                       ("S5", lambda: sf.symmetric_group(5)),
                       ("Z128", lambda: sf.cyclic_group(128)),
                       ("Z256", lambda: sf.cyclic_group(256))),
              "tiny": (("Z5", lambda: sf.cyclic_group(5)), ("S3", lambda: sf.symmetric_group(3)))}
    TOL = 1e-12

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        self.items = []
        for j, (name, make) in enumerate(self.GROUPS[size]):
            group = make()
            for flavor in ("generic", "symmetric", "class"):
                self.items.append((name, group, None, corpus.random_weights(rng, group, flavor)))
            k = j % 3
            self.items.append((name, group, k, verify.dk_mode_weights(rng, group, k)))

    def warmup(self):
        self.ops()[0]()

    def ops(self):
        return [lambda item=item: self.transform(*item) for item in self.items]

    def transform(self, name, group, k, weights):
        g = group.with_weights(weights)
        if k is None:
            res = sf.sharp(g)
            lower = (2.0 * res.C) ** -2 * g.weights
        else:
            res = sf.sharp_fixed_exponent(g, k)
            lower = 4.0 ** (-(k + 1)) * g.weights
        ps = res.psi_sharp
        depth = _enumeration_depth(g.order)
        bf = sf.brute_force_sharp(g, depth, alpha=res.alpha)
        tag = f"{name} k={k}"
        require(np.all(ps <= bf + self.TOL), f"{tag}: sharp above brute force")
        if depth >= g.order:
            dev = float(np.abs(ps - bf).max())
            require(dev <= self.TOL, f"{tag}: sharp differs from full enumeration by {dev}")
        require(np.all(lower <= ps + self.TOL) and np.all(ps <= g.weights + self.TOL),
                f"{tag}: sandwich bound fails")
        pa = ps ** res.alpha
        viol = float((pa[g.table] - (pa[:, None] + pa[None, :])).max())
        require(viol <= self.TOL, f"{tag}: psi_sharp^alpha not subadditive ({viol})")
        return _digest_floats(ps, [res.C, res.alpha])


WORKLOADS = {"verify-all": VerifyAll, "flow-cloud": FlowCloud,
             "snowflake-groups": SnowflakeGroups}
