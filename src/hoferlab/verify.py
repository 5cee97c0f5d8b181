"""Property-check suites behind ``hoferlab verify`` and the acceptance tests.

Each check takes one seed and returns a plain dict: passed, measured values,
tolerances; ``run_suite`` adds the check's name from ``ALL_SUITE``, the one list
of names. Suites are deterministic functions of the seed; the summary serializer is
byte-stable so identical invocations produce identical summary.json files.
"""

from __future__ import annotations

import json

import numpy as np

from . import corpus, expr as ex, flow as fl, grid as gr, lengths as ln, snowflake as sf
from . import hampath as hp
from .experiments import (commutator_bound_report, commutator_tracer_flow, constants,
                          disjoint_bound_check, half_space_shift, shell_decay_report,
                          shift_certificate, square_displacement)

CORE_SUITE = ("path_algebra_reverse", "path_algebra_concat", "path_algebra_reparam",
              "monotonicity", "coarse_dominates", "lp_quasinorm", "snowflake",
              "constants_anchors", "disjoint_bound", "hofer_like", "flux",
              "flow_shift", "flow_oscillator")
ALL_SUITE = CORE_SUITE + ("square_displacement", "shell_decay", "half_space_shift",
                          "commutator")
# the corpus that reverse, concat and monotonicity share through one SuiteSeed
CORPUS_PATHS, CORPUS_ORDER = 50, 3


class SuiteSeed(int):
    """A seed carrying what its suite's checks share; ``run_suite`` makes one per run.

    ``lengths`` maps (seed, path count, order, path index) to the per-order floats of
    ``length_k`` of a corpus path. A check given a plain int shares nothing.
    """

    def __new__(cls, seed):
        obj = super().__new__(cls, seed)
        obj.lengths = {}
        return obj


def _corpus_paths(seed, count):
    rng = np.random.default_rng(seed)
    return [corpus.random_path(rng) for _ in range(count)]


def _corpus_lengths(seed, paths, k):
    """Per-order ``length_k(f, k, time_samples=10)`` of each corpus path, once per suite."""
    shared = getattr(seed, "lengths", {})
    out = []
    for j, f in enumerate(paths):
        key = (int(seed), len(paths), k, j)
        if key not in shared:
            shared[key] = ln.length_k(f, k, time_samples=10).per_order
        out.append(shared[key])
    return out


def check_path_algebra_reverse(seed):
    k = CORPUS_ORDER
    paths = _corpus_paths(seed, CORPUS_PATHS)
    worst = 0.0
    for f, a in zip(paths, _corpus_lengths(seed, paths, k)):
        b = ln.length_k(hp.reverse(f), k, time_samples=10).per_order
        # per-order equality gives equality of every partial length k' <= k
        for i in range(k + 1):
            worst = max(worst, abs(a[i] - b[i]) / max(a[i], 1e-300))
    return {"passed": worst <= 1e-9,
            "measured": {"max_rel_dev": worst, "paths": len(paths), "k": k},
            "tolerance": 1e-9}


def check_path_algebra_concat(seed):
    k = CORPUS_ORDER
    paths = _corpus_paths(seed, CORPUS_PATHS)
    lengths = _corpus_lengths(seed, paths, k)
    worst = 0.0
    for f, g, rf, rg in zip(paths[::2], paths[1::2], lengths[::2], lengths[1::2]):
        rc = ln.length_k(hp.concatenate(f, g), k, time_samples=10).per_order
        for i in range(k + 1):
            want = 2.0 ** i * (rf[i] + rg[i])
            worst = max(worst, abs(rc[i] - want) / max(want, 1e-300))
    return {"passed": worst <= 1e-9,
            "measured": {"max_rel_dev": worst, "pairs": len(paths) // 2, "k": k},
            "tolerance": 1e-9}


def check_path_algebra_reparam(seed):
    rng = np.random.default_rng(seed + 1)
    worst, count = 0.0, 50
    for _ in range(count):
        f = corpus.random_path(rng, smooth=True)
        s = corpus.random_time_change(rng)
        g = hp.reparametrize(f, s)
        a = ln.length_k(f, 0, time_samples=30).total
        b = ln.length_k(g, 0, time_samples=30).total
        worst = max(worst, abs(a - b) / max(a, 1e-300))
    return {"passed": worst <= 1e-8,
            "measured": {"max_rel_dev": worst, "paths": count}, "tolerance": 1e-8}


def check_monotonicity(seed):
    lengths = _corpus_lengths(seed, _corpus_paths(seed, CORPUS_PATHS), CORPUS_ORDER)
    min_term = min(min(per_order) for per_order in lengths)
    return {"passed": bool(min_term >= 0.0),
            "measured": {"min_per_order_term": float(min_term)}, "tolerance": 0.0}


def check_coarse_dominates(seed):
    worst, k = -np.inf, 2
    for f in _corpus_paths(seed + 2, 25):
        a = ln.length_k(f, k, time_samples=10).total
        b = ln.coarse_length_k(f, k, time_samples=65).total
        worst = max(worst, a - b)
    return {"passed": worst <= 1e-12,
            "measured": {"max_integral_minus_sup": float(worst)}, "tolerance": 1e-12}


def check_lp_quasinorm(seed):
    rng = np.random.default_rng(seed + 3)
    g = gr.Grid.box([-1.0, -1.0], [1.0, 1.0], (12, 12))
    n, vol = int(np.prod(g.resolution)), g.cell_volume
    p = 0.5
    kp = 2.0 ** ((1.0 - p) / p)
    worst = -np.inf
    for _ in range(40):
        f1 = rng.normal(size=n)
        f2 = rng.normal(size=n)
        lhs = gr.lp_norm(f1 + f2, p, vol)
        rhs = kp * (gr.lp_norm(f1, p, vol) + gr.lp_norm(f2, p, vol))
        worst = max(worst, lhs - rhs)
    return {"passed": worst <= 1e-12,
            "measured": {"max_violation": float(worst), "constant": kp, "p": p},
            "tolerance": 1e-12}


def dk_mode_weights(rng, group, k):
    """Random weight with subadditivity constant at most 2^k.

    Snowflaking an arbitrary weight with exponent 1/(k+1) lands in that
    class (its (1/(k+1))-power is subadditive, and (x+y)^{k+1} is at most
    2^k (x^{k+1} + y^{k+1})). A few entries are then inflated as far as the
    constraint allows so the fixed-exponent transform stays nontrivial.
    """
    w = corpus.random_weights(rng, group)
    base = sf.sharp(group.with_weights(w), alpha=1.0 / (k + 1)).psi_sharp.copy()
    for a in rng.permutation(group.order)[:2]:
        if a == group.identity:
            continue
        trial = base.copy()
        trial[a] *= 1.35
        if sf.quasi_constant(group.with_weights(trial)) <= 2.0 ** k:
            base = trial
    return base


def _snowflake_single(group, w, checks):
    g = group.with_weights(w)
    C = sf.quasi_constant(g)
    res = sf.sharp(g)
    max_n = group.order if group.order ** group.order <= sf.ENUMERATION_BUDGET \
        else group.order - 1
    bf = sf.brute_force_sharp(g, max_n)
    ps = res.psi_sharp
    checks["oracle"] = max(checks["oracle"], float(np.abs(ps - bf).max()))
    checks["sandwich"] = max(checks["sandwich"], float(
        np.max((2.0 * C) ** -2 * g.weights - ps)), float(np.max(ps - g.weights)))
    for beta in (res.alpha, res.alpha / 2.0):
        viol = ps[g.table] ** beta - (ps[:, None] ** beta + ps[None, :] ** beta)
        checks["beta_subadd"] = max(checks["beta_subadd"], float(viol.max()))
    zero_mismatch = np.logical_xor(g.weights == 0.0, ps <= 1e-12).any()
    checks["zero_sets"] = checks["zero_sets"] and not bool(zero_mismatch)
    return res


def check_snowflake(seed):
    rng = np.random.default_rng(seed + 4)
    groups = [("Z4", sf.cyclic_group(4)), ("Z5", sf.cyclic_group(5)),
              ("Z6", sf.cyclic_group(6)), ("S3", sf.symmetric_group(3)),
              ("D4", sf.dihedral_group(4))]
    checks = {"oracle": 0.0, "sandwich": -np.inf, "beta_subadd": -np.inf,
              "zero_sets": True, "class_fn": True, "dk_sandwich": -np.inf,
              "alpha_agreement": 0.0}
    for _, group in groups:
        for j in range(20):
            flavor = ("generic", "symmetric", "class")[j % 3]
            w = corpus.random_weights(rng, group, flavor)
            res = _snowflake_single(group, w, checks)
            if flavor == "class":
                ps = res.psi_sharp
                for cl in group.conjugacy_classes():
                    vals = ps[list(cl)]
                    if np.abs(vals - vals[0]).max() > 1e-12:
                        checks["class_fn"] = False
    # fixed-exponent mode on weights inside the 2^k-relaxed triangle class
    for k in (0, 1, 2):
        group = sf.cyclic_group(6)
        for _ in range(5):
            base = group.with_weights(dk_mode_weights(rng, group, k))
            res = sf.sharp_fixed_exponent(base, k)
            lo = 4.0 ** (-(k + 1)) * base.weights
            checks["dk_sandwich"] = max(checks["dk_sandwich"], float(
                np.max(lo - res.psi_sharp)), float(np.max(res.psi_sharp - base.weights)))
    # when C equals 2^k exactly, the generic exponent matches 1/(k+1)
    for k in (1, 2):
        alpha = sf.generic_alpha(2.0 ** k)
        checks["alpha_agreement"] = max(checks["alpha_agreement"],
                                        abs(alpha - 1.0 / (k + 1)))
    passed = (checks["oracle"] <= 1e-12 and checks["sandwich"] <= 1e-12 and
              checks["beta_subadd"] <= 1e-12 and checks["zero_sets"] and
              checks["class_fn"] and checks["dk_sandwich"] <= 1e-12 and
              checks["alpha_agreement"] <= 1e-15)
    return {"passed": bool(passed),
            "measured": {k: (v if isinstance(v, bool) else float(v))
                         for k, v in checks.items()},
            "tolerance": 1e-12}


def check_constants_anchors(seed=None):
    led0 = constants(0)
    anchors_ok = (led0.entries["hofer_C"] == 3840 and
                  led0.entries["sikorav_C"] == 240 and
                  led0.entries["bi_bound"] == 4 and
                  "128" in (led0.note or ""))
    led1 = constants(1)
    k1_ok = (led1.entries["quasi_triangle"] == 2 and
             led1.entries["commutator"] == 4 and
             led1.entries["bi_bound"] == 32)
    return {"passed": bool(anchors_ok and k1_ok),
            "measured": {"hofer_C_k0": led0.entries["hofer_C"],
                         "sikorav_C_k0": led0.entries["sikorav_C"],
                         "bi_bound_k0": led0.entries["bi_bound"],
                         "note": led0.note}, "tolerance": 0}


def _bump_path_in_box(rng, center, grid):
    amp = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    h = ex.const(amp)
    for j, name in enumerate(ex.coordinates(grid.dimension)):
        arg = ex.div(ex.sub(ex.Var(name), ex.const(center[j])), ex.const(0.45))
        h = ex.mul(h, ex.step(arg, 0.5, 1.0))
    h = ex.mul(h, corpus.generic_profile(rng))
    return hp.HamiltonianPath((hp.Piece(0.0, 1.0, h),), 2, grid)


def check_disjoint_bound(seed):
    rng = np.random.default_rng(seed + 5)
    grid = gr.Grid.box([-4.0, -4.0], [4.0, 4.0], (36, 36))
    centers = [(-2.6, -2.6), (0.0, 0.0), (2.6, 2.6)]
    worst_ratio = -np.inf
    ok, configs = True, 20
    for j in range(configs):
        m = 2 + (j % 2)
        k = j % 3
        paths = [_bump_path_in_box(rng, c, grid) for c in centers[:m]]
        boxes = [((c[0] - 0.5, c[1] - 0.5), (c[0] + 0.5, c[1] + 0.5)) for c in centers[:m]]
        rep = disjoint_bound_check(paths, boxes, k, time_samples=33)
        ok = ok and rep.ok()
        worst_ratio = max(worst_ratio, rep.ratio)
    return {"passed": bool(ok),
            "measured": {"max_ratio": float(worst_ratio), "configs": configs},
            "tolerance": 1.0}


def check_hofer_like(seed):
    rng = np.random.default_rng(seed + 6)
    grid = corpus.TORUS_GRID
    # pure constant-coefficient path: total 1 for every k
    lam = (ex.const(1.0), ex.const(0.0))
    pure = hp.TorusSymplecticPath((hp.TorusPiece(0.0, 1.0, lam, ex.const(0.0)),), 2, grid)
    pure_devs = [abs(ln.hofer_like_length_k(pure, k, time_samples=10).total - 1.0)
                 for k in range(4)]
    # reparametrization invariance of the order-0 value
    worst_reparam = 0.0
    for _ in range(20):
        phi = corpus.random_torus_path(rng, smooth=True)
        s = corpus.random_time_change(rng)
        phi2 = hp.reparametrize(phi, s)
        a = ln.hofer_like_length_k(phi, 0, time_samples=30).total
        b = ln.hofer_like_length_k(phi2, 0, time_samples=30).total
        worst_reparam = max(worst_reparam, abs(a - b) / max(a, 1e-300))
    passed = max(pure_devs) <= 1e-12 and worst_reparam <= 1e-8
    return {"passed": bool(passed),
            "measured": {"pure_harmonic_dev": float(max(pure_devs)),
                         "max_reparam_rel_dev": float(worst_reparam)},
            "tolerance": 1e-8}


def check_flux(seed):
    rng = np.random.default_rng(seed + 7)
    worst, count = -np.inf, 20
    for _ in range(count):
        phi = corpus.random_torus_path(rng)
        fx = ln.flux_harmonic(phi)
        # l1 of the flux vs the time integral of the coefficient l1 size
        rep = ln.hofer_like_length_k(phi, 0, time_samples=30)
        u_only = ln.hofer_like_length_k(
            hp.TorusSymplecticPath(
                tuple(hp.TorusPiece(p.t_start, p.t_end,
                                    tuple(ex.const(0.0) for _ in p.harmonic), p.exact)
                      for p in phi.pieces), phi.dimension, phi.domain),
            0, time_samples=30)
        harmonic_integral = rep.total - u_only.total
        worst = max(worst, float(np.abs(fx).sum() - harmonic_integral))
    return {"passed": worst <= 1e-8,
            "measured": {"max_violation": float(worst), "paths": count},
            "tolerance": 1e-8}


def check_flow_shift(seed=None):
    g = gr.Grid.box([-4.0, -4.0], [4.0, 4.0], (8, 8))
    f = hp.autonomous_path(ex.parse("2*x1"), 2, g)
    cloud = fl.TracerCloud(np.array([[0.3, -1.2], [1.0, 2.0], [-0.5, 0.25]]))
    fm = fl.integrate(f, cloud, 64)
    err = float(np.abs(fm.final.points - (cloud.points + [0.0, 2.0])).max())
    return {"passed": err <= 1e-10,
            "measured": {"max_error": err}, "tolerance": 1e-10}


def check_flow_oscillator(seed=None):
    g = gr.Grid.box([-4.0, -4.0], [4.0, 4.0], (8, 8))
    f = hp.autonomous_path(ex.parse("(x1*x1 + y1*y1)/2"), 2, g)
    cloud = fl.TracerCloud(np.array([[1.0, 0.0], [0.3, -0.7], [0.0, 1.0], [0.8, 0.6]]))
    th = 1.0
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    exact = cloud.points @ rot.T
    err256 = float(np.abs(fl.integrate(f, cloud, 256).final.points - exact).max())
    err128 = float(np.abs(fl.integrate(f, cloud, 128).final.points - exact).max())
    order = float(np.log2(err128 / err256)) if err256 > 0 else 4.0
    return {"passed": err256 <= 1e-8 and order >= 3.7,
            "measured": {"error_256": err256, "observed_order": order},
            "tolerance": 1e-8}


def check_square_displacement(seed=None):
    results = {}
    ok = True
    for c in (0.25, 1.0, 4.0):
        try:
            _, cert = square_displacement(c)
            results[str(c)] = {"displaced": cert.displaced, "margin": cert.margin,
                               "max_rel_dev": max(abs(v - c) / c for v in cert.lengths.values())}
            ok = ok and cert.ok()
        except Exception as err:  # noqa: BLE001 - report, then fail the check
            results[str(c)] = {"error": str(err)}
            ok = False
    return {"passed": bool(ok),
            "measured": results, "tolerance": 0.02}


def check_shell_decay(seed=None):
    rows = {}
    ok = True
    cases = ((1, 0.5, 1), (2, 1.0 / 3.0, 2), (0, 0.5, 0))
    *reps, control = shell_decay_report([4, 8, 16, 32, 64], [(k, p, None) for k, p, _ in cases]
                                        + [(2, 1.0, [2])])
    for (k, p, i), rep in zip(cases, reps):
        dev = abs(rep.slopes[i] - rep.expected_slopes[i])
        decreasing = all(a > b for a, b in zip(rep.totals, rep.totals[1:]))
        tail = rep.totals[-1] < 0.1 * rep.totals[0]
        rows[f"k{k}_p{p:.3f}_i{i}"] = {
            "slope": rep.slopes[i], "expected": rep.expected_slopes[i],
            "slope_dev": dev, "totals_decreasing": decreasing,
            "tail_ratio": rep.totals[-1] / rep.totals[0]}
        ok = ok and dev <= 0.15 and decreasing and tail
    rows["control_i2_p1"] = {"slope": control.slopes[2]}
    ok = ok and control.slopes[2] >= 0.0
    return {"passed": bool(ok), "measured": rows,
            "tolerance": 0.15}


def check_half_space_shift(seed=None):
    cert = shift_certificate(1.5, 0.25)
    # conjugating a bump supported in {x1 > 0} by the affine restriction there of
    # the half-space shift, the translation by (1.5, 0)
    grid = gr.Grid.box([-6.0, -6.0], [6.0, 6.0], (48, 48))
    h = ex.parse("step((x1 - 2)/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)*(1 + t*t)")
    f = hp.HamiltonianPath((hp.Piece(0.0, 1.0, h),), 2, grid)
    g2 = hp.conjugate(f, hp.AffineSymplectic.translation([1.5, 0.0]))
    dev = 0.0
    for k in (0, 1, 2):
        a = ln.length_k(f, k, time_samples=10).total
        b = ln.length_k(g2, k, time_samples=10).total
        dev = max(dev, abs(a - b) / max(a, 1e-300))
    passed = cert.ok() and dev <= 1e-6
    return {"passed": bool(passed),
            "measured": {"fixed_error": cert.fixed_error,
                         "shift_error": cert.shift_error,
                         "conjugation_rel_dev": dev},
            "tolerance": 1e-6}


def check_commutator(seed=None):
    g = gr.Grid.box([-6.0, -6.0], [6.0, 6.0], (24, 24))
    rng = np.random.default_rng(13)

    def gauss_path(cx, cy, amp):
        src = f"{amp}*exp(-((x1 - {cx})^2) - (y1 - {cy})^2)*(1 + t)"
        return hp.autonomous_path(ex.parse(src), 2, g)

    f = gauss_path(0.0, 0.0, 0.9)
    # identity conjugator: flow of the spliced path is the identity
    comm_id = commutator_bound_report(f, hp.AffineSymplectic.identity(2), 2)
    cloud = fl.TracerCloud(rng.uniform(-1.0, 1.0, (24, 2)))
    path_id = commutator_tracer_flow(f, hp.autonomous_path(ex.const(0.0), 2, g), cloud)
    id_err = float(np.abs(path_id.final.points - cloud.points).max())
    # affine rotation conjugator: bound holds with slack
    theta = hp.AffineSymplectic(
        np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]),
        np.zeros(2))
    comm_rot = commutator_bound_report(f, theta, 2)
    rot_ok = comm_rot.ok()
    # disjoint supports: the maps commute, tracer commutator is the identity
    f1 = gauss_path(-3.0, -3.0, 0.8)
    f2 = gauss_path(3.0, 3.0, -0.7)
    comm_fl = commutator_tracer_flow(f1, f2, cloud)
    disjoint_err = float(np.abs(comm_fl.final.points - cloud.points).max())
    passed = comm_id.ok() and id_err <= 1e-7 and rot_ok and disjoint_err <= 1e-7
    return {"passed": bool(passed),
            "measured": {"identity_flow_error": id_err,
                         "rotation_bound_ratio": comm_rot.length_commutator /
                                                 max(comm_rot.bound, 1e-300),
                         "disjoint_flow_error": disjoint_err},
            "tolerance": 1e-7}


# each value is the module's own check function, which perfbench's tracer wraps by name
CHECKS = {name: globals()["check_" + name] for name in ALL_SUITE}


def run_suite(suite="core", seed=42):
    names = CORE_SUITE if suite == "core" else ALL_SUITE
    shared = SuiteSeed(seed)
    results = [{"name": name, **CHECKS[name](shared)} for name in names]
    return {
        "suite": suite,
        "seed": seed,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
        "note": ln.UPPER_BOUND_NOTE,
    }


def summary_bytes(summary) -> bytes:
    return (json.dumps(summary, sort_keys=True, indent=2, ensure_ascii=True)
            + "\n").encode("ascii")
