"""In-memory span tracer that wraps hoferlab's layers from outside the package.

A span records its name, start, end and parent span. Spans live in flat
arrays while a pass runs and are summarised (and optionally saved) after it
ends; nothing is written while the traced code runs.

Each public function of a layer module is replaced by a wrapper in every
``hoferlab`` module namespace that holds it, because several modules bind
functions at import time (``verify`` imports ``shell_decay_report`` and the
other experiment entry points by name, ``experiments.commutator`` imports
``reverse``/``concatenate``). ``verify.CHECKS`` holds the check functions in
a dict, so its values are replaced too.

``expr.eval_env`` and ``expr.diff`` recurse through their module globals, so
their wrappers open a span only for the outermost call and count every visit
(the outermost one included) as ``.nodes``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("expr", "grid", "hampath", "lengths", "flow", "snowflake", "experiments",
          "verify", "cli")
RECURSIVE = ("eval_env", "diff")
EXPR_WRAPPED = ("eval_env", "diff", "step_values")

# Per-layer metrics reported by a traced run, with their units.
LENGTH_FUNCS = ("length_k", "coarse_length_k", "hofer_like_length_k", "flux_harmonic")
HAMPATH_FUNCS = ("reverse", "concatenate", "reparametrize", "conjugate", "disjoint_product")
SNOWFLAKE_FUNCS = ("sharp", "sharp_fixed_exponent", "brute_force_sharp", "quasi_constant")
EXPERIMENT_FUNCS = ("shell_decay_report", "shell_lp_norm", "disjoint_bound_check",
                    "square_displacement", "commutator_bound_report", "commutator_tracer_flow")
CHECK_NAMES = ("path_algebra_reverse", "path_algebra_concat", "path_algebra_reparam",
               "monotonicity", "coarse_dominates", "lp_quasinorm", "snowflake",
               "constants_anchors", "disjoint_bound", "hofer_like", "flux", "flow_shift",
               "flow_oscillator", "square_displacement", "shell_decay", "half_space_shift",
               "commutator")

PER_LAYER_METRICS = (
    [("expr.eval_env.calls", "count"), ("expr.eval_env.nodes", "count"),
     ("expr.eval_env.points", "count"), ("expr.eval_env.s", "s"),
     ("expr.step_values.calls", "count"), ("expr.step_values.s", "s"),
     ("expr.diff.calls", "count"), ("expr.diff.s", "s")]
    + [(f"lengths.{f}.s", "s") for f in LENGTH_FUNCS] + [("lengths.self_s", "s")]
    + [(f"hampath.{f}.s", "s") for f in HAMPATH_FUNCS]
    + [("grid.s", "s")]
    + [("flow.integrate.calls", "count"), ("flow.integrate.s", "s"),
       ("flow.rk4_tracer_steps", "count"), ("flow.doubling_rounds", "count"),
       ("flow.self_s", "s"), ("flow.displaced.s", "s"), ("flow.displaced.bytes", "B")]
    + [(f"snowflake.{f}.s", "s") for f in SNOWFLAKE_FUNCS]
    + [("snowflake.sharp.calls", "count"), ("snowflake.relaxations", "count")]
    + [(f"experiments.{f}.s", "s") for f in EXPERIMENT_FUNCS]
    + [("experiments.shell_lp_norm.calls", "count")]
    + [(f"verify.check.{c}.s", "s") for c in CHECK_NAMES]
    + [("trace.overhead_s", "s")]
)


def _layer_modules():
    """(layer name, module) for every loaded hoferlab module that is a layer."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        parts = name.split(".")
        if mod is None or parts[0] != "hoferlab" or len(parts) < 2:
            continue
        if parts[1] in LAYERS:
            out.append((parts[1], mod))
    return out


class Tracer:
    """Collects spans and counters for the hoferlab calls made while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")        # 1 when no span of the same name is open above
        self.layer_outer = array("b")  # 1 when no span of the same layer is open above
        self.counters = {"expr.eval_env.nodes": 0, "expr.eval_env.points": 0,
                         "expr.diff.nodes": 0, "flow.rk4_tracer_steps": 0,
                         "flow.doubling_rounds": 0, "flow.displaced.bytes": 0,
                         "snowflake.relaxations": 0}
        self._stack = []
        self._open_names = {}
        self._open_layers = {}
        self._patches = []

    # --- recording ---

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn, name, layer, on_exit=None):
        nid = self._intern(name)
        stack, open_names, open_layers = self._stack, self._open_names, self._open_layers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.outer.append(0 if open_names.get(nid) else 1)
            self.layer_outer.append(0 if open_layers.get(layer) else 1)
            self.end.append(0.0)
            open_names[nid] = open_names.get(nid, 0) + 1
            open_layers[layer] = open_layers.get(layer, 0) + 1
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                open_names[nid] -= 1
                open_layers[layer] -= 1
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def _recursive(self, fn, name, layer, on_outer=None):
        """Span for the outermost call only; every visit counts as a node."""
        spanned = self._spanned(fn, name, layer)
        counters = self.counters
        key = name + ".nodes"
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            if on_outer is not None:
                on_outer(args, kwargs)
            depth[0] = 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] = 0

        return wrapper

    # --- derived counters (labelled "computed" in the docs) ---

    def _count_points(self, args, kwargs):
        env = args[1] if len(args) > 1 else kwargs["env"]
        self.counters["expr.eval_env.points"] += max(
            (int(np.size(v)) for v in env.values()), default=1)

    def _integrate_exit(self, sig):
        def on_exit(args, kwargs, fmap):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            first = bound.arguments["steps_per_piece"]
            last = fmap.stats["steps_per_piece"]
            rounds = int(round(math.log2(last / first))) + 1
            steps = sum(first * 2 ** r + max(first * 2 ** r // 2, 1) for r in range(rounds))
            self.counters["flow.doubling_rounds"] += rounds
            self.counters["flow.rk4_tracer_steps"] += (
                steps * fmap.stats["pieces"] * fmap.initial.points.shape[0])
        return on_exit

    def _displaced_exit(self, args, kwargs, cert):
        fmap = args[0] if args else kwargs["flow"]
        dim = fmap.initial.points.shape[1]
        # the (N_A, N_A, 2n) float64 difference array the certificate builds
        self.counters["flow.displaced.bytes"] += cert.samples ** 2 * dim * 8

    def _sharp_exit(self, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        finite = int(np.isfinite(g.weights).sum())
        self.counters["snowflake.relaxations"] += g.order * finite

    # --- installing and removing the wrappers ---

    def _wrapper_for(self, layer, fn, name):
        short = name.rsplit(".", 1)[-1]
        if layer == "expr" and short in RECURSIVE:
            on_outer = self._count_points if short == "eval_env" else None
            return self._recursive(fn, name, layer, on_outer)
        on_exit = None
        if name == "flow.integrate":
            on_exit = self._integrate_exit(inspect.signature(fn))
        elif name == "flow.displaced":
            on_exit = self._displaced_exit
        elif name == "snowflake.sharp":
            on_exit = self._sharp_exit
        return self._spanned(fn, name, layer, on_exit)

    def _targets(self):
        """(layer, owner module or class, attribute, original, span name)."""
        targets = []
        for layer, mod in _layer_modules():
            for attr, val in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    if layer == "expr" and attr not in EXPR_WRAPPED:
                        continue
                    targets.append((layer, mod, attr, val, f"{layer}.{attr}"))
                elif layer == "grid" and inspect.isclass(val) and val.__module__ == mod.__name__:
                    for m_attr, m_val in vars(val).items():
                        if m_attr.startswith("_"):
                            continue
                        func = m_val.__func__ if isinstance(m_val, staticmethod) else m_val
                        if inspect.isfunction(func):
                            targets.append((layer, val, m_attr, m_val,
                                            f"grid.{attr}.{m_attr}"))
        return targets

    def install(self):
        verify = sys.modules["hoferlab.verify"]
        check_names = {fn: name for name, fn in verify.CHECKS.items()}
        modules = [m for _, m in _layer_modules()]
        wrapped = {}
        for layer, owner, attr, orig, name in self._targets():
            if inspect.isclass(owner):
                static = isinstance(orig, staticmethod)
                new = self._wrapper_for(layer, orig.__func__ if static else orig, name)
                self._patch(owner, attr, orig, staticmethod(new) if static else new)
                continue
            if orig in wrapped:
                continue
            if orig in check_names:
                name = f"verify.check.{check_names[orig]}"
            new = self._wrapper_for(layer, orig, name)
            wrapped[orig] = new
        # replace every binding of each wrapped function, wherever it was imported
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._patch(mod, attr, val, wrapped[val])
        for name, fn in list(verify.CHECKS.items()):
            self._patch_item(verify.CHECKS, name, fn, wrapped[fn])
        return self

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((lambda o=owner, a=attr, v=orig: setattr(o, a, v)))

    def _patch_item(self, mapping, key, orig, new):
        mapping[key] = new
        self._patches.append((lambda m=mapping, k=key, v=orig: m.__setitem__(k, v)))

    def uninstall(self):
        while self._patches:
            self._patches.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- summaries ---

    def table(self):
        """Per span name: calls, outermost seconds, self seconds."""
        n = len(self.start)
        dur = np.array(self.end) - np.array(self.start)
        name_id = np.array(self.span_name)
        parent = np.array(self.parent)
        outer = np.array(self.outer, dtype=bool)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name_id, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def layer_seconds(self, layer):
        """Wall time inside the layer: spans with no open span of the same layer above."""
        layer_ids = [i for i, name in enumerate(self.names) if name.split(".")[0] == layer]
        top = np.isin(np.array(self.span_name), layer_ids) & np.array(self.layer_outer, dtype=bool)
        dur = np.array(self.end) - np.array(self.start)
        return float(dur[top].sum())

    def metrics(self, overhead_s):
        """The per-layer metric values, by name."""
        table = self.table()

        def get(name, field):
            return table.get(name, {}).get(field, 0)

        def layer_self(layer):
            return sum(row["self_s"] for name, row in table.items()
                       if name.split(".")[0] == layer)

        out = {}
        for metric, _ in PER_LAYER_METRICS:
            if metric in self.counters:
                out[metric] = self.counters[metric]
            elif metric == "lengths.self_s":
                out[metric] = layer_self("lengths")
            elif metric == "flow.self_s":
                out[metric] = layer_self("flow")
            elif metric == "grid.s":
                out[metric] = self.layer_seconds("grid")
            elif metric == "trace.overhead_s":
                out[metric] = overhead_s
            else:
                name, field = metric.rsplit(".", 1)
                out[metric] = get(name, field)
        return out

    def save(self, prefix, extra=None):
        """Write the raw spans to ``prefix.npz`` and the per-name table to ``prefix.json``."""
        n = len(self.start)
        t0 = self.start[0] if n else 0.0
        np.savez(prefix + ".npz", names=np.array(self.names, dtype=str),
                 name=np.array(self.span_name),
                 parent=np.array(self.parent),
                 start=np.array(self.start) - t0,
                 end=np.array(self.end) - t0)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"table": self.table(), "counters": self.counters, **(extra or {})},
                      fh, indent=1, sort_keys=True)
