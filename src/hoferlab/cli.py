"""Command-line entry point.

Subcommands map one-to-one onto the library surface:

    length       length functionals of a path JSON on a grid JSON
    flow         integrate tracer clouds (CSV) under a path
    gm           shell-family decay table, slopes, and plot data
    displace     square displacement construction + certificate
    shift        half-space shift certificate
    commutator   commutator path length-bound report
    constants    exact constants ledger for a given k
    disjoint     disjoint-support coarse bound report
    snowflake    snowflake transform of a weighted finite group
    verify       property suites; writes a deterministic summary.json
    run          dispatch any of the above from a JSON config file

Exit codes: 0 success, 1 a check failed, 2 invalid config, 3 I/O error.
JSON in, JSON/CSV/.dat out; no binary formats. A report prints as its fields,
plus ``ok`` when it has ``ok()``; a command with a verdict exits 1 unless ok.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import expr as ex
from . import flow as fl
from . import lengths as ln
from . import snowflake as sf
from .errors import ConfigInvalid, HoferLabError, ParameterOutOfRange, SupportMarginWarning
from .experiments import (commutator_bound_report, constants, disjoint_bound_check,
                          shell_decay_report, shift_certificate, square_displacement)
from .grid import Grid
from .hampath import (AffineSymplectic, HamiltonianPath, TorusSymplecticPath, autonomous_path,
                      box_corners, common_domain, first_leak, path_from_json)
from .verify import run_suite, summary_bytes

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_INVALID = 2
EXIT_IO_ERROR = 3

SUBCOMMANDS = ("length", "flow", "gm", "displace", "shift", "commutator",
               "constants", "disjoint", "snowflake", "verify", "run")


def _emit(obj, out=None):
    text = json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)
    print(text)
    if out:
        _write(out, text + "\n")


def _jsonable(v):
    """The one report rule: a dataclass prints as its fields, plus ``ok`` if it has ``ok()``."""
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if dataclasses.is_dataclass(v):
        return {**vars(v), "ok": v.ok()} if hasattr(v, "ok") else vars(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


def _verdict(report, out):
    """Print ``report`` and exit 1 unless it is ``ok()``."""
    _emit(report, out)
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


def _read(path, what):
    """Text of the file at ``path``, named by flag or key ``what``; only the CLI opens files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as err:
        raise ConfigInvalid(f"{what} file not found: {path}", what) from err
    except UnicodeDecodeError as err:
        raise ConfigInvalid(f"{what} file {path} is not UTF-8 text: {err}", what) from err


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_json(path, what):
    try:
        return json.loads(_read(path, what))
    except json.JSONDecodeError as err:
        raise ConfigInvalid(f"{what} file {path} is not valid JSON: {err}", what) from err


def _from_spec(parse, spec, what, key_path):
    """parse(spec), with any malformed-input error turned into ConfigInvalid."""
    try:
        return parse(spec)
    except KeyError as err:
        raise ConfigInvalid(f"{what} is missing key {err}", key_path) from err
    except (AttributeError, TypeError, ValueError, HoferLabError) as err:
        raise ConfigInvalid(f"malformed {what}: {err}", key_path) from err


def _in_range(compute, key):
    """compute(), with an out-of-range parameter turned into ConfigInvalid.

    ``key(name)`` is the flag or config key that sets library parameter ``name``.
    """
    try:
        return compute()
    except ParameterOutOfRange as err:
        raise ConfigInvalid(str(err), key(err.name)) from err


def _load_path(path_file, parse=path_from_json):
    return _from_spec(parse, _load_json(path_file, "path"), "path spec", "path")


def _load_grid(grid_file):
    return _from_spec(Grid.from_json, _load_json(grid_file, "grid"), "grid spec", "grid")


def _resolve_path_argument(args, parse=path_from_json):
    """A path JSON file read by ``parse``, or a bare Hamiltonian DSL string plus a grid."""
    if getattr(args, "hamiltonian", None):
        if args.path:
            raise ConfigInvalid("give either --path or --hamiltonian, not both",
                                "hamiltonian")
        if not args.grid:
            raise ConfigInvalid("--hamiltonian needs --grid for the domain", "grid")
        grid = _load_grid(args.grid)
        return _from_spec(lambda src: autonomous_path(ex.parse(src), grid.dimension, grid),
                          args.hamiltonian, "hamiltonian", "hamiltonian")
    if not args.path:
        raise ConfigInvalid("one of --path or --hamiltonian is required", "path")
    return _load_path(args.path, parse)


def cmd_length(args):
    path = _resolve_path_argument(args)
    # a bare --hamiltonian already adopted --grid as its domain
    if args.hamiltonian or not args.grid:
        grid = path.domain
    else:
        grid = _load_grid(args.grid)
    if args.kind != "hl" and isinstance(path, TorusSymplecticPath):
        raise ConfigInvalid("split torus paths support kind=hl only", "kind")
    if args.kind == "kp" and args.p is None:
        raise ConfigInvalid("--p is required for kind=kp", "p")
    if args.kind == "hl" and not isinstance(path, TorusSymplecticPath):
        raise ConfigInvalid("kind=hl needs a torus path with harmonic pieces", "path")
    rep = _in_range(lambda: _length_report(args, path, grid),
                    lambda name: "--" + name.replace("_", "-"))
    # outside input: warn when the path does not vanish on the box's outermost
    # cell layer, the points outside [lower + h, upper - h], at any lattice time
    if isinstance(path, HamiltonianPath) and grid.geometry == "box":
        h = np.array(grid.spacings)
        t = first_leak(path, grid, np.array(grid.lower) + h, np.array(grid.upper) - h,
                       rep.quadrature["time_samples"])
        if t is not None:
            warnings.warn(f"path does not vanish on the box's outermost cell layer at t={t}; "
                          "the box may truncate its support", SupportMarginWarning)
    _emit(rep, args.out)
    if args.csv:
        _write(args.csv, rep.to_csv())
    return EXIT_OK


def _length_report(args, path, grid):
    if args.kind == "k":
        return ln.length_k(path, args.k, grid, args.time_samples)
    if args.kind == "coarse":
        # the user's value must meet the shared precondition before the floor applies
        ln.check_sampling(args.time_samples)
        return ln.coarse_length_k(path, args.k, grid, max(args.time_samples, 65))
    if args.kind == "kp":
        return ln.length_kp(path, args.k, args.p, grid, args.time_samples)
    return ln.hofer_like_length_k(path, args.k, grid, args.time_samples)


def cmd_flow(args):
    path = _resolve_path_argument(args, HamiltonianPath.from_json)
    cloud = _from_spec(fl.TracerCloud.from_csv, _read(args.cloud, "--cloud"),
                       f"cloud file {args.cloud}", "--cloud")
    fm = _in_range(lambda: fl.integrate(path, cloud, args.steps, args.tol),
                   {"steps_per_piece": "--steps", "tol": "--tol", "cloud": "--cloud"}.get)
    if args.out_prefix:
        _write(args.out_prefix + ".final.csv", fm.final.to_csv())
        _write(args.out_prefix + ".initial.csv", fm.initial.to_csv())
        _write(args.out_prefix + ".stats.json", json.dumps(fm.stats, sort_keys=True) + "\n")
    _emit({"stats": fm.stats, "path_hash": fm.path_hash}, args.out)
    missed = args.tol is not None and fm.stats["max_step_error"] > args.tol
    return EXIT_CHECK_FAILED if missed else EXIT_OK


def _int_list(text):
    return [int(v) for v in text.split(",")]


def cmd_gm(args):
    m_values = _from_spec(_int_list, args.m, "--m", "--m")
    orders = _from_spec(_int_list, args.orders, "--orders", "--orders") if args.orders else None
    rep, = _in_range(lambda: shell_decay_report(m_values, [(args.k, args.p, orders)],
                                                closed_mode=args.closed), "--{}".format)
    _emit(rep, args.out)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _write(os.path.join(args.out_dir, "decay.csv"), rep.to_csv())
        _write(os.path.join(args.out_dir, "decay.dat"), rep.to_dat())
    return EXIT_OK


def cmd_displace(args):
    _, cert = _in_range(lambda: square_displacement(args.c, k_max=args.k_max),
                        {"area": "--c", "k_max": "--k-max"}.get)
    return _verdict(cert, args.out)


def cmd_shift(args):
    cert = _in_range(lambda: shift_certificate(args.v, args.eps), "--{}".format)
    return _verdict(cert, args.out)


def cmd_commutator(args):
    path = _load_path(args.path, HamiltonianPath.from_json)
    spec = _load_json(args.theta, "--theta")
    theta = _from_spec(lambda s: AffineSymplectic(np.array(s["linear"], dtype=float),
                                                  np.array(s["shift"], dtype=float)),
                       spec, "affine map", "--theta")
    rep = _in_range(lambda: commutator_bound_report(path, theta, args.k), "--{}".format)
    return _verdict(rep, args.out)


def cmd_constants(args):
    ledger = _in_range(lambda: constants(args.k), "--{}".format)
    if args.csv:
        print(ledger.to_csv(), end="")
    else:
        print(ledger.format_table())
    if args.out:
        _write(args.out, json.dumps(ledger.to_json(), sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_disjoint(args):
    cfg = _load_json(args.config, "config")
    specs, box_spec, k_spec = (_from_spec(lambda c: c[key], cfg, "config", f"$.{key}")
                               for key in ("paths", "boxes", "k"))
    if not isinstance(specs, list) or not specs:
        raise ConfigInvalid("'paths' must list at least one path", "$.paths")
    paths = [_from_spec(HamiltonianPath.from_json, p, "path spec", f"$.paths[{i}]")
             for i, p in enumerate(specs)]
    _from_spec(common_domain, paths, "paths", "$.paths")
    boxes = _from_spec(lambda b: box_corners(paths, b), box_spec, "boxes", "$.boxes")
    k = _from_spec(int, k_spec, "k", "$.k")
    rep = _in_range(lambda: disjoint_bound_check(paths, boxes, k), lambda name: f"$.{name}")
    return _verdict(rep, args.out)


def cmd_snowflake(args):
    if os.path.exists(args.group):
        group = _from_spec(sf.WeightedGroup.from_json, _load_json(args.group, "group"),
                           f"group file {args.group}", "group")
    else:
        group = _from_spec(sf.builtin_group, args.group, "group", "group")
    if args.weights:
        w = _load_json(args.weights, "weights")
        group = _from_spec(lambda v: group.with_weights(np.array(v, dtype=float)), w,
                           f"weights file {args.weights}", "weights")
    elif args.seed is not None:
        rng = np.random.default_rng(args.seed)
        w = rng.uniform(0.05, 4.0, group.order)
        w[group.identity] = 0.0
        group = group.with_weights(w)
    mode = args.mode
    if mode == "generic":
        res = sf.sharp(group)
    elif mode.startswith("dk:"):
        k = _from_spec(int, mode[len("dk:"):], "--mode", "--mode")
        res = _in_range(lambda: sf.sharp_fixed_exponent(group, k), {"k": "--mode"}.get)
    else:
        raise ConfigInvalid(f"unknown mode {mode!r} (use generic or dk:<k>)", "mode")
    _emit(res, args.out)
    return EXIT_OK


def cmd_verify(args):
    summary = run_suite(args.suite, args.seed)
    payload = summary_bytes(summary)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "wb") as fh:
        fh.write(payload)
    for check in summary["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}")
    print(f"summary written to {os.path.join(out_dir, 'summary.json')}")
    return EXIT_OK if summary["all_passed"] else EXIT_CHECK_FAILED


def cmd_run(args):
    cfg = _load_json(args.config, "config")
    command = _from_spec(lambda c: c["command"], cfg, "config", "$.command")
    if command not in SUBCOMMANDS or command == "run":
        raise ConfigInvalid(f"unknown command {command!r}", "$.command")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid("'params' must be an object", "$.params")
    argv = [command]
    for key, value in sorted(params.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv += [flag, str(value)]
    out_dir = cfg.get("output_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        if command == "verify":
            argv += ["--out", out_dir]
        else:
            argv += ["--out", os.path.join(out_dir, f"{command}.json")]
    if "seed" in cfg and command in ("snowflake", "verify"):
        argv += ["--seed", str(cfg["seed"])]
    return main(argv)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hoferlab",
        description="desk-scale laboratory for higher-order Hamiltonian path lengths")
    # flags must be spelled in full, so run's --out can never land on another flag
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("length", help="length functionals of a path")
    p.add_argument("--path", default=None, help="path JSON file")
    p.add_argument("--hamiltonian", default=None,
                   help="autonomous Hamiltonian as a DSL string (needs --grid)")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--p", type=float, default=None, help="exponent for kind=kp")
    p.add_argument("--grid", default=None, help="grid JSON file (default: path domain)")
    p.add_argument("--kind", choices=("k", "coarse", "kp", "hl"), default="k")
    p.add_argument("--time-samples", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("flow", help="integrate a tracer cloud")
    p.add_argument("--path", default=None)
    p.add_argument("--hamiltonian", default=None,
                   help="autonomous Hamiltonian as a DSL string (needs --grid)")
    p.add_argument("--grid", default=None, help="grid JSON (with --hamiltonian)")
    p.add_argument("--cloud", required=True, help="tracer CSV file")
    p.add_argument("--steps", type=int, default=512,
                   help="the fewest steps per piece: RK4 takes exactly this many; with "
                        "--tol no step is longer than 1/STEPS of its piece")
    p.add_argument("--tol", type=float, default=None,
                   help="integrate each tracer by the Dormand-Prince 5(4) pair with its own "
                        "steps, halving its step bounds until its run and its half-step run "
                        "differ by at most TOL; exit 1 if one still misses it")
    p.add_argument("--out", default=None)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("gm", help="shell-family decay report")
    p.add_argument("--m", default="4,8,16,32,64", help="comma-separated m values")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--orders", default=None, help="comma-separated derivative orders")
    p.add_argument("--closed", action="store_true", help="add the mirrored copy")
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_gm)

    p = sub.add_parser("displace", help="square displacement certificate")
    p.add_argument("--c", type=float, required=True, help="square area")
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_displace)

    p = sub.add_parser("shift", help="half-space shift certificate")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("commutator", help="commutator length-bound report")
    p.add_argument("--path", required=True)
    p.add_argument("--theta", required=True, help="affine map JSON {linear, shift}")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("constants", help="exact constants ledger")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("disjoint", help="disjoint-support coarse bound")
    p.add_argument("--config", required=True, help="JSON with paths, boxes, k")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_disjoint)

    p = sub.add_parser("snowflake", help="snowflake transform of a weighted group")
    p.add_argument("--group", required=True, help="built-in name (Zn, S3, S4, D4) or JSON file")
    p.add_argument("--mode", default="generic", help="generic or dk:<k>")
    p.add_argument("--weights", default=None, help="JSON array of weights")
    p.add_argument("--seed", type=int, default=None, help="random weights seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_snowflake)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=("core", "all"), default="core")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="directory for summary.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run a subcommand from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except HoferLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
