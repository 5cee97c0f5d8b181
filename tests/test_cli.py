"""CLI surface: subcommands, exit codes, config dispatch, schemas."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hoferlab import hampath as hp
from hoferlab import lengths as ln
from hoferlab import snowflake as sf
from hoferlab.cli import SUBCOMMANDS, build_parser, main
from hoferlab.errors import StepErrorWarning, SupportMarginWarning
from hoferlab.experiments import (commutator_bound_report, disjoint_bound_check, displacement,
                                  shell_decay_report, shift_certificate, square_displacement)
from hoferlab.grid import Grid
from hoferlab.hampath import HamiltonianPath

PKG_SCHEMAS = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "hoferlab", "schemas")


def run_cli(*argv):
    return main(list(argv))


def path_json(tmp_path, expr="step(x1/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)*t"):
    spec = {
        "dimension": 2,
        "pieces": [{"t0": 0.0, "t1": 1.0, "expr": expr}],
        "domain": {"dim": 2, "geometry": "box",
                   "bounds": [[-2.0, -2.0], [2.0, 2.0]], "resolution": [16, 16]},
    }
    p = tmp_path / "path.json"
    p.write_text(json.dumps(spec))
    return str(p)


def test_constants_exit_zero(capsys):
    assert run_cli("constants", "--k", "3") == 0
    out = capsys.readouterr().out
    assert "quasi_triangle" in out
    assert run_cli("constants", "--k", "30") == 2
    assert "(at --k)" in capsys.readouterr().err


def test_length_subcommand(tmp_path, capsys):
    p = path_json(tmp_path)
    assert run_cli("length", "--path", p, "--k", "2", "--kind", "k") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "k"
    assert len(rep["per_order"]) == 3
    assert run_cli("length", "--path", p, "--k", "1", "--kind", "kp", "--p", "0.5") == 0
    assert run_cli("length", "--path", p, "--k", "1", "--kind", "coarse") == 0


def grid_json(tmp_path, lower, upper, resolution, name="grid.json"):
    spec = {"dim": len(lower), "geometry": "box", "bounds": [lower, upper],
            "resolution": resolution}
    g = tmp_path / name
    g.write_text(json.dumps(spec))
    return str(g)


def test_length_warns_on_support_margin_for_every_kind(tmp_path, capsys):
    # neither field vanishes near the boundary of the path's box grid;
    # (t - 0.5)*x1 vanishes at the midpoint t = 0.5 alone, where the margin
    # was once the only time checked
    kinds = (["--kind", "k"], ["--kind", "coarse"], ["--kind", "kp", "--p", "0.5"])
    for expr in ("(1 + x1^2)*t", "(t - 0.5)*x1"):
        p = path_json(tmp_path, expr=expr)
        for extra in kinds:
            with pytest.warns(SupportMarginWarning, match="outermost cell layer at t="):
                assert run_cli("length", "--path", p, "--k", "1", *extra) == 0
    g = grid_json(tmp_path, [-1.0, -1.0], [1.0, 1.0], [16, 16])
    for extra in kinds:
        with pytest.warns(SupportMarginWarning):
            assert run_cli("length", "--hamiltonian", "(t - 0.5)*x1", "--grid", g, *extra) == 0
    capsys.readouterr()
    # a step bump times t vanishes on the layer, and a torus grid has no layer
    torus = tmp_path / "torus_grid.json"
    torus.write_text(json.dumps({"dim": 2, "geometry": "torus", "periods": [1.0, 1.0],
                                 "resolution": [8, 8]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupportMarginWarning)
        for extra in kinds:
            assert run_cli("length", "--path", path_json(tmp_path), "--k", "1", *extra) == 0
        assert run_cli("length", "--hamiltonian", "(t - 0.5)*x1", "--grid", str(torus)) == 0
        p = path_json(tmp_path, expr="(1 + x1^2)*t")
        with open(p, encoding="utf-8") as fh:
            path = HamiltonianPath.from_json(json.load(fh))
        ln.length_k(path, 1)


def boundary_mask(grid):
    """Flat mask of the outermost cell layer of a box grid, index by index."""
    mask = np.zeros(grid.resolution, dtype=bool)
    for axis in range(grid.dimension):
        for end in (0, grid.resolution[axis] - 1):
            index = [slice(None)] * grid.dimension
            index[axis] = end
            mask[tuple(index)] = True
    return mask.ravel()


def test_length_margin_layer_is_the_outermost_cell_layer(tmp_path, capsys, monkeypatch):
    # the warning's box [lower + h, upper - h] leaves out exactly the grid
    # points of the outermost cell layer
    masks = []
    monkeypatch.setattr(hp, "leaks", lambda values, outside: masks.append(outside) or False)
    for lower, upper, res in (([-1.0, -1.0], [1.0, 1.0], [16, 16]),
                              ([-1.0, 0.0], [1.0, 3.0], [5, 7]),
                              ([0.1, -0.3], [0.7, 2.9], [3, 2]),
                              ([-2.0] * 4, [2.0] * 4, [3, 5, 4, 3]),
                              ([-1.0, 0.0, -3.0, 0.5], [1.0, 0.3, 3.0, 2.0], [5, 3, 3, 7])):
        g = grid_json(tmp_path, lower, upper, res)
        masks.clear()
        assert run_cli("length", "--hamiltonian", "t*x1", "--grid", g) == 0
        want = boundary_mask(Grid.box(lower, upper, res))
        assert masks and all(np.array_equal(m, want) for m in masks)
    capsys.readouterr()


def test_length_kp_requires_p(tmp_path, capsys):
    p = path_json(tmp_path)
    assert run_cli("length", "--path", p, "--kind", "kp") == 2
    # out-of-range numbers are config errors naming the flag, not tracebacks
    for extra, flag in ((["--kind", "kp", "--p", "0"], "--p"), (["--k", "-1"], "--k"),
                        (["--kind", "coarse", "--k", "-1"], "--k"), (["--k", "9"], "--k"),
                        (["--kind", "coarse", "--k", "9"], "--k"),
                        (["--kind", "kp", "--p", "0.5", "--k", "9"], "--k"),
                        (["--time-samples", "3"], "--time-samples"),
                        (["--kind", "coarse", "--time-samples", "3"], "--time-samples"),
                        (["--kind", "kp", "--p", "inf"], "--p")):
        capsys.readouterr()
        assert run_cli("length", "--path", p, *extra) == 2
        assert f"(at {flag})" in capsys.readouterr().err


def torus_path_json(tmp_path, exact="sin(6.283185307179586*x1)"):
    spec = {
        "dimension": 2,
        "pieces": [{"t0": 0.0, "t1": 1.0, "harmonic": ["1", "0"], "exact": exact}],
        "domain": {"dim": 2, "geometry": "torus", "periods": [1.0, 1.0],
                   "resolution": [16, 16]},
    }
    p = tmp_path / "torus.json"
    p.write_text(json.dumps(spec))
    return str(p)


def test_length_hl_kind(tmp_path, capsys):
    p = torus_path_json(tmp_path)
    assert run_cli("length", "--path", p, "--k", "2", "--kind", "hl") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "hl"
    # the constant-coefficient part contributes 1 regardless of k
    assert rep["per_order"][0] >= 1.0
    # split paths reject the plain kinds
    assert run_cli("length", "--path", p, "--k", "1", "--kind", "k") == 2
    capsys.readouterr()
    assert run_cli("length", "--path", p, "--kind", "hl", "--time-samples", "3") == 2
    assert "(at --time-samples)" in capsys.readouterr().err
    assert run_cli("length", "--path", p, "--kind", "hl", "--k", "9") == 2
    assert "(at --k)" in capsys.readouterr().err
    # a dimension-2 path naming x2 is a malformed file, not a failed check
    p = torus_path_json(tmp_path, exact="sin(6.283185307179586*x2)")
    assert run_cli("length", "--path", p, "--kind", "hl") == 2
    assert "beyond the declared dimension" in capsys.readouterr().err


def test_length_hamiltonian_string(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dim": 2, "geometry": "box",
                                "bounds": [[-2.0, -2.0], [2.0, 2.0]],
                                "resolution": [16, 16]}))
    assert run_cli("length", "--hamiltonian", "t*step(x1/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)",
                   "--grid", str(grid), "--k", "1") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["total"] == pytest.approx(1.5, rel=1e-9)
    assert run_cli("length", "--hamiltonian", "x1") == 2   # needs --grid
    capsys.readouterr()
    grid.write_text(json.dumps({"dim": 2, "geometry": "box", "resolution": [4, 4]}))
    assert run_cli("length", "--hamiltonian", "x1", "--grid", str(grid)) == 2
    assert "'bounds'" in capsys.readouterr().err
    # a Hamiltonian naming coordinates beyond the grid's is a config error, not a traceback
    grid.write_text(json.dumps({"dim": 2, "geometry": "box",
                                "bounds": [[-2.0, -2.0], [2.0, 2.0]], "resolution": [4, 4]}))
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("x1,y1\n0.0,0.0\n")
    for argv in (["length"], ["flow", "--cloud", str(cloud)]):
        assert run_cli(*argv, "--hamiltonian", "x2*y1", "--grid", str(grid)) == 2
        err = capsys.readouterr().err
        assert "(at hamiltonian)" in err and "beyond the declared dimension" in err
    # NaN fails every range check, not only the ones it compares true against
    assert run_cli("length", "--hamiltonian", "x1*y1", "--grid", str(grid),
                   "--kind", "kp", "--p", "nan") == 2
    assert "(at --p)" in capsys.readouterr().err
    # a NaN or infinite grid bound or period is refused, not sampled
    for spec in ({"dim": 2, "geometry": "box", "bounds": [[-2.0, float("nan")], [2.0, 2.0]],
                  "resolution": [4, 4]},
                 {"dim": 2, "geometry": "box", "bounds": [[-2.0, -2.0], [2.0, float("inf")]],
                  "resolution": [4, 4]},
                 {"dim": 2, "geometry": "torus", "periods": [1.0, float("inf")],
                  "resolution": [4, 4]}):
        grid.write_text(json.dumps(spec))
        assert run_cli("length", "--hamiltonian", "x1", "--grid", str(grid)) == 2
        assert "(at grid)" in capsys.readouterr().err


def test_length_grid_must_match_the_path_domain(tmp_path, capsys):
    # another box of the path's dimension, or a torus of the path's periods,
    # samples the same path; another dimension or geometry, or a torus of
    # other periods, is a config error naming --grid
    box, torus = path_json(tmp_path), torus_path_json(tmp_path)
    grids = {"wide": {"dim": 2, "geometry": "box", "bounds": [[-3.0, -3.0], [3.0, 3.0]],
                      "resolution": [24, 24]},
             "dim4": {"dim": 4, "geometry": "box", "bounds": [[-2.0] * 4, [2.0] * 4],
                      "resolution": [4, 4, 4, 4]},
             "torus": {"dim": 2, "geometry": "torus", "periods": [1.0, 1.0],
                       "resolution": [8, 8]},
             "quarter": {"dim": 2, "geometry": "torus", "periods": [0.25, 0.25],
                         "resolution": [16, 16]}}
    files = {name: tmp_path / f"grid-{name}.json" for name in grids}
    for name, spec in grids.items():
        files[name].write_text(json.dumps(spec))
    assert run_cli("length", "--path", box, "--grid", str(files["wide"])) == 0
    assert run_cli("length", "--path", torus, "--grid", str(files["torus"]), "--kind", "hl") == 0
    for path, grid, kinds in ((box, "dim4", ("k", "coarse", "kp")), (box, "torus", ("k",)),
                              (torus, "dim4", ("hl",)), (torus, "wide", ("hl",)),
                              (torus, "quarter", ("hl",))):
        for kind in kinds:
            capsys.readouterr()
            assert run_cli("length", "--path", path, "--grid", str(files[grid]),
                           "--kind", kind, "--p", "0.5") == 2
            assert "(at --grid)" in capsys.readouterr().err


def test_length_missing_file_is_config_error(tmp_path):
    assert run_cli("length", "--path", str(tmp_path / "nope.json")) == 2


def test_unreadable_inputs_name_the_key_and_the_file(tmp_path, capsys):
    p = path_json(tmp_path)
    assert run_cli("flow", "--path", p, "--cloud", str(tmp_path / "nope.csv")) == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err and "(at --cloud)" in err
    group = tmp_path / "g.json"
    for content in (b"{not json", b"\xff\xfe"):
        group.write_bytes(content)
        assert run_cli("snowflake", "--group", str(group)) == 2
        err = capsys.readouterr().err
        assert "g.json" in err and "(at group)" in err
    # a broken table is refused at every order, here 65
    spec = sf.cyclic_group(65).to_json()
    spec["table"][1][1] = 1
    group.write_text(json.dumps(spec))
    assert run_cli("snowflake", "--group", str(group)) == 2
    err = capsys.readouterr().err
    assert "associative" in err and "(at group)" in err


def test_flags_must_be_spelled_in_full():
    # no prefix reaches a flag: argparse would read --hamil as --hamiltonian
    with pytest.raises(SystemExit) as exc:
        main(["length", "--hamil", "x1"])
    assert exc.value.code == 2


def test_flow_subcommand(tmp_path, capsys):
    p = path_json(tmp_path, expr="2*x1")
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("x1,y1\n0.0,0.0\n1.0,-1.0\n")
    prefix = str(tmp_path / "flow")
    assert run_cli("flow", "--path", p, "--cloud", str(cloud),
                   "--steps", "32", "--out-prefix", prefix) == 0
    final = (tmp_path / "flow.final.csv").read_text()
    rows = final.strip().splitlines()[1:]
    assert float(rows[0].split(",")[1]) == pytest.approx(2.0, abs=1e-10)
    # fewer than two steps per piece is a config error, not a traceback or a
    # step-error estimate that compares a run with itself
    for steps in ("1", "0", "-4"):
        capsys.readouterr()
        assert run_cli("flow", "--path", p, "--cloud", str(cloud), "--steps", steps) == 2
        assert "(at --steps)" in capsys.readouterr().err
    cloud.write_text("x1,y1\n0.0,abc\n")
    assert run_cli("flow", "--path", p, "--cloud", str(cloud)) == 2
    assert "cloud.csv" in capsys.readouterr().err
    # a header that does not name the coordinates in order, or no header at all
    # or a value that is not a finite number
    for text in ("y1,x1\n0.0,1.0\n", "1.0,2.0\n3.0,4.0\n", "x1,y1\nnan,0\n",
                 "x1,y1\n0.0,-inf\n"):
        cloud.write_text(text)
        assert run_cli("flow", "--path", p, "--cloud", str(cloud)) == 2
        err = capsys.readouterr().err
        assert "cloud.csv" in err and "(at --cloud)" in err
    # a cloud of fewer coordinates than the path's dimension
    four = tmp_path / "path4.json"
    four.write_text(json.dumps({"dimension": 4, "pieces": [{"t0": 0.0, "t1": 1.0, "expr": "x1*y2"}],
                                "domain": {"dim": 4, "geometry": "box",
                                           "bounds": [[-2.0] * 4, [2.0] * 4],
                                           "resolution": [4, 4, 4, 4]}}))
    cloud.write_text("x1,y1\n0.1,0.2\n")
    assert run_cli("flow", "--path", str(four), "--cloud", str(cloud)) == 2
    captured = capsys.readouterr()
    assert "(at --cloud)" in captured.err and captured.out == ""


def test_flow_that_turns_nan_exits_one(tmp_path, capsys):
    # at x1 = 30, exp(x1^2)*exp(-x1^2) is inf*0 = NaN: the flow stops with
    # BlowUp and exit 1, and prints no stats and writes no file
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("x1,y1\n30.0,0.5\n0.1,0.2\n")
    prefix = str(tmp_path / "o" / "run")
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("flow", "--hamiltonian", "exp(x1^2)*exp(-x1^2)*y1",
                       "--grid", grid_json(tmp_path, [-2.0, -2.0], [2.0, 2.0], [16, 16]),
                       "--cloud", str(cloud), "--steps", "16", "--out-prefix", prefix)
    assert code == 1
    captured = capsys.readouterr()
    assert "NaN" in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_flow_tol_doubles_each_tracer_and_exits_one_on_a_miss(tmp_path, capsys):
    grid = grid_json(tmp_path, [-2.0, -2.0], [2.0, 2.0], [16, 16])
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("x1,y1\n0.3,-0.2\n1.9,1.9\n-0.5,0.6\n")
    gauss = ["--hamiltonian", "0.9*exp(-(x1^2+y1^2)/1.28)*(1+0.5*sin(3*t))",
             "--grid", grid, "--cloud", str(cloud)]
    prefix = str(tmp_path / "met")
    assert run_cli("flow", *gauss, "--steps", "4", "--tol", "1e-8",
                   "--out-prefix", prefix) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["max_step_error"] <= 1e-8 and stats["steps_per_piece"] > 4
    assert stats["accepted"] >= 3 * 4 and stats["evaluations"] > 6 * stats["accepted"]
    assert stats["rejected"] >= 0
    assert json.loads((tmp_path / "met.stats.json").read_text()) == stats
    # the fast rotation still misses 1e-12 after the last doubling: the
    # outputs are written, the command warns and exits 1
    prefix = str(tmp_path / "missed")
    with pytest.warns(StepErrorWarning, match="misses tol 1e-12"):
        code = run_cli("flow", "--hamiltonian", "20*(x1^2 + y1^2)/2", "--grid", grid,
                       "--cloud", str(cloud), "--steps", "2", "--tol", "1e-12",
                       "--out-prefix", prefix)
    assert code == 1
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["max_step_error"] > 1e-12
    assert (tmp_path / "missed.final.csv").exists()
    for tol in ("nan", "inf", "0", "-1"):
        assert run_cli("flow", *gauss, "--tol", tol) == 2
        captured = capsys.readouterr()
        assert "(at --tol)" in captured.err and captured.out == ""


def test_snowflake_subcommand(tmp_path, capsys):
    assert run_cli("snowflake", "--group", "Z5", "--seed", "3") == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["psi_sharp"]) == 5
    assert out["psi_sharp"][0] == 0.0
    short = tmp_path / "weights.json"
    short.write_text(json.dumps([0.0, 1.0, 2.0]))
    assert run_cli("snowflake", "--group", "Z4", "--weights", str(short)) == 2
    assert "weights" in capsys.readouterr().err
    # NaN is not a weight; +inf is
    short.write_text("[0, NaN, 1, 1]")
    assert run_cli("snowflake", "--group", "Z4", "--weights", str(short)) == 2
    assert "(at weights)" in capsys.readouterr().err
    short.write_text("[0, Infinity, 1, Infinity]")
    assert run_cli("snowflake", "--group", "Z4", "--weights", str(short)) == 0


def test_snowflake_dk_mode(tmp_path, capsys):
    spec = {"order": 4, "table": [[0, 1, 2, 3], [1, 2, 3, 0],
                                  [2, 3, 0, 1], [3, 0, 1, 2]],
            "identity": 0, "inverse": [0, 3, 2, 1],
            "weights": [0.0, 1.0, 1.9, 1.0]}
    f = tmp_path / "g.json"
    f.write_text(json.dumps(spec))
    assert run_cli("snowflake", "--group", str(f), "--mode", "dk:1") == 0
    capsys.readouterr()
    # --weights and --seed replace a group file's own weights
    w = tmp_path / "w.json"
    w.write_text(json.dumps([0.0, 5.0, 5.0, 5.0]))
    assert run_cli("snowflake", "--group", str(f), "--weights", str(w)) == 0
    assert json.loads(capsys.readouterr().out)["psi_sharp"] == [0.0, 5.0, 5.0, 5.0]
    assert run_cli("snowflake", "--group", str(f), "--seed", "3") == 0
    from_file = json.loads(capsys.readouterr().out)
    assert run_cli("snowflake", "--group", "Z4", "--seed", "3") == 0
    assert from_file == json.loads(capsys.readouterr().out)
    assert run_cli("snowflake", "--group", str(f), "--mode", "bogus") == 2
    for argv, flag in ((["--group", "NotAGroup"], "group"), (["--group", "Z0"], "group"),
                       (["--group", "Z4", "--mode", "dk:x"], "--mode"),
                       (["--group", "Z4", "--mode", "dk:-1"], "--mode")):
        capsys.readouterr()
        assert run_cli("snowflake", *argv) == 2
        assert f"(at {flag})" in capsys.readouterr().err
    capsys.readouterr()
    f.write_text(json.dumps(dict(spec, weights=[0.0, "NaN", 1.0, 1.0])))
    assert run_cli("snowflake", "--group", str(f)) == 2
    assert "(at group)" in capsys.readouterr().err
    f.write_text(json.dumps({"order": 4}))
    assert run_cli("snowflake", "--group", str(f)) == 2
    assert "g.json" in capsys.readouterr().err


def test_displace_and_shift(capsys):
    assert run_cli("displace", "--c", "0.25") == 0
    json.loads(capsys.readouterr().out)
    assert run_cli("shift", "--v", "1.0", "--eps", "0.5") == 0
    # out-of-range numbers are config errors naming the flag, not tracebacks
    for argv, flag in ((["displace", "--c", "-1"], "--c"),
                       (["displace", "--c", "1", "--k-max", "-1"], "--k-max"),
                       (["displace", "--c", "1", "--k-max", "9"], "--k-max"),
                       (["shift", "--v", "-1", "--eps", "0.1"], "--v"),
                       (["shift", "--v", "1", "--eps", "0"], "--eps"),
                       (["displace", "--c", "nan"], "--c"),
                       (["shift", "--v", "nan", "--eps", "0.1"], "--v"),
                       (["shift", "--v", "1", "--eps", "nan"], "--eps"),
                       (["displace", "--c", "inf"], "--c"),
                       (["shift", "--v", "inf", "--eps", "0.1"], "--v"),
                       (["shift", "--v", "1", "--eps", "inf"], "--eps")):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert f"(at {flag})" in capsys.readouterr().err


def test_gm_subcommand(tmp_path, capsys):
    out_dir = str(tmp_path / "gm")
    assert run_cli("gm", "--m", "4,8", "--k", "0", "--p", "0.5",
                   "--out-dir", out_dir) == 0
    assert os.path.exists(os.path.join(out_dir, "decay.csv"))
    assert os.path.exists(os.path.join(out_dir, "decay.dat"))
    for argv, flag in ((["--m", "0"], "--m"), (["--m", "2", "--p", "0"], "--p"),
                       (["--m", "abc"], "--m"), (["--m", "2", "--orders", "x"], "--orders"),
                       (["--k", "-1"], "--k"), (["--m", "4"], "--m"), (["--m", "4,4"], "--m"),
                       (["--m", "4,8", "--k", "9"], "--k"),
                       (["--m", "4,8", "--orders", "-1"], "--orders"),
                       (["--m", "4,8", "--orders", "0,9"], "--orders"),
                       (["--m", "4,8", "--k", "0", "--p", "nan"], "--p"),
                       (["--m", "4,8", "--k", "0", "--p", "inf"], "--p")):
        capsys.readouterr()
        assert run_cli("gm", *argv) == 2
        assert f"(at {flag})" in capsys.readouterr().err


def test_commutator_subcommand(tmp_path, capsys):
    p = path_json(tmp_path)
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"linear": [[1.0, 0.0], [0.0, 1.0]],
                                 "shift": [0.0, 0.0]}))
    assert run_cli("commutator", "--path", p, "--theta", str(theta), "--k", "1") == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"linear": [[2.0, 0.0], [0.0, 1.0]],
                               "shift": [0.0, 0.0]}))
    assert run_cli("commutator", "--path", p, "--theta", str(bad)) == 2
    capsys.readouterr()
    # NaN passes the symplectic test's comparison, so finiteness is checked first
    for spec in ({"linear": [[float("nan"), 0.0], [0.0, 1.0]], "shift": [0.0, 0.0]},
                 {"linear": [[1.0, 0.0], [0.0, 1.0]], "shift": [float("inf"), 0.0]}):
        bad.write_text(json.dumps(spec))
        assert run_cli("commutator", "--path", p, "--theta", str(bad)) == 2
        assert "(at --theta)" in capsys.readouterr().err
    for k in ("-1", "9"):
        assert run_cli("commutator", "--path", p, "--theta", str(theta), "--k", k) == 2
        assert "(at --k)" in capsys.readouterr().err
    # a symplectic map of higher dimension than the path's
    bad.write_text(json.dumps({"linear": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
                               "shift": [0, 0, 0, 0]}))
    assert run_cli("commutator", "--path", p, "--theta", str(bad)) == 2
    captured = capsys.readouterr()
    assert "(at --theta)" in captured.err and captured.out == ""
    # one of lower dimension acts on the first coordinates, as theta x id
    four = tmp_path / "path4.json"
    four.write_text(json.dumps({
        "dimension": 4,
        "pieces": [{"t0": 0.0, "t1": 1.0, "expr": "step(x1/0.8, 0.5, 1)*step(y2/0.8, 0.5, 1)*t"}],
        "domain": {"dim": 4, "geometry": "box", "bounds": [[-2.0] * 4, [2.0] * 4],
                   "resolution": [4] * 4}}))
    assert run_cli("commutator", "--path", str(four), "--theta", str(theta), "--k", "1") == 0


def test_flow_and_commutator_reject_torus_paths(tmp_path, capsys):
    # only length reads torus paths; the others name the path instead of a traceback
    p = torus_path_json(tmp_path)
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("x1,y1\n0.0,0.0\n")
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"linear": [[1.0, 0.0], [0.0, 1.0]], "shift": [0.0, 0.0]}))
    for argv in (["flow", "--path", p, "--cloud", str(cloud)],
                 ["commutator", "--path", p, "--theta", str(theta)]):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert "(at path)" in capsys.readouterr().err


def test_disjoint_subcommand(tmp_path, capsys):
    def piece(cx):
        return {"t0": 0.0, "t1": 1.0,
                "expr": f"step((x1 - {cx})/0.4, 0.5, 1)*step(y1/0.4, 0.5, 1)"}
    cfg = {
        "k": 1,
        "paths": [{"dimension": 2, "pieces": [piece(-1.0)],
                   "domain": {"dim": 2, "geometry": "box",
                              "bounds": [[-2.0, -2.0], [2.0, 2.0]],
                              "resolution": [20, 20]}},
                  {"dimension": 2, "pieces": [piece(1.0)],
                   "domain": {"dim": 2, "geometry": "box",
                              "bounds": [[-2.0, -2.0], [2.0, 2.0]],
                              "resolution": [20, 20]}}],
        "boxes": [[[-1.5, -0.5], [-0.5, 0.5]], [[0.5, -0.5], [1.5, 0.5]]],
    }
    f = tmp_path / "disjoint.json"
    f.write_text(json.dumps(cfg))
    assert run_cli("disjoint", "--config", str(f)) == 0
    capsys.readouterr()
    for k in (-1, 9, "one"):
        f.write_text(json.dumps(dict(cfg, k=k)))
        assert run_cli("disjoint", "--config", str(f)) == 2
        assert "$.k" in capsys.readouterr().err
    f.write_text(json.dumps({"k": 1}))
    assert run_cli("disjoint", "--config", str(f)) == 2
    assert "(at $.paths)" in capsys.readouterr().err
    for key in ("boxes", "k"):
        f.write_text(json.dumps({name: v for name, v in cfg.items() if name != key}))
        assert run_cli("disjoint", "--config", str(f)) == 2
        assert f"(at $.{key})" in capsys.readouterr().err
    del cfg["paths"][1]["dimension"]
    f.write_text(json.dumps(cfg))
    assert run_cli("disjoint", "--config", str(f)) == 2
    assert "'dimension'" in capsys.readouterr().err
    f.write_text(json.dumps(dict(cfg, paths=[])))
    assert run_cli("disjoint", "--config", str(f)) == 2
    assert "$.paths" in capsys.readouterr().err
    # a non-list is a config error, not a TypeError traceback
    f.write_text(json.dumps(dict(cfg, paths=5)))
    assert run_cli("disjoint", "--config", str(f)) == 2
    assert "(at $.paths)" in capsys.readouterr().err
    # every path lives on the first path's domain: before, the second one was dropped
    far = {"dimension": 2,
           "pieces": [{"t0": 0.0, "t1": 1.0,
                       "expr": "step((x1 - 7)/0.4, 0.5, 1)*step((y1 - 7)/0.4, 0.5, 1)"}],
           "domain": dict(cfg["paths"][0]["domain"], bounds=[[5.0, 5.0], [9.0, 9.0]])}
    f.write_text(json.dumps(dict(cfg, paths=[cfg["paths"][0], far],
                                 boxes=[cfg["boxes"][0], [[6.5, 6.5], [7.5, 7.5]]])))
    assert run_cli("disjoint", "--config", str(f)) == 2
    assert "(at $.paths)" in capsys.readouterr().err
    # every path needs its own box with corners of the path's dimension and
    # lo < hi on every axis (an inverted box would count every grid point as
    # outside, a leak at t=0)
    cfg["paths"][1]["dimension"] = 2
    cfg["paths"][1]["pieces"] = [piece(-1.0)]
    for boxes in (cfg["boxes"][:1], 5, [[[-1.5], [-0.5]], [[0.5, -0.5], [1.5, 0.5]]],
                  [[[-0.5, 0.5], [-1.5, -0.5]], [[0.5, -0.5], [1.5, 0.5]]],
                  [[[-1.5, -0.5], [-1.5, 0.5]], [[0.5, -0.5], [1.5, 0.5]]]):
        f.write_text(json.dumps(dict(cfg, boxes=boxes)))
        assert run_cli("disjoint", "--config", str(f)) == 2
        assert "$.boxes" in capsys.readouterr().err
    # a bump that leaves its box between the five times once checked fails
    # the check at a time of the bound's own lattice
    moving = "step((x1 + 1 - 0.8*sin(25.132741228718345*t))/0.4, 0.5, 1)*step(y1/0.4, 0.5, 1)"
    cfg["paths"][0]["pieces"] = [dict(piece(-1.0), expr=moving)]
    cfg["paths"][1]["pieces"] = [piece(1.0)]
    f.write_text(json.dumps(cfg))
    assert run_cli("disjoint", "--config", str(f)) == 1
    assert "path 0 leaks outside its declared box at t=" in capsys.readouterr().err


def _plain(v):
    """``v`` as JSON reads it back: tuples and arrays as lists, keys as strings."""
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_plain(x) for x in v]
    return v.item() if isinstance(v, np.generic) else v


def test_reports_print_as_their_fields_plus_ok(tmp_path, capsys):
    p = path_json(tmp_path)
    path = hp.HamiltonianPath.from_json(json.loads((tmp_path / "path.json").read_text()))
    rot = {"linear": [[0.0, 1.0], [-1.0, 0.0]], "shift": [0.3, -0.2]}
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(rot))
    dom = {"dim": 2, "geometry": "box", "bounds": [[-2.0, -2.0], [2.0, 2.0]],
           "resolution": [20, 20]}
    bumps = [{"dimension": 2, "domain": dom,
              "pieces": [{"t0": 0.0, "t1": 1.0,
                          "expr": f"step((x1 - {cx})/0.4, 0.5, 1)*step(y1/0.4, 0.5, 1)*(1 + t)"}]}
             for cx in (-1.0, 1.0)]
    cfg = {"k": 1, "paths": bumps,
           "boxes": [[[-1.5, -0.5], [-0.5, 0.5]], [[0.5, -0.5], [1.5, 0.5]]]}
    config = tmp_path / "disjoint.json"
    config.write_text(json.dumps(cfg))
    paths = [hp.HamiltonianPath.from_json(b) for b in bumps]
    weights = tmp_path / "weights.json"
    w = [0.0, 1.0, 2.0, 1.5, 3.0, 0.5]
    weights.write_text(json.dumps(w))
    cases = (
        (["length", "--path", p, "--k", "2"], ln.length_k(path, 2, path.domain, 20)),
        (["length", "--path", p, "--k", "1", "--kind", "coarse"],
         ln.coarse_length_k(path, 1, path.domain, 65)),
        (["gm", "--m", "4,8", "--k", "0"], shell_decay_report([4, 8], [(0, 0.5, None)])[0]),
        (["displace", "--c", "0.25"], square_displacement(0.25)[1]),
        (["shift", "--v", "1.0", "--eps", "0.5"], shift_certificate(1.0, 0.5)),
        (["commutator", "--path", p, "--theta", str(theta), "--k", "1"],
         commutator_bound_report(path, hp.AffineSymplectic(rot["linear"], rot["shift"]), 1)),
        (["disjoint", "--config", str(config)],
         disjoint_bound_check(paths, hp.box_corners(paths, cfg["boxes"]), 1)),
        (["snowflake", "--group", "S3", "--weights", str(weights)],
         sf.sharp(sf.builtin_group("S3").with_weights(w))),
    )
    for argv, rep in cases:
        capsys.readouterr()
        assert run_cli(*argv) == 0
        want = {f.name: _plain(getattr(rep, f.name)) for f in dataclasses.fields(rep)}
        if hasattr(rep, "ok"):
            want["ok"] = rep.ok()
        assert json.loads(capsys.readouterr().out) == want, argv


def test_failing_displacement_prints_its_report_and_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(displacement, "SQUARE_EPS", 0.05)
    out = tmp_path / "displace.json"
    assert run_cli("displace", "--c", "1", "--out", str(out)) == 1
    captured = capsys.readouterr()
    printed = json.loads(captured.out)
    assert printed["ok"] is False and printed["displaced"] is True
    assert json.loads(out.read_text()) == printed and captured.err == ""


def test_run_config_dispatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "constants", "params": {"k": 2},
                               "output_dir": str(tmp_path / "out")}))
    assert run_cli("run", "--config", str(cfg)) == 0
    assert os.path.exists(tmp_path / "out" / "constants.json")


def test_run_config_flow_writes_its_out_file(tmp_path, capsys):
    # run passes output_dir as --out, which flow must take itself, not as --out-prefix
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("x1,y1\n0.0,0.0\n1.0,-1.0\n")
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "flow",
                               "params": {"path": path_json(tmp_path, expr="2*x1"),
                                          "cloud": str(cloud), "steps": 8},
                               "output_dir": str(out)}))
    assert run_cli("run", "--config", str(cfg)) == 0
    assert os.listdir(out) == ["flow.json"]
    assert (out / "flow.json").read_text() == capsys.readouterr().out


def test_run_config_invalid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {}}))
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "(at $.command)" in capsys.readouterr().err
    cfg.write_text(json.dumps({"command": "nonsense"}))
    assert run_cli("run", "--config", str(cfg)) == 2
    cfg.write_text("{not json")
    assert run_cli("run", "--config", str(cfg)) == 2


def test_subcommands_match_config_schema():
    with open(os.path.join(PKG_SCHEMAS, "config.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    allowed = set(schema["properties"]["command"]["enum"])
    assert allowed | {"run"} == set(SUBCOMMANDS)
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert set(actions[0].choices.keys()) == set(SUBCOMMANDS)


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "hoferlab", "constants", "--k", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "3840" in proc.stdout
