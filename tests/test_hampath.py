"""Path data model and the reversal/splice/conjugation algebra."""

import json
import pathlib

import numpy as np
import pytest

from hoferlab import corpus
from hoferlab import expr as E
from hoferlab import hampath as hp
from hoferlab import lengths as L
from hoferlab.errors import NotMonotone, ParameterOutOfRange, SupportOverlap
from hoferlab.grid import Grid

from pointwise import evaluate

GRID = Grid.box([-2.0, -2.0], [2.0, 2.0], (16, 16))
TORUS = Grid.torus([1.0, 1.0], (8, 8))
SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "src" / "hoferlab" / "schemas"


def path_of(*specs):
    pieces = tuple(hp.Piece(a, b, E.parse(src)) for a, b, src in specs)
    return hp.HamiltonianPath(pieces, 2, GRID)


def eval_path(f, t, pts):
    return evaluate(f.piece_at(t).hamiltonian, pts, t)


def test_tiling_validation():
    with pytest.raises(ValueError):
        path_of((0.0, 0.5, "x1"))
    with pytest.raises(ValueError):
        path_of((0.0, 0.5, "x1"), (0.6, 1.0, "x1"))
    with pytest.raises(ValueError):
        hp.Piece(0.5, 0.5, E.parse("x1"))
    with pytest.raises(ValueError):
        hp.TorusSymplecticPath((), 2, TORUS)


def test_pieces_name_only_coordinates_within_dimension():
    with pytest.raises(ValueError, match="beyond the declared dimension"):
        path_of((0.0, 1.0, "x1*y2"))
    ok = hp.TorusPiece(0.0, 1.0, (E.parse("1"), E.parse("t")), E.parse("sin(6.283185307179586*x1)"))
    assert hp.TorusSymplecticPath((ok,), 2, TORUS).pieces == (ok,)
    bad = hp.TorusPiece(0.0, 1.0, ok.harmonic, E.parse("sin(6.283185307179586*x2)"))
    with pytest.raises(ValueError, match="beyond the declared dimension"):
        hp.TorusSymplecticPath((bad,), 2, TORUS)


def test_reverse_autonomous():
    f = path_of((0.0, 1.0, "x1"))
    r = hp.reverse(f)
    pts = [(0.7, -0.3)]
    assert float(eval_path(r, 0.4, pts)[0]) == pytest.approx(-0.7)


def test_reverse_time_dependent_formula():
    # t*x1 reverses to -(1-t)*x1
    f = path_of((0.0, 1.0, "t*x1"))
    r = hp.reverse(f)
    pts = [(1.0, 0.0)]
    for t in (0.0, 0.25, 0.9):
        assert float(eval_path(r, t, pts)[0]) == pytest.approx(-(1 - t))


def test_reverse_division_mirrors():
    f = path_of((0.0, 0.3, "x1"), (0.3, 1.0, "y1"))
    r = hp.reverse(f)
    assert [p.t_start for p in r.pieces] == [0.0, 0.7]
    assert [p.t_end for p in r.pieces] == [0.7, 1.0]


def test_reverse_involution_on_values():
    f = path_of((0.0, 0.4, "t*t*x1 + sin(t)*y1"), (0.4, 1.0, "exp(-t)*x1"))
    rr = hp.reverse(hp.reverse(f))
    pts = np.array([[0.3, 0.8], [-1.0, 0.5]])
    for t in (0.1, 0.4, 0.77):
        assert np.abs(eval_path(rr, t, pts) - eval_path(f, t, pts)).max() < 1e-12


def test_concatenate_structure_and_values():
    f = path_of((0.0, 1.0, "x1"))
    g = path_of((0.0, 1.0, "x1"))
    c = hp.concatenate(f, g)
    assert len(c.pieces) == 2
    pts = [(1.0, 0.0)]
    # both halves carry 2*x1
    assert float(eval_path(c, 0.25, pts)[0]) == pytest.approx(2.0)
    assert float(eval_path(c, 0.75, pts)[0]) == pytest.approx(2.0)


def test_concatenate_time_rescaling():
    f = path_of((0.0, 1.0, "t*x1"))
    g = path_of((0.0, 1.0, "0"))
    c = hp.concatenate(f, g)
    pts = [(1.0, 0.0)]
    # first half: 2*F(x, 2t)
    assert float(eval_path(c, 0.2, pts)[0]) == pytest.approx(2 * 0.4)


def test_concat_reverse_compatibility():
    # reverse(g # f) agrees pointwise with (reverse f) # (reverse g)
    f = path_of((0.0, 1.0, "t*x1 + y1"))
    g = path_of((0.0, 0.5, "sin(t)*y1"), (0.5, 1.0, "x1*t*t"))
    lhs = hp.reverse(hp.concatenate(f, g))
    rhs = hp.concatenate(hp.reverse(g), hp.reverse(f))
    pts = np.array([[0.4, -0.2], [1.3, 0.6]])
    for t in (0.1, 0.3, 0.52, 0.9):
        assert np.abs(eval_path(lhs, t, pts) - eval_path(rhs, t, pts)).max() < 1e-12


def test_concatenate_rejects_mismatched_paths():
    f = path_of((0.0, 1.0, "x1"))
    phi = hp.TorusSymplecticPath((hp.TorusPiece(0.0, 1.0, (E.parse("1"), E.parse("0")),
                                                E.parse("sin(6.283185307179586*x1)")),), 2, TORUS)
    with pytest.raises(ValueError, match="TorusSymplecticPath"):
        hp.concatenate(f, phi)
    with pytest.raises(ValueError, match="TorusSymplecticPath"):
        hp.concatenate(phi, f)
    grid4 = Grid.box([-2.0] * 4, [2.0] * 4, (4, 4, 4, 4))
    g = hp.HamiltonianPath((hp.Piece(0.0, 1.0, E.parse("x2*y2")),), 4, grid4)
    with pytest.raises(ValueError, match="dimension 4"):
        hp.concatenate(f, g)
    # a splice or sum keeps one domain: before, the second path's was dropped
    far = Grid.box([5.0, 5.0], [9.0, 9.0], (16, 16))
    g = hp.autonomous_path(E.parse("step((x1 - 7)/0.8, 0.5, 1)*step((y1 - 7)/0.8, 0.5, 1)"),
                           2, far)
    boxes = [((-1.0, -1.0), (1.0, 1.0)), ((6.0, 6.0), (8.0, 8.0))]
    for splice in (lambda: hp.concatenate(f, g),
                   lambda: hp.disjoint_product([f, g], boxes, 33)):
        with pytest.raises(ValueError, match=r"different domains.*\[5\.0, 5\.0\]"):
            splice()


def _reverse_by_hand(f):
    one_minus_t = E.sub(E.const(1.0), E.Var("t"))
    return tuple(hp.Piece(1.0 - p.t_end, 1.0 - p.t_start,
                          E.neg(E.substitute_time(p.hamiltonian, one_minus_t)))
                 for p in reversed(f.pieces))


def _concatenate_by_hand(f, g):
    t = E.Var("t")
    first = [hp.Piece(p.t_start / 2.0, p.t_end / 2.0, E.mul(E.const(2.0), E.substitute_time(
                 p.hamiltonian, E.mul(E.const(2.0), t)))) for p in f.pieces]
    second = [hp.Piece((p.t_start + 1.0) / 2.0, (p.t_end + 1.0) / 2.0, E.mul(
                  E.const(2.0), E.substitute_time(
                      p.hamiltonian, E.sub(E.mul(E.const(2.0), t), E.const(1.0)))))
              for p in g.pieces]
    return tuple(first + second)


def test_reverse_and_concatenate_build_the_hand_built_trees():
    # the shared replay step builds the same trees as piece-by-piece construction
    rng = np.random.default_rng(42)
    paths = [corpus.random_path(rng) for _ in range(20)]
    assert any(len(f.pieces) > 1 for f in paths)
    for f in paths:
        assert hp.reverse(f).pieces == _reverse_by_hand(f)
    for f, g in zip(paths[::2], paths[1::2]):
        assert hp.concatenate(f, g).pieces == _concatenate_by_hand(f, g)


def test_reparametrize_identity_is_noop():
    f = path_of((0.0, 0.5, "t*x1"), (0.5, 1.0, "y1"))
    assert hp.reparametrize(f, E.Var("t")) is f


def test_reparametrize_values():
    f = path_of((0.0, 1.0, "t*x1"))
    s = E.parse("t*t")
    g = hp.reparametrize(f, s)
    pts = [(1.0, 0.0)]
    # new Hamiltonian is s'(t) * F(x, s(t)) = 2t * (t^2 * x1)
    for t in (0.2, 0.6, 0.9):
        assert float(eval_path(g, t, pts)[0]) == pytest.approx(2 * t * t * t * 1.0)


def test_reparametrize_piecewise_splits_at_preimages():
    f = path_of((0.0, 0.5, "x1"), (0.5, 1.0, "y1"))
    s = E.parse("t*t")
    g = hp.reparametrize(f, s)
    # preimage of 0.5 under t^2
    cut = np.sqrt(0.5)
    assert any(abs(p.t_end - cut) < 1e-9 for p in g.pieces)


def test_reparametrize_rejects_nonmonotone():
    f = path_of((0.0, 1.0, "x1"))
    with pytest.raises(NotMonotone):
        hp.reparametrize(f, E.parse("t*t*(3 - 2*t) - 0.5*sin(6.283185307179586*t)"))
    with pytest.raises(NotMonotone):
        hp.reparametrize(f, E.parse("t*0.5"))
    # torus paths go through the same checks
    phi = hp.TorusSymplecticPath((hp.TorusPiece(0.0, 1.0, (E.parse("1"), E.parse("0")),
                                                E.parse("sin(6.283185307179586*x1)")),), 2, TORUS)
    for s in ("t*0.5", "t + 0.2", "t + 0.3*sin(6.283185307179586*t)"):
        with pytest.raises(NotMonotone):
            hp.reparametrize(phi, E.parse(s))


def test_conjugate_identity():
    f = path_of((0.0, 1.0, "t*x1 + y1"))
    theta = hp.AffineSymplectic.identity(2)
    assert hp.conjugate(f, theta) == f


def test_conjugate_shift_formula():
    # shifting x1 by v turns x1 into x1 - v
    f = path_of((0.0, 1.0, "x1"))
    theta = hp.AffineSymplectic.translation([1.5, 0.0])
    g = hp.conjugate(f, theta)
    assert float(eval_path(g, 0.5, [(2.0, 0.0)])[0]) == pytest.approx(0.5)


def test_conjugate_refuses_a_map_of_higher_dimension():
    f = path_of((0.0, 1.0, "x1"))
    swap = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    with pytest.raises(ParameterOutOfRange) as err:
        hp.conjugate(f, hp.AffineSymplectic(swap, np.zeros(4)))
    assert err.value.name == "theta"


def test_conjugate_by_a_map_of_lower_dimension_acts_as_theta_times_id():
    grid = Grid.box([-1.0] * 4, [1.0] * 4, (4, 4, 4, 4))
    f = hp.HamiltonianPath((hp.Piece(0.0, 1.0, E.parse("x1*y2 + sin(y1)*x2^2 + t*x1")),), 4, grid)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    block = np.eye(4)
    block[:2, :2] = rot
    small = hp.conjugate(f, hp.AffineSymplectic(rot, np.array([0.3, -0.2])))
    full = hp.conjugate(f, hp.AffineSymplectic(block, np.array([0.3, -0.2, 0.0, 0.0])))
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 4))
    assert np.allclose(eval_path(small, 0.4, pts), eval_path(full, 0.4, pts), rtol=0, atol=1e-12)


def test_affine_symplectic_validation():
    with pytest.raises(ValueError):
        hp.AffineSymplectic(np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    hp.AffineSymplectic(rot, np.zeros(2))          # symplectic: fine
    with pytest.raises(ValueError):
        hp.AffineSymplectic(np.eye(3), np.zeros(3))


def test_affine_inverse_and_apply():
    theta = hp.AffineSymplectic(np.array([[0.0, -1.0], [1.0, 0.0]]),
                                np.array([0.5, -1.0]))
    pts = np.array([[0.3, 0.7], [-1.2, 0.1]])
    apply = lambda a, x: x @ a.linear.T + a.shift
    back = apply(theta.inverse(), apply(theta, pts))
    assert np.abs(back - pts).max() < 1e-12


def test_disjoint_product_single():
    # one path in its box: its support is still checked, and the sum is the path
    f = bump_path(0.0, 0.0)
    assert hp.disjoint_product([f], [((-0.75, -0.75), (0.75, 0.75))], 33) == f
    with pytest.raises(SupportOverlap):
        hp.disjoint_product([f], [((0.5, 0.5), (1.5, 1.5))], 33)


def bump_path(cx, cy, t0=0.0, t1=1.0):
    src = f"step((x1 - {cx})/0.4, 0.5, 1)*step((y1 - {cy})/0.4, 0.5, 1)"
    return path_of((t0, t1, src)) if (t0, t1) == (0.0, 1.0) else None


def test_disjoint_product_sum_and_division():
    f = bump_path(-1.0, -1.0)
    g = path_of((0.0, 0.5, "step((x1 - 1)/0.4, 0.5, 1)*step((y1 - 1)/0.4, 0.5, 1)"),
                (0.5, 1.0, "2*step((x1 - 1)/0.4, 0.5, 1)*step((y1 - 1)/0.4, 0.5, 1)"))
    boxes = [((-1.5, -1.5), (-0.5, -0.5)), ((0.5, 0.5), (1.5, 1.5))]
    prod = hp.disjoint_product([f, g], boxes=boxes, samples=33)
    assert [p.t_start for p in prod.pieces] == [0.0, 0.5]
    pts = np.array([[-1.0, -1.0], [1.0, 1.0]])
    vals = eval_path(prod, 0.75, pts)
    assert vals[0] == pytest.approx(1.0)     # first bump plateau
    assert vals[1] == pytest.approx(2.0)     # second path's late piece


def test_disjoint_product_rejects_overlap():
    f = bump_path(0.0, 0.0)
    g = bump_path(0.2, 0.0)
    boxes = [((-0.5, -0.5), (0.5, 0.5)), ((-0.3, -0.5), (0.7, 0.5))]
    with pytest.raises(SupportOverlap):
        hp.disjoint_product([f, g], boxes=boxes, samples=33)


def test_disjoint_product_rejects_leaky_support():
    f = path_of((0.0, 1.0, "x1"))     # global support
    g = bump_path(1.0, 1.0)
    boxes = [((-0.5, -0.5), (0.5, 0.5)), ((0.5, 0.5), (1.5, 1.5))]
    with pytest.raises(SupportOverlap):
        hp.disjoint_product([f, g], boxes=boxes, samples=33)


def test_validate_disjoint_supports_needs_one_box_per_path():
    p = bump_path(0.0, 0.0)
    box = ((-0.75, -0.75), (0.75, 0.75))
    hp.validate_disjoint_supports([p], [box], 33)
    # two identical paths with one box: before, only the first was checked
    with pytest.raises(ValueError, match="2 paths, 1 boxes"):
        hp.validate_disjoint_supports([p, p], [box], 33)
    # a 1-D corner of a 2-D path: before, it was broadcast over both axes
    with pytest.raises(ValueError, match=r"boxes\[0\]"):
        hp.validate_disjoint_supports([p], [((-0.5,), (0.5,))], 33)
    with pytest.raises(ValueError, match=r"boxes\[0\]"):
        hp.disjoint_product([p], boxes=[(box[0], box[1], box[1])], samples=33)


BUMP = "step(x1/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)"


def test_first_leak_samples_both_pieces_at_a_breakpoint():
    # each leak shows only at the breakpoint 0.3, which is off the 5-point
    # lattice, and only in the piece on one side of it
    lo, hi = (-1.0, -1.0), (1.0, 1.0)
    before = path_of((0.0, 0.3, "x1*(1 - step(t, 0.29, 0.3))"), (0.3, 1.0, BUMP))
    after = path_of((0.0, 0.3, BUMP), (0.3, 1.0, "x1*step(t, 0.3, 0.31)"))
    for f in (before, after):
        assert [list(ts) for ts in f.lattice(5)] == [[0.0, 0.25, 0.3], [0.3, 0.5, 0.75, 1.0]]
        assert hp.first_leak(f, GRID, lo, hi, 5) == 0.3
    assert hp.first_leak(path_of((0.0, 0.3, BUMP), (0.3, 1.0, BUMP)), GRID, lo, hi, 5) is None
    # no grid point outside the box: nothing to check
    assert hp.first_leak(before, GRID, (-2.0, -2.0), (2.0, 2.0), 5) is None


def test_disjoint_product_checks_every_lattice_time():
    # the bump sits in its box at t = 0, 1/4, ..., 1 (the five times once
    # checked) but leaves it in between: wholly outside at t = 1/16
    grid = Grid.box([-4.0, -4.0], [4.0, 4.0], (36, 36))
    moving = hp.autonomous_path(E.parse(
        "step((x1 + 2.6 - 1.2*sin(25.132741228718345*t))/0.4, 0.5, 1)"
        "*step((y1 + 2.6)/0.4, 0.5, 1)"), 2, grid)
    still = hp.autonomous_path(
        E.parse("step((x1 - 2.6)/0.4, 0.5, 1)*step((y1 - 2.6)/0.4, 0.5, 1)"), 2, grid)
    boxes = [((-3.1, -3.1), (-2.1, -2.1)), ((2.1, 2.1), (3.1, 3.1))]
    assert hp.first_leak(moving, grid, *boxes[0], 5) is None
    with pytest.raises(SupportOverlap, match=r"path 0 leaks .* at t=0\.03125$"):
        hp.disjoint_product([moving, still], boxes, 33)


def _corpus_paths_of_both_types():
    rng = np.random.default_rng(42)
    return (("path.schema.json", corpus.random_path(rng)),
            ("torus_path.schema.json", corpus.random_torus_path(rng)))


def test_path_json_roundtrip():
    f = path_of((0.0, 0.25, "t*x1"), (0.25, 1.0, "step(x1, 0.25, 0.75)*y1"))
    back = hp.HamiltonianPath.from_json(f.to_json())
    assert back == f
    # the one reader picks the type from the piece keys
    for _, f in _corpus_paths_of_both_types():
        back = hp.path_from_json(json.loads(json.dumps(f.to_json())))
        assert type(back) is type(f) and back == f


def test_path_json_writes_the_schema_required_keys():
    for name, f in _corpus_paths_of_both_types():
        with open(SCHEMAS / name, encoding="utf-8") as fh:
            schema = json.load(fh)
        spec = f.to_json()
        assert set(spec) == set(schema["required"]), name
        piece_keys = set(schema["properties"]["pieces"]["items"]["required"])
        assert [set(p) for p in spec["pieces"]] == [piece_keys] * len(f.pieces), name
