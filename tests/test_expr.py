"""Parser, printer, differentiation, and cutoff evaluation."""

import gc
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hoferlab import corpus
from hoferlab import expr as E
from hoferlab.experiments.shell_family import ShellFamilySpec
from hoferlab.errors import DomainError, ExprSyntaxError, ParameterOutOfRange, UnknownIdentifier

from pointwise import evaluate


def test_parse_product():
    e = E.parse("2*x1")
    assert e == E.Mul(E.Const(2.0), E.Var("x1"))


def test_parse_precedence():
    e = E.parse("t*t*x1 + sin(t)")
    assert isinstance(e, E.Add)
    assert isinstance(e.left, E.Mul)
    assert e.right == E.Call("sin", E.Var("t"))


def test_parse_incomplete_has_offset():
    with pytest.raises(ExprSyntaxError) as err:
        E.parse("x1+")
    assert err.value.offset == 3


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        E.parse("foo + 1")
    with pytest.raises(UnknownIdentifier):
        E.parse("zeta(2)")


def test_unary_binds_tighter_than_power():
    e = E.parse("-x1^2")
    assert e == E.IntPow(E.Neg(E.Var("x1")), 2)
    assert float(evaluate(e, [(3.0, 0.0)], 0.0)[0]) == 9.0


@pytest.mark.parametrize("inner", ["1/4", "-(-1/4)", "(1)/(4)", "2^-2", "--0.25",
                                   "1/8+1/8", "0.5*0.5", "0.25"])
def test_cutoff_arguments_fold_to_one_constant(inner):
    assert E.parse(f"step(x1, {inner}, 1)") == E.step(E.Var("x1"), 0.25, 1.0)


def test_cutoff_arguments_must_be_constants():
    with pytest.raises(ExprSyntaxError):
        E.parse("step(x1, y1, 1)")


def test_coordinates_interleave_x_and_y():
    assert E.coordinates(4) == ["x1", "y1", "x2", "y2"]
    assert list(E.point_env(np.arange(4.0).reshape(1, 4), 0.0)) == ["t", *E.coordinates(4)]


@pytest.mark.parametrize("src", [
    "2*x1",
    "t*t*x1 + sin(t)",
    "(x1 + y1)^2",
    "-x1^2",
    "x1^-2",
    "step(x1, 0.25, 0.75)",
    "step_d(t, 0.25, 0.75, 2)",
    "sqrt(x1^2 + y1^2)",
    "x1/(1 + t)",
    "2 - -3*t",
    "exp(-t)*cos(2*y2)",
])
def test_print_parse_roundtrip(src):
    tree = E.parse(src)
    assert E.parse(E.to_source(tree)) == tree


# random tree generator for the roundtrip property
_leaf = st.sampled_from([E.Var("x1"), E.Var("y1"), E.Var("t"),
                         E.Const(2.0), E.Const(-0.5), E.Const(3.25)])


def _trees(depth):
    # built through the normalizing constructors, like parse and diff do
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(E.add, sub, sub),
        st.builds(E.sub, sub, sub),
        st.builds(E.mul, sub, sub),
        st.builds(E.neg, sub),
        st.builds(lambda a: E.intpow(a, 3), sub),
        st.builds(lambda a: E.call("sin", a), sub),
        st.builds(lambda a: E.step(a, 0.25, 0.75), sub),
    )


@given(_trees(3))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(tree):
    assert E.parse(E.to_source(tree)) == tree


def test_diff_t_linear():
    assert E.time_derivatives(E.parse("t*x1"), 1)[-1] == E.Var("x1")
    assert E.time_derivatives(E.parse("x1"), 1)[-1] == E.Const(0.0)


def test_diff_t_order_zero_is_identity():
    e = E.parse("sin(t)*x1 + t^3")
    assert E.time_derivatives(e, 0) == [e]
    assert E.time_derivatives(e, 2)[0] is e


def test_diff_t_order_guard():
    # the chain builder every functional uses refuses orders outside 0..MAX_DIFF_ORDER
    assert len(E.time_derivatives(E.parse("t"), E.MAX_DIFF_ORDER)) == E.MAX_DIFF_ORDER + 1
    for k in (E.MAX_DIFF_ORDER + 1, -1):
        with pytest.raises(ParameterOutOfRange) as err:
            E.time_derivatives(E.parse("t"), k)
        assert err.value.name == "k"


def _distinct_nodes(e, seen=None):
    seen = set() if seen is None else seen
    if id(e) not in seen:
        seen.add(id(e))
        for c in E._children(e).values():
            _distinct_nodes(c, seen)
    return len(seen)


def _unshared_chain(e, k):
    # each entry differentiated from a fresh parse of the one before, so no node is shared
    out = [e]
    for _ in range(k):
        out.append(E.diff(E.parse(E.to_source(out[-1])), "t"))
    return out


@pytest.mark.parametrize("closed", [False, True])
def test_shared_chain_equals_the_unshared_chain_on_the_shell_family(closed):
    h = ShellFamilySpec(4, closed_mode=closed).hamiltonian()
    assert E.time_derivatives(h, 5) == _unshared_chain(h, 5)


def test_shared_chain_equals_the_unshared_chain_on_the_corpus():
    rng = np.random.default_rng(42)
    for _ in range(5):
        for piece in corpus.random_path(rng).pieces:
            h = piece.hamiltonian
            assert E.time_derivatives(h, 3) == _unshared_chain(h, 3)


def test_shell_chain_stays_small_at_the_top_order():
    # one memo for the whole chain: 2,378 distinct nodes at order 8, where
    # differentiating every occurrence anew gave 191,814 already at order 7
    chain = E.time_derivatives(ShellFamilySpec(4).hamiltonian(), E.MAX_DIFF_ORDER)
    assert _distinct_nodes(chain[-1]) < 5000


def test_diff_shares_what_its_input_shares():
    u = E.parse("sin(t*x1)")
    d = E.diff(u * u, "t")            # d(u)/dt appears twice in the product rule
    assert d.left.left is d.right.right


def test_diff_t_sin_second_derivative():
    # order-4 central stencil on the undifferentiated expression
    e = E.parse("sin(t)*x1")
    d2 = E.time_derivatives(e, 2)[-1]
    got = float(evaluate(d2, [(2.0, 0.0)], 0.3)[0])
    h = 1e-2
    f = lambda t: float(evaluate(e, [(2.0, 0.0)], t)[0])
    stencil = (-f(0.3 + 2 * h) + 16 * f(0.3 + h) - 30 * f(0.3)
               + 16 * f(0.3 - h) - f(0.3 - 2 * h)) / (12 * h ** 2)
    assert got == pytest.approx(stencil, abs=1e-6)
    assert got == pytest.approx(-2.0 * math.sin(0.3), rel=1e-12)


@pytest.mark.parametrize("src,order", [
    ("t^4 - 2*t^2 + t", 3),
    ("sin(2*t)*cos(t)", 2),
    ("exp(-t)*x1 + t*t*y1", 4),
    ("step(t, 0.25, 0.75)*x1", 2),
    ("sqrt(1 + t^2)", 3),
])
def test_diff_t_matches_finite_differences(src, order):
    e = E.parse(src)
    d = E.time_derivatives(e, order)[-1]
    pt = [(0.7, -0.4)]
    for t0 in (0.05, 0.45, 0.62):
        h = 4e-3
        offsets = np.arange(-5, 6)
        vals = np.array([float(evaluate(e, pt, t0 + j * h)[0]) for j in offsets])
        poly = np.polyfit(offsets * h, vals, 8)
        fd = np.polyder(np.poly1d(poly), order)(0.0)
        sym = float(evaluate(d, pt, t0)[0])
        assert sym == pytest.approx(fd, rel=1e-5, abs=2e-4 * max(1.0, abs(sym)))


def test_evaluate_examples():
    assert evaluate(E.parse("2*x1"), [(1.0, 0.0)], 5.0)[0] == 2.0
    zeros = evaluate(E.parse("0"), [(1, 2), (3, 4), (0, 0)], 0.1)
    assert np.array_equal(zeros, np.zeros(3))


def test_evaluate_dimension_check():
    with pytest.raises(UnknownIdentifier):
        evaluate(E.parse("x2"), [(1.0, 2.0)], 0.0)


def test_division_guard():
    e = E.parse("x1/y1")
    with pytest.raises(DomainError):
        evaluate(e, [(1.0, 0.0)], 0.0)
    with pytest.raises(DomainError):
        E.parse("1/0")
    with pytest.raises(DomainError):
        E.div(E.Var("x1"), E.const(0))
    # a denominator that is not a constant is tested on every evaluation
    zero = E.parse("x1/(x1 - x1)")
    with pytest.raises(DomainError):
        evaluate(zero, [(1.0, 0.0)], 0.0)
    with pytest.raises(DomainError):
        list(E.eval_over_time([zero], [(1.0, 0.0)], [0.0, 0.5]))


def test_constructors_take_python_numbers_as_the_operators_do():
    x = E.Var("x1")
    with pytest.raises(DomainError):
        E.div(x, 0)
    twice = E.mul(x, 2)
    assert twice == x * 2 == E.Mul(x, E.Const(2.0))
    assert E.to_source(twice) == "x1*2"
    assert E.eval_env(twice, {"x1": 1.5}) == 3.0
    assert E.add(1, x) == 1 + x and E.sub(x, 1) == x - 1 and E.div(1, x) == 1 / x
    assert E.mul(3, 0.5) == E.Const(1.5)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        evaluate(E.parse("sqrt(x1)"), [(-1.0, 0.0)], 0.0)


def test_step_plateaus_and_range():
    s = np.linspace(-1.2, 1.2, 2001)
    vals = E.step_values(s, 0.25, 0.75)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[np.abs(s) <= 0.25] == 1.0)
    assert np.all(vals[np.abs(s) >= 0.75] == 0.0)
    # all derivatives vanish on and beyond the plateaus
    for d in range(1, 6):
        dv = E.step_values(s, 0.25, 0.75, d)
        assert np.all(dv[np.abs(s) <= 0.25] == 0.0)
        assert np.all(dv[np.abs(s) >= 0.75] == 0.0)
        assert np.all(np.isfinite(dv))


def test_step_monotone_transition():
    s = np.linspace(0.25001, 0.74999, 500)
    vals = E.step_values(s, 0.25, 0.75)
    assert np.all(np.diff(vals) <= 1e-12)


def test_step_narrow_window_snaps_to_plateau():
    vals = E.step_values(np.array([0.9999e-3, 1.4999e-3]), 1e-3, 1.5e-3, 0)
    assert np.all(np.isfinite(vals))
    dv = E.step_values(np.linspace(1.01e-3, 1.49e-3, 50), 1e-3, 1.5e-3, 2)
    assert np.all(np.isfinite(dv))


def test_substitute_time_reversal():
    e = E.parse("t*x1")
    flipped = E.substitute_time(e, E.parse("1 - t"))
    assert float(evaluate(flipped, [(2.0, 0.0)], 0.25)[0]) == pytest.approx(1.5)


def test_operator_sugar_builds_trees():
    x1, t = E.Var("x1"), E.Var("t")
    e = 2.0 * x1 + t ** 2 - x1 / 4.0
    got = float(evaluate(e, [(2.0, 0.0)], 3.0)[0])
    assert got == pytest.approx(2 * 2 + 9 - 0.5)


def test_spatial_dimension():
    assert E.spatial_dimension(E.parse("t")) == 0
    assert E.spatial_dimension(E.parse("x1 + y1")) == 2
    assert E.spatial_dimension(E.parse("y3")) == 6


# --- eval_over_time against a per-node eval_array loop (the oracle) ---

# raw constructors keep constant-only subtrees such as 2*3 unfolded
_oracle_leaf = st.sampled_from([E.Var("x1"), E.Var("y1"), E.Var("t"),
                                E.Const(2.0), E.Const(-0.5), E.Const(0.75)])


def _oracle_trees(depth):
    if depth == 0:
        return _oracle_leaf
    sub = _oracle_trees(depth - 1)
    return st.one_of(
        _oracle_leaf,
        st.builds(E.Add, sub, sub),
        st.builds(E.Sub, sub, sub),
        st.builds(E.Mul, sub, sub),
        st.builds(E.Div, sub, sub),
        st.builds(E.Neg, sub),
        st.builds(E.IntPow, sub, st.sampled_from([-3, -2, -1, 2, 3])),
        st.builds(E.Call, st.sampled_from(["sin", "cos", "exp", "sqrt"]), sub),
        st.builds(E.Step, sub, st.just(0.25), st.just(0.75), st.integers(0, 3)),
    )


_ORACLE_PTS = np.array([[0.1, -0.4], [0.0, 0.5], [-0.7, 0.3], [0.45, 0.05],
                        [0.6, -0.2], [-0.3, -0.65], [0.2, 0.7]])
_ORACLE_TIMES = np.array([0.0, 0.125, 0.3, 0.5, 0.62])


def _outcome(compute):
    with np.errstate(all="ignore"):
        try:
            return compute()
        except (DomainError, OverflowError) as err:
            return type(err)


def _per_node_table(exprs, pts, times):
    return np.array([[E.eval_array(e, E.point_env(pts, t), len(pts)) for e in exprs]
                     for t in times])


def _kernel_table(exprs, pts, times):
    out = np.empty((len(times), len(exprs), len(pts)))
    for rows, i, vals in E.eval_over_time(exprs, pts, times):
        out[rows, i] = vals
    return out


def _same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b, equal_nan=True)


@given(_oracle_trees(4))
@example(E.Mul(E.Step(E.Sub(E.Var("x1"), E.Var("t")), 0.25, 0.75, 2), E.Var("y1")))
@example(E.Div(E.Var("x1"), E.Add(E.Var("t"), E.Const(0.75))))
@example(E.Mul(E.IntPow(E.Add(E.Var("t"), E.Const(0.75)), -3), E.Var("y1")))
@example(E.Mul(E.Call("sqrt", E.Var("t")), E.Mul(E.Const(2.0), E.Const(-0.5))))
@example(E.Add(E.Mul(E.Var("t"), E.Var("x1")), E.Call("sqrt", E.Var("x1"))))
@example(E.Div(E.Var("t"), E.Var("x1")))
# one sin(t) object inside the t-only sin(t)^3 and, by identity, in the next entry
@example(E.Mul(E.IntPow(E.Call("sin", E.Var("t")), 3), E.Var("x1")))
# powers of a Step of t, whose values must keep the column's scalar power
@example(E.parse("x1*(2.3*step(t-0.3,0.1,0.5))^3"))
@example(E.parse("x1*step(t-0.3,0.1,0.5)^3 + x1*(t+0.1)^-2"))
@settings(max_examples=300, deadline=None)
def test_eval_over_time_matches_per_node_eval(tree):
    # a derivative chain shares subtrees between its entries; leaves are rows too
    exprs = E.time_derivatives(tree, 2) + [E.Const(0.75), E.Var("y1"), E.Var("t")]
    want = _outcome(lambda: _per_node_table(exprs, _ORACLE_PTS, _ORACLE_TIMES))
    got = _outcome(lambda: _kernel_table(exprs, _ORACLE_PTS, _ORACLE_TIMES))
    assert _same(got, want)
    # blocks of one time node (TABLE_BLOCK below N) and of two, which do not divide T
    for block in (3, 2 * len(_ORACLE_PTS)):
        with mock.patch.object(E, "TABLE_BLOCK", block):
            small = _outcome(lambda: _kernel_table(exprs, _ORACLE_PTS, _ORACLE_TIMES))
        assert _same(small, want)


def test_eval_over_time_hoists_the_cutoffs():
    # a t-free cutoff is evaluated once per table, not once per time node
    bump = E.parse("step(x1/0.8, 0.5, 1)*step(y1/0.8, 0.5, 1)")
    chain = E.time_derivatives(E.mul(E.parse("sin(3*t) + t^2"), bump), 3)
    times = np.linspace(0.0, 1.0, 40)
    with mock.patch.object(E, "step_values", wraps=E.step_values) as spy:
        table = _kernel_table(chain, _ORACLE_PTS, times)
    assert spy.call_count == 2
    assert np.array_equal(table, _per_node_table(chain, _ORACLE_PTS, times))


def test_powers_of_a_step_of_t_match_per_node_eval_on_a_fine_time_grid():
    # the array power and the scalar one differ on a few percent of values, too
    # few for the oracle's five times to show a Step that loses the column type
    times = np.linspace(0.0, 1.0, 4001)
    for source in ("x1*(2.3*step(t-0.3,0.1,0.5))^3", "x1*step(t-0.3,0.1,0.5)^3 + x1*(t+0.1)^-2"):
        exprs = [E.parse(source)]
        assert np.array_equal(_kernel_table(exprs, [(1.0, 0.0)], times),
                              _per_node_table(exprs, [(1.0, 0.0)], times)), source


def test_the_functions_on_an_array_equal_their_scalar_calls():
    # eval_over_time evaluates subtrees of t alone on a column of times and takes
    # only its powers value by value: a CPU or numpy build whose array kernels round
    # otherwise than their scalar calls would change the lengths' bytes
    v = np.random.default_rng(20).uniform(-4.0, 4.0, 20000)
    for name, (kernel, _) in E._FUNCTIONS.items():
        u = np.abs(v) if name == "sqrt" else v
        assert np.array_equal(kernel(u), [kernel(x) for x in u.tolist()]), name


def test_a_power_that_overflows_gives_inf():
    # as numpy's array power does, for a scalar base and on a column of times
    for source, want in (("(t+1e200)^2", math.inf), ("(t-1e200)^3", -math.inf),
                         ("(t-1e200)^2", math.inf), ("((t+1)*1e-200)^-2", math.inf)):
        e = E.parse(source)
        assert E.eval_env(e, {"t": 0.5}) == want
        [(_, _, vals)] = E.eval_over_time([E.mul(e, E.Var("x1"))], [(2.0, 0.0)], [0.0, 0.5])
        assert np.all(vals == 2 * want)


# --- share_subtrees against eval_env on the originals (the oracle) ---

def _shared_values(exprs, env):
    assignments, rewritten = E.share_subtrees(exprs)
    env = dict(env)
    for name, e, _ in assignments:
        env[name] = E.eval_env(e, env)
    return [E.eval_env(e, env) for e in rewritten]


def _unshared(e, trees):
    """e with each placeholder replaced by the tree it names, without folding."""
    if isinstance(e, E.Var):
        return trees.get(e.name, e)
    return replace(e, **{k: _unshared(c, trees) for k, c in E._children(e).items()})


def _same_list(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    return len(got) == len(want) and all(map(_same, got, want))


@given(st.lists(_oracle_trees(3), min_size=1, max_size=3))
@example([E.Div(E.Var("x1"), E.Sub(E.Var("y1"), E.Var("y1")))])
@example([E.Call("sqrt", E.Sub(E.Var("t"), E.Const(0.75)))])
@settings(max_examples=300, deadline=None)
def test_share_subtrees_matches_eval_env(trees):
    # gradients and sums of the drawn trees share subtrees with them and each other
    exprs = trees + [E.diff(trees[0], "x1"), E.diff(trees[0], "y1"),
                     E.Mul(trees[0], trees[-1]),
                     E.Step(E.Add(trees[-1], E.Var("t")), 0.25, 0.75, 1)]
    env = E.point_env(_ORACLE_PTS, 0.3)
    want = _outcome(lambda: [E.eval_env(e, env) for e in exprs])
    got = _outcome(lambda: _shared_values(exprs, env))
    assert _same_list(got, want)
    # each dependence tag is what the placeholder's whole tree uses
    assignments, rewritten = E.share_subtrees(exprs)
    trees = {}
    for name, e, uses in assignments:
        trees[name] = _unshared(e, trees)
        names = E.variables(trees[name])
        assert uses == (E._T if "t" in names else 0) | (E._X if names - {"t"} else 0)
    assert [_unshared(e, trees) for e in rewritten] == exprs


def test_share_subtrees_evaluates_the_gaussian_factor_once():
    h = E.parse("0.9*exp(-((x1 - 0.3)^2 + (y1 + 0.2)^2)/1.28)*(1 + 0.5*sin(3*t))")
    field = [E.neg(E.diff(h, "y1")), E.diff(h, "x1")]
    assignments, rewritten = E.share_subtrees(field)
    trees = [e for _, e, _ in assignments] + rewritten

    def calls(e, func):
        return (isinstance(e, E.Call) and e.func == func) + sum(
            calls(c, func) for c in E._children(e).values())

    assert sum(calls(e, "exp") for e in trees) == 1
    assert sum(calls(e, "sin") for e in trees) == 1
    assert sum(calls(e, "exp") for e in field) == 2
    # each assignment names only earlier placeholders
    for i, (_, e, _) in enumerate(assignments):
        assert {v for v in E.variables(e) if v.startswith("_")} <= {
            name for name, _, _ in assignments[:i]}


def test_share_subtrees_keeps_a_tree_it_renames_nothing_in():
    # no repeated node and none mixing t with x/y: the plan holds the tree itself
    spatial = E.parse("sin(x1)*y1 + exp(-x1^2)")
    [(_, tree, uses)], [top] = E.share_subtrees([spatial])
    assert tree is spatial and uses == E._X and top == E.Var("_0")
    # a mixed node whose children are leaves is kept as well
    mixed = E.parse("t*x1")
    assignments, [top] = E.share_subtrees([mixed])
    assert assignments == [] and top is mixed


def test_share_subtrees_leaves_no_reference_cycle():
    h = corpus.random_path(np.random.default_rng(3)).pieces[0].hamiltonian
    gc.collect()
    gc.disable()
    try:
        E.share_subtrees(E.time_derivatives(h, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()
