"""Snowflake transform on finite groups, with enumeration oracles."""

import heapq
import itertools

import numpy as np
import pytest

from hoferlab import corpus
from hoferlab import snowflake as S
from hoferlab.errors import (BudgetExceeded, InputNotQuasiSubadditive,
                             QuasiTriangleViolated)

GROUPS = {
    "Z4": S.cyclic_group(4), "Z5": S.cyclic_group(5), "Z6": S.cyclic_group(6),
    "S3": S.symmetric_group(3), "D4": S.dihedral_group(4),
}


def test_builtin_tables_are_groups():
    # construction already validates; spot-check orders and inverses
    assert GROUPS["S3"].order == 6
    assert GROUPS["D4"].order == 8
    assert S.symmetric_group(4).order == 24
    g = GROUPS["Z5"]
    assert np.all(g.table[np.arange(5), g.inverse] == g.identity)


def test_group_validation_rejects_broken_table():
    t = GROUPS["Z4"].table.copy()
    t[1, 1] = 1      # breaks associativity/latin property
    with pytest.raises(ValueError):
        S.WeightedGroup(4, t, 0, GROUPS["Z4"].inverse, np.zeros(4))


def test_group_json_is_checked_at_every_order(monkeypatch):
    spec = S.cyclic_group(65).to_json()
    spec["table"][1][1] = 1      # rows 0 and 1 both map 1 to 1: not associative
    with pytest.raises(ValueError, match="associative"):
        S.WeightedGroup.from_json(spec)
    spec["table"][1][1] = 65     # not an element
    with pytest.raises(ValueError, match="element indices"):
        S.WeightedGroup.from_json(spec)
    # construction checks only tables up to order 64, so with_weights on a
    # large group does no table work
    g = S.cyclic_group(65)
    monkeypatch.setattr(S.WeightedGroup, "_validate_group", lambda self: pytest.fail("checked"))
    assert g.with_weights(np.ones(65)).order == 65


def test_quasi_constant_word_norm_is_one():
    w = np.array([0.0, 1.0, 2.0, 1.0])     # word norm generated by +-1
    g = GROUPS["Z4"].with_weights(w)
    assert S.quasi_constant(g) == 1.0


def test_quasi_constant_inflated_pair():
    w = np.array([0.0, 1.0, 3.0, 1.0])
    assert S.quasi_constant(GROUPS["Z4"].with_weights(w)) == pytest.approx(1.5)


def test_quasi_constant_all_zero_clamps():
    g = S.cyclic_group(3).with_weights(np.zeros(3))
    assert S.quasi_constant(g) == 1.0


def test_quasi_constant_infinite():
    # zero-weight pair with a positive product admits no finite constant
    w = np.array([0.0, 0.0, 1.0, 0.0])
    g = GROUPS["Z4"].with_weights(w)
    assert S.quasi_constant(g) == np.inf
    with pytest.raises(InputNotQuasiSubadditive):
        S.sharp(g)


def test_sharp_subadditive_input_is_fixed_point():
    w = np.array([0.0, 1.0, 2.0, 1.0])
    res = S.sharp(GROUPS["Z4"].with_weights(w))
    assert res.C == 1.0 and res.alpha == 1.0
    assert np.array_equal(res.psi_sharp, w)


def test_sharp_identity_element():
    # identity needs words of length >= 1; cheapest closed word wins
    w = np.array([0.9, 1.0, 3.0, 1.0])
    res = S.sharp(GROUPS["Z4"].with_weights(w))
    assert res.psi_sharp[0] == pytest.approx(0.9)
    w2 = np.array([0.0, 1.0, 3.0, 1.0])
    res2 = S.sharp(GROUPS["Z4"].with_weights(w2))
    assert res2.psi_sharp[0] == 0.0


def test_witnesses_recompose():
    rng = np.random.default_rng(8)
    g = GROUPS["S3"].with_weights(corpus.random_weights(rng, GROUPS["S3"]))
    res = S.sharp(g)
    for a in range(g.order):
        word = res.witnesses[a]
        if not word:
            continue
        prod = word[0]
        cost = g.weights[word[0]] ** res.alpha
        for s in word[1:]:
            prod = int(g.table[prod, s])
            cost += g.weights[s] ** res.alpha
        assert prod == a
        assert cost == pytest.approx(res.psi_sharp[a] ** res.alpha, rel=1e-12)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_dijkstra_equals_brute_force(name):
    group = GROUPS[name]
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    max_n = group.order if group.order ** group.order <= S.ENUMERATION_BUDGET \
        else group.order - 1
    for _ in range(20):
        w = corpus.random_weights(rng, group)
        g = group.with_weights(w)
        a = S.sharp(g).psi_sharp
        b = S.brute_force_sharp(g, max_n)
        assert np.abs(a - b).max() <= 1e-12


def raw_word_enumeration(g, max_n):
    """Literal product iteration over all words; tiny groups only."""
    if g.order ** max_n > 10 ** 6:
        raise BudgetExceeded("raw enumeration is reserved for tiny groups")
    alpha = S.generic_alpha(S.quasi_constant(g))
    costs = np.where(np.isfinite(g.weights), g.weights ** alpha, np.inf)
    best = np.full(g.order, np.inf)
    for n_fac in range(1, max_n + 1):
        for word in itertools.product(range(g.order), repeat=n_fac):
            prod = word[0]
            cost = costs[word[0]]
            for s in word[1:]:
                prod = int(g.table[prod, s])
                cost += costs[s]
            if cost < best[prod]:
                best[prod] = cost
    return np.where(np.isfinite(best), best ** (1.0 / alpha), np.inf)


def test_three_way_oracle_on_z5():
    rng = np.random.default_rng(9)
    g = GROUPS["Z5"].with_weights(corpus.random_weights(rng, GROUPS["Z5"]))
    a = S.sharp(g).psi_sharp
    b = S.brute_force_sharp(g, 5)
    c = raw_word_enumeration(g, 5)
    assert np.abs(a - b).max() == 0.0
    assert np.abs(a - c).max() == 0.0


def test_brute_force_max_n_one_is_pointwise_weight():
    rng = np.random.default_rng(10)
    w = corpus.random_weights(rng, GROUPS["Z6"])
    g = GROUPS["Z6"].with_weights(w)
    out = S.brute_force_sharp(g, 1)
    assert np.allclose(out, w)


def test_budget_guard():
    g = S.symmetric_group(4).with_weights(np.zeros(24))
    with pytest.raises(BudgetExceeded):
        S.brute_force_sharp(g, 24)


def test_sandwich_beta_subadditivity_zero_sets_symmetry():
    rng = np.random.default_rng(11)
    for name, group in GROUPS.items():
        for flavor in ("generic", "symmetric"):
            w = corpus.random_weights(rng, group, flavor)
            g = group.with_weights(w)
            res = S.sharp(g)
            C, ps = res.C, res.psi_sharp
            assert np.all((2 * C) ** -2 * w <= ps + 1e-12)
            assert np.all(ps <= w + 1e-12)
            for beta in (res.alpha, res.alpha / 2):
                lhs = ps[g.table] ** beta
                rhs = ps[:, None] ** beta + ps[None, :] ** beta
                assert np.all(lhs <= rhs + 1e-12)
            assert np.array_equal(w == 0.0, ps <= 1e-12)
            if flavor == "symmetric":
                assert np.allclose(ps, ps[g.inverse], rtol=1e-12, atol=1e-12)


def test_conjugate_invariance_preserved():
    rng = np.random.default_rng(12)
    for name in ("S3", "D4"):
        group = GROUPS[name]
        w = corpus.random_weights(rng, group, "class")
        ps = S.sharp(group.with_weights(w)).psi_sharp
        for cl in group.conjugacy_classes():
            vals = ps[list(cl)]
            assert np.abs(vals - vals[0]).max() <= 1e-12


def test_chain_bound():
    # any word obeys psi(a_1 ... a_N) <= 4 C^2 (sum psi(a_i)^beta)^(1/beta)
    rng = np.random.default_rng(13)
    group = GROUPS["D4"]
    w = corpus.random_weights(rng, group)
    g = group.with_weights(w)
    C = S.quasi_constant(g)
    alpha = S.generic_alpha(C)
    for _ in range(200):
        word = rng.integers(0, group.order, size=rng.integers(1, 7))
        prod = int(word[0])
        for s in word[1:]:
            prod = int(g.table[prod, s])
        for beta in (alpha, alpha / 2):
            bound = 4 * C ** 2 * float(np.sum(w[word] ** beta)) ** (1.0 / beta)
            assert w[prod] <= bound + 1e-9


def test_fixed_exponent_mode():
    # subadditive base, k = 0: exponent 1 keeps the weight fixed
    w = np.array([0.0, 1.0, 2.0, 1.0])
    res0 = S.sharp_fixed_exponent(GROUPS["Z4"].with_weights(w), 0)
    assert res0.alpha == 1.0
    assert np.array_equal(res0.psi_sharp, w)
    # k = 1 toy weights: sandwich 4^-2 psi <= psi_sharp <= psi holds exactly
    w1 = np.array([0.0, 1.0, 3.5, 1.0])
    res1 = S.sharp_fixed_exponent(GROUPS["Z4"].with_weights(w1), 1)
    assert res1.alpha == 0.5
    assert np.all(res1.psi_sharp >= w1 / 16.0 - 1e-15)
    assert np.all(res1.psi_sharp <= w1 + 1e-15)
    # beta = 1/(k+1) power is subadditive on all pairs
    g = GROUPS["Z4"].with_weights(w1)
    ps = res1.psi_sharp
    lhs = ps[g.table] ** 0.5
    assert np.all(lhs <= ps[:, None] ** 0.5 + ps[None, :] ** 0.5 + 1e-12)


def test_fixed_exponent_rejects_bad_weights():
    w = np.array([0.0, 1.0, 10.0, 1.0])    # constant 5 > 2^1
    with pytest.raises(QuasiTriangleViolated):
        S.sharp_fixed_exponent(GROUPS["Z4"].with_weights(w), 1)


def test_exponent_agreement_at_dyadic_constant():
    # generic exponent at C = 2^k coincides with the fixed exponent 1/(k+1)
    for k in range(5):
        assert S.generic_alpha(2.0 ** k) == pytest.approx(1.0 / (k + 1), rel=1e-15)


def test_group_json_roundtrip_with_inf():
    g = GROUPS["Z4"].with_weights(np.array([0.0, np.inf, 1.0, np.inf]))
    back = S.WeightedGroup.from_json(g.to_json())
    assert np.array_equal(back.table, g.table)
    assert back.weights[1] == np.inf


def test_infinite_weights_must_be_absorbing():
    # psi(1*1) = psi(2) infinite while psi(1) is finite: no finite constant
    g = GROUPS["Z4"].with_weights(np.array([0.0, 1.0, np.inf, 1.0]))
    assert S.quasi_constant(g) == np.inf
    # absorbing inf set (the coset of the subgroup {0, 2}) is legal
    g2 = GROUPS["Z4"].with_weights(np.array([0.0, np.inf, 1.0, np.inf]))
    assert np.isfinite(S.quasi_constant(g2))
    res = S.sharp(g2)
    assert res.psi_sharp[1] == np.inf       # unreachable by finite words
    assert np.isfinite(res.psi_sharp[2])


def test_conjugacy_classes_s3():
    classes = GROUPS["S3"].conjugacy_classes()
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]


# --- the heap Dijkstra, orbit loop and inverse loop the array forms replaced ---

def heap_dijkstra(g, costs):
    n, T, e = g.order, g.table, g.identity
    dist = np.full(n, np.inf)
    dist[e] = 0.0
    pred = [None] * n
    heap = [(0.0, e)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for s in range(n):
            c = costs[s]
            if not np.isfinite(c):
                continue
            v = int(T[u, s])
            nd = d + c
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = (u, s)
                heapq.heappush(heap, (nd, v))
    return dist, pred


def heap_witness(pred, v, identity):
    word = []
    while v != identity or word == []:
        if pred[v] is None:
            return tuple()
        v, s = pred[v]
        word.append(s)
    return tuple(reversed(word))


def loop_classes(g):
    n, T, inv = g.order, g.table, g.inverse
    seen = np.zeros(n, dtype=bool)
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        orbit = sorted({int(T[T[b, a], inv[b]]) for b in range(n)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    return classes


def loop_inverse(table, e):
    return [int(np.where(table[i] == e)[0][0]) for i in range(len(table))]


ORACLE_GROUPS = {name: S.builtin_group(name)
                 for name in ("Z4", "Z5", "Z7", "S3", "S4", "D4", "Z64", "Z128", "Z256")}
ORACLE_GROUPS.update(S5=S.symmetric_group(5), D16=S.dihedral_group(16))


def cyclic_subgroup(g, a):
    sub, x = {g.identity}, a
    while x not in sub:
        sub.add(x)
        x = int(g.table[x, a])
    return sub


def oracle_weights(rng, g):
    """Generic, symmetric and class weights, integer copies (ties), +inf off a subgroup."""
    out = [corpus.random_weights(rng, g, flavor) for flavor in ("generic", "symmetric", "class")]
    out += [np.ceil(w) for w in out]
    # a proper cyclic subgroup (the trivial one when there is none)
    subgroups = (cyclic_subgroup(g, int(a)) for a in rng.permutation(g.order))
    sub = next((h for h in subgroups if 1 < len(h) < g.order), {g.identity})
    inside = np.isin(np.arange(g.order), sorted(sub))
    return out + [np.where(inside, w, np.inf) for w in out]


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_dense_dijkstra_equals_heap_dijkstra(name, monkeypatch):
    group = ORACLE_GROUPS[name]
    assert group.conjugacy_classes() == loop_classes(group)
    if name[0] != "Z":       # built from element lists, inverses found in the table
        assert group.inverse.tolist() == loop_inverse(group.table, group.identity)
    rng = np.random.default_rng(group.order)
    cases = oracle_weights(rng, group)
    dense = [S.sharp(group.with_weights(w)) for w in cases]
    monkeypatch.setattr(S, "_dijkstra", heap_dijkstra)
    monkeypatch.setattr(S, "_witness", heap_witness)
    for w, new in zip(cases, dense):
        old = S.sharp(group.with_weights(w))
        assert np.array_equal(new.psi_sharp, old.psi_sharp)
        assert new.witnesses == old.witnesses
