"""Quasinorm-to-norm snowflake transform on finite groups.

Given a weight psi >= 0 on a finite group with psi(a*b) <= C(psi(a)+psi(b)),
set alpha = 1/(1 + log2 C). The transformed weight

    psi_sharp(a) = inf over factorizations a = a_1 * ... * a_N of
                   (sum psi(a_i)^alpha)^(1/alpha)

has a subadditive alpha-th power, stays within [(2C)^-2 psi, psi], keeps
psi's zero set, and inherits symmetry and conjugate invariance.

On a finite group the infimum is a shortest-path distance in the complete
Cayley graph whose step costs are psi(s)^alpha. ``sharp`` computes it with
Dijkstra in its dense array form, since the graph has |G|^2 edges and a heap
buys nothing: each round settles the open element of least cost, the lowest
index on ties, and relaxes its whole table row at once. ``brute_force_sharp``
re-derives it by exhaustive word enumeration (dynamic programming over word
length, which enumerates every word cost implicitly and exactly). An optimal
word never revisits a prefix product, so words of length |G| - 1 suffice on
a group of order |G|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, InputNotQuasiSubadditive, ParameterOutOfRange,
                     QuasiTriangleViolated)

ENUMERATION_BUDGET = 10 ** 7


@dataclass(frozen=True)
class WeightedGroup:
    order: int
    table: np.ndarray              # table[a, b] = index of a*b
    identity: int
    inverse: np.ndarray
    weights: np.ndarray            # psi >= 0, +inf allowed

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        inv = np.asarray(self.inverse, dtype=int)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "weights", w)
        n = self.order
        if table.shape != (n, n) or inv.shape != (n,) or w.shape != (n,):
            raise ValueError("table/inverse/weights sizes do not match the order")
        if not np.all(w >= 0):           # also refuses NaN; +inf stays legal
            raise ValueError("weights must be nonnegative numbers")
        if n <= 64:        # from_json checks larger tables; with_weights keeps its table
            self._validate_group()

    def _validate_group(self):
        n, e, T = self.order, self.identity, self.table
        if not 0 <= min(e, T.min(), self.inverse.min()) <= max(e, T.max(), self.inverse.max()) < n:
            raise ValueError("table, inverse and identity must hold element indices")
        if not (np.array_equal(T[e, :], np.arange(n)) and
                np.array_equal(T[:, e], np.arange(n))):
            raise ValueError("identity row/column malformed")
        if np.any(T[np.arange(n), self.inverse] != e) or \
                np.any(T[self.inverse, np.arange(n)] != e):
            raise ValueError("inverse table malformed")
        # associativity T[T[a,b], c] == T[a, T[b,c]], one a at a time: O(n^2) memory
        if any(not np.array_equal(T[T[a]], T[a][T]) for a in range(n)):
            raise ValueError("multiplication table is not associative")

    def with_weights(self, weights):
        return WeightedGroup(self.order, self.table, self.identity, self.inverse,
                             np.asarray(weights, dtype=float))

    def conjugacy_classes(self):
        T, inv = self.table, self.inverse
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for a in range(self.order):
            if not seen[a]:
                orbit = sorted(set(T[T[:, a], inv].tolist()))     # b a b^-1 over all b
                seen[orbit] = True
                classes.append(tuple(orbit))
        return classes

    def to_json(self):
        return {"order": self.order, "table": self.table.tolist(),
                "identity": self.identity, "inverse": self.inverse.tolist(),
                "weights": ["inf" if math.isinf(v) else v for v in self.weights]}

    @staticmethod
    def from_json(spec):
        """The group a JSON object describes; its table is checked at every order."""
        w = [float("inf") if v == "inf" else float(v) for v in spec["weights"]]
        g = WeightedGroup(int(spec["order"]), np.array(spec["table"]),
                          int(spec.get("identity", 0)), np.array(spec["inverse"]),
                          np.array(w))
        g._validate_group()
        return g


@dataclass(frozen=True)
class SharpResult:
    C: float
    alpha: float
    psi_sharp: np.ndarray
    witnesses: tuple               # per element, an optimal factorization word

    def __post_init__(self):
        if np.any(self.psi_sharp < 0):
            raise ValueError("transformed weights must be nonnegative")


def quasi_constant(g: WeightedGroup) -> float:
    """Smallest C >= 1 with psi(a*b) <= C(psi(a)+psi(b)); inf when none exists."""
    w = g.weights
    prod_w = w[g.table]
    sums = w[:, None] + w[None, :]
    finite = np.isfinite(prod_w) & (sums > 0) & np.isfinite(sums)
    C = 1.0
    if finite.any():
        C = max(C, float((prod_w[finite] / sums[finite]).max()))
    impossible = (prod_w > 0) & (sums == 0)
    impossible |= np.isinf(prod_w) & np.isfinite(sums)
    if impossible.any():
        return float("inf")
    return C


def generic_alpha(C: float) -> float:
    return 1.0 / (1.0 + math.log2(C))


def _dijkstra(g: WeightedGroup, costs):
    """Shortest word-cost from the identity under right multiplication.

    pred[:, v] is (previous element, last generator) on a cheapest word to v,
    -1 where there is none.
    """
    n, T = g.order, g.table
    dist = np.full(n, np.inf)
    dist[g.identity] = 0.0
    pred = np.full((2, n), -1)
    done = np.zeros(n, dtype=bool)
    while True:
        open_dist = np.where(done, np.inf, dist)
        u = int(np.argmin(open_dist))          # lowest index on ties
        if open_dist[u] == np.inf:
            return dist, pred
        done[u] = True
        cand = dist[u] + costs                 # row T[u] is a permutation
        s = np.flatnonzero(cand < dist[T[u]])
        v = T[u, s]
        dist[v], pred[0, v], pred[1, v] = cand[s], u, s


def _witness(pred, v, identity):
    word = []
    while v != identity or word == []:
        if pred[0, v] < 0:
            return tuple()        # unreachable or the identity itself
        v, s = pred[:, v].tolist()
        word.append(s)
    return tuple(reversed(word))


def sharp(g: WeightedGroup, alpha: float = None) -> SharpResult:
    """Snowflake transform computed exactly as a Cayley-graph shortest path.

    The identity needs words of length >= 1, so its value is the cheapest
    closed word: min over b of dist(b) + cost(b^{-1}).
    """
    C = quasi_constant(g)
    if not np.isfinite(C):
        raise InputNotQuasiSubadditive("no finite subadditivity constant exists")
    if alpha is None:
        alpha = generic_alpha(C)
    costs = np.where(np.isfinite(g.weights), g.weights ** alpha, np.inf)
    dist, pred = _dijkstra(g, costs)
    e = g.identity
    # close the loop for the identity element
    back = dist + costs[g.inverse]
    b_star = int(np.argmin(back))
    identity_cost = float(back[b_star])
    values = dist.copy()
    values[e] = identity_cost
    witnesses = []
    for a in range(g.order):
        if a == e:
            witnesses.append(_witness(pred, b_star, e) + (int(g.inverse[b_star]),))
        else:
            witnesses.append(_witness(pred, a, e))
    psi_sharp = np.where(np.isfinite(values), values ** (1.0 / alpha), np.inf)
    return SharpResult(C, alpha, psi_sharp, tuple(witnesses))


def brute_force_sharp(g: WeightedGroup, max_n: int, alpha: float = None) -> np.ndarray:
    """Exact infimum over words of length <= max_n, by enumeration.

    Dynamic programming over word length: best cost of reaching each element
    with exactly N factors, minimized over N. Enumerates the same sums as
    raw product iteration, without the exponential blowup; the budget guard
    keeps the promised work bound explicit.
    """
    if g.order ** max_n > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{g.order}^{max_n} words exceed the enumeration budget")
    if alpha is None:
        alpha = generic_alpha(quasi_constant(g))
    costs = np.where(np.isfinite(g.weights), g.weights ** alpha, np.inf)
    n = g.order
    best = np.full(n, np.inf)
    layer = np.full(n, np.inf)     # cheapest word of length exactly N
    layer[g.identity] = 0.0
    for _ in range(max_n):
        nxt = np.full(n, np.inf)
        for s in range(n):
            if not np.isfinite(costs[s]):
                continue
            targets = g.table[:, s]
            np.minimum.at(nxt, targets, layer + costs[s])
        layer = nxt
        best = np.minimum(best, layer)
    return np.where(np.isfinite(best), best ** (1.0 / alpha), np.inf)


def sharp_fixed_exponent(g: WeightedGroup, k: int) -> SharpResult:
    """Snowflake transform with exponent alpha = 1/(k+1).

    Valid for weights obeying the 2^k-relaxed triangle inequality; the
    resulting transform then satisfies 4^-(k+1) * psi <= psi_sharp <= psi.
    """
    if k < 0:
        raise ParameterOutOfRange("k", "k must be >= 0")
    C = quasi_constant(g)
    if not (np.isfinite(C) and C <= 2 ** k * (1 + 1e-12)):
        raise QuasiTriangleViolated(
            f"weight has subadditivity constant {C}, above the allowed 2^{k}")
    result = sharp(g, alpha=1.0 / (k + 1))
    lower = 4.0 ** (-(k + 1)) * g.weights
    if np.any(result.psi_sharp < lower - 1e-12) or \
            np.any(result.psi_sharp > g.weights + 1e-12):
        raise QuasiTriangleViolated("sandwich bound failed; input weight inconsistent")
    return result


# --- built-in groups ---

def _table_from_elements(elements, compose):
    index = {el: i for i, el in enumerate(elements)}
    n = len(elements)
    table = np.zeros((n, n), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[compose(a, b)]
    e = index[elements[0]]
    return table, np.argmax(table == e, axis=1), e


def cyclic_group(n):
    if n < 1:
        raise ValueError(f"a cyclic group needs order n >= 1, got {n}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    inv = (-np.arange(n)) % n
    return WeightedGroup(n, table, 0, inv, np.zeros(n))


def symmetric_group(n):
    elements = sorted(itertools.permutations(range(n)))
    elements.remove(tuple(range(n)))
    elements.insert(0, tuple(range(n)))
    compose = lambda a, b: tuple(a[b[i]] for i in range(n))
    table, inv, e = _table_from_elements(elements, compose)
    return WeightedGroup(len(elements), table, e, inv, np.zeros(len(elements)))


def dihedral_group(n):
    """Symmetries of the regular n-gon, order 2n, as pairs (rotation, flip)."""
    elements = [(r, f) for f in (0, 1) for r in range(n)]

    def compose(a, b):
        r1, f1 = a
        r2, f2 = b
        # (r1,f1)*(r2,f2): apply b first, then a
        r = (r1 + (r2 if f1 == 0 else -r2)) % n
        return (r, (f1 + f2) % 2)

    table, inv, e = _table_from_elements(elements, compose)
    return WeightedGroup(len(elements), table, e, inv, np.zeros(len(elements)))


def builtin_group(name):
    name = name.strip()
    if name.upper().startswith("Z") and name[1:].isdigit():
        return cyclic_group(int(name[1:]))
    if name.upper() == "S3":
        return symmetric_group(3)
    if name.upper() == "S4":
        return symmetric_group(4)
    if name.upper() == "D4":
        return dihedral_group(4)
    raise ValueError(f"unknown built-in group {name!r}")
