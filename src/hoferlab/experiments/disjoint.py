"""Coarse-length bound for products of disjointly supported paths.

When paths H_1, ..., H_m have pairwise disjoint supports, their sum
generates the composition of the individual flows, and at every time the
oscillation of the sum is at most max_j sup H_j - min_j inf H_j, hence at
most twice the largest individual oscillation. Summing over derivative
orders 0..k gives

    coarse_length_k(sum) <= 2 (k+1) max_j coarse_length_k(H_j),

which this module measures, together with the per-order structure of the
max/min over the family that drives the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import lengths as ln
from ..hampath import disjoint_product


@dataclass(frozen=True)
class DisjointBoundReport:
    k: int
    product_per_order: tuple
    member_totals: tuple
    product_total: float
    bound: float                  # 2(k+1) * max member total
    ratio: float

    def ok(self):
        return self.product_total <= self.bound * (1.0 + 1e-9) + 1e-9


def disjoint_bound_check(paths, boxes, k: int, time_samples: int = 65) -> DisjointBoundReport:
    """Validate supports on the coarse lengths' own time lattice, form the
    product path, and measure the bound, each on the paths' common domain."""
    product = disjoint_product(paths, boxes, time_samples)
    prod_rep = ln.coarse_length_k(product, k, time_samples=time_samples)
    member_totals = tuple(
        ln.coarse_length_k(f, k, time_samples=time_samples).total for f in paths)
    bound = 2.0 * (k + 1) * max(member_totals)
    ratio = prod_rep.total / bound if bound > 0 else 0.0
    return DisjointBoundReport(k, prod_rep.per_order, member_totals,
                               prod_rep.total, bound, ratio)
