"""Commutator paths built from the splice-reverse-conjugate calculus.

For a path f ending at the map A and a conjugator theta (the time-1 map of
the second path, assumed affine symplectic on the support of f), the spliced
path

    conjugate(reverse(f), theta)  then  f

ends at A * theta * A^{-1} * theta^{-1}: the group commutator. Splicing
multiplies the per-order length terms by 2^i, and conjugation/reversal
preserve them, so the construction's length is bounded by 2^{k+1} times the
length of f, matching the commutator bound the constants ledger tabulates.

When the second map is not affine, the commutator is still certified at
tracer level by integrating the four stages in sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import flow as fl
from .. import lengths as ln
from ..errors import ConjugationUnsupported
from ..hampath import AffineSymplectic, HamiltonianPath, concatenate, conjugate, reverse

STAGE_STEPS = 256     # RK4 steps per piece of each commutator_tracer_flow stage


def commutator_path(f: HamiltonianPath, theta: AffineSymplectic) -> HamiltonianPath:
    """Path for the commutator of f's endpoint with the affine map theta."""
    if not isinstance(theta, AffineSymplectic):
        raise ConjugationUnsupported("conjugator must be an affine symplectic map")
    return concatenate(conjugate(reverse(f), theta), f)


@dataclass(frozen=True)
class CommutatorBoundReport:
    k: int
    length_f: float
    length_commutator: float
    bound: float               # 2^{k+1} * length_f

    def ok(self):
        return self.length_commutator <= self.bound * (1.0 + 1e-9) + 1e-9


def commutator_bound_report(f: HamiltonianPath, theta: AffineSymplectic,
                            k: int) -> CommutatorBoundReport:
    comm = commutator_path(f, theta)
    lf = ln.length_k(f, k).total
    lc = ln.length_k(comm, k).total
    return CommutatorBoundReport(k, lf, lc, 2.0 ** (k + 1) * lf)


def commutator_tracer_flow(f: HamiltonianPath, g: HamiltonianPath,
                           cloud: fl.TracerCloud) -> fl.FlowMap:
    """Tracer images under the commutator of the two time-1 maps.

    Integrates the stages in composition order: reverse(g), reverse(f),
    then g, then f, with ``STAGE_STEPS`` steps per piece, so the final
    positions realize f g f^{-1} g^{-1} applied to the initial points. The
    stats have the keys of ``flow.integrate``'s: ``steps_per_piece`` and
    ``max_step_error`` are the largest of the four stages', and the other
    counts are their sums.
    """
    pts, stages = cloud, []
    for stage in (reverse(g), reverse(f), g, f):
        fm = fl.integrate(stage, pts, STAGE_STEPS)
        pts = fm.final
        stages.append(fm.stats)
    stats = {key: (max if key in ("steps_per_piece", "max_step_error") else sum)(
        s[key] for s in stages) for key in stages[0]}
    return fl.FlowMap(cloud, pts, "commutator", stats)
