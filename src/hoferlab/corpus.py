"""Seeded random corpora: piecewise Hamiltonian paths, torus symplectic
paths, reparametrization maps, and weighted groups.

All generators take a numpy Generator so identical seeds reproduce the
same objects byte for byte. Spatial factors are plateau-cutoff bumps
compactly supported inside the domain box, which keeps oscillation
sampling honest and support warnings silent.

Two path flavors are produced. "rich" paths combine several bump terms
with sign-varying time profiles; the algebraic identities (reversal,
splicing, monotonicity) hold for them at quadrature precision. "smooth"
paths use a single strictly positive time profile so the integrand of the
order-0 term is smooth in t; the tight reparametrization-invariance check
runs on those, since verifying an equality of integrals to 1e-8 needs an
integrand the quadrature can actually resolve at that level.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .grid import Grid
from .hampath import HamiltonianPath, Piece, TorusPiece, TorusSymplecticPath

BOX_HALF = 2.0
DEFAULT_GRID = Grid.box([-BOX_HALF, -BOX_HALF], [BOX_HALF, BOX_HALF], (20, 20))
MAX_CENTER = 1.0          # bump centres lie in [-MAX_CENTER, MAX_CENTER] per coordinate


def bump(rng) -> ex.Expression:
    """Smooth compactly supported bump in DEFAULT_GRID's plane; random center/width/sign."""
    amp = rng.uniform(0.4, 2.5) * rng.choice([-1.0, 1.0])
    out = ex.const(amp)
    for name in ex.coordinates(DEFAULT_GRID.dimension):
        c = rng.uniform(-MAX_CENTER, MAX_CENTER)
        w = rng.uniform(0.4, 0.9)
        arg = ex.div(ex.sub(ex.Var(name), ex.const(c)), ex.const(w))
        out = ex.mul(out, ex.step(arg, 0.5, 1.0))
    return out


def positive_profile(rng) -> ex.Expression:
    """Strictly positive smooth function of t."""
    c0 = rng.uniform(0.3, 1.0)
    c1 = rng.uniform(-1.0, 1.0)
    c2 = rng.uniform(-1.0, 1.0)
    t = ex.Var("t")
    q = ex.add(ex.const(c1), ex.mul(ex.const(c2), t))
    return ex.add(ex.const(c0), ex.intpow(q, 2))


def generic_profile(rng) -> ex.Expression:
    """Sign-varying smooth function of t (polynomial plus one oscillation)."""
    t = ex.Var("t")
    out = ex.const(rng.uniform(-1.0, 1.0))
    out = ex.add(out, ex.mul(ex.const(rng.uniform(-2.0, 2.0)), t))
    out = ex.add(out, ex.mul(ex.const(rng.uniform(-2.0, 2.0)), ex.intpow(t, 2)))
    freq = rng.uniform(1.0, 2.0) * np.pi
    out = ex.add(out, ex.mul(ex.const(rng.uniform(-1.5, 1.5)),
                             ex.call("sin", ex.mul(ex.const(freq), t))))
    return out


def _breakpoints(rng, n_pieces):
    if n_pieces == 1:
        return [0.0, 1.0]
    cuts = np.sort(rng.uniform(0.2, 0.8, n_pieces - 1))
    return [0.0] + [float(c) for c in cuts] + [1.0]


def random_path(rng, smooth=False) -> HamiltonianPath:
    """Random piecewise path on DEFAULT_GRID; ``smooth`` selects the positive-profile flavor."""
    n_pieces = int(rng.integers(1, 4))
    bps = _breakpoints(rng, n_pieces)
    pieces = []
    for a, b in zip(bps, bps[1:]):
        if smooth:
            spatial = bump(rng)
            second = bump(rng)
            h = ex.mul(positive_profile(rng), ex.add(spatial, second))
        else:
            h = ex.mul(generic_profile(rng), bump(rng))
            if rng.random() < 0.5:
                h = ex.add(h, ex.mul(generic_profile(rng), bump(rng)))
        pieces.append(Piece(a, b, h))
    return HamiltonianPath(tuple(pieces), DEFAULT_GRID.dimension, DEFAULT_GRID)


def random_time_change(rng) -> ex.Expression:
    """Smooth monotone s with s(0)=0, s(1)=1 (derivative stays positive)."""
    beta = rng.uniform(-0.13, 0.13)
    t = ex.Var("t")
    return ex.add(t, ex.mul(ex.const(beta),
                            ex.call("sin", ex.mul(ex.const(2.0 * np.pi), t))))


TORUS_GRID = Grid.torus([1.0, 1.0], (24, 24))


def random_torus_path(rng, smooth=False) -> TorusSymplecticPath:
    """Random single-piece torus path on TORUS_GRID.

    With ``smooth`` the coefficient functions keep a single sign and the
    potential is one positive profile times a fixed spatial wave, so the
    order-0 integrand (coefficient l1 size plus oscillation) is smooth in t;
    the generic flavor lets both cross zero.
    """
    dim = TORUS_GRID.dimension
    t = ex.Var("t")
    harmonic = []
    for _ in range(dim):
        if smooth:
            sign = float(rng.choice([-1.0, 1.0]))
            lam = ex.mul(ex.const(sign), positive_profile(rng))
        else:
            a = rng.uniform(-1.0, 1.0)
            b = rng.uniform(-1.0, 1.0)
            freq = float(rng.integers(1, 3)) * 2.0 * np.pi
            lam = ex.add(ex.const(a),
                         ex.mul(ex.const(b), ex.call("sin", ex.mul(ex.const(freq), t))))
        harmonic.append(lam)
    waves = []
    for j, name in enumerate(ex.coordinates(dim)):
        freq = float(rng.integers(1, 3)) * 2.0 * np.pi / TORUS_GRID.upper[j]
        waves.append(ex.call("sin" if rng.random() < 0.5 else "cos",
                             ex.mul(ex.const(freq), ex.Var(name))))
    if smooth:
        u = ex.mul(positive_profile(rng), ex.add(waves[0], waves[-1]))
    else:
        u = ex.const(0.0)
        for w in waves:
            u = ex.add(u, ex.mul(generic_profile(rng), w))
    piece = TorusPiece(0.0, 1.0, tuple(harmonic), u)
    return TorusSymplecticPath((piece,), dim, TORUS_GRID)


def random_weights(rng, group, flavor="generic"):
    """Weight vector for a group: generic, norm-like, or a class function."""
    n = group.order
    w = rng.uniform(0.05, 4.0, n)
    if flavor == "generic":
        w[group.identity] = 0.0
        return w
    if flavor == "symmetric":
        w[group.identity] = 0.0
        for a in range(n):
            w[group.inverse[a]] = w[a]
        return w
    if flavor == "class":
        out = np.zeros(n)
        for cl in group.conjugacy_classes():
            val = 0.0 if group.identity in cl else float(rng.uniform(0.05, 4.0))
            for a in cl:
                out[a] = val
        return out
    raise ValueError(f"unknown flavor {flavor!r}")
