"""Uniform grids on boxes in R^{2n} and flat tori, and the spatial sizes
that every length functional measures its samples with: the oscillation
(max - min) and the L_p norm with the Euclidean volume form. Sizes take a
bare array of samples at the grid points, in ``Grid.points`` order.

Quadrature is the midpoint rule: box axes sample cell centers, torus axes
sample j*h (every point is a cell center under periodicity). Box grids
stand for "compactly supported inside this box"; ``leaks`` is the one rule
for whether samples vanish outside a set of grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterOutOfRange


@dataclass(frozen=True)
class Grid:
    dimension: int
    geometry: str                  # "box" | "torus"
    lower: tuple                   # per-axis lower bound (torus: zeros)
    upper: tuple                   # per-axis upper bound (torus: period)
    resolution: tuple

    def __post_init__(self):
        if self.geometry not in ("box", "torus"):
            raise GeometryError(f"unknown geometry {self.geometry!r}")
        if self.dimension % 2 != 0 or self.dimension <= 0:
            raise ValueError("dimension must be a positive even integer 2n")
        for field in ("lower", "upper", "resolution"):
            if len(getattr(self, field)) != self.dimension:
                raise ValueError(f"{field} must have one entry per axis")
        if not np.all(np.isfinite(self.lower + self.upper)):
            raise ValueError("bounds and periods must be finite numbers")
        if any(r < 2 for r in self.resolution):
            raise ValueError("resolution must be >= 2 per axis")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("upper must exceed lower on every axis")

    @staticmethod
    def box(lower, upper, resolution):
        """Box grid; ``resolution`` holds one sample count per axis."""
        lower, upper = tuple(map(float, lower)), tuple(map(float, upper))
        return Grid(len(lower), "box", lower, upper, tuple(map(int, resolution)))

    @staticmethod
    def torus(periods, resolution):
        """Flat-torus grid; ``resolution`` holds one sample count per axis."""
        periods = tuple(map(float, periods))
        return Grid(len(periods), "torus", (0.0,) * len(periods), periods,
                    tuple(map(int, resolution)))

    @property
    def spacings(self):
        return tuple((u - l) / r for l, u, r in
                     zip(self.lower, self.upper, self.resolution))

    @property
    def cell_volume(self):
        vol = 1.0
        for h in self.spacings:
            vol *= h
        return vol

    def axis_points(self, axis):
        l, h, r = self.lower[axis], self.spacings[axis], self.resolution[axis]
        if self.geometry == "box":
            return l + h * (np.arange(r) + 0.5)
        return l + h * np.arange(r)   # duplicate endpoint excluded

    def points(self):
        """(N, dimension) array of sample points, C-ordered over axes."""
        axes = [self.axis_points(i) for i in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def to_json(self):
        spec = {"dim": self.dimension, "geometry": self.geometry,
                "resolution": list(self.resolution)}
        if self.geometry == "box":
            spec["bounds"] = [list(self.lower), list(self.upper)]
        else:
            spec["periods"] = list(self.upper)
        return spec

    @staticmethod
    def from_json(spec):
        res = spec["resolution"]
        if isinstance(res, int):
            res = [res] * spec["dim"]
        if spec["geometry"] == "box":
            lo, hi = spec["bounds"]
            return Grid.box(lo, hi, tuple(res))
        if spec["geometry"] == "torus":
            return Grid.torus(spec["periods"], tuple(res))
        raise GeometryError(f"unknown geometry {spec['geometry']!r}")


def oscillation(values) -> float:
    """max - min of the samples; the L_infty size of a normalized field."""
    return float(values.max() - values.min())


def lp_norm(values, p: float, cell_volume: float) -> float:
    """(sum |v|^p * cell_volume)^(1/p); a quasinorm for 0 < p < 1."""
    if not 0 < p < math.inf:
        raise ParameterOutOfRange("p", "p must be a finite number > 0")
    return (float(np.sum(np.abs(values) ** p)) * cell_volume) ** (1.0 / p)


def leaks(values, outside) -> bool:
    """Whether the samples are not numerically zero on the mask ``outside``: they
    reach 1e-9 of their oscillation there. A field with zero oscillation never leaks."""
    osc = oscillation(values)
    return osc > 0 and bool(np.any(np.abs(values[outside]) >= 1e-9 * osc))
