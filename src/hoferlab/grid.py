"""Uniform grids on boxes in R^{2n} and flat tori, and the spatial sizes
that every length functional measures its samples with: the oscillation
(max - min) and the L_p norm with the Euclidean volume form. Sizes take a
bare array of samples at the grid points, in ``Grid.points`` order.

Quadrature is the midpoint rule: box axes sample cell centers, torus axes
sample j*h (every point is a cell center under periodicity). Box grids
stand for "compactly supported inside this box"; fields are expected to
vanish near the boundary and a support-margin warning is emitted when they
do not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterOutOfRange, SupportMarginWarning


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
    if not p > 0:
        raise ParameterOutOfRange("p", "p must be > 0")
    return (float(np.sum(np.abs(values) ** p)) * cell_volume) ** (1.0 / p)


def boundary_mask(grid: Grid) -> np.ndarray:
    """Flat boolean mask of the outermost cell layer of a box grid."""
    shape = grid.resolution
    mask = np.zeros(shape, dtype=bool)
    for axis in range(grid.dimension):
        idx_lo = [slice(None)] * grid.dimension
        idx_lo[axis] = 0
        idx_hi = [slice(None)] * grid.dimension
        idx_hi[axis] = shape[axis] - 1
        mask[tuple(idx_lo)] = True
        mask[tuple(idx_hi)] = True
    return mask.ravel()


def check_support_margin(values, grid: Grid) -> bool:
    """Warn (never fail) when samples on a box grid are not numerically
    supported inside: their boundary layer reaches 1e-9 of their oscillation."""
    if grid.geometry != "box":
        return True
    osc = oscillation(values)
    if osc == 0.0:
        return True
    edge = np.abs(values[boundary_mask(grid)]).max()
    if edge >= 1e-9 * osc:
        warnings.warn(
            f"field reaches {edge:.3e} on the boundary layer "
            f"(oscillation {osc:.3e}); box may truncate its support",
            SupportMarginWarning, stacklevel=2)
        return False
    return True
