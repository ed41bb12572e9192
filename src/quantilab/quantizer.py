"""Sorted 1-D codebooks: Voronoi cells, distortion, scaling maps, serialisation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DEFAULT_QUAD,
    DistributionSpec,
    QuadratureOpts,
    _abs_moments,
    _require_interval,
    _require_positive,
)

__all__ = [
    "Grid",
    "DilationParams",
    "voronoi_bounds",
    "nearest",
    "distortion",
    "dilate",
    "count_in_interval",
]

_DEDUP_TOL = 1e-12  # merge tolerance at construction, relative to max |point|


@dataclass(frozen=True, eq=False)
class Grid:
    """An immutable codebook of strictly increasing points.

    Construction canonicalises the input: sorts it, merges points closer
    than 1e-12 max(|first|, |last|) and freezes the backing array.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.sort(np.asarray(self.points, dtype=float).ravel())
        if pts.size == 0:
            raise ValueError("a grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if pts.size > 1:
            tol = _DEDUP_TOL * max(abs(pts[0]), abs(pts[-1]))
            keep = np.concatenate(([True], np.diff(pts) > tol))
            pts = pts[keep]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.size)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        head = ", ".join(repr(p) for p in self.points[:4])
        tail = ", ..." if self.n > 4 else ""
        return f"Grid([{head}{tail}], n={self.n})"

    # -- serialisation: shortest round-trip decimal text -------------------

    def to_text(self) -> str:
        """One point per line; repr round-trips float64 exactly."""
        return "\n".join(repr(float(p)) for p in self.points) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Grid":
        return cls(np.asarray([float(tok) for tok in text.split()]))

    def to_json(self) -> str:
        return json.dumps([float(p) for p in self.points])

    @classmethod
    def from_json(cls, text: str) -> "Grid":
        return cls(np.asarray(json.loads(text), dtype=float))


@dataclass(frozen=True)
class DilationParams:
    """Scaling number theta > 0 and translating number mu for a grid map."""

    theta: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(theta=self.theta)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")


def voronoi_bounds(grid: Grid | np.ndarray) -> np.ndarray:
    """Cell boundaries [-inf, midpoints..., +inf]; length n + 1.

    Takes a Grid or a sorted array of points.
    """
    pts = grid.points if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    mids = 0.5 * (pts[:-1] + pts[1:])
    return np.concatenate(([-math.inf], mids, [math.inf]))


def nearest(grid: Grid, x: float) -> int:
    """Index of the closest grid point; exact midpoint ties go low."""
    if math.isnan(x):
        raise ValueError(f"x must not be NaN, got {x!r}")
    mids = 0.5 * (grid.points[:-1] + grid.points[1:])
    return int(np.searchsorted(mids, x, side="left"))


def dilate(grid: Grid, params: DilationParams) -> Grid:
    """Pointwise map mu + theta * (a - mu); order preserved since theta > 0."""
    if params.theta == 1.0:
        return grid  # identity regardless of mu; keep it exact in floats
    return Grid(params.mu + params.theta * (grid.points - params.mu))


def count_in_interval(grid: Grid, lo: float, hi: float) -> int:
    """Number of grid points in the closed interval [lo, hi]."""
    _require_interval(lo, hi)
    pts = grid.points
    i = np.searchsorted(pts, lo, side="left")
    j = np.searchsorted(pts, hi, side="right")
    return int(j - i)


def distortion(
    grid: Grid,
    spec: DistributionSpec,
    r: float,
    opts: QuadratureOpts = DEFAULT_QUAD,
) -> float:
    """The r-th power quantization error of the grid.

    Integrates |x - a_i|**r f(x) over all Voronoi cells in one batch;
    callers wanting the error in norm units take the 1/r root themselves.
    """
    _require_positive(r=r)
    bounds = voronoi_bounds(grid)
    return float(np.sum(_abs_moments(spec, grid.points, bounds[:-1], bounds[1:], r, opts)))
