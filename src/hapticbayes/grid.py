"""Voxel grid geometry: bounds, indexing and voxel centers.

The workspace is a box partitioned into cubic voxels of side ``epsilon``.
All spatial quantities are in meters.  Voxels are addressed by integer
indices ``(ix, iy, iz)``; the linear index is ``ix + nx * (iy + ny * iz)``
and is fixed so that map dumps are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

#: Relative tolerance used when checking that each extent divides by epsilon.
DIVISIBILITY_TOL = 1e-9

#: Largest voxel count a grid may have.  A trial holds a ``(theta, n)``
#: float64 posterior matrix, 800 MB at this count with the bundled
#: 10-material library, plus a few float arrays of ``theta`` entries.  The
#: grid keeps its inhibition table: two float64 arrays over the signed
#: voxel offsets, each under ``4 * theta`` entries on a plane and under
#: ``8 * theta`` in a volume, so up to 640 MB or 1.28 GB at this count.
MAX_VOXELS = 10_000_000


class GridConfigError(ValueError):
    """Raised when workspace bounds cannot form a valid voxel grid."""


class VoxelIndex(NamedTuple):
    ix: int
    iy: int
    iz: int


@dataclass(frozen=True)
class WorkspaceBounds:
    """Axis-aligned workspace box and voxel side length, in meters."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    z_lo: float
    z_hi: float
    epsilon: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise GridConfigError(f"{f.name} must be finite, got {value!r}")
        if self.epsilon <= 0:
            raise GridConfigError(f"epsilon must be positive, got {self.epsilon}")
        for axis, lo, hi in (("x", self.x_lo, self.x_hi),
                             ("y", self.y_lo, self.y_hi),
                             ("z", self.z_lo, self.z_hi)):
            if not lo < hi:
                raise GridConfigError(f"{axis} extent is empty: [{lo}, {hi}]")

    def extent(self, axis: str) -> float:
        lo, hi = {"x": (self.x_lo, self.x_hi),
                  "y": (self.y_lo, self.y_hi),
                  "z": (self.z_lo, self.z_hi)}[axis]
        return hi - lo


@dataclass(frozen=True)
class WorkspaceGrid:
    """Isometric voxel partition of a workspace box.

    Attributes
    ----------
    bounds : WorkspaceBounds
    nx, ny, nz : int
        Voxel counts per axis.
    theta : int
        Total voxel count, ``nx * ny * nz``.
    """

    bounds: WorkspaceBounds
    nx: int
    ny: int
    nz: int
    theta: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", self.nx * self.ny * self.nz)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def contains(self, v: VoxelIndex) -> bool:
        return 0 <= v.ix < self.nx and 0 <= v.iy < self.ny and 0 <= v.iz < self.nz

    def require(self, v: VoxelIndex) -> None:
        if not self.contains(v):
            raise ValueError(f"voxel {tuple(v)} outside grid {self.shape}")

    def linear_index(self, v: VoxelIndex) -> int:
        self.require(v)
        return v.ix + self.nx * (v.iy + self.ny * v.iz)

    def voxel_of_linear(self, j: int) -> VoxelIndex:
        if not 0 <= j < self.theta:
            raise ValueError(f"linear index {j} outside [0, {self.theta})")
        return VoxelIndex(j % self.nx, (j // self.nx) % self.ny, j // (self.nx * self.ny))

    def center_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Center coordinates of every voxel in linear-index order."""
        j = np.arange(self.theta)
        eps = self.bounds.epsilon
        cx = self.bounds.x_lo + (j % self.nx + 0.5) * eps
        cy = self.bounds.y_lo + ((j // self.nx) % self.ny + 0.5) * eps
        cz = self.bounds.z_lo + (j // (self.nx * self.ny) + 0.5) * eps
        return cx, cy, cz


def make_grid(bounds: WorkspaceBounds) -> WorkspaceGrid:
    """Build the voxel grid for the given bounds.

    Raises
    ------
    GridConfigError
        If any extent is not an integer multiple of epsilon, or its voxel
        count overflows (the error message names the offending axis), or
        the grid has more than ``MAX_VOXELS`` voxels.
    """
    counts = {}
    for axis in ("x", "y", "z"):
        ratio = bounds.extent(axis) / bounds.epsilon
        if not math.isfinite(ratio):
            raise GridConfigError(f"{axis} extent {bounds.extent(axis)!r} over "
                                  f"epsilon {bounds.epsilon!r} overflows")
        n = round(ratio)
        if n < 1 or abs(ratio - n) > DIVISIBILITY_TOL * max(1.0, abs(ratio)):
            raise GridConfigError(
                f"{axis} extent {bounds.extent(axis)!r} is not a multiple of "
                f"epsilon {bounds.epsilon!r}"
            )
        counts[axis] = n
    theta = counts["x"] * counts["y"] * counts["z"]
    if theta > MAX_VOXELS:
        raise GridConfigError(f"grid has {theta} voxels, more than the "
                              f"{MAX_VOXELS} allowed")
    return WorkspaceGrid(bounds, counts["x"], counts["y"], counts["z"])
