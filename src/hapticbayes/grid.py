"""Voxel grid geometry: bounds, indexing and voxel centers.

The workspace is a box partitioned into cubic voxels of side ``epsilon``.
All spatial quantities are in meters.  Voxels are addressed by integer
indices ``(ix, iy, iz)``; the linear index is ``ix + nx * (iy + ny * iz)``
and is fixed so that map dumps are bit-stable.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

#: Relative tolerance used when checking that each extent divides by epsilon.
DIVISIBILITY_TOL = 1e-9

#: Largest voxel count a grid may have.  A trial holds a ``(theta, n)``
#: float64 posterior matrix, 800 MB at this count with the bundled
#: 10-material library, plus a few float arrays of ``theta`` entries.  The
#: grid keeps its inhibition table: one float64 array over the signed
#: voxel offsets, under ``4 * theta`` entries on a plane and under
#: ``8 * theta`` in a volume, so up to 320 MB or 640 MB at this count.
MAX_VOXELS = 10_000_000


class GridConfigError(ValueError):
    """Raised when workspace bounds cannot form a valid voxel grid."""


def _check_real(name: str, value, least=None, error: type = ValueError):
    """``value``, unchanged; raises ``error``, a ``ValueError``, naming
    ``name`` unless it is a real number (``bool`` is not) whose float is
    finite (an integer too large for a float is not) and, if ``least`` is
    given, >= ``least``.  Every real parameter is checked here."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value) and (least is None or value >= least)):
            return value
    except OverflowError:
        pass
    bound = "" if least is None else f" and >= {least}"
    raise error(f"{name} must be finite{bound}, got {value!r}")


def _floats(name: str, values) -> np.ndarray:
    """``values`` as a float array, so a float array comes back uncopied.
    Numbers of an integer or float dtype are converted as numpy converts
    them, and an object array's entries must each be a real number, as
    :func:`_check_real` decides its type.  Anything else, a string, a
    ``bool`` or ``None`` among them, or an integer too large for a float,
    raises ``ValueError`` naming ``name``.  The check reads the dtype
    alone, with no pass over a numeric array.  Every float conversion of a
    caller's values is made here."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind == "O" and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                           for v in array.flat):
        try:
            return array.astype(float)
        except OverflowError:
            raise ValueError(f"{name} holds an integer too large for a "
                             f"float") from None
    if kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got {values!r}")
    return array.astype(float, copy=False)


def _as_index(value, what: str = "index", stop: Optional[int] = None) -> int:
    """``value`` as a Python int, so that index arithmetic cannot wrap;
    raises ``ValueError`` naming ``value`` after ``what`` unless it is an
    integer (numpy integers are, ``bool`` is not) and, if ``stop`` is
    given, lies in ``[0, stop)``.  Every index an entry point takes, and
    every count, is checked here."""
    try:
        if not isinstance(value, bool):
            index = operator.index(value)
            if stop is None or 0 <= index < stop:
                return index
            raise ValueError(f"{what} {index} outside [0, {stop})")
    except TypeError:
        pass
    raise ValueError(f"{what} {value!r} is not an integer")


def _check_integer(name: str, value, least: int) -> int:
    """``value`` as a Python int; raises ``ValueError`` naming ``name``
    unless it is an integer (as :func:`_as_index` decides) >= ``least``."""
    try:
        index = _as_index(value)
        if index >= least:
            return index
    except ValueError:
        pass
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_type(name: str, value, kind: type) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got "
                         f"{value!r}")


class VoxelIndex(NamedTuple):
    ix: int
    iy: int
    iz: int


@dataclass(frozen=True)
class WorkspaceBounds:
    """Axis-aligned workspace box and voxel side length, in meters.

    A value that is not a finite real number (``bool`` is not one), a
    non-positive epsilon or an empty extent raises
    :class:`GridConfigError` naming it.  Each value is stored as a
    ``float``, so that bound arithmetic cannot wrap in a narrow integer
    type.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    z_lo: float
    z_hi: float
    epsilon: float

    def __post_init__(self):
        for f in fields(self):
            value = _check_real(f.name, getattr(self, f.name),
                                error=GridConfigError)
            object.__setattr__(self, f.name, float(value))
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

    The voxel counts come from the bounds: each extent over epsilon.

    Attributes
    ----------
    bounds : WorkspaceBounds
    nx, ny, nz : int
        Voxel counts per axis.
    theta : int
        Total voxel count, ``nx * ny * nz``.

    Raises
    ------
    GridConfigError
        If ``bounds`` is not a :class:`WorkspaceBounds`, any extent is not
        an integer multiple of epsilon, or its voxel count overflows (the
        error message names the offending axis), or the grid has more than
        ``MAX_VOXELS`` voxels.
    """

    bounds: WorkspaceBounds
    nx: int = field(init=False)
    ny: int = field(init=False)
    nz: int = field(init=False)
    theta: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.bounds, WorkspaceBounds):
            raise GridConfigError(f"bounds must be a WorkspaceBounds, got "
                                  f"{self.bounds!r}")
        counts = {}
        for axis in ("x", "y", "z"):
            extent, eps = self.bounds.extent(axis), self.bounds.epsilon
            ratio = extent / eps
            if not math.isfinite(ratio):
                raise GridConfigError(f"{axis} extent {extent!r} over "
                                      f"epsilon {eps!r} overflows")
            n = round(ratio)
            if n < 1 or abs(ratio - n) > DIVISIBILITY_TOL * max(1.0, abs(ratio)):
                raise GridConfigError(f"{axis} extent {extent!r} is not a "
                                      f"multiple of epsilon {eps!r}")
            counts["n" + axis] = n
        counts["theta"] = counts["nx"] * counts["ny"] * counts["nz"]
        if counts["theta"] > MAX_VOXELS:
            raise GridConfigError(f"grid has {counts['theta']} voxels, more "
                                  f"than the {MAX_VOXELS} allowed")
        for name, n in counts.items():
            object.__setattr__(self, name, n)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def contains(self, v: VoxelIndex) -> bool:
        """Whether :meth:`require` accepts ``v``; never raises, since
        :meth:`require` rejects every other value with ``ValueError``."""
        try:
            self.require(v)
        except ValueError:
            return False
        return True

    def require(self, v: VoxelIndex) -> tuple[int, int, int]:
        """The indices ``(ix, iy, iz)`` of voxel ``v`` as Python ints, so
        that index arithmetic cannot wrap: the package's one voxel check.
        Anything but three integer indices of a voxel inside the grid
        raises ``ValueError`` naming it."""
        try:
            # unpacks before it rebinds v, so a failure names v as given
            ix, iy, iz = v = tuple(v)
        except (TypeError, ValueError):
            raise ValueError(f"voxel {v!r} is not three indices "
                             f"(ix, iy, iz)") from None
        try:
            ix, iy, iz = map(_as_index, v)
        except ValueError as exc:
            raise ValueError(f"voxel {v}: {exc}") from None
        if not (0 <= ix < self.nx and 0 <= iy < self.ny and 0 <= iz < self.nz):
            raise ValueError(f"voxel {(ix, iy, iz)} outside grid {self.shape}")
        return ix, iy, iz

    def linear_index(self, v: VoxelIndex) -> int:
        """The linear index of voxel ``v``, a Python int; raises as
        :meth:`require` does."""
        ix, iy, iz = self.require(v)
        return ix + self.nx * (iy + self.ny * iz)

    def voxel_of_linear(self, j: int) -> VoxelIndex:
        """The voxel of linear index ``j``, with Python int indices; a
        ``j`` outside ``[0, theta)`` raises ``ValueError`` naming it."""
        j = _as_index(j, "linear index", self.theta)
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
    """Build the voxel grid for the given bounds; raises
    :class:`GridConfigError` as :class:`WorkspaceGrid` does."""
    return WorkspaceGrid(bounds)
