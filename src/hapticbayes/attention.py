"""Next-target selection: inhibition, uncertainty, similarity and saliency
fields combined through Beta evidence factors into a posterior over voxels.

All fields are flat float arrays of length ``grid.theta`` in linear-index
order, with every value in [0, 1].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import (VoxelIndex, WorkspaceGrid, _as_index, _check_integer,
                   _check_type, _floats)
from .perception import PosteriorGrid, _normalized_entropies

#: Shape constants of the inhibition-of-return kernel.
INHIB_ALPHA = 1.01
INHIB_BETA = 9.0

#: Boundary clamp for Beta density evaluation.
BETA_CLAMP = 1e-6

#: Largest magnitude a Sobel response can reach on a [0, 1] field: the
#: one-sided kernel weight sum 1 * (1 + 2 + 1) * (1 + 2 + 1).
SOBEL_NORM = 16.0

#: Neutral similarity value used for unexplored voxels and outside the grid.
OMEGA_NEUTRAL = 0.5


class BetaFactor(NamedTuple):
    """Shape parameters of a Beta evidence density."""

    alpha: float
    beta: float


#: Evidence factor on inhibition values: prefers weakly inhibited voxels.
INHIBITION_FACTOR = BetaFactor(1.0, 2.5)
#: Evidence factor on uncertainty values: prefers poorly known voxels.
UNCERTAINTY_FACTOR = BetaFactor(4.0, 1.0)
#: Evidence factor on saliency values: prefers salient voxels.
SALIENCY_FACTOR = BetaFactor(3.0, 1.0)
#: The three evidence factors of the target posterior, in that order.
FACTORS = (INHIBITION_FACTOR, UNCERTAINTY_FACTOR, SALIENCY_FACTOR)


@dataclass(frozen=True)
class TaskSpec:
    """A discontinuity-following task between two material classes.

    Each material is an index into the library, stored as a Python int;
    two equal materials raise ``ValueError``."""

    material_a: int
    material_b: int

    def __post_init__(self):
        for name in ("material_a", "material_b"):
            object.__setattr__(self, name,
                               _check_integer(name, getattr(self, name), 0))
        if self.material_a == self.material_b:
            raise ValueError("task materials must differ")


@dataclass
class AttentionState:
    """Per-voxel scalar fields plus the target posterior for one iteration.

    A state is built from the ``grid``, the ``probe`` voxel, the target
    ``score`` the iteration selected on (positive and finite, and never
    mutated afterwards), and the ``uncertainty``, ``omega`` and
    ``saliency`` fields.  ``inhibition`` is ``inhibition_field(grid,
    probe)`` and ``target_posterior`` is ``score / score.sum()``; each is
    computed on its first read and then kept, so a state that is never
    read costs neither, and an assigned value replaces it.
    """

    grid: WorkspaceGrid
    probe: VoxelIndex
    score: np.ndarray
    uncertainty: np.ndarray
    omega: np.ndarray
    saliency: np.ndarray

    @cached_property
    def inhibition(self) -> np.ndarray:
        return inhibition_field(self.grid, self.probe)

    @cached_property
    def target_posterior(self) -> np.ndarray:
        return self.score / self.score.sum()


# ---------------------------------------------------------------------------
# inhibition of return

_D_STAR = (INHIB_ALPHA - 1.0) / (INHIB_ALPHA + INHIB_BETA - 2.0)
_KERNEL_MAX = _D_STAR ** (INHIB_ALPHA - 1.0) * (1.0 - _D_STAR) ** (INHIB_BETA - 1.0)


def inhibition_profile(d):
    """Inhibition level as a function of normalized distance ``d`` in [0, 1].

    A beta-shaped kernel ``d^(alpha-1) (1-d)^(beta-1)`` normalized so its
    continuous maximum maps to zero inhibition; both endpoints are fully
    inhibited.  The minimum sits at ``d* = (alpha-1)/(alpha+beta-2)``.
    """
    d = _floats("d", d)
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.where((d > 0.0) & (d < 1.0),
                        d ** (INHIB_ALPHA - 1.0) * (1.0 - d) ** (INHIB_BETA - 1.0),
                        0.0)
    return np.clip(1.0 - kern / _KERNEL_MAX, 0.0, 1.0)


class InhibitionTable(NamedTuple):
    """Inhibition of return and its Beta density at every signed probe
    offset on one grid.

    Both depend only on a voxel's offset ``(dx, dy, dz)``, in voxels, from
    the probe: its normalized distance is ``sqrt(dx^2 + dy^2 + dz^2) /
    sqrt((nx-1)^2 + (ny-1)^2 + (nz-1)^2)``, 1 between opposite corners.
    The squares are exact integers, so voxels at mirrored offsets get the
    same value.  ``inhibition`` holds :func:`inhibition_profile` of that
    distance and ``density`` its ``beta_pdf(INHIBITION_FACTOR, .)``, as
    ``(2nz-1, 2ny-1, 2nx-1)`` arrays indexed ``[nz-1+dz, ny-1+dy, nx-1+dx]``,
    so the offsets of all voxels from any probe form one slice of them.
    That is under ``4 * grid.theta`` entries per array on a plane and under
    ``8 * grid.theta`` in a volume.  A single-voxel grid is fully
    inhibited.  :func:`inhibition_table` builds one per grid and keeps it.
    """

    inhibition: np.ndarray
    density: np.ndarray


def inhibition_table(grid: WorkspaceGrid) -> InhibitionTable:
    """The :class:`InhibitionTable` of ``grid``, built on first use and kept
    on the grid as derived state (the grid itself is immutable)."""
    table = vars(grid).get("_inhibition_table")
    if table is None:
        nx, ny, nz = grid.shape
        reach2 = (nx - 1) ** 2 + (ny - 1) ** 2 + (nz - 1) ** 2
        if reach2 == 0:
            inhibition = np.ones((1, 1, 1))
        else:
            dx2, dy2, dz2 = (np.arange(1 - n, n, dtype=float) ** 2
                             for n in (nx, ny, nz))
            d = np.sqrt(dz2[:, None, None] + dy2[None, :, None] + dx2[None, None, :])
            d /= math.sqrt(reach2)
            inhibition = inhibition_profile(d)
        table = vars(grid)["_inhibition_table"] = InhibitionTable(
            inhibition, beta_pdf(INHIBITION_FACTOR, inhibition))
    return table


def _at_offsets(values: np.ndarray, shape: tuple, ix: int, iy: int,
                iz: int) -> np.ndarray:
    """``values``, an :class:`InhibitionTable` array of a grid of ``shape``,
    at every voxel's offset from voxel ``(ix, iy, iz)``: a ``(nz, ny,
    nx)`` view of the table, whose C order is linear-index order, for the
    caller to copy or multiply, never to write.  The voxel must lie in the
    grid: a negative slice start would wrap and read a window of other
    offsets."""
    nx, ny, nz = shape
    return values[nz - 1 - iz:2 * nz - 1 - iz,
                  ny - 1 - iy:2 * ny - 1 - iy,
                  nx - 1 - ix:2 * nx - 1 - ix]


def inhibition_field(grid: WorkspaceGrid, current: VoxelIndex) -> np.ndarray:
    """Inhibition level of every voxel relative to the probe position.

    The current voxel and maximally distant voxels are fully inhibited
    (level 1); the level dips to 0 just off the current position.  A
    single-voxel grid is uniformly inhibited.  The values are
    :func:`inhibition_profile` of each voxel's normalized distance in
    whole voxels: one slice of the grid's signed-offset
    :class:`InhibitionTable`, copied.  A probe that
    :meth:`WorkspaceGrid.require` rejects raises its ``ValueError``.
    """
    _check_type("grid", grid, WorkspaceGrid)
    return _at_offsets(inhibition_table(grid).inhibition, grid.shape,
                       *grid.require(current)).flatten()


# ---------------------------------------------------------------------------
# uncertainty and similarity

def uncertainty_field(posteriors: PosteriorGrid) -> np.ndarray:
    """Normalized posterior entropy per voxel; unexplored voxels hold the
    uniform prior and therefore read 1."""
    _check_type("posteriors", posteriors, PosteriorGrid)
    return posteriors.entropies().clip(0.0, 1.0)


def omega_field(posteriors: PosteriorGrid, task: TaskSpec) -> np.ndarray:
    """Similarity of each voxel's perceived material to the task pair.

    ``(1 - (P(material_b) - P(material_a))) / 2``: 1 means certainly the
    first task material, 0 certainly the second, 0.5 is neutral.
    Unexplored voxels are pinned to the neutral value.
    """
    _check_type("posteriors", posteriors, PosteriorGrid)
    _check_type("task", task, TaskSpec)
    probs = posteriors.probs
    om = (1.0 - (probs[:, task.material_b] - probs[:, task.material_a])) / 2.0
    om[posteriors.k_counts == 0] = OMEGA_NEUTRAL
    return om.clip(0.0, 1.0)


# ---------------------------------------------------------------------------
# saliency

#: Offsets (0-2 per axis, z, y, x) of the 27 entries of a 3x3x3 block, C order.
_BLOCK_OFFSETS = np.indices((3, 3, 3)).reshape(3, -1).T
_DERIVATIVE = np.array([-1.0, 0.0, 1.0])
_SMOOTHING = np.array([1.0, 2.0, 1.0])
#: Weights of the Sobel kernels: [k, a] is the weight of block entry k in
#: the kernel of axis a of (x, y, z), the derivative along that axis times
#: the smoothing along the other two.
_SOBEL_WEIGHTS = np.array([[sz * sy * dx, sz * dy * sx, dz * sy * sx]
                           for (dz, dy, dx), (sz, sy, sx)
                           in zip(_DERIVATIVE[_BLOCK_OFFSETS],
                                  _SMOOTHING[_BLOCK_OFFSETS])])
#: The non-zero terms of each axis kernel, in C order of the block: per
#: axis of (x, y, z), ``(z, y, x, weight)`` with weight +-1, +-2 or +-4.
_SOBEL_TERMS = tuple(tuple((*offset, w) for offset, w
                           in zip(_BLOCK_OFFSETS.tolist(), weights.tolist())
                           if w != 0.0)
                     for weights in _SOBEL_WEIGHTS.T)


def _sobel_responses(f: np.ndarray) -> np.ndarray:
    """Raw volumetric Sobel responses (s_x, s_y, s_z) of a ``(nz, ny, nx)``
    similarity block, stacked on the leading axis; values outside the block
    count as neutral 0.5.

    Each response adds the non-zero products of the 27 block entries to
    zero in C order.  A product by 1, 2 or 4 is exact, so the block is
    scaled once per weight magnitude and each term adds or subtracts a
    view of it.  :meth:`TrialState.touch` adds the zero-weight
    products too; a zero weight adds +0.0, which changes a sum at most in
    the sign of a zero, and saliency takes absolute values."""
    nz, ny, nx = f.shape
    padded = np.full((nz + 2, ny + 2, nx + 2), OMEGA_NEUTRAL)
    padded[1:-1, 1:-1, 1:-1] = f
    scaled = {1.0: padded, 2.0: 2.0 * padded, 4.0: 4.0 * padded}
    responses = np.zeros((3, nz, ny, nx))
    for response, terms in zip(responses, _SOBEL_TERMS):
        for z, y, x, w in terms:
            view = scaled[abs(w)][z:z + nz, y:y + ny, x:x + nx]
            if w > 0.0:
                response += view
            else:
                response -= view
    return responses


def _saliency(responses: np.ndarray) -> np.ndarray:
    """Saliency from the Sobel responses (s_x, s_y, s_z), stacked on the
    leading axis of a float array that this overwrites with their absolute
    values; see :func:`saliency_field`.

    On a [0, 1] field with 0.5 padding the result lies in [0, 1] unclipped:
    a response adds products of values in [0, 1] with kernel weights whose
    positive and negative parts each sum to 16 in magnitude, the products
    by 1, 2 and 4 are exact, and a float sum is monotone in each term, so
    no response passes 16 in magnitude."""
    saliency = np.maximum.reduce(np.abs(responses, out=responses), axis=0)
    saliency /= SOBEL_NORM
    return saliency


def saliency_field(grid: WorkspaceGrid, omega: np.ndarray) -> np.ndarray:
    """Per-voxel saliency: largest axis Sobel response over 16, in [0, 1].

    A constant similarity field has exactly zero saliency everywhere
    because each derivative kernel sums to zero.  ``omega`` holds one
    value per voxel, in linear-index order.
    """
    _check_type("grid", grid, WorkspaceGrid)
    f = _floats("omega", omega)
    if f.size != grid.theta:
        raise ValueError(f"omega has {f.size} values, the grid {grid.theta} "
                         f"voxels")
    f = f.reshape(grid.nz, grid.ny, grid.nx)
    return _saliency(_sobel_responses(f)).clip(0.0, 1.0).ravel()


# ---------------------------------------------------------------------------
# evidence factors and target selection

@functools.lru_cache(maxsize=64)
def _log_beta(a, b) -> float:
    """The log of the Beta function at ``(a, b)``, the normaliser of
    :func:`beta_pdf`, computed once per factor."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_pdf(factor: BetaFactor, x):
    """Beta density with shape ``factor`` at ``x``, a float for a scalar
    ``x`` and an array otherwise.  The argument is clamped to
    ``[BETA_CLAMP, 1 - BETA_CLAMP]`` so boundary singularities stay
    finite; NaN passes through."""
    _check_type("factor", factor, BetaFactor)
    # a copy, which _beta_density overwrites
    out = _beta_density(factor, np.array(_floats("x", x)))
    return float(out) if out.ndim == 0 else out


def _beta_density(factor: BetaFactor, xs: np.ndarray) -> np.ndarray:
    """:func:`beta_pdf` of the float array ``xs``, computed in ``xs``."""
    a, b = factor
    # np.clip's bounds, as two ufuncs: the lower bound is positive, so no
    # signed zero survives, and both pass NaN through
    np.minimum(np.maximum(xs, BETA_CLAMP, out=xs), 1.0 - BETA_CLAMP, out=xs)
    # the log-density is (a-1) log x + (b-1) log(1-x).  A term whose
    # exponent is 0 is +-0, and the other term is finite and non-zero on
    # the clamped range, so the sum is that other term: the +-0 is skipped
    if a == 1.0:
        np.log(np.subtract(1.0, xs, out=xs), out=xs)
        xs *= b - 1.0
    elif b == 1.0:
        np.log(xs, out=xs)
        xs *= a - 1.0
    else:
        tail = (b - 1.0) * np.log(1.0 - xs)
        np.log(xs, out=xs)
        xs *= a - 1.0
        xs += tail
    xs -= _log_beta(a, b)
    return np.exp(xs, out=xs)


def target_posterior(inhibition: np.ndarray, f_saliency: np.ndarray,
                     f_uncertainty: np.ndarray):
    """Posterior over candidate voxels from the three evidence ``FACTORS``.

    Each voxel scores the product of the inhibition Beta density at its
    inhibition value and its saliency and uncertainty densities
    ``f_saliency = beta_pdf(SALIENCY_FACTOR, saliency)`` and
    ``f_uncertainty = beta_pdf(UNCERTAINTY_FACTOR, uncertainty)``; the task
    prior is constant within a trial and cancels in the normalization.
    Returns ``(probability_vector, degenerate)``; an all-zero or
    non-finite score vector falls back to the uniform distribution with
    the flag set.  This is the reference implementation, built from the
    inhibition field over the whole grid: the exploration loop never
    calls it, but selects on the score :meth:`TrialState.touch` returns,
    this product before normalization, and gives an observer that score
    divided by its sum, which equals this posterior.
    """
    score = beta_pdf(INHIBITION_FACTOR, inhibition)
    score *= f_saliency
    score *= f_uncertainty
    total = score.sum()
    if total <= 0.0 or not np.isfinite(total):
        theta = score.size
        return np.full(theta, 1.0 / theta), True
    score /= total
    return score, False


def select_target(score: np.ndarray, grid: WorkspaceGrid) -> VoxelIndex:
    """Voxel of the highest score, raw or normalized; ties break to the
    lowest linear index.  A ``score`` that is not a 1-D array of
    ``grid.theta`` real numbers, or whose maximum is not finite (NaN
    counts as a maximum), raises ``ValueError`` naming it."""
    _check_type("grid", grid, WorkspaceGrid)
    values = np.asarray(score)
    if values.shape != (grid.theta,) or values.dtype.kind not in "iuf":
        raise ValueError(f"score must be a 1-D array of {grid.theta} real numbers, "
                         f"got shape {values.shape} and dtype {values.dtype}")
    j = int(np.argmax(values))
    if not math.isfinite(values[j]):
        raise ValueError(f"score must have a finite maximum, got {values[j]} "
                         f"at linear index {j}")
    return grid.voxel_of_linear(j)


# ---------------------------------------------------------------------------
# saliency stencil

class StencilCase(NamedTuple):
    """How the saliency block around a voxel of one border case is
    computed, for its ``m`` outputs inside the grid, in C order.

    ``reads[k, a, o]`` is the offset, from the window's corner in the
    padded similarity field, of the value that Sobel kernel entry ``k`` (C
    order) multiplies for output ``o`` in kernel ``a`` of (x, y, z), and
    ``weights[k, a, o]`` that entry's weight in kernel ``a``: both
    repeated, so the gather is multiplied in place, faster than a
    broadcast product.  The outputs of voxel ``j`` lie at ``outputs`` in
    the slice from linear index ``j + first``, which is never negative.
    """

    reads: np.ndarray
    weights: np.ndarray
    outputs: np.ndarray
    first: int


class SaliencyStencil:
    """The :class:`StencilCase` of every border case of one grid, each
    built on its first use; :func:`saliency_stencil` keeps one per grid.

    Which outputs of the 3x3x3 block around a voxel lie inside the grid
    depends only on the voxel's border case, per axis: interior (code 0),
    low edge (1), high edge (2), or both on a one-voxel axis (3).  A case
    is keyed ``cx + 4 * cy + 16 * cz``, so a grid has at most 64 cases,
    and 9 on a plane of at least 3x3 voxels.  The cases read the trial's
    similarity field padded by two neutral voxels per side, as a flat
    array of ``padded_shape`` whose z and y strides are ``zstep`` and
    ``ystep``; a voxel's corner there is ``iz * zstep + iy * ystep + ix``
    and the voxel itself lies ``centre`` past its corner.
    """

    def __init__(self, grid: WorkspaceGrid):
        nx, ny, nz = grid.shape
        self.last = (nx - 1, ny - 1, nz - 1)
        self.padded_shape = (nz + 4, ny + 4, nx + 4)
        self.ystep = nx + 4
        self.zstep = (ny + 4) * self.ystep
        self.centre = 2 * (self.zstep + self.ystep + 1)
        self._grid_steps = np.array([ny * nx, nx, 1])
        self.cases: dict[int, StencilCase] = {}

    def case(self, ix: int, iy: int, iz: int) -> StencilCase:
        """The case of voxel ``(ix, iy, iz)``, built on first use."""
        lx, ly, lz = self.last
        key = ((ix == 0) + 2 * (ix == lx) + 4 * ((iy == 0) + 2 * (iy == ly))
               + 16 * ((iz == 0) + 2 * (iz == lz)))
        case = self.cases.get(key)
        if case is None:
            case = self.cases[key] = self._build(key)
        return case

    def _build(self, key: int) -> StencilCase:
        # block entry 0 on an axis is grid index i - 1: a low edge drops
        # it and a high edge drops entry 2
        keep = np.ones(27, dtype=bool)
        for offsets, shift in zip(_BLOCK_OFFSETS.T, (4, 2, 0)):
            code = key >> shift & 3
            if code & 1:
                keep &= offsets != 0
            if code & 2:
                keep &= offsets != 2
        kept = _BLOCK_OFFSETS[keep]
        reads = ((_BLOCK_OFFSETS[:, None, :] + kept[None, :, :])
                 @ np.array([self.zstep, self.ystep, 1]))
        reads = np.repeat(reads[:, None, :], 3, axis=1)
        weights = np.repeat(_SOBEL_WEIGHTS[:, :, None], len(kept), axis=2)
        outputs = (kept - 1) @ self._grid_steps
        first = int(outputs[0])
        outputs -= first
        for array in (reads, weights, outputs):
            array.setflags(write=False)
        return StencilCase(reads, weights, outputs, first)


def saliency_stencil(grid: WorkspaceGrid) -> SaliencyStencil:
    """The :class:`SaliencyStencil` of ``grid``, built on first use and
    kept on the grid as derived state, as :func:`inhibition_table` is."""
    stencil = vars(grid).get("_saliency_stencil")
    if stencil is None:
        stencil = vars(grid)["_saliency_stencil"] = SaliencyStencil(grid)
    return stencil


# ---------------------------------------------------------------------------
# per-trial state

@functools.lru_cache(maxsize=64)
def _start_values(task: TaskSpec, n_materials: int) -> tuple:
    """The uncertainty and its density of a uniform posterior row over
    ``n_materials``, by :func:`_row_values`, and the saliency density of
    zero saliency: every voxel's value at the start of a trial but its
    similarity, which is neutral."""
    uniform = np.full(n_materials, 1.0 / n_materials)
    return tuple(map(float, (*_row_values(task, uniform)[:2],
                             beta_pdf(SALIENCY_FACTOR, 0.0))))


def _row_values(task: TaskSpec, probs: np.ndarray):
    """Uncertainty, its density and similarity of posterior rows ``probs``
    (the last axis), as arrays of the leading shape, scalars (the density
    a 0-d array) for one row: the arithmetic of :func:`uncertainty_field`
    and :func:`omega_field` row by row, each step elementwise or reducing
    the last axis alone, so every entry equals the single-row result.  The similarity needs no mask for
    unexplored rows, which :func:`omega_field` pins to ``OMEGA_NEUTRAL``:
    such a row is the uniform prior, whose equal entries give exactly
    0.5.  Nor does it need a clip: ``p_b - p_a`` of probabilities lies in
    [-1, 1], as each step rounds monotonically to representable bounds."""
    # the entropy of a uniform row can round above 1
    uncertainty = _normalized_entropies(probs).clip(0.0, 1.0)
    # beta_pdf's arithmetic on a copy, without its argument checks
    density = _beta_density(UNCERTAINTY_FACTOR, np.array(uncertainty))
    omega = (1.0 - (probs[..., task.material_b]
                    - probs[..., task.material_a])) / 2.0
    return uncertainty, density, omega


class TrialState:
    """What one exploration trial changes: its :class:`PosteriorGrid`
    ``posteriors``, the fields ``uncertainty``, ``omega`` and ``saliency``
    and the densities ``f_uncertainty`` and ``f_saliency`` (flat arrays in
    linear-index order, updated in place, constant at the start), and the
    current sense block's first-touch outcomes.  Per block, :meth:`load`
    takes the table; per touch, :meth:`update` integrates one entry and
    :meth:`touch` applies the voxel's new values and recomputes the
    saliency of the 3x3x3 block around it, the only outputs they reach,
    through the grid's :class:`SaliencyStencil`, which reads the
    similarity padded by two neutral voxels per side.  So every field
    stays equal to a full recompute from ``posteriors``.  ``n_materials``
    must exceed both task materials.
    """

    def __init__(self, grid: WorkspaceGrid, task: TaskSpec, n_materials: int):
        _check_type("grid", grid, WorkspaceGrid)
        _check_type("task", task, TaskSpec)
        _check_integer("n_materials", n_materials,
                       max(task.material_a, task.material_b) + 1)
        self.grid = grid
        self.task = task
        self.posteriors = PosteriorGrid(grid.theta, n_materials)
        self.degenerate_events = 0
        for name, value in zip(
                ("uncertainty", "f_uncertainty", "f_saliency", "omega", "saliency"),
                (*_start_values(task, n_materials), OMEGA_NEUTRAL, 0.0)):
            setattr(self, name, np.empty(grid.theta))
            getattr(self, name).fill(value)
        self._stencil = saliency_stencil(grid)
        self._density = inhibition_table(grid).density
        # the border holds the 5x5x5 window that the block around any voxel
        # reads; no voxel is explored yet, so every similarity is neutral
        self._padded = np.empty(math.prod(self._stencil.padded_shape))
        self._padded.fill(OMEGA_NEUTRAL)

    def load(self, table: np.ndarray) -> None:
        """Take a sense block's table of ``(n,)`` log-likelihood rows and
        compute, one batch each, what every row makes of an unexplored
        voxel: :meth:`PosteriorGrid.first_updates` and :func:`_row_values`."""
        self._table = table
        self._first_probs, self._first_degenerate = \
            self.posteriors.first_updates(table)
        self._first_values = _row_values(self.task, self._first_probs)

    def update(self, j: int, k: int, r: int):
        """Integrate entry ``[k, r]`` of the loaded table at voxel ``j`` by
        one :meth:`PosteriorGrid.update` and return the voxel's uncertainty,
        its density and its similarity for :meth:`touch`: an unexplored
        voxel's from :meth:`load`, a revisit's from its own row.  An update
        that keeps its prior counts in ``degenerate_events``.  A bad ``j``
        raises first."""
        posteriors = self.posteriors
        j = _as_index(j, "linear index", self.grid.theta)
        at = k, r
        if posteriors.k_counts[j]:
            update = posteriors.update(j, self._table[at])
            values = _row_values(self.task, posteriors.probs[j])
        else:
            update = posteriors.update(j, self._table[at], (
                self._first_probs[at], self._first_degenerate[at]))
            uncertainty, density, omega = self._first_values
            values = uncertainty[at], density[at], omega[at]
        self.degenerate_events += update.degenerate
        return values

    def touch(self, j: int, values) -> np.ndarray:
        """Refresh every entry that depends on voxel ``j``'s posterior, and
        return the target score with the probe at ``j``.

        ``values`` holds the voxel's uncertainty, its density and its
        similarity, as :meth:`update` returns them.  The score is a fresh
        array: each voxel's inhibition density, read from a slice of the
        grid's signed-offset :class:`InhibitionTable` at the voxel decoded
        from ``j``, times ``f_saliency`` times ``f_uncertainty`` on the
        refreshed fields, in that order.  That is the product
        :func:`target_posterior` of :func:`inhibition_field` normalizes,
        value for value; the target is its first maximum, and selecting
        needs no normalization.  A bad ``j`` raises before any entry
        changes."""
        grid = self.grid
        j = _as_index(j, "linear index", grid.theta)
        self.uncertainty[j], self.f_uncertainty[j], omega = values
        self.omega[j] = omega

        nx = grid.nx
        ix, iy, iz = j % nx, j // nx % grid.ny, j // (nx * grid.ny)
        stencil = self._stencil
        corner = iz * stencil.zstep + iy * stencil.ystep + ix
        self._padded[corner + stencil.centre] = omega
        # Sobel responses of the block's outputs inside the grid, adding the
        # products in the C order of _sobel_responses, zero weights
        # included: the sum over the leading axis k adds the rows one after
        # another, for any number of outputs.
        reads, weights, outputs, first = stencil.case(ix, iy, iz)
        products = self._padded[corner:][reads]
        products *= weights
        block = _saliency(np.add.reduce(products, 0))
        self.saliency[j + first:][outputs] = block
        self.f_saliency[j + first:][outputs] = _beta_density(SALIENCY_FACTOR,
                                                            block)
        score = _at_offsets(self._density, grid.shape, ix, iy, iz).flatten()
        score *= self.f_saliency
        score *= self.f_uncertainty
        return score
