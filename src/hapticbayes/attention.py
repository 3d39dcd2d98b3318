"""Next-target selection: inhibition, uncertainty, similarity and saliency
fields combined through Beta evidence factors into a posterior over voxels.

All fields are flat float arrays of length ``grid.theta`` in linear-index
order, with every value in [0, 1].
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import VoxelIndex, WorkspaceGrid, _check_integer
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
    """A discontinuity-following task between two material classes."""

    material_a: int
    material_b: int

    def __post_init__(self):
        for name in ("material_a", "material_b"):
            index = getattr(self, name)
            if (isinstance(index, bool) or not isinstance(index, numbers.Integral)
                    or index < 0):
                raise ValueError(f"{name} must be a material index, an "
                                 f"integer >= 0, got {index!r}")
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
    d = np.asarray(d, dtype=float)
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


def _at_offsets(grid: WorkspaceGrid, values: np.ndarray,
                probe: VoxelIndex) -> np.ndarray:
    """``values``, an :class:`InhibitionTable` array, at every voxel's
    offset from ``probe``, as a fresh array in linear-index order."""
    # a probe outside the grid would give a negative start, which wraps
    ix, iy, iz = grid.require(probe)
    nx, ny, nz = grid.shape
    # flatten, not ravel: on a line grid the window is contiguous, and a
    # view would let a caller's in-place product write into the table
    return values[nz - 1 - iz:2 * nz - 1 - iz,
                  ny - 1 - iy:2 * ny - 1 - iy,
                  nx - 1 - ix:2 * nx - 1 - ix].flatten()


def inhibition_field(grid: WorkspaceGrid, current: VoxelIndex) -> np.ndarray:
    """Inhibition level of every voxel relative to the probe position.

    The current voxel and maximally distant voxels are fully inhibited
    (level 1); the level dips to 0 just off the current position.  A
    single-voxel grid is uniformly inhibited.  The values are
    :func:`inhibition_profile` of each voxel's normalized distance in
    whole voxels: one slice of the grid's signed-offset
    :class:`InhibitionTable`, copied.
    """
    return _at_offsets(grid, inhibition_table(grid).inhibition, current)


# ---------------------------------------------------------------------------
# uncertainty and similarity

def uncertainty_field(posteriors: PosteriorGrid) -> np.ndarray:
    """Normalized posterior entropy per voxel; unexplored voxels hold the
    uniform prior and therefore read 1."""
    return posteriors.entropies().clip(0.0, 1.0)


def omega_field(posteriors: PosteriorGrid, task: TaskSpec) -> np.ndarray:
    """Similarity of each voxel's perceived material to the task pair.

    ``(1 - (P(material_b) - P(material_a))) / 2``: 1 means certainly the
    first task material, 0 certainly the second, 0.5 is neutral.
    Unexplored voxels are pinned to the neutral value.
    """
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
    view of it.  :meth:`AttentionFields.touch` adds the zero-weight
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


def _saliency(responses) -> np.ndarray:
    """Saliency from the Sobel responses (s_x, s_y, s_z), stacked on the
    leading axis; see :func:`saliency_field`.

    On a [0, 1] field with 0.5 padding the result lies in [0, 1] unclipped:
    a response adds products of values in [0, 1] with kernel weights whose
    positive and negative parts each sum to 16 in magnitude, the products
    by 1, 2 and 4 are exact, and a float sum is monotone in each term, so
    no response passes 16 in magnitude."""
    return np.abs(responses).max(axis=0) / SOBEL_NORM


def saliency_field(grid: WorkspaceGrid, omega: np.ndarray) -> np.ndarray:
    """Per-voxel saliency: largest axis Sobel response over 16, in [0, 1].

    A constant similarity field has exactly zero saliency everywhere
    because each derivative kernel sums to zero.
    """
    f = np.asarray(omega, dtype=float).reshape(grid.nz, grid.ny, grid.nx)
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
    a, b = factor
    # np.clip's bounds, as two ufuncs: the lower bound is positive, so no
    # signed zero survives, and both pass NaN through
    xs = np.minimum(np.maximum(np.asarray(x, dtype=float), BETA_CLAMP),
                    1.0 - BETA_CLAMP)
    log_b = _log_beta(a, b)
    # the log-density is (a-1) log x + (b-1) log(1-x).  A term whose
    # exponent is 0 is +-0, and the other term is finite and non-zero on
    # the clamped range, so the sum is that other term: the +-0 is skipped
    if a == 1.0:
        log_p = (b - 1.0) * np.log(1.0 - xs)
    elif b == 1.0:
        log_p = (a - 1.0) * np.log(xs)
    else:
        log_p = (a - 1.0) * np.log(xs) + (b - 1.0) * np.log(1.0 - xs)
    out = np.exp(log_p - log_b)
    return float(out) if out.ndim == 0 else out


def target_score(grid: WorkspaceGrid, current: VoxelIndex,
                 f_saliency: np.ndarray, f_uncertainty: np.ndarray) -> np.ndarray:
    """Unnormalized target posterior with the probe at ``current``.

    Each voxel scores its inhibition density, a copied slice of the
    grid's signed-offset :class:`InhibitionTable`, times ``f_saliency``
    times ``f_uncertainty``: the score that :func:`target_posterior` of
    :func:`inhibition_field` normalizes, value for value.  The target is
    its first maximum; selecting needs no normalization.
    """
    score = _at_offsets(grid, inhibition_table(grid).density, current)
    score *= f_saliency
    score *= f_uncertainty
    return score


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
    calls it, but selects on :func:`target_score` and gives an observer
    that score divided by its sum, which equals this posterior.
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
    lowest linear index."""
    return grid.voxel_of_linear(int(np.argmax(score)))


# ---------------------------------------------------------------------------
# saliency stencil

class StencilCase(NamedTuple):
    """How the saliency block around a voxel of one border case is
    computed, for its ``m`` outputs inside the grid, in C order.

    ``reads[k, o]`` is the offset, from the window's corner in the padded
    similarity field, of the value that Sobel kernel entry ``k`` (C order)
    multiplies for output ``o``; ``weights[k, a, o]`` is that entry's
    weight in kernel ``a`` of (x, y, z), repeated for each output (a
    contiguous operand multiplies faster than a broadcast one); and
    ``outputs[o]`` is the output's linear index minus the voxel's.
    """

    reads: np.ndarray
    weights: np.ndarray
    outputs: np.ndarray


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
        weights = np.repeat(_SOBEL_WEIGHTS[:, :, None], len(kept), axis=2)
        outputs = (kept - 1) @ self._grid_steps
        for array in (reads, weights, outputs):
            array.setflags(write=False)
        return StencilCase(reads, weights, outputs)


def saliency_stencil(grid: WorkspaceGrid) -> SaliencyStencil:
    """The :class:`SaliencyStencil` of ``grid``, built on first use and
    kept on the grid as derived state, as :func:`inhibition_table` is."""
    stencil = vars(grid).get("_saliency_stencil")
    if stencil is None:
        stencil = vars(grid)["_saliency_stencil"] = SaliencyStencil(grid)
    return stencil


# ---------------------------------------------------------------------------
# per-trial field cache

@functools.lru_cache(maxsize=64)
def _start_values(task: TaskSpec, n_materials: int) -> tuple:
    """The uncertainty and its density of a uniform posterior row over
    ``n_materials``, by :meth:`AttentionFields.row_values`, and the
    saliency density of zero saliency: every voxel's value at the start of
    a trial but its similarity, which is neutral."""
    uniform = np.full(n_materials, 1.0 / n_materials)
    return tuple(map(float, (*_row_values(task, uniform, False)[:2],
                             beta_pdf(SALIENCY_FACTOR, 0.0))))


def _row_values(task: TaskSpec, probs: np.ndarray, explored):
    """:meth:`AttentionFields.row_values` for ``task``."""
    # the entropy of a uniform row can round above 1
    uncertainty = _normalized_entropies(probs).clip(0.0, 1.0)
    omega = np.where(explored, (1.0 - (probs[..., task.material_b]
                                       - probs[..., task.material_a])) / 2.0,
                     OMEGA_NEUTRAL)
    return uncertainty, beta_pdf(UNCERTAINTY_FACTOR, uncertainty), omega


class AttentionFields:
    """The uncertainty, similarity and saliency fields of one trial, with
    their evidence densities ``f_uncertainty`` and ``f_saliency``.

    A trial starts with every voxel at the uniform prior over
    ``n_materials``, so the start fields are constant, computed once per
    task and library size, with zero saliency.  A posterior update at
    voxel ``j`` changes the uncertainty and similarity of ``j`` alone, and
    the saliency only in the 3x3x3 block around it: :meth:`touch` writes
    the values its caller computed with :meth:`row_values` and recomputes
    the block's outputs inside the grid with the arithmetic of
    :func:`saliency_field`, through the grid's :class:`SaliencyStencil`,
    so every field stays equal to a full recompute.  The similarity field
    is held once, padded by two neutral voxels per side as the stencil
    reads it, and :attr:`omega` copies it out; the other arrays are
    updated in place, so copy them to keep a snapshot.  An
    ``n_materials`` that is not an integer above both task materials
    raises ``ValueError`` naming it.
    """

    def __init__(self, grid: WorkspaceGrid, task: TaskSpec, n_materials: int):
        _check_integer("n_materials", n_materials,
                       max(task.material_a, task.material_b) + 1)
        self.grid = grid
        self.task = task
        theta = grid.theta
        uncertainty, f_uncertainty, f_saliency = _start_values(task, n_materials)
        self.uncertainty = np.full(theta, uncertainty)
        self.f_uncertainty = np.full(theta, f_uncertainty)
        self.saliency = np.zeros(theta)
        self.f_saliency = np.full(theta, f_saliency)
        self._stencil = saliency_stencil(grid)
        # the border holds the 5x5x5 window that the block around any voxel
        # reads; no voxel is explored yet, so every similarity is neutral
        padded = np.full(self._stencil.padded_shape, OMEGA_NEUTRAL)
        self._padded, self._interior = padded.ravel(), padded[2:-2, 2:-2, 2:-2]

    @property
    def omega(self) -> np.ndarray:
        """The similarity field in linear-index order, always a fresh array
        (``ravel`` alone would alias a one-voxel grid's contiguous interior)."""
        return self._interior.copy().ravel()

    def row_values(self, probs: np.ndarray, explored):
        """Uncertainty, its density and similarity of posterior rows
        ``probs``, each row along the last axis, as arrays of the leading
        shape (0-d for one ``(n,)`` row): the arithmetic of
        :func:`uncertainty_field` and :func:`omega_field` row by row.
        ``explored``, a bool or a bool array of the leading shape, marks
        the rows with a sample integrated; the others are neutral.

        Every entry equals the single-row result, as each step is
        elementwise or reduces the last axis alone.  The similarity
        ``(1 - (p_b - p_a)) / 2`` needs no clip: for probabilities in
        [0, 1], ``p_b - p_a`` lies in [-1, 1], as each step rounds
        monotonically to representable bounds, so the similarity lies in
        [0, 1]."""
        return _row_values(self.task, probs, explored)

    def touch(self, j: int, values) -> None:
        """Refresh every entry that depends on voxel ``j``'s posterior.

        ``values`` holds the voxel's uncertainty, its density and its
        similarity, computed by :meth:`row_values` from the voxel's new
        posterior row.  A ``j`` that is not an integer in ``[0, theta)``
        (numpy integers are, ``bool`` is not) raises ``ValueError`` naming
        it, before any entry changes."""
        grid = self.grid
        if (isinstance(j, bool) or not isinstance(j, (int, np.integer))
                or not 0 <= j < grid.theta):
            raise ValueError(f"j must be a linear index, an integer in "
                             f"[0, {grid.theta}), got {j!r}")
        j = int(j)
        self.uncertainty[j], self.f_uncertainty[j], omega = values

        nx = grid.nx
        ix, iy, iz = j % nx, j // nx % grid.ny, j // (nx * grid.ny)
        stencil = self._stencil
        corner = iz * stencil.zstep + iy * stencil.ystep + ix
        self._padded[corner + stencil.centre] = omega
        # Sobel responses of the block's outputs inside the grid, adding the
        # products in the C order of _sobel_responses, zero weights
        # included: the sum over the leading axis k adds the rows one after
        # another, for any number of outputs.
        reads, weights, outputs = stencil.case(ix, iy, iz)
        window = self._padded[reads + corner]
        block = _saliency(np.add.reduce(weights * window[:, None, :], 0))
        outputs = outputs + j
        self.saliency[outputs] = block
        self.f_saliency[outputs] = beta_pdf(SALIENCY_FACTOR, block)
