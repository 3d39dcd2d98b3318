"""Next-target selection: inhibition, uncertainty, similarity and saliency
fields combined through Beta evidence factors into a posterior over voxels.

All fields are flat float arrays of length ``grid.theta`` in linear-index
order, with every value in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .grid import VoxelIndex, WorkspaceGrid, max_distance
from .perception import PosteriorGrid

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
        if self.material_a == self.material_b:
            raise ValueError("task materials must differ")


@dataclass
class AttentionState:
    """Per-voxel scalar fields plus the target posterior for one iteration."""

    inhibition: np.ndarray
    uncertainty: np.ndarray
    omega: np.ndarray
    saliency: np.ndarray
    target_posterior: np.ndarray
    degenerate: bool = field(default=False)


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


def inhibition_field(grid: WorkspaceGrid, current: VoxelIndex) -> np.ndarray:
    """Inhibition level of every voxel relative to the probe position.

    The current voxel and maximally distant voxels are fully inhibited
    (level 1); the level dips to 0 just off the current position.  A
    single-voxel grid is uniformly inhibited.
    """
    grid.require(current)
    d_max = max_distance(grid)
    if d_max == 0.0:
        return np.ones(grid.theta)
    cx, cy, cz = grid.center_arrays()
    px, py, pz = grid.center(current)
    d = np.sqrt((cx - px) ** 2 + (cy - py) ** 2 + (cz - pz) ** 2) / d_max
    return inhibition_profile(d)


# ---------------------------------------------------------------------------
# uncertainty and similarity

def uncertainty_field(posteriors: PosteriorGrid) -> np.ndarray:
    """Normalized posterior entropy per voxel; unexplored voxels hold the
    uniform prior and therefore read 1."""
    return np.clip(posteriors.entropies(), 0.0, 1.0)


def omega_field(posteriors: PosteriorGrid, task: TaskSpec) -> np.ndarray:
    """Similarity of each voxel's perceived material to the task pair.

    ``(1 - (P(material_b) - P(material_a))) / 2``: 1 means certainly the
    first task material, 0 certainly the second, 0.5 is neutral.
    Unexplored voxels are pinned to the neutral value.
    """
    p_a = posteriors.probs[:, task.material_a]
    p_b = posteriors.probs[:, task.material_b]
    om = (1.0 - (p_b - p_a)) / 2.0
    om[posteriors.k_counts == 0] = OMEGA_NEUTRAL
    return np.clip(om, 0.0, 1.0)


# ---------------------------------------------------------------------------
# saliency

def _sobel_kernels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    deriv = np.array([-1.0, 0.0, 1.0])
    smooth = np.array([1.0, 2.0, 1.0])
    # field arrays are reshaped to (nz, ny, nx): x is the last axis
    kx = smooth[:, None, None] * smooth[None, :, None] * deriv[None, None, :]
    ky = smooth[:, None, None] * deriv[None, :, None] * smooth[None, None, :]
    kz = deriv[:, None, None] * smooth[None, :, None] * smooth[None, None, :]
    return kx, ky, kz


_KX, _KY, _KZ = _sobel_kernels()


def _sobel_responses(grid: WorkspaceGrid, omega: np.ndarray):
    """Raw volumetric Sobel responses (s_x, s_y, s_z) of the similarity
    field, each a flat array; out-of-grid values count as neutral 0.5."""
    f = np.asarray(omega, dtype=float).reshape(grid.nz, grid.ny, grid.nx)
    out = []
    for k in (_KX, _KY, _KZ):
        r = ndimage.correlate(f, k, mode="constant", cval=OMEGA_NEUTRAL)
        out.append(r.ravel())
    return tuple(out)


def saliency_field(grid: WorkspaceGrid, omega: np.ndarray) -> np.ndarray:
    """Per-voxel saliency: largest axis Sobel response over 16, in [0, 1].

    A constant similarity field has exactly zero saliency everywhere
    because each derivative kernel sums to zero.
    """
    sx, sy, sz = _sobel_responses(grid, omega)
    s = np.maximum(np.abs(sx), np.maximum(np.abs(sy), np.abs(sz))) / SOBEL_NORM
    return np.clip(s, 0.0, 1.0)


# ---------------------------------------------------------------------------
# evidence factors and target selection

def beta_pdf(factor: BetaFactor, x):
    """Beta density at ``x``; the argument is clamped to
    ``[1e-6, 1 - 1e-6]`` so boundary singularities stay finite."""
    a, b = factor
    xs = np.clip(np.asarray(x, dtype=float), BETA_CLAMP, 1.0 - BETA_CLAMP)
    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    out = np.exp((a - 1.0) * np.log(xs) + (b - 1.0) * np.log(1.0 - xs) - log_b)
    return float(out) if out.ndim == 0 else out


def target_posterior(state: AttentionState):
    """Posterior over candidate voxels from the three evidence ``FACTORS``.

    Each voxel scores the product of the inhibition, uncertainty and
    saliency Beta densities evaluated at its field values; the task prior
    is constant within a trial and cancels in the normalization.  Returns
    ``(probability_vector, degenerate)``; an all-zero score vector falls
    back to the uniform distribution with the flag set.
    """
    b_i, b_u, b_s = FACTORS
    score = (beta_pdf(b_i, state.inhibition)
             * beta_pdf(b_s, state.saliency)
             * beta_pdf(b_u, state.uncertainty))
    total = score.sum()
    if total <= 0.0 or not np.isfinite(total):
        theta = score.size
        return np.full(theta, 1.0 / theta), True
    return score / total, False


def select_target(posterior: np.ndarray, grid: WorkspaceGrid) -> VoxelIndex:
    """Maximum a posteriori voxel; ties break to the lowest linear index."""
    return grid.voxel_of_linear(int(np.argmax(posterior)))
