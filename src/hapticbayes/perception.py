"""Per-voxel Bayesian material inference from haptic feature observations.

The posterior over material categories is updated recursively: each new
sample multiplies the previous posterior by the Gaussian feature
likelihoods and renormalizes.  Updates run in log space with a
max-subtraction so that very unlikely materials underflow cleanly to zero
instead of poisoning the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import _as_index, _check_integer, _check_type
from .materials import HapticSample, MaterialLibrary

#: Log-density floor; terms this far below the per-update maximum become 0.
LOG_FLOOR = -700.0

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MaterialPosterior:
    """Categorical distributions over material classes.

    ``probs`` is ``(n,)`` for one voxel or ``(T, n)`` for a batch of T
    independent posteriors, one per row; every row must be non-negative
    and sum to 1, which a NaN entry fails.  ``degenerate`` reports that
    the most recent update had all-zero evidence in at least one row,
    which kept its prior unchanged; :class:`PosteriorGrid` counts samples.
    """

    probs: np.ndarray
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if not ((self.probs >= 0).all()
                and (abs(self.probs.sum(axis=-1) - 1.0) <= 1e-9).all()):
            raise ValueError("probs must be non-negative and each row must "
                             "sum to 1")

    @classmethod
    def uniform(cls, n: int, shape: tuple = ()) -> "MaterialPosterior":
        """Uniform prior over ``n`` materials, one row per element of
        ``shape`` (``()`` for a single ``(n,)`` posterior)."""
        return cls(np.full(shape + (n,), 1.0 / n))


def log_likelihoods(lib: MaterialLibrary, sample: HapticSample) -> np.ndarray:
    """Log of ``NormalPDF(e; mu_E, sigma_E) * NormalPDF(c; mu_C, sigma_C)``
    for every material: shape ``np.shape(sample.e) + (n,)``.  A ``lib``
    that is not a :class:`MaterialLibrary` or a ``sample`` that is not a
    :class:`HapticSample` raises ``ValueError`` naming it."""
    _check_type("lib", lib, MaterialLibrary)
    _check_type("sample", sample, HapticSample)
    ze = np.asarray(sample.e)[..., None] - lib.mu_e
    ze /= lib.sigma_e
    zc = np.asarray(sample.c)[..., None] - lib.mu_c
    zc /= lib.sigma_c
    # -0.5 * (ze * ze + zc * zc) - log_sigma_e - log_sigma_c - log(2 pi),
    # in place on ze, in that order
    with np.errstate(over="ignore"):      # huge z just pins the log to -inf
        ze *= ze
        zc *= zc
        ze += zc
        ze *= -0.5
        ze -= lib.log_sigma_e
        ze -= lib.log_sigma_c
        ze -= _LOG_2PI
    return ze


def _posterior_update(probs: np.ndarray, log_lik: np.ndarray):
    """The posterior-update core, row-wise over the last axis: one
    ``(n,)`` row or a ``(T, n)`` batch, with log-likelihoods of the same
    shape.

    Returns ``(new_probs, degenerate)``, where ``degenerate`` is a boolean
    mask with one entry per row (0-d for a single row).  A row whose
    log-posterior maximum is not finite keeps its prior row exactly.
    """
    with np.errstate(divide="ignore"):
        lp = np.log(probs)
    lp += log_lik
    return _posterior_of(lp, probs)


def _posterior_of(lp: np.ndarray, probs: np.ndarray):
    """The tail of :func:`_posterior_update`, from the log-posterior rows
    ``lp`` (the log prior plus the log-likelihoods, overwritten here):
    returns ``(new_probs, degenerate)`` as that function does.  ``probs``
    holds the prior rows, broadcasting against ``lp``; a degenerate row
    gets its prior row back."""
    m = np.maximum.reduce(lp, axis=-1, keepdims=True)
    degenerate = ~np.isfinite(m)
    any_degenerate = degenerate.any()
    if any_degenerate:
        # neutral rows, so no invalid arithmetic; their prior goes back below
        np.copyto(lp, 0.0, where=degenerate)
        m[degenerate] = 0.0
    lp -= m
    w = np.maximum(lp, LOG_FLOOR)
    np.exp(w, out=w)
    w[lp <= LOG_FLOOR] = 0.0
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    if any_degenerate:
        np.copyto(w, probs, where=degenerate)
    return w, degenerate[..., 0]


def update_posterior(lib: MaterialLibrary, prior: MaterialPosterior,
                     sample: HapticSample) -> MaterialPosterior:
    """One recursive Bayes step: posterior ∝ prior × feature likelihoods.

    Feeding the returned posterior back as the next prior integrates
    repeated explorations of the same voxel.  Works row-wise: ``prior``
    may hold one ``(n,)`` posterior with scalar ``sample.e``/``sample.c``,
    or a ``(T, n)`` batch with length-T sample arrays, row t updated by
    sample t.  A row whose likelihoods all floor to zero (e.g. a NaN
    feature) keeps its prior unchanged, and then the result carries
    ``degenerate=True``.  A ``lib`` that is not a :class:`MaterialLibrary`,
    a ``prior`` that is not a :class:`MaterialPosterior` or a ``sample``
    that is not a :class:`HapticSample` raises ``ValueError`` naming it.
    """
    _check_type("prior", prior, MaterialPosterior)
    probs, degenerate = _posterior_update(prior.probs, log_likelihoods(lib, sample))
    return MaterialPosterior(probs, degenerate=bool(degenerate.any()))


def map_category(post: MaterialPosterior):
    """Index of the most probable material, per row (an ``int`` for one
    posterior, an index array for a batch); ties break to the lowest
    index.  A ``post`` that is not a :class:`MaterialPosterior` raises
    ``ValueError`` naming it."""
    _check_type("post", post, MaterialPosterior)
    idx = np.argmax(post.probs, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


class VoxelUpdate(NamedTuple):
    """Outcome of :meth:`PosteriorGrid.update` at one voxel."""

    k_count: int        # samples integrated at the voxel so far
    degenerate: bool    # this sample left the prior unchanged


class PosteriorGrid:
    """Material posteriors for every voxel of a workspace grid.

    Stores a ``(theta, n)`` probability matrix ``probs`` plus per-voxel
    counts ``k_counts`` of integrated samples, in linear-index order.  Rows
    start at the uniform prior, and a voxel with no sample integrated
    (``k_counts`` 0) still holds it exactly, since a degenerate update
    keeps its prior.  Distinct voxels may be updated independently; each
    :meth:`update` reports whether its sample was degenerate.  A ``theta``
    below 1 or ``n_materials`` below 2 (an entropy over one material
    divides by zero), or either not an integer, raises ``ValueError``.
    """

    def __init__(self, theta: int, n_materials: int):
        _check_integer("theta", theta, 1)
        _check_integer("n_materials", n_materials, 2)
        self._prior = np.full(n_materials, 1.0 / n_materials)
        self._log_prior = np.log(self._prior)
        self.probs = np.empty((theta, n_materials))
        self.probs.fill(1.0 / n_materials)
        self.k_counts = np.zeros(theta, dtype=int)

    def first_updates(self, log_lik: np.ndarray):
        """What :meth:`update` makes of an unexplored voxel's row, the
        uniform prior, for every ``(n,)`` row of ``log_lik`` at once:
        :func:`_posterior_update` of the prior over the batch, whose rows
        equal single-row calls.  The log of the prior is taken once, when
        the grid is made, and the batch goes through the kernel's tail,
        :func:`_posterior_of`.  Returns ``(rows, degenerate)``, shaped like
        ``log_lik`` and like its leading axes."""
        return _posterior_of(self._log_prior + log_lik, self._prior)

    def update(self, linear: int, log_lik: np.ndarray,
               first=None) -> VoxelUpdate:
        """Recursive update of one voxel's posterior in place, from the
        ``(n,)`` row ``log_lik`` of the sample's :func:`log_likelihoods`.

        ``first``, if given, is the ``(row, degenerate)`` entry of
        :meth:`first_updates` for this ``log_lik``, computed with the
        sample's sense block, and the voxel must be unexplored
        (``k_counts[linear] == 0``): its row is then the uniform prior, so
        that entry is the update's outcome and is stored without running
        the kernel again.  Otherwise the voxel's own row goes through
        :func:`_posterior_update`.  A degenerate sample (every likelihood
        floors to zero, e.g. a NaN feature) keeps the prior and is not
        counted in ``k_counts``.  Returns the voxel's sample count and the
        degenerate flag; the updated row is ``probs[linear]``.  A
        ``linear`` that is not an integer in ``[0, theta)`` (numpy integers
        are, ``bool`` is not) raises the ``ValueError`` of
        :meth:`WorkspaceGrid.voxel_of_linear`, before anything changes.
        """
        linear = _as_index(linear, "linear index", len(self.k_counts))
        count = int(self.k_counts[linear])
        if first is None:
            new_probs, degenerate = _posterior_update(self.probs[linear], log_lik)
        elif count:
            raise ValueError(f"voxel {linear} has {count} samples, so its row "
                             f"is not the prior that `first` was computed from")
        else:
            new_probs, degenerate = first
        self.probs[linear] = new_probs
        if not degenerate:
            count += 1
            self.k_counts[linear] = count
        return VoxelUpdate(count, bool(degenerate))

    def entropies(self) -> np.ndarray:
        """Normalized entropy of every row, vectorized."""
        return _normalized_entropies(self.probs)


def _normalized_entropies(probs: np.ndarray):
    """Entropy of each row of a probability array over its last axis, or
    of one ``(n,)`` row as a scalar, over its maximum ``log(n)``; a zero
    probability adds a zero term."""
    # log only where p > 0, so log(0) is never taken and needs no
    # errstate; a zero entry's term is then 0.0 * 0.0 = +0.0
    plogp = np.log(probs, out=np.zeros(probs.shape), where=probs > 0)
    plogp *= probs
    return -np.add.reduce(plogp, axis=-1) / math.log(probs.shape[-1])
