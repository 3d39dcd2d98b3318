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

from .grid import _as_index, _check_integer, _check_type, _floats
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
        probs = _floats("probs", self.probs)
        # a minimum and a matrix-vector product each pass over the whole
        # batch once, where a sum along the short last axis runs one
        # reduction per row; the 1e-9 tolerance does not see the order of
        # summation, and a NaN fails the minimum, an infinity the sums
        if not (probs.ndim
                and (probs.size == 0 or probs.min() >= 0)
                and (abs(probs @ np.ones(probs.shape[-1]) - 1.0)
                     <= 1e-9).all()):
            raise ValueError("probs must be non-negative and each row must "
                             "sum to 1")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n: int, shape: tuple = ()) -> "MaterialPosterior":
        """Uniform prior over ``n`` materials, one row per element of
        ``shape`` (``()`` for a single ``(n,)`` posterior)."""
        n = _check_integer("n", n, 1)
        return cls(np.full(shape + (n,), 1.0 / _floats("n", n)))


def log_likelihoods(lib: MaterialLibrary, sample: HapticSample) -> np.ndarray:
    """Log of ``NormalPDF(e; mu_E, sigma_E) * NormalPDF(c; mu_C, sigma_C)``
    for every material: shape ``np.shape(sample.e) + (n,)``.

    The array is the transposed view ``.T`` of the materials-first
    ``(n, ...)`` result of the package's one likelihood arithmetic, so
    ``log_likelihoods(lib, sample).T`` is materials first and contiguous
    (its trailing axes in reverse order), the layout of
    :func:`_posterior_update`.  A row ``[..., :]`` is a strided view."""
    e, c = _sample_floats(lib, sample)
    return _log_lik(lib, e.T, c.T, e.ndim).T


def _sample_floats(lib: MaterialLibrary, sample: HapticSample):
    """``sample``'s features as float arrays of one shape, after the
    argument checks of :func:`log_likelihoods`."""
    _check_type("lib", lib, MaterialLibrary)
    _check_type("sample", sample, HapticSample)
    e = _floats("sample.e", sample.e)
    c = _floats("sample.c", sample.c)
    if e.shape != c.shape:
        e, c = np.broadcast_arrays(e, c)
    return e, c


def _log_lik(lib: MaterialLibrary, e: np.ndarray, c: np.ndarray,
             axes: int) -> np.ndarray:
    """The log-likelihood arithmetic: the features ``e`` and ``c`` against
    the library's columns, shaped ``(n,)`` plus ``axes`` unit axes, in a
    fresh C-ordered array of the broadcast shape.  Each entry is computed
    elementwise, so its bits do not depend on the layout."""
    shape = (len(lib),) + (1,) * axes
    ze = np.subtract(e, lib.mu_e.reshape(shape), order="C")
    ze /= lib.sigma_e.reshape(shape)
    zc = np.subtract(c, lib.mu_c.reshape(shape), order="C")
    zc /= lib.sigma_c.reshape(shape)
    # -0.5 * (ze * ze + zc * zc) - log_sigma_e - log_sigma_c - log(2 pi),
    # in place on ze, in that order
    with np.errstate(over="ignore"):      # huge z just pins the log to -inf
        ze *= ze
        zc *= zc
        ze += zc
        ze *= -0.5
        ze -= lib.log_sigma_e.reshape(shape)
        ze -= lib.log_sigma_c.reshape(shape)
        ze -= _LOG_2PI
    return ze


def _posterior_update(probs: np.ndarray, log_lik: np.ndarray):
    """The posterior-update kernel, materials first: ``probs`` and
    ``log_lik`` have shape ``(n, ...)``, one posterior per index of the
    trailing axes.  A row-major ``(..., n)`` batch passes its ``.T``, and a
    single ``(n,)`` row is the same array in either layout.

    Returns ``(new_probs, degenerate)``: the posteriors, materials first,
    and a boolean mask of the trailing shape (a scalar for one row).  A
    posterior whose log-posterior maximum is not finite keeps its prior
    exactly.  Every entry equals the row-major formula's bit for bit: see
    :func:`_posterior_of`.
    """
    with np.errstate(divide="ignore"):
        lp = np.log(probs)
    lp += log_lik
    return _posterior_of(lp, probs)


def _posterior_of(lp: np.ndarray, probs: np.ndarray):
    """The tail of :func:`_posterior_update`, from the materials-first
    log-posteriors ``lp`` (the log prior plus the log-likelihoods,
    overwritten here): returns ``(new_probs, degenerate)`` as that function
    does.  ``probs`` holds the priors, broadcasting against ``lp``; a
    degenerate posterior gets its prior back.

    The maximum, its subtraction and the division by the normaliser run
    along the long trailing axes and give the row-major bits: a maximum is
    exact in any order, and the other two are elementwise.  The normaliser
    is the one step whose bits depend on layout, since numpy sums a
    contiguous row pairwise and a strided one in another order; so each
    row is summed from a row-contiguous copy, as numpy sums a row."""
    m = np.maximum.reduce(lp, axis=0, keepdims=True)
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
    w /= np.add.reduce(np.ascontiguousarray(w.T), axis=-1).T
    if any_degenerate:
        np.copyto(w, probs, where=degenerate)
    return w, degenerate[0]


def update_posterior(lib: MaterialLibrary, prior: MaterialPosterior,
                     sample: HapticSample) -> MaterialPosterior:
    """Recursive Bayes steps: posterior ∝ prior × feature likelihoods.

    ``prior`` holds one ``(n,)`` posterior or a batch of shape ``batch +
    (n,)``, each row updated by its own samples.  A sample of shape
    ``batch`` is one step, row t updated by sample t (scalar features for
    one posterior); a sample of shape ``batch + (k,)`` is k steps, which
    integrate its samples along that last axis in order, each step's
    result the next step's prior, as k calls would.  A row whose
    likelihoods all floor to zero (e.g. a NaN feature) keeps its prior
    unchanged in that step, and then the result carries
    ``degenerate=True``.  A ``prior`` over another number of materials
    than ``lib``, or a sample of another shape, raises ``ValueError``
    naming it.

    The steps run materials first: the log-likelihoods of all k steps are
    one ``(k, n) + batch[::-1]`` array, so each step's are one contiguous
    slab, and the result's ``probs`` is the transposed view of the last
    step's ``(n,) + batch[::-1]`` array.
    """
    _check_type("prior", prior, MaterialPosterior)
    e, c = _sample_floats(lib, sample)
    if prior.probs.shape[-1] != len(lib):
        raise ValueError(f"prior has {prior.probs.shape[-1]} materials, the "
                         f"library {len(lib)}")
    batch = prior.probs.shape[:-1]
    if e.shape == batch:
        e, c = e[..., None], c[..., None]
    elif e.shape[:-1] != batch:
        raise ValueError(f"sample has shape {e.shape}, not the prior's batch "
                         f"shape {batch} nor that shape and a last axis of "
                         f"steps")
    log_lik = _log_lik(lib, e.T[:, None], c.T[:, None], len(batch))
    # materials first in memory too, so every step reduces along axis 0
    probs = np.ascontiguousarray(prior.probs.T)
    degenerate = False
    for step in log_lik:
        probs, step_degenerate = _posterior_update(probs, step)
        degenerate |= bool(step_degenerate.any())
    return MaterialPosterior(probs.T, degenerate=degenerate)


def map_category(post: MaterialPosterior):
    """Index of the most probable material, per row (an ``int`` for one
    posterior, an index array for a batch); ties break to the lowest
    index."""
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
    :meth:`update` reports whether its sample was degenerate.
    ``n_materials`` is at least 2: an entropy over one divides by zero.
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
        :func:`_posterior_of`, materials first on ``log_lik.T``.  Returns
        ``(rows, degenerate)``, shaped like ``log_lik`` and like its
        leading axes: the transposed views of the kernel's results.  A
        :func:`log_likelihoods` table's ``.T`` is contiguous, so the kernel
        reads it as it lies in memory."""
        lik = log_lik.T
        shape = (-1,) + (1,) * (lik.ndim - 1)
        rows, degenerate = _posterior_of(self._log_prior.reshape(shape) + lik,
                                         self._prior.reshape(shape))
        return rows.T, degenerate.T

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
        degenerate flag; the updated row is ``probs[linear]``.  A bad
        ``linear`` raises before anything changes.
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
    probability adds a zero term.  The rows are read from a row-contiguous
    copy of a strided ``probs``, such as a view of the kernel's
    materials-first results, so that the log and the row sums take the
    paths they take on a contiguous array."""
    probs = np.ascontiguousarray(probs)
    # log only where p > 0, so log(0) is never taken and needs no
    # errstate; a zero entry's term is then 0.0 * 0.0 = +0.0
    plogp = np.log(probs, out=np.zeros(probs.shape), where=probs > 0)
    plogp *= probs
    return -np.add.reduce(plogp, axis=-1) / math.log(probs.shape[-1])
