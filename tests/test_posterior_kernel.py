"""The materials-first posterior kernel held to the row-major formula.

:func:`perception._posterior_update` and :func:`perception._log_lik` work
materials first, on arrays of shape ``(n, ...)``, and the row sum of the
normaliser reads a row-contiguous copy.  Each test here computes the same
update the straightforward way, row by row over the last axis as numpy
lays a ``(..., n)`` batch out, and asserts equal bits: over batch shapes
``()``, ``(T,)`` and ``(32, m)``, over material counts on both sides of
numpy's 8-wide blocked sum and its recursive halving above 128, and over
NaN, degenerate and mixed rows.  ``update_posterior``'s k-step form is
held to k single-step calls.
"""

import math

import numpy as np
import pytest

from hapticbayes import (
    HapticSample,
    MaterialLibrary,
    MaterialParams,
    MaterialPosterior,
    PosteriorGrid,
    log_likelihoods,
    update_posterior,
)
from hapticbayes.perception import LOG_FLOOR, _posterior_update

# an oracle CI also runs with numpy's SIMD dispatch disabled (-m dispatch_oracle)
pytestmark = pytest.mark.dispatch_oracle

#: Material counts: below, at and past numpy's 8 accumulators, a row of
#: the bundled library, and past the 128 entries where its sum recurses.
N_MATERIALS = (2, 3, 7, 8, 9, 10, 16, 129, 300)
BATCHES = ((), (23,), (32, 3))


def row_major_update(probs, log_lik):
    """The update written row by row over the last axis of ``(..., n)``
    arrays: returns the posteriors and the degenerate mask."""
    with np.errstate(divide="ignore"):
        lp = np.log(probs) + log_lik
    m = np.max(lp, axis=-1, keepdims=True)
    degenerate = ~np.isfinite(m)
    lp = np.where(degenerate, 0.0, lp)
    lp = lp - np.where(degenerate, 0.0, m)
    w = np.exp(np.maximum(lp, LOG_FLOOR))
    w[lp <= LOG_FLOOR] = 0.0
    w = w / w.sum(axis=-1, keepdims=True)
    return np.where(degenerate, probs, w), degenerate[..., 0]


def row_major_log_lik(lib, e, c):
    """The log-likelihoods written as one expression over ``(..., n)``."""
    ze = (np.asarray(e, float)[..., None] - lib.mu_e) / lib.sigma_e
    zc = (np.asarray(c, float)[..., None] - lib.mu_c) / lib.sigma_c
    with np.errstate(over="ignore"):
        return ((ze * ze + zc * zc) * -0.5 - lib.log_sigma_e - lib.log_sigma_c
                - math.log(2.0 * math.pi))


def library(n, seed=0):
    rng = np.random.default_rng(seed)
    return MaterialLibrary([
        MaterialParams(f"m{i}", rng.uniform(-3, 3), rng.uniform(0.2, 2),
                       rng.uniform(-3, 3), rng.uniform(0.2, 2))
        for i in range(n)])


def rows(batch, n, seed):
    """Priors and log-likelihoods of shape ``batch + (n,)``, with zeros in
    the priors and, in a batch, NaN, all-floored, infinite and degenerate
    rows among ordinary ones."""
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.full(n, 0.5), batch or None)
    log_lik = rng.normal(-5.0, 30.0, batch + (n,))
    flat_p, flat_l = priors.reshape(-1, n), log_lik.reshape(-1, n)
    if len(flat_p) > 1:
        flat_p[0] = np.eye(n)[n // 2]          # a one-hot prior
        flat_l[1] = math.nan                   # a NaN feature: keeps the prior
        flat_l[2, n - 1] = math.nan            # one NaN term: degenerate too
        flat_l[3] = -800.0                     # every term but one floors
        flat_l[3, 0] = 0.0
        flat_l[4] = -math.inf                  # no finite term: keeps the prior
        flat_l[5, 0] = -math.inf               # one impossible material
        flat_l[6, 1] = math.inf                # an infinite term: degenerate
    return priors, log_lik


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("n", N_MATERIALS)
def test_kernel_equals_the_row_major_formula(n, batch):
    priors, log_lik = rows(batch, n, seed=n)
    want, want_degenerate = row_major_update(priors, log_lik)
    inputs = priors.copy(), log_lik.copy()
    # as row-major callers pass their batch (transposed views), and as
    # update_posterior passes its own (contiguous, materials first)
    for p, l in ((priors.T, log_lik.T),
                 (np.ascontiguousarray(priors.T), np.ascontiguousarray(log_lik.T))):
        got, degenerate = _posterior_update(p, l)
        assert got.shape == (n,) + batch[::-1]
        assert same_bits(got.T, want)
        assert np.shape(degenerate) == batch[::-1]
        assert np.array_equal(np.transpose(degenerate), want_degenerate)
    assert np.array_equal(priors, inputs[0])
    assert np.array_equal(log_lik, inputs[1], equal_nan=True)
    if batch:
        assert want_degenerate.reshape(-1)[[1, 2, 4, 6]].all()
        assert not want_degenerate.reshape(-1)[[0, 3, 5]].any()


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("n", N_MATERIALS)
def test_log_likelihoods_equal_the_row_major_formula(n, batch):
    lib = library(n)
    rng = np.random.default_rng(n + 1)
    e, c = rng.normal(0, 3, batch), rng.normal(0, 3, batch)
    if batch:
        e.reshape(-1)[0] = math.nan
        c.reshape(-1)[1] = 1e300
    got = log_likelihoods(lib, HapticSample(e, c))
    assert got.shape == batch + (n,)
    assert same_bits(got, row_major_log_lik(lib, e, c))


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("n", (2, 10, 129))
def test_first_updates_equal_the_row_major_formula(n, batch):
    _, log_lik = rows(batch, n, seed=n + 2)
    prior = np.full(n, 1.0 / n)
    got, degenerate = PosteriorGrid(4, n).first_updates(log_lik)
    want, want_degenerate = row_major_update(np.broadcast_to(prior, log_lik.shape),
                                             log_lik)
    assert same_bits(got, want)
    assert np.array_equal(degenerate, want_degenerate)


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("n", (2, 9, 10, 129))
def test_k_steps_equal_k_single_step_calls(n, batch):
    lib = library(n, seed=3)
    rng = np.random.default_rng(n + 3)
    k = 4
    e, c = rng.normal(0, 3, batch + (k,)), rng.normal(0, 3, batch + (k,))
    if batch:
        e.reshape(-1, k)[1, 2] = math.nan      # one degenerate step of a row
    prior = MaterialPosterior(rng.dirichlet(np.full(n, 0.5), batch or None))
    steps = update_posterior(lib, prior, HapticSample(e, c))
    one = prior
    degenerate = False
    for j in range(k):
        one = update_posterior(lib, one, HapticSample(e[..., j], c[..., j]))
        degenerate |= one.degenerate
    assert steps.probs.shape == batch + (n,)
    assert same_bits(steps.probs, one.probs)
    assert steps.degenerate is degenerate is bool(batch)
    # and each single step is the row-major formula on the previous step
    want = prior.probs
    for j in range(k):
        want, _ = row_major_update(want, row_major_log_lik(lib, e[..., j],
                                                           c[..., j]))
    assert same_bits(steps.probs, want)


def test_a_sample_of_another_shape_names_the_sample():
    # numpy raised "operands could not be broadcast together"
    lib = library(10)
    prior = MaterialPosterior.uniform(10, (4,))
    with pytest.raises(ValueError, match=r"^sample has shape \(3,\), not the "
                                         r"prior's batch shape \(4,\)"):
        update_posterior(lib, prior, HapticSample(np.ones(3), np.ones(3)))
    with pytest.raises(ValueError, match=r"^sample has shape \(\), not"):
        update_posterior(lib, prior, HapticSample(1.0, 2.0))
    assert update_posterior(lib, prior, HapticSample(np.ones((4, 3)),
                                                     np.ones((4, 3)))
                            ).probs.shape == (4, 10)
