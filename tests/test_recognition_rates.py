"""π_per held to its own model: the recognition rates that
``run_classification_experiment`` should give, computed without library
code.

Material i's features are Gaussian: ``e`` with mean ``mu_E`` and standard
deviation ``hypot(sigma_E, scale * |mu_E| / 2)``, the material spread and
the additive noise, and ``c`` likewise.  The classifier is the MAP rule of
the summed log-likelihoods ``N(e; mu_E, sigma_E) N(c; mu_C, sigma_C)`` over
its ``k`` samples, which leaves the noise term out.

- For ``k = 1`` the expected confusion matrix is a 2-D integral, taken here
  by an equal-mass quadrature: ``m`` nodes per feature at the normal
  quantiles ``ndtri((i + 0.5) / m)``, each node pair of mass ``1 / m**2``.
  Every cell of a run's counts must lie within a z-bound of it.
- For ``k = 5`` the expected diagonal rates come from a Monte Carlo on
  another bit generator (``Philox``), scored by ``scipy.stats.norm.logpdf``.

The orderings that acceptance criteria 2 and 3 check on seeded runs are
asserted on the expected values too.  Finer grids and longer runs are
marked ``slow``.  None of this depends on the library's seeds.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from hapticbayes import NoiseSpec, run_classification_experiment

#: Cells of the k = 1 check: counts within Z_BOUND standard deviations of
#: the expected count, plus the quadrature's own error.
Z_BOUND = 4.5
#: Runs of the k = 1 and k = 5 checks: ``(nodes, trials)``; the quadrature
#: error is taken as 0.8 / nodes, about three times the largest cell change
#: from 400 to 1,500 nodes (7.1e-4 at noise scale 1).
K1_RUNS = [(400, 20_000),
           pytest.param(1_500, 200_000, marks=pytest.mark.slow)]
#: ``(Monte Carlo trials per material, classified trials per material)``.
K5_RUNS = [(10_000, 20_000),
           pytest.param(200_000, 200_000, marks=pytest.mark.slow)]


def feature_models(lib, scale):
    """Per material: the classifier's ``(mu, sigma)`` per feature, and the
    spread of the sensed feature at noise ``scale``."""
    models = []
    for mu, sigma in ((lib.mu_e, lib.sigma_e), (lib.mu_c, lib.sigma_c)):
        models.append((mu, sigma, np.hypot(sigma, scale * np.abs(mu) / 2.0)))
    return models


def expected_confusion_k1(lib, scale, nodes):
    """Row i: the probability that one sample of material i is classified
    as each material, by the equal-mass quadrature."""
    q = ndtri((np.arange(nodes) + 0.5) / nodes)
    (mu_e, sd_e, spread_e), (mu_c, sd_c, spread_c) = feature_models(lib, scale)
    n = len(mu_e)
    out = np.empty((n, n))
    for i in range(n):
        e = mu_e[i] + spread_e[i] * q
        c = mu_c[i] + spread_c[i] * q
        # (node, material) log-likelihood terms of each feature
        ll_e = -0.5 * ((e[:, None] - mu_e) / sd_e) ** 2 - np.log(sd_e)
        ll_c = -0.5 * ((c[:, None] - mu_c) / sd_c) ** 2 - np.log(sd_c)
        pick = np.argmax(ll_e[:, None, :] + ll_c[None, :, :], axis=-1)
        out[i] = np.bincount(pick.ravel(), minlength=n) / nodes ** 2
    return out


def expected_diagonal(lib, scale, k, trials):
    """Per material: the share of ``trials`` runs of ``k`` samples that the
    MAP rule classifies correctly, drawn with ``Philox``."""
    rng = np.random.Generator(np.random.Philox(20140))
    (mu_e, sd_e, spread_e), (mu_c, sd_c, spread_c) = feature_models(lib, scale)
    rates = np.empty(len(mu_e))
    for i in range(len(mu_e)):
        e = rng.normal(mu_e[i], spread_e[i], (trials, k, 1))
        c = rng.normal(mu_c[i], spread_c[i], (trials, k, 1))
        ll = (stats.norm.logpdf(e, mu_e, sd_e)
              + stats.norm.logpdf(c, mu_c, sd_c)).sum(axis=1)
        rates[i] = np.mean(np.argmax(ll, axis=-1) == i)
    return rates


@pytest.mark.parametrize("nodes, trials", K1_RUNS)
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_one_sample_confusion_matrix_equals_the_quadrature(lib, scale, nodes,
                                                           trials):
    expected = expected_confusion_k1(lib, scale, nodes)
    assert np.allclose(expected.sum(axis=1), 1.0)
    counts = run_classification_experiment(lib, trials, 1,
                                           NoiseSpec.uniform(scale)).counts
    mean = trials * expected
    bound = (Z_BOUND * np.sqrt(trials * expected * (1.0 - expected))
             + trials * 0.8 / nodes)
    off = np.abs(counts - mean) > bound
    assert not off.any(), [
        (lib.names[i], lib.names[j], int(counts[i, j]), round(mean[i, j], 1))
        for i, j in zip(*np.nonzero(off))]


@pytest.mark.parametrize("mc_trials, trials", K5_RUNS)
def test_five_sample_diagonal_rates_equal_the_monte_carlo(lib, mc_trials,
                                                          trials):
    expected = expected_diagonal(lib, 1.0, 5, mc_trials)
    rates = run_classification_experiment(lib, trials, 5).diagonal_rates()
    se = np.sqrt(expected * (1.0 - expected) * (1.0 / mc_trials + 1.0 / trials))
    z = np.abs(rates - expected) / se
    assert (z <= Z_BOUND).all(), dict(zip(lib.names, z.round(2)))


def test_expected_rates_keep_the_orderings_of_criteria_2_and_3(lib):
    scales = (1.0, 1.5, 2.0)
    one = np.array([np.diag(expected_confusion_k1(lib, s, 400))
                    for s in scales])
    five = np.array([expected_diagonal(lib, s, 5, 4_000) for s in scales])
    # the figures README states: 0.667 for one sample, 0.900 for five
    # with wood lowest, against the paper's ">90%"
    assert one[0].mean() == pytest.approx(0.667, abs=5e-4)
    assert five[0].mean() == pytest.approx(0.900, abs=5e-3)
    assert lib.names[int(np.argmin(five[0]))] == "wood"
    # criterion 2, at its noise scale 1: five samples beat one for every
    # material.  Not at higher noise: the classifier leaves the noise out,
    # and at scale 2 five samples classify copper 0.29 less often than one
    assert (five[0] > one[0]).all()
    # criterion 3: accuracy falls with noise, and five samples beat one
    means = np.column_stack([one.mean(axis=1), five.mean(axis=1)])
    assert (np.diff(means, axis=0) < 0).all()
    assert (means[:, 1] > means[:, 0]).all()
