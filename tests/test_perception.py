import math

import numpy as np
import pytest
from scipy import stats

from hapticbayes import (
    HapticSample,
    MaterialLibrary,
    MaterialParams,
    MaterialPosterior,
    NoiseSpec,
    PosteriorGrid,
    TaskSpec,
    WorkspaceBounds,
    log_likelihoods,
    make_grid,
    map_category,
    synthesize_sample,
    update_posterior,
)
from hapticbayes.attention import TrialState
from hapticbayes.perception import _normalized_entropies, _posterior_update


def pair_lib(mu_e_a=0.0, mu_e_b=1.0, sigma_e=1.0, mu_c=5.0, sigma_c=1.0):
    return MaterialLibrary([
        MaterialParams("a", mu_e_a, sigma_e, mu_c, sigma_c),
        MaterialParams("b", mu_e_b, sigma_e, mu_c, sigma_c),
    ])


def reference_posterior(lib, prior, samples):
    """Independent oracle: plain Bayes rule with scipy densities."""
    probs = np.array(prior, dtype=float)
    for s in samples:
        lik = np.array([
            stats.norm.pdf(s.e, m.mu_E, m.sigma_E)
            * stats.norm.pdf(s.c, m.mu_C, m.sigma_C)
            for m in lib.materials
        ])
        probs = probs * lik
        probs /= probs.sum()
    return probs


def likelihood(lib, material_index, sample):
    return float(np.exp(log_likelihoods(lib, sample)[material_index]))


def test_likelihood_peak_value():
    lib = pair_lib(sigma_e=0.3, sigma_c=0.7)
    peak = likelihood(lib, 0, HapticSample(0.0, 5.0))
    assert peak == pytest.approx(1.0 / (2 * math.pi * 0.3 * 0.7), rel=1e-12)


def test_likelihood_far_tail_is_negligible():
    lib = pair_lib(sigma_e=0.3, sigma_c=0.7)
    peak = likelihood(lib, 0, HapticSample(0.0, 5.0))
    tail = likelihood(lib, 0, HapticSample(0.0 + 10 * 0.3, 5.0 + 10 * 0.7))
    assert tail <= peak * math.exp(-100) * (1 + 1e-9)


def test_likelihood_identical_params_symmetry():
    lib = MaterialLibrary([
        MaterialParams("a", 1.0, 0.5, 2.0, 0.5),
        MaterialParams("b", 1.0, 0.5, 2.0, 0.5),
    ])
    for sample in (HapticSample(0.2, 1.1), HapticSample(3.0, -1.0)):
        assert likelihood(lib, 0, sample) == likelihood(lib, 1, sample)


def test_update_uniform_stays_uniform_for_twins():
    lib = MaterialLibrary([
        MaterialParams("a", 1.0, 0.5, 2.0, 0.5),
        MaterialParams("b", 1.0, 0.5, 2.0, 0.5),
    ])
    post = update_posterior(lib, MaterialPosterior.uniform(2),
                            HapticSample(0.7, 2.2))
    assert post.probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_update_delta_prior_is_absorbing():
    lib = pair_lib()
    delta = MaterialPosterior(np.array([1.0, 0.0]))
    for sample in (HapticSample(1.0, 5.0), HapticSample(0.9, 4.0)):
        post = update_posterior(lib, delta, sample)
        assert post.probs == pytest.approx([1.0, 0.0], abs=0)


def test_update_symmetric_sample_splits_evenly():
    lib = pair_lib(mu_e_a=0.0, mu_e_b=1.0)
    post = update_posterior(lib, MaterialPosterior.uniform(2),
                            HapticSample(0.5, 5.0))
    assert post.probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_update_matches_reference_on_quantized_grid():
    # brute-force oracle over an integer-quantized feature grid
    lib = pair_lib(mu_e_a=1.0, mu_e_b=3.0, sigma_e=0.8, mu_c=2.0, sigma_c=0.9)
    for e in range(5):
        for c in range(5):
            s = HapticSample(float(e), float(c))
            mine = update_posterior(lib, MaterialPosterior.uniform(2), s)
            ref = reference_posterior(lib, [0.5, 0.5], [s])
            assert mine.probs == pytest.approx(ref, abs=1e-9)
            chained = update_posterior(lib, mine, HapticSample(float(c), float(e)))
            ref2 = reference_posterior(lib, [0.5, 0.5],
                                       [s, HapticSample(float(c), float(e))])
            assert chained.probs == pytest.approx(ref2, abs=1e-9)


def test_update_order_invariance(lib):
    rng = np.random.default_rng(3)
    s1 = synthesize_sample(lib, 7, NoiseSpec(), rng)
    s2 = synthesize_sample(lib, 7, NoiseSpec(), rng)
    p0 = MaterialPosterior.uniform(len(lib))
    a = update_posterior(lib, update_posterior(lib, p0, s1), s2)
    b = update_posterior(lib, update_posterior(lib, p0, s2), s1)
    assert a.probs == pytest.approx(b.probs, abs=1e-9)


def test_update_normalization_invariant(lib):
    rng = np.random.default_rng(17)
    post = MaterialPosterior.uniform(len(lib))
    for _ in range(30):
        m = int(rng.integers(len(lib)))
        post = update_posterior(lib, post, synthesize_sample(lib, m, NoiseSpec(), rng))
        assert abs(post.probs.sum() - 1.0) <= 1e-9
        assert np.all(post.probs >= 0)


def test_update_degenerate_evidence_keeps_prior(lib):
    prior = MaterialPosterior.uniform(len(lib))
    post = update_posterior(lib, prior, HapticSample(1e300, 1e300))
    assert post.degenerate
    assert post.probs == pytest.approx(prior.probs, abs=0)


@pytest.mark.filterwarnings("error")
def test_batched_update_keeps_degenerate_row_prior(lib):
    n = len(lib)
    prior = update_posterior(lib, MaterialPosterior.uniform(n),
                             HapticSample(1.2, 3.4))
    rows = MaterialPosterior(np.stack([prior.probs, prior.probs]))
    ordinary = HapticSample(0.9, 2.5)
    post = update_posterior(lib, rows, HapticSample(np.array([ordinary.e, 1e300]),
                                                    np.array([ordinary.c, 1e300])))
    assert post.degenerate is True
    assert np.array_equal(post.probs[1], prior.probs)
    assert np.array_equal(post.probs[0],
                          update_posterior(lib, prior, ordinary).probs)


def test_update_posterior_counts_only_integrated_samples(lib):
    n = len(lib)
    nan = HapticSample(math.nan, 1.0)
    prior = update_posterior(lib, MaterialPosterior.uniform(n),
                             HapticSample(1.2, 3.4))
    # one row, NaN sample: prior kept
    with np.errstate(invalid="raise"):
        post = update_posterior(lib, prior, nan)
    assert post.degenerate
    assert np.array_equal(post.probs, prior.probs)
    # a batch whose every row is degenerate
    rows = MaterialPosterior(np.stack([prior.probs] * 3))
    post = update_posterior(lib, rows, HapticSample(np.full(3, math.nan),
                                                    np.ones(3)))
    assert post.degenerate
    assert np.array_equal(post.probs, rows.probs)
    # a mixed batch: the NaN row keeps its prior
    post = update_posterior(lib, rows, HapticSample(np.array([0.9, math.nan, 1.1]),
                                                    np.array([2.5, 1.0, 2.0])))
    assert post.degenerate
    assert np.array_equal(post.probs[1], prior.probs)
    assert np.array_equal(post.probs[0],
                          update_posterior(lib, prior, HapticSample(0.9, 2.5)).probs)


def test_batched_update_rows_match_scalar_updates(lib):
    rng = np.random.default_rng(11)
    n = len(lib)
    mats = rng.integers(n, size=200)
    samples = [synthesize_sample(lib, int(m), NoiseSpec(), rng) for m in mats]
    batch = MaterialPosterior.uniform(n, (200,))
    scalar = [MaterialPosterior.uniform(n)] * 200
    for _ in range(3):
        batch = update_posterior(lib, batch, HapticSample(
            np.array([s.e for s in samples]), np.array([s.c for s in samples])))
        scalar = [update_posterior(lib, p, s) for p, s in zip(scalar, samples)]
        assert not batch.degenerate
        assert np.array_equal(batch.probs, np.stack([p.probs for p in scalar]))
    assert np.array_equal(map_category(batch),
                          [map_category(p) for p in scalar])


def test_posterior_kernel_batch_rows_equal_single_row_calls(lib):
    # the one kernel behind classification batches and the loop's single
    # voxel: each batch row equals its own single-row call, bit for bit,
    # and neither call writes into its inputs
    n = len(lib)
    rng = np.random.default_rng(12)
    priors = rng.dirichlet(np.full(n, 0.5), 7)
    priors[1] = np.eye(n)[3]                 # zeros in the prior
    log_lik = rng.normal(-5.0, 3.0, (7, n))
    log_lik[2] = math.nan                    # a NaN feature: keeps the prior
    log_lik[3] = -800.0                      # every term but the first floors
    log_lik[3, 0] = 0.0                      # to zero
    log_lik[4, 5] = -math.inf
    log_lik[5] = -math.inf                   # no finite term: keeps the prior
    inputs = priors.copy(), log_lik.copy()
    batch, degenerate = _posterior_update(priors, log_lik)
    assert degenerate.tolist() == [False, False, True, False, False, True, False]
    assert np.array_equal(batch[3], np.eye(n)[0])
    assert np.array_equal(batch[2], priors[2])
    assert np.array_equal(batch[5], priors[5])
    for t in range(len(priors)):
        row, row_degenerate = _posterior_update(priors[t], log_lik[t])
        assert row_degenerate.shape == () and row_degenerate == degenerate[t]
        assert np.array_equal(row.view(np.int64), batch[t].view(np.int64)), t
    assert np.array_equal(priors, inputs[0])
    assert np.array_equal(log_lik, inputs[1], equal_nan=True)


@pytest.mark.parametrize("theta, n_materials, message",
                         [(5, 1, "n_materials must be an integer >= 2, got 1"),
                          (5, 0, "n_materials must be an integer >= 2, got 0"),
                          (1.5, 3, "theta must be an integer >= 1, got 1.5"),
                          (0, 3, "theta must be an integer >= 1, got 0"),
                          (True, 3, "theta must be an integer >= 1, got True"),
                          (4, 2.0, "n_materials must be an integer >= 2, got 2.0")],
                         ids=["one-material", "no-material", "theta-1.5",
                              "theta-0", "theta-bool", "n-float"])
def test_posterior_grid_rejects_sizes_it_cannot_use(theta, n_materials, message):
    # (5, 1) used to give NaN entropies with a warning, (5, 0) a raw
    # ZeroDivisionError and (1.5, 3) a raw TypeError
    with pytest.raises(ValueError, match=f"^{message}$"):
        PosteriorGrid(theta, n_materials)
    assert PosteriorGrid(np.int64(1), np.uint8(2)).probs.shape == (1, 2)


def test_map_category_tie_break():
    assert map_category(MaterialPosterior(np.array([0.1, 0.7, 0.2]))) == 1
    assert map_category(MaterialPosterior.uniform(10)) == 0


def test_map_category_silicone_monte_carlo(lib):
    # 5-sample integration recovers silicone in >= 95 of 100 seeded runs
    sil = lib.index_of("silicone")
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(rep)
        post = MaterialPosterior.uniform(len(lib))
        for _ in range(5):
            post = update_posterior(lib, post,
                                    synthesize_sample(lib, sil, NoiseSpec(), rng))
        hits += map_category(post) == sil
    assert hits >= 95


def test_normalized_entropy_cases():
    pg = PosteriorGrid(3, 10)                  # row 0 keeps the uniform prior
    pg.probs[1] = 0.0
    pg.probs[1, 4] = 1.0
    pg.probs[2] = 0.0
    pg.probs[2, :2] = 0.5
    h = pg.entropies()
    assert h[0] == pytest.approx(1.0)
    assert h[1] == 0.0
    assert h[2] == pytest.approx(math.log(2) / math.log(10), abs=1e-12)


def where_entropies(probs):
    """Reference form of ``_normalized_entropies``: ``p log p`` under
    ``np.where``, with the log's warnings silenced."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    return -plogp.sum(axis=1) / math.log(probs.shape[1])


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_normalized_entropies_keep_the_bits_of_the_where_form(lib):
    n = len(lib)
    # rows with floored zeros: a few touches of one material each
    rng = np.random.default_rng(6)
    pg = PosteriorGrid(4 * n, n)
    for j in range(4 * n):
        for _ in range(1 + j % 4):
            pg.update(j, log_likelihoods(
                lib, synthesize_sample(lib, j % n, NoiseSpec(), rng)))
    floored = pg.probs
    h = _normalized_entropies(floored)
    assert ((floored == 0.0).any(axis=1) & (h > 0.0)).any()
    one_hot = np.eye(n)
    rows = np.concatenate([floored, one_hot, np.full((1, n), 1.0 / n),
                           rng.dirichlet(np.full(n, 0.3), 50)])
    assert_same_bits(_normalized_entropies(rows), where_entropies(rows))
    # a one-hot row's entropy is -0.0
    assert np.all(np.signbit(_normalized_entropies(one_hot)))
    grid = make_grid(WorkspaceBounds(0, 0.03, 0, 0.02, 0, 0.01, 0.01))
    for m in range(2, 13):
        uniform = np.full((3, m), 1.0 / m)
        assert_same_bits(_normalized_entropies(uniform), where_entropies(uniform))
        # the start row of a trial's uncertainty field
        start = TrialState(grid, TaskSpec(0, 1), m).uncertainty
        assert_same_bits(start, np.full(grid.theta, np.clip(
            where_entropies(uniform[:1]), 0.0, 1.0)[0]))


def test_posterior_mass_sharpens_with_more_samples(lib):
    # mean posterior mass on the true material is non-decreasing in the
    # sample count, pooled over all materials x 400 seeded trials
    n = len(lib)
    stages = np.zeros(6)   # prior, then after 1..5 samples
    trials = 0
    for m in range(n):
        rng = np.random.default_rng(1000 + m)
        for _ in range(400):
            post = MaterialPosterior.uniform(n)
            stages[0] += post.probs[m]
            for k in range(1, 6):
                post = update_posterior(
                    lib, post, synthesize_sample(lib, m, NoiseSpec(), rng))
                stages[k] += post.probs[m]
            trials += 1
    means = stages / trials
    assert np.all(np.diff(means) >= -1e-3), means


def test_posterior_grid_matches_scalar_updates(lib):
    rng = np.random.default_rng(9)
    pg = PosteriorGrid(4, len(lib))
    ref = MaterialPosterior.uniform(len(lib))
    for _ in range(4):
        s = synthesize_sample(lib, 9, NoiseSpec(), rng)
        pg.update(2, log_likelihoods(lib, s))
        ref = update_posterior(lib, ref, s)
    assert pg.probs[2] == pytest.approx(ref.probs, abs=1e-12)
    assert pg.k_counts[2] == 4
    # untouched rows stay at the uniform prior
    assert pg.probs[0] == pytest.approx(np.full(len(lib), 1 / len(lib)))
    assert pg.entropies()[0] == pytest.approx(1.0)


def test_posterior_grid_nan_sample_is_not_counted(lib):
    from hapticbayes import TaskSpec, omega_field
    pg = PosteriorGrid(3, len(lib))
    with np.errstate(invalid="raise"):
        post = pg.update(1, log_likelihoods(lib, HapticSample(math.nan, 1.0)))
    assert post.degenerate and post.k_count == 0
    assert pg.k_counts.tolist() == [0, 0, 0]
    assert np.all(pg.probs[1] == 1 / len(lib))
    om = omega_field(pg, TaskSpec(lib.index_of("silicone"), lib.index_of("wood")))
    assert om[1] == 0.5


def test_posterior_validation():
    with pytest.raises(ValueError):
        MaterialPosterior(np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="each row"):
        MaterialPosterior(np.array([[0.5, 0.5], [0.5, 0.6]]))


@pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, math.nan],
                                   [math.inf, 0.5],
                                   [[0.5, 0.5], [math.nan, 1.0]]])
def test_posterior_rejects_non_finite_probabilities(probs):
    # NaN compares False both ways, so a check written as "reject if
    # negative" would let it through
    with pytest.raises(ValueError, match="probs must be non-negative"):
        MaterialPosterior(np.array(probs))
