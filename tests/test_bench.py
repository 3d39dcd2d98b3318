import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from hapticbayes import (
    AttentionState,
    MaterialLibrary,
    MaterialParams,
    MaterialPosterior,
    NoiseSpec,
    TrialConfig,
    VoxelIndex,
    dump_fields,
    load_library,
    make_grid,
    run_classification_experiment,
    run_exploration_benchmark,
    run_noise_sweep,
    run_trial,
    saliency_field,
    synthesize_sample,
    update_posterior,
)
from hapticbayes import bench
from hapticbayes.bench import write_output
from hapticbayes.materials import LIBRARY_FIELDS, _samples_of_draws
from hapticbayes.grid import WorkspaceBounds


@pytest.fixture(scope="module")
def separable_lib():
    # zero effective spread and far-apart means: perfectly classifiable
    return MaterialLibrary([
        MaterialParams("m1", 1.0, 1e-300, 1.0, 1e-300),
        MaterialParams("m2", 100.0, 1e-300, 100.0, 1e-300),
        MaterialParams("m3", 10000.0, 1e-300, 10000.0, 1e-300),
    ])


def test_classification_identity_for_separable_library(separable_lib):
    cm = run_classification_experiment(separable_lib, 25, 2, NoiseSpec(0, 0), 0)
    assert np.array_equal(cm.counts, 25 * np.eye(3, dtype=int))
    assert cm.mean_diagonal_rate() == 1.0


def test_classification_rows_sum_to_trials(lib):
    cm = run_classification_experiment(lib, 20, 2, NoiseSpec(), seed=1)
    assert np.all(cm.counts.sum(axis=1) == 20)
    assert cm.counts.shape == (10, 10)


def test_classification_reproducible(lib):
    a = run_classification_experiment(lib, 15, 2, NoiseSpec(), seed=9)
    b = run_classification_experiment(lib, 15, 2, NoiseSpec(), seed=9)
    c = run_classification_experiment(lib, 15, 2, NoiseSpec(), seed=10)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_classification_validates_arguments(lib):
    with pytest.raises(ValueError):
        run_classification_experiment(lib, 0, 5)
    with pytest.raises(ValueError):
        run_classification_experiment(lib, 10, 0)


def scalar_classification_counts(lib, trials, k, noise, seed):
    """Reference: one trial at a time, one sample per posterior update."""
    n = len(lib)
    counts = np.zeros((n, n), dtype=int)
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        for _ in range(trials):
            post = MaterialPosterior.uniform(n)
            for _ in range(k):
                post = update_posterior(lib, post,
                                        synthesize_sample(lib, i, noise, rng))
            counts[i, int(np.argmax(post.probs))] += 1
    return counts


@pytest.mark.dispatch_oracle
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_classification_matches_scalar_reference(lib, k, scale):
    noise = NoiseSpec.uniform(scale)
    cm = run_classification_experiment(lib, 40, k, noise, seed=3)
    assert np.array_equal(cm.counts,
                          scalar_classification_counts(lib, 40, k, noise, 3))


@pytest.mark.dispatch_oracle
def test_classification_blocks_match_one_block(lib, monkeypatch):
    one = run_classification_experiment(lib, 11, 3, NoiseSpec(), seed=5)
    monkeypatch.setattr(bench, "BLOCK_TRIALS", 3)
    blocks = run_classification_experiment(lib, 11, 3, NoiseSpec(), seed=5)
    assert np.array_equal(blocks.counts, one.counts)
    assert blocks.counts.sum() == 11 * len(lib)


# ---------------------------------------------------------------------------
# oracles for the batched classification draw

@pytest.mark.dispatch_oracle
@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(1.5, 0.5)])
def test_samples_of_draws_of_a_material_column_stack_per_material_calls(
        lib, noise):
    n = len(lib)
    z = np.random.default_rng(2).standard_normal((n, 7, 5, 4))
    batched = _samples_of_draws(lib, np.arange(n)[:, None, None], noise, z)
    alone = [_samples_of_draws(lib, i, noise, z[i]) for i in range(n)]
    assert np.array_equal(batched.e, np.stack([a.e for a in alone]))
    assert np.array_equal(batched.c, np.stack([a.c for a in alone]))


@pytest.mark.dispatch_oracle
@pytest.mark.parametrize("shape", [(7, 5, 4), (1, 1, 4), (3, 1, 4)])
def test_standard_normal_into_a_buffer_slice_equals_a_fresh_draw(shape):
    buf = np.empty((3,) + shape)
    rng = np.random.default_rng(6)
    rng.standard_normal(out=buf[1])
    rng.standard_normal(out=buf[2])
    want = np.random.default_rng(6).standard_normal((2,) + shape)
    assert np.array_equal(buf[1:], want)


@pytest.mark.dispatch_oracle
@pytest.mark.parametrize("block_trials", [3, bench.BLOCK_TRIALS])
@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(2.0, 2.0)])
def test_classification_block_equals_per_material_draws(lib, monkeypatch,
                                                        block_trials, noise):
    # every sample the batched blocks integrate equals the concatenated
    # per-material synthesize_sample draws, block by block: one (n * t, k)
    # sample per block, whose last axis holds each trial's k steps
    n, trials, k, seed = len(lib), 7, 4, 12
    seen = []

    def record(lib_, post, sample):
        seen.append(sample)
        return update_posterior(lib_, post, sample)

    monkeypatch.setattr(bench, "BLOCK_TRIALS", block_trials)
    monkeypatch.setattr(bench, "update_posterior", record)
    run_classification_experiment(lib, trials, k, noise, seed)
    rngs = [np.random.default_rng(seed + i) for i in range(n)]
    want = []
    for start in range(0, trials, block_trials):
        t = min(block_trials, trials - start)
        draws = [synthesize_sample(lib, i, noise, rng, (t, k))
                 for i, rng in enumerate(rngs)]
        e = np.concatenate([d.e for d in draws])
        c = np.concatenate([d.c for d in draws])
        want.append((e, c))
    assert len(seen) == len(want)
    for got, (e, c) in zip(seen, want):
        assert np.array_equal(got.e, e) and np.array_equal(got.c, c)


# ---------------------------------------------------------------------------
# oracles for the one-pass seeding: each generator's state is the state
# numpy's own SeedSequence hash gives default_rng

@pytest.mark.dispatch_oracle
@pytest.mark.parametrize("base", [0, 2**32 - 5, 2**64 - 5, 2**130],
                         ids=["0", "2**32-5", "2**64-5", "2**130"])
def test_generators_equal_default_rng(base):
    # the seeds past 2**32 and 2**64 cross a word of the entropy, and
    # 2**130 fills more words than the 4-word pool
    seeds = range(base, base + 10)
    got = bench._generators(seeds)
    assert len(got) == len(seeds)
    for rng, seed in zip(got, seeds):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.standard_normal(16),
                              want.standard_normal(16))


@pytest.mark.dispatch_oracle
def test_generators_equal_default_rng_over_the_first_seeds():
    for base in range(0, 3000, 10):
        seeds = range(base, base + 10)
        for rng, seed in zip(bench._generators(seeds), seeds):
            assert (rng.bit_generator.state
                    == np.random.default_rng(seed).bit_generator.state)


@pytest.mark.dispatch_oracle
@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32),
                                            (2, np.uint64), (8, np.uint64),
                                            (4, np.int64), (4, np.float64)])
def test_state_words_give_four_uint64_words_alone(n_words, dtype):
    words = np.arange(4, dtype=np.uint64)
    seed = bench._StateWords(words)
    assert seed.generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match="holds 4 uint64 words"):
        seed.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="holds 4 uint64 words"):
        seed.generate_state(4)


def test_confusion_matrix_rejects_counts_its_names_do_not_cover():
    # three materials named by two: to_csv would print 2 rows of 3 values
    with pytest.raises(ValueError, match="material_names has 2 names for 3"):
        bench.ConfusionMatrix(np.eye(3, dtype=int), 1, 1, ("a", "b"))
    with pytest.raises(ValueError, match=r"counts must be a square matrix"):
        bench.ConfusionMatrix(np.ones((2, 3), dtype=int), 1, 1, ("a", "b"))
    with pytest.raises(ValueError, match=r"counts must be a square matrix"):
        bench.ConfusionMatrix(np.ones(4, dtype=int), 1, 1, ("a", "b"))
    cm = bench.ConfusionMatrix(np.eye(2, dtype=int), 1, 1, ("a", "b"))
    assert cm.to_csv() == "truth\\predicted,a,b\na,1,0\nb,0,1\n"


@pytest.mark.parametrize("counts", [
    np.eye(2) * 0.6, np.eye(2), None, [[10**400, 0], [0, 1]], [[1, -1], [0, 1]],
    np.array([[2**63 + 1, 0], [0, 1]], dtype=np.uint64)],
    ids=["fractions", "float", "None", "too-large", "negative", "uint64-wraps"])
def test_confusion_matrix_rejects_counts_that_are_not_counts(counts):
    # 0.6 was truncated to an all-zero matrix, None raised a raw TypeError
    # and 10**400 a raw OverflowError
    with pytest.raises(ValueError, match=r"^counts must hold integers >= 0, "
                                         r"got "):
        bench.ConfusionMatrix(counts, 1, 1, ("a", "b"))


def test_noise_sweep_perfect_library_all_ones(separable_lib):
    sweep = run_noise_sweep(separable_lib, [NoiseSpec(0, 0)], trials=10,
                            k_list=(1, 3), seed=0)
    assert sweep.accuracy == pytest.approx(np.ones((1, 2)))


def test_noise_sweep_cells_match_rerun(lib):
    scales = [NoiseSpec.uniform(1.0), NoiseSpec.uniform(2.0)]
    sweep = run_noise_sweep(lib, scales, trials=20, k_list=(1, 2), seed=4)
    assert sweep.accuracy.shape == (2, 2)
    cell = run_classification_experiment(lib, 20, 2, scales[1], seed=4 + 3)
    assert sweep.accuracy[1, 1] == pytest.approx(cell.mean_diagonal_rate())


def test_noise_sweep_validates(lib):
    with pytest.raises(ValueError):
        run_noise_sweep(lib, [], trials=5)


def fail_if_called(*args, **kwargs):
    raise AssertionError("called before the seed was checked")


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_experiments_check_the_seed_before_any_work(lib, monkeypatch, seed):
    # the sweep's cells call bench.run_classification_experiment; this
    # module keeps its own reference to the real one
    monkeypatch.setattr(bench, "_samples_of_draws", fail_if_called)
    monkeypatch.setattr(bench, "run_classification_experiment", fail_if_called)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        run_noise_sweep(lib, [NoiseSpec()], trials=5, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        run_classification_experiment(lib, 5, 1, seed=seed)


@pytest.mark.parametrize("bad", [1.0, None])
def test_experiments_reject_a_noise_that_is_not_a_noise_spec(lib, monkeypatch,
                                                            bad):
    monkeypatch.setattr(bench, "_samples_of_draws", fail_if_called)
    monkeypatch.setattr(bench, "run_classification_experiment", fail_if_called)
    with pytest.raises(ValueError, match=re.escape(
            f"noise must be a NoiseSpec, got {bad!r}")):
        run_classification_experiment(lib, 5, 1, bad)
    with pytest.raises(ValueError, match=re.escape(
            f"scales[1] must be a NoiseSpec with scale_E == scale_C, "
            f"got {bad!r}")):
        run_noise_sweep(lib, [NoiseSpec(), bad], trials=5)


def test_noise_sweep_rejects_a_spec_its_labels_cannot_name(lib, monkeypatch):
    # rows are labelled by one scale, so (1, 2) and (1, 1) would both
    # read "1"; the check runs before the first cell
    monkeypatch.setattr(bench, "run_classification_experiment", fail_if_called)
    with pytest.raises(ValueError, match=re.escape(
            "scales[1] must be a NoiseSpec with scale_E == scale_C, got "
            "NoiseSpec(scale_E=1.0, scale_C=2.0)")):
        run_noise_sweep(lib, [NoiseSpec(1.0, 1.0), NoiseSpec(1.0, 2.0)],
                        trials=5)


@pytest.mark.parametrize("bad", [2.5, 0, -1, "3", True])
def test_counts_must_be_integers_and_name_the_argument(lib, scenarios,
                                                       monkeypatch, bad):
    monkeypatch.setattr(bench, "_samples_of_draws", fail_if_called)
    monkeypatch.setattr(bench, "run_trial", fail_if_called)
    # the sweep calls the patched name; this module keeps the real one
    monkeypatch.setattr(bench, "run_classification_experiment", fail_if_called)
    for name, call in (
            ("trials_per_material", lambda: run_classification_experiment(lib, bad, 1)),
            ("k_samples", lambda: run_classification_experiment(lib, 5, bad)),
            ("trials", lambda: run_noise_sweep(lib, [NoiseSpec()], trials=bad)),
            (r"k_list\[1\]", lambda: run_noise_sweep(lib, [NoiseSpec()], trials=5,
                                                    k_list=(1, bad))),
            ("n_trials", lambda: run_exploration_benchmark(scenarios[0], lib, bad))):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, "
                                             rf"got {bad!r}$"):
            call()


def test_counts_accept_numpy_integers(lib, scenarios):
    assert np.array_equal(
        run_classification_experiment(lib, np.int64(6), np.int32(2), seed=1).counts,
        run_classification_experiment(lib, 6, 2, seed=1).counts)
    sweep = run_noise_sweep(lib, [NoiseSpec()], trials=np.int64(4),
                            k_list=(np.uint8(1), 2))
    assert np.array_equal(sweep.accuracy, run_noise_sweep(
        lib, [NoiseSpec()], trials=4, k_list=(1, 2)).accuracy)
    config = TrialConfig(max_iterations=3)
    assert (run_exploration_benchmark(scenarios[0], lib, np.int64(2), config).trials
            == run_exploration_benchmark(scenarios[0], lib, 2, config).trials)


# ---------------------------------------------------------------------------
# exploration benchmark reports

def test_report_deterministic_and_recomputable(lib, scenarios):
    cfg = TrialConfig(seed=3)
    a = run_exploration_benchmark(scenarios[2], lib, 3, cfg)
    b = run_exploration_benchmark(scenarios[2], lib, 3, cfg)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.seeds == [3, 4, 5]
    agg = a.compute_aggregates()
    ls = [t.l for t in a.trials]
    assert agg["l"]["mean"] == pytest.approx(np.mean(ls), abs=1e-9)
    assert agg["gamma_per_l"]["std"] == pytest.approx(
        np.std([t.gamma_per_l for t in a.trials]), abs=1e-9)
    assert a.aggregates == agg


def test_report_trials_keep_every_config_field(lib, scenarios):
    cfg = TrialConfig(max_iterations=15, noise=NoiseSpec(0.5, 1.5), seed=2)
    report = run_exploration_benchmark(scenarios[1], lib, 2, cfg)
    for i, trial in enumerate(report.trials):
        alone = run_trial(scenarios[1], lib,
                          dataclasses.replace(cfg, seed=cfg.seed + i))
        assert trial == alone
        assert trial.l <= 15


def test_report_serialization_roundtrip(tmp_path, lib, scenarios):
    report = run_exploration_benchmark(scenarios[0], lib, 2, TrialConfig(seed=0))
    csv_path = write_output(report, "report", tmp_path, "csv")
    json_path = write_output(report, "report", tmp_path, "json")
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("trial,seed,l,gamma_m")
    assert len(lines) == 1 + 2 + 2           # header + trials + mean/std
    payload = json.loads(json_path.read_text())
    assert payload["scenario"] == "scenario-1"
    assert len(payload["trials"]) == 2
    assert payload["trials"][0]["l"] == len(payload["trials"][0]["visited"])



def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_result_tables_read_back_with_csv_reader(tmp_path, lib, scenarios):
    # names that hold a comma, a quote and a line break: the confusion
    # table used to join them unquoted, so a library naming "wood, oak"
    # gave a 2-material table whose header had 4 fields and whose rows
    # had 4 and 3; and two scales that :g writes as "1" both read back
    names = ("wood, oak", 'say "hi"', "two\nlines")
    with open(tmp_path / "lib.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LIBRARY_FIELDS)
        for i, name in enumerate(names):
            writer.writerow((name, 1.0 + 5 * i, 0.5, 2.0 + 5 * i, 0.5))
    awkward = load_library(tmp_path / "lib.csv")
    assert awkward.names == list(names)
    cm = run_classification_experiment(awkward, 7, 2, seed=3)
    rows = read_csv(write_output(cm, "confusion", tmp_path))
    assert rows == [["truth\\predicted", *names],
                    *([name, *map(str, row)] for name, row
                      in zip(names, cm.counts.tolist()))]

    scales = (1.0000001, 1.0000002)
    sweep = run_noise_sweep(awkward, [NoiseSpec.uniform(s) for s in scales],
                            trials=5, k_list=(1, 2), seed=0)
    rows = read_csv(write_output(sweep, "sweep", tmp_path))
    assert rows[0] == ["noise_scale", "k_samples", "accuracy"]
    assert [(float(r[0]), int(r[1]), float(r[2])) for r in rows[1:]] == [
        (s, k, round(float(acc), 6)) for s, accs in zip(scales, sweep.accuracy)
        for k, acc in zip((1, 2), accs)]
    # a scale :g reads back exactly keeps its short label
    plain = run_noise_sweep(awkward, [NoiseSpec.uniform(0.5)], trials=5,
                            k_list=(1,), seed=0)
    assert read_csv(write_output(plain, "plain", tmp_path))[1][0] == "0.5"

    report = run_exploration_benchmark(scenarios[0], lib, 2,
                                       TrialConfig(seed=0))
    rows = read_csv(write_output(report, "report", tmp_path))
    assert {len(r) for r in rows} == {8}
    assert [r[0] for r in rows[1:]] == ["1", "2", "mean", "std"]
    for row, trial in zip(rows[1:], report.trials):
        assert (int(row[1]), int(row[2]), row[5]) == (
            trial.seed, trial.l, trial.terminated_by)
        assert float(row[3]) == round(trial.gamma, 6)


# ---------------------------------------------------------------------------
# field dumps

def load_field_dump(path):
    """Re-parse a dumped field raster into a flat array."""
    return np.loadtxt(path).ravel()


def make_state(grid, omega):
    """A state with the probe in the grid's corner and a flat score, so
    its target posterior is uniform."""
    return AttentionState(
        grid, VoxelIndex(0, 0, 0), np.ones(grid.theta),
        uncertainty=np.ones(grid.theta),
        omega=omega,
        saliency=saliency_field(grid, omega),
    )


def test_dump_writes_five_files_and_roundtrips(tmp_path):
    grid = make_grid(WorkspaceBounds(0, 0.05, 0, 0.04, 0, 0.01, 0.01))
    rng = np.random.default_rng(1)
    state = make_state(grid, rng.uniform(0, 1, grid.theta))
    files = dump_fields(state, 7, tmp_path)
    assert len(files) == 5
    assert sorted(f.name for f in files) == sorted([
        "inhibition_k0007.txt", "uncertainty_k0007.txt", "omega_k0007.txt",
        "saliency_k0007.txt", "target_k0007.txt"])
    # re-parsed values match at the printed 9-significant-digit precision,
    # and a second dump of the parsed values is bit-identical
    parsed = load_field_dump(tmp_path / "omega_k0007.txt")
    assert parsed == pytest.approx(state.omega, rel=1e-8)
    state2 = make_state(grid, parsed)
    state2.inhibition = load_field_dump(tmp_path / "inhibition_k0007.txt")
    state2.saliency = load_field_dump(tmp_path / "saliency_k0007.txt")
    state2.target_posterior = load_field_dump(tmp_path / "target_k0007.txt")
    dump_fields(state2, 7, tmp_path / "again")
    for f in files:
        assert (tmp_path / "again" / f.name).read_text() == f.read_text()


def test_dump_constant_omega_saliency_all_zero(tmp_path):
    grid = make_grid(WorkspaceBounds(0, 0.03, 0, 0.03, 0, 0.01, 0.01))
    state = make_state(grid, np.full(grid.theta, 0.5))
    dump_fields(state, 0, tmp_path)
    values = load_field_dump(tmp_path / "saliency_k0000.txt")
    assert np.all(values == 0.0)


def test_dump_raster_is_row_major(tmp_path):
    # the raster's shape comes from the state's own grid, z-planes stacked
    grid = make_grid(WorkspaceBounds(0, 0.03, 0, 0.02, 0, 0.02, 0.01))
    state = make_state(grid, np.arange(grid.theta) / grid.theta)
    dump_fields(state, 1, tmp_path)
    lines = (tmp_path / "omega_k0001.txt").read_text().strip().splitlines()
    assert len(lines) == grid.ny * grid.nz == 4
    assert [len(line.split()) for line in lines] == [grid.nx] * 4
    assert [float(x) for x in lines[0].split()] == pytest.approx([0, 1/12, 2/12])
    assert [float(x) for x in lines[3].split()] == pytest.approx([9/12, 10/12, 11/12])


def test_report_needs_a_trial():
    # no trials used to give numpy's "Mean of empty slice" and NaN aggregates
    with pytest.raises(ValueError, match="trials must hold at least one"):
        bench.ExperimentReport("empty", [], {})
    # and an entry that is not a trial record "'int' object has no attribute 'l'"
    with pytest.raises(ValueError, match=r"^trials\[0\] must be a TrialRecord, "
                                         r"got 1$"):
        bench.ExperimentReport("x", [1], {})
