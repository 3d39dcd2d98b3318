"""Experiment harness: confusion matrices, noise sweeps, exploration
benchmarks, and attention-field dumps.

Every experiment is seeded and bit-reproducible; cells derive their seed
as ``seed + cell_index``.  A noise-sweep cell is a classification
experiment, which seeds material ``i`` with ``seed + i``, so cell ``c``
draws material ``i`` from ``seed + c + i`` and the cells are not
independent: cell ``c``'s material ``i + 1`` and cell ``c + 1``'s material
``i`` draw the same stream (at their own noise scale and sample count).
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Union

import numpy as np

from .attention import FACTORS, AttentionState
from .grid import _check_integer, _check_type
from .materials import HapticSample, MaterialLibrary, NoiseSpec, _samples_of_draws
# Not called here.  benchmarks/tracing.py times this layer by wrapping the
# name in this module, and benchmarks/test_benchmark.py::originals reads it
# with vars(bench)[attr], which raises KeyError if it is gone.
from .materials import synthesize_sample
from .perception import MaterialPosterior, map_category, update_posterior
from .simulator import (Scenario, TrialConfig, TrialRecord, _float_text,
                        run_trial)


def _csv_text(rows) -> str:
    """``rows`` as CSV text with ``\n`` line ends, each field quoted only
    where it holds a comma, a quote or a line break, so that
    ``csv.reader`` reads every field back."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@dataclass
class ConfusionMatrix:
    """Classification outcomes: rows are ground truth, columns MAP picks.

    ``counts`` that is not a square matrix of integers >= 0 (of an integer
    dtype: a float, an object or ``None`` is not one), a count of trials
    or samples that is not an integer >= 1, or ``material_names`` that is
    not a sequence naming each of its rows, raises ``ValueError`` naming
    the field.
    """

    counts: np.ndarray
    trials_per_material: int
    k_samples: int
    material_names: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind in "iu":
            # a uint64 count past the int range wraps negative here
            counts = counts.astype(int, copy=False)
        if counts.dtype.kind not in "iu" or not (counts >= 0).all():
            raise ValueError(f"counts must hold integers >= 0, got "
                             f"{self.counts!r}")
        shape = counts.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"counts must be a square matrix, got shape {shape}")
        self.counts = counts
        _check_integer("trials_per_material", self.trials_per_material, 1)
        _check_integer("k_samples", self.k_samples, 1)
        _check_type("material_names", self.material_names, Sequence)
        if len(self.material_names) != shape[0]:
            raise ValueError(f"material_names has {len(self.material_names)} "
                             f"names for {shape[0]} materials")

    def diagonal_rates(self) -> np.ndarray:
        return np.diag(self.counts) / self.trials_per_material

    def mean_diagonal_rate(self) -> float:
        return float(self.diagonal_rates().mean())

    def to_csv(self) -> str:
        return _csv_text([["truth\\predicted", *self.material_names],
                          *([name, *row] for name, row
                            in zip(self.material_names, self.counts.tolist()))])

    def to_json_dict(self) -> dict:
        return {
            "trials_per_material": self.trials_per_material,
            "k_samples": self.k_samples,
            "material_names": list(self.material_names),
            "counts": self.counts.tolist(),
            "diagonal_rates": self.diagonal_rates().tolist(),
            "mean_diagonal_rate": self.mean_diagonal_rate(),
        }


@dataclass
class NoiseSweepResult:
    """Mean recognition accuracy by (noise scale, sample count)."""

    scales: tuple
    k_list: tuple
    accuracy: np.ndarray               # (len(scales), len(k_list))

    def to_csv(self) -> str:
        return _csv_text([("noise_scale", "k_samples", "accuracy"),
                          *((_float_text(s), k, f"{self.accuracy[i, j]:.6f}")
                            for i, s in enumerate(self.scales)
                            for j, k in enumerate(self.k_list))])

    def to_json_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "k_list": list(self.k_list),
            "accuracy": self.accuracy.tolist(),
        }


@dataclass
class ExperimentReport:
    """Per-trial exploration records plus aggregate statistics; ``trials``
    that is not a non-empty sequence of :class:`TrialRecord` raises
    ``ValueError``."""

    scenario_name: str
    trials: tuple
    config: dict
    aggregates: dict = field(init=False)

    def __post_init__(self):
        _check_type("trials", self.trials, Sequence)
        self.trials = tuple(self.trials)
        if not self.trials:
            raise ValueError("trials must hold at least one trial record")
        for i, trial in enumerate(self.trials):
            _check_type(f"trials[{i}]", trial, TrialRecord)
        self.aggregates = self.compute_aggregates()

    def compute_aggregates(self) -> dict:
        ls = np.array([t.l for t in self.trials], dtype=float)
        gs = np.array([t.gamma for t in self.trials])
        gpl = np.array([t.gamma_per_l for t in self.trials])
        agg = {}
        for key, arr in (("l", ls), ("gamma", gs), ("gamma_per_l", gpl)):
            agg[key] = {"mean": float(arr.mean()), "std": float(arr.std())}
        agg["loop_closures"] = sum(t.terminated_by == "loop_closure"
                                   for t in self.trials)
        return agg

    @property
    def seeds(self) -> list[int]:
        return [t.seed for t in self.trials]

    def to_csv(self) -> str:
        a = self.aggregates
        return _csv_text([
            ("trial", "seed", "l", "gamma_m", "gamma_per_l_m", "terminated_by",
             "revisits", "degenerate_events"),
            *((i, t.seed, t.l, f"{t.gamma:.6f}", f"{t.gamma_per_l:.6f}",
               t.terminated_by, t.revisit_count, t.degenerate_events)
              for i, t in enumerate(self.trials, start=1)),
            *((stat, "", f"{a['l'][stat]:.4f}", f"{a['gamma'][stat]:.6f}",
               f"{a['gamma_per_l'][stat]:.6f}", "", "", "")
              for stat in ("mean", "std"))])

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "config": self.config,
            "seeds": self.seeds,
            "trials": [
                {
                    "seed": t.seed,
                    "l": t.l,
                    "gamma_m": t.gamma,
                    "gamma_per_l_m": t.gamma_per_l,
                    "terminated_by": t.terminated_by,
                    "revisits": t.revisit_count,
                    "degenerate_events": t.degenerate_events,
                    "visited": [[v.ix, v.iy, v.iz] for v in t.visited],
                }
                for t in self.trials
            ],
            "aggregates": self.aggregates,
        }


# ---------------------------------------------------------------------------
# experiments

# The hash of numpy's SeedSequence.generate_state, in uint32 arithmetic:
# state word i is h = (pool[i % 4] ^ _HASH[i]) * _HASH[i + 1], then
# h ^ (h >> _XSHIFT), where _HASH[i] is INIT_B * MULT_B**i mod 2**32.
_INIT_B, _MULT_B, _XSHIFT = 0x8b51f9dd, 0x58f38ded, 16
_HASH = np.array([_INIT_B * _MULT_B**i % 2**32 for i in range(9)],
                 dtype=np.uint32)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed of one ``PCG64``: four ``uint64`` state words made already,
    given through numpy's seed interface."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, asked for {n_words!r} "
                             f"of {np.dtype(dtype)}")
        return self.words


def _generators(seeds) -> list:
    """One generator per seed, each with the state of
    ``np.random.default_rng(seed)``: numpy mixes each ``SeedSequence``
    pool, and its ``generate_state(4, np.uint64)`` hash runs for every
    pool in one ``uint32`` array pass."""
    pools = np.array([np.random.SeedSequence(s).pool for s in seeds])
    # each 4-word pool cycled to the 8 words of a state
    w = (np.concatenate((pools, pools), axis=1) ^ _HASH[:-1]) * _HASH[1:]
    w ^= w >> _XSHIFT
    # little-endian word pairs, then native uint64 rows as PCG64 reads them
    words = w.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_StateWords(row)))
            for row in words]


#: Trials per material drawn and classified together; bounds the memory
#: of a classification run whatever its trial count.  A block draws into
#: one ``(n, t, k, 4)`` buffer, about 13 MB at 8192 trials x 10 materials
#: x 5 samples, and scores them in one ``(k, n, n * t)`` log-likelihood
#: array against the library's n materials, about 33 MB there.
BLOCK_TRIALS = 8192


def run_classification_experiment(lib: MaterialLibrary,
                                  trials_per_material: int = 400,
                                  k_samples: int = 5,
                                  noise: NoiseSpec = NoiseSpec(),
                                  seed: int = 0) -> ConfusionMatrix:
    """Recognition experiment over every material in the library.

    For each material, ``trials_per_material`` independent trials each draw
    ``k_samples`` noisy samples, integrate them by recursive posterior
    updates from the uniform prior, and record the MAP category.  Material
    i draws from a generator with the state of ``np.random.default_rng(seed
    + i)``, the n generators seeded in one pass; trial t of a material
    takes the t-th group of ``k_samples`` samples of its stream.
    Trials run as one batch of posterior rows per block of
    ``BLOCK_TRIALS`` trials per material.  A block's draws fill one
    ``(n, t, k_samples, 4)`` buffer, material i's slice from its own
    generator (the draws of ``synthesize_sample(lib, i, noise, rng, (t,
    k_samples))``), and one ``_samples_of_draws`` call gives every
    material's samples.  One :func:`update_posterior` call per block
    integrates them, its sample shaped ``(n * t, k_samples)``: its k steps
    run materials first over one steps-first log-likelihood array, each
    step's ``(n, n * t)`` rows one contiguous slab.
    """
    _check_type("lib", lib, MaterialLibrary)
    _check_integer("seed", seed, 0)
    _check_integer("trials_per_material", trials_per_material, 1)
    _check_integer("k_samples", k_samples, 1)
    _check_type("noise", noise, NoiseSpec)
    n = len(lib)
    rngs = _generators(range(seed, seed + n))
    materials = np.arange(n)[:, None, None]
    counts = np.zeros(n * n, dtype=int)
    for start in range(0, trials_per_material, BLOCK_TRIALS):
        t = min(BLOCK_TRIALS, trials_per_material - start)
        z = np.empty((n, t, k_samples, 4))
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=z[i])
        e, c = _samples_of_draws(lib, materials, noise, z)
        # rows by material, samples along the last axis: k steps
        post = update_posterior(lib, MaterialPosterior.uniform(n, (n * t,)),
                                HapticSample(e.reshape(n * t, k_samples),
                                             c.reshape(n * t, k_samples)))
        truth = np.repeat(np.arange(n), t)
        counts += np.bincount(truth * n + map_category(post), minlength=n * n)
    return ConfusionMatrix(counts.reshape(n, n), trials_per_material,
                           k_samples, tuple(lib.names))


def run_noise_sweep(lib: MaterialLibrary,
                    scales: Sequence[NoiseSpec],
                    trials: int = 400,
                    k_list: Sequence[int] = (1, 5),
                    seed: int = 0) -> NoiseSweepResult:
    """Mean recognition accuracy across noise scales and sample counts.

    Each (scale, k) cell reruns the classification experiment with the
    derived seed ``seed + cell_index``, so its material ``i`` draws from
    ``seed + cell_index + i``: neighbouring cells share all but one of
    their material streams, shifted by one material.  A row is labelled
    by its one noise scale.  Empty ``scales`` or ``k_list``, or a
    ``scales`` entry that is not a :class:`NoiseSpec` with ``scale_E ==
    scale_C``, raises ``ValueError`` before the first cell.
    """
    _check_type("lib", lib, MaterialLibrary)
    _check_type("scales", scales, Sequence)
    _check_type("k_list", k_list, Sequence)
    _check_integer("seed", seed, 0)
    _check_integer("trials", trials, 1)
    if not scales or not k_list:
        raise ValueError("scales and k_list must be non-empty")
    for i, scale in enumerate(scales):
        if not isinstance(scale, NoiseSpec) or scale.scale_E != scale.scale_C:
            raise ValueError(f"scales[{i}] must be a NoiseSpec with scale_E == "
                             f"scale_C, got {scale!r}")
    for j, k in enumerate(k_list):
        _check_integer(f"k_list[{j}]", k, 1)
    acc = np.zeros((len(scales), len(k_list)))
    for i, scale in enumerate(scales):
        for j, k in enumerate(k_list):
            cell_seed = seed + i * len(k_list) + j
            cm = run_classification_experiment(lib, trials, k, scale, cell_seed)
            acc[i, j] = cm.mean_diagonal_rate()
    scale_tags = tuple(s.scale_E for s in scales)
    return NoiseSweepResult(scale_tags, tuple(k_list), acc)


def run_exploration_benchmark(scenario: Scenario, lib: MaterialLibrary,
                              n_trials: int = 10,
                              config: TrialConfig = TrialConfig(),
                              ) -> ExperimentReport:
    """Run seeded trials on one scenario; trial i uses seed ``seed + i``."""
    _check_integer("n_trials", n_trials, 1)
    _check_type("config", config, TrialConfig)
    trials: list[TrialRecord] = []
    for i in range(n_trials):
        cfg = replace(config, seed=config.seed + i)
        trials.append(run_trial(scenario, lib, cfg))
    echo = {
        "n_trials": n_trials,
        "max_iterations": config.max_iterations,
        "noise_scale_E": config.noise.scale_E,
        "noise_scale_C": config.noise.scale_C,
        "base_seed": config.seed,
        "beta_factors": [list(f) for f in FACTORS],
    }
    return ExperimentReport(scenario.name, trials, echo)


# ---------------------------------------------------------------------------
# field dumps

#: Field name -> AttentionState attribute, in dump order.
DUMP_FIELDS = (
    ("inhibition", "inhibition"),
    ("uncertainty", "uncertainty"),
    ("omega", "omega"),
    ("saliency", "saliency"),
    ("target", "target_posterior"),
)


def dump_fields(state: AttentionState, iteration: int,
                destination: Union[str, Path]) -> list[Path]:
    """Write the five per-voxel fields of ``state`` as row-major numeric
    text grids in ``destination``; returns the written paths.

    One file per field named ``<field>_k<iteration:04d>.txt``; each holds
    ``ny * nz`` lines of ``nx`` values of ``state.grid`` (z-planes
    stacked, lowest plane first), printed with 9 significant digits.
    """
    _check_type("state", state, AttentionState)
    _check_integer("iteration", iteration, 0)
    grid = state.grid
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for name, attr in DUMP_FIELDS:
        values = np.asarray(getattr(state, attr)).reshape(
            grid.ny * grid.nz, grid.nx)
        path = dest / f"{name}_k{iteration:04d}.txt"
        np.savetxt(path, values, fmt="%.9g")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# output helpers shared with the CLI

def write_output(obj, stem: str, out_dir: Union[str, Path],
                 fmt: str = "csv") -> Path:
    """Serialize a result object to ``<out_dir>/<stem>.<fmt>``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out / f"{stem}.csv"
        path.write_text(obj.to_csv())
    elif fmt == "json":
        path = out / f"{stem}.json"
        path.write_text(json.dumps(obj.to_json_dict(), indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path
