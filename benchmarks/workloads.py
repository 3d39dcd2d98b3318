"""Inputs, operations and output checks of the benchmark's workloads.

Each workload mirrors a CLI default, which is the traffic users run:

* ``classify``: the ``sweep-noise`` cells (noise scales 1.0, 1.5, 2.0;
  k in {1, 5}; 400 trials per material over the bundled library) through
  ``run_noise_sweep``, in seeded chunks of ``CHUNK_TRIALS`` trials.
  Sensing and the scalar perception path only.
* ``explore_plane``: ``gen-scenarios``, then ``explore --trials 10`` on
  each of the three bundled scenarios (1,800 voxels, nz = 1) read back
  from their files, at the default ``TrialConfig``.
* ``explore_volume``: ``explore --trials 10`` on a tilted silicone/wood
  plane through a 40 x 60 x 12 grid (28,800 voxels) drawn from the seed,
  written in the scenario text format and read back.  The grid is 16x
  the bundled one and truly 3-D, so attention is nearly all of a touch.

One *pass* runs every operation of a workload once: every chunk of
every sweep cell for ``classify``, one trial per (scenario, trial seed)
for the explore workloads.  Every pass of a run repeats the same inputs,
so every pass must return the same outputs.  The checks below recompute what they
compare against; none of them reads a stored answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import ndimage

from hapticbayes import bench, materials, simulator
from hapticbayes.grid import VoxelIndex, WorkspaceBounds, make_grid
from hapticbayes.attention import TaskSpec

#: ``sweep-noise`` defaults.
NOISE_SCALES = (1.0, 1.5, 2.0)
K_LIST = (1, 5)

#: Trials per material in one timed ``classify`` operation.
CHUNK_TRIALS = 20

#: Voxel side of the generated volume, in meters.
VOLUME_EPSILON = 0.01
#: Distance of the volume's start voxel from the boundary, in voxels.
VOLUME_START_OFFSET = 6

#: Tolerance of the gamma oracle, in meters.
GAMMA_TOL = 1e-9
#: Classification trials whose oracle log-posterior margin is below this
#: may round either way; count mismatches are allowed up to their number.
TIE_MARGIN = 1e-6


@dataclass(frozen=True)
class Size:
    """How much work one pass holds."""

    trials_per_material: int = 400
    trials_per_scenario: int = 10
    volume_shape: tuple = (40, 60, 12)


FULL = Size()
SMOKE = Size(trials_per_material=4, trials_per_scenario=1,
             volume_shape=(12, 16, 8))


@dataclass
class Outcome:
    """What one operation returned, in the units the runner counts."""

    result: object
    touches: int


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs

def volume_scenario(lib: materials.MaterialLibrary, seed: int,
                    shape: Sequence[int] = FULL.volume_shape
                    ) -> simulator.Scenario:
    """A tilted silicone/wood plane through a 3-D grid, drawn from ``seed``.

    Voxels with ``ix > x_mid + slope_y * (iy - y_mid) + slope_z * (iz -
    z_mid)`` are silicone, the rest wood.  The benchmark path is every
    voxel with a 26-neighbour of the other material, in linear-index
    order; the start voxel lies ``VOLUME_START_OFFSET`` voxels off the
    boundary along x.
    """
    nx, ny, nz = shape
    rng = np.random.default_rng(seed)
    slope_y = rng.uniform(0.1, 0.3) * rng.choice((-1.0, 1.0))
    slope_z = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
    x_mid = (nx - 1) / 2 + rng.uniform(-3.0, 3.0)
    iz, iy, ix = np.indices((nz, ny, nx))
    x_edge = (x_mid + slope_y * (iy - (ny - 1) / 2)
              + slope_z * (iz - (nz - 1) / 2))
    sil, wood = lib.index_of("silicone"), lib.index_of("wood")
    gt = np.where(ix > x_edge, sil, wood)
    boundary = (ndimage.maximum_filter(gt, size=3, mode="nearest")
                != ndimage.minimum_filter(gt, size=3, mode="nearest"))
    bz, by, bx = np.nonzero(boundary)
    path = [VoxelIndex(int(x), int(y), int(z)) for x, y, z in zip(bx, by, bz)]
    ys = int(rng.integers(ny // 4, 3 * ny // 4))
    zs = int(rng.integers(nz))
    xs = round(float(x_edge[zs, ys, 0])) + int(rng.choice((-1, 1))) * VOLUME_START_OFFSET
    start = VoxelIndex(min(max(xs, 0), nx - 1), ys, zs)
    eps = VOLUME_EPSILON
    grid = make_grid(WorkspaceBounds(0.0, nx * eps, 0.0, ny * eps,
                                     0.0, nz * eps, eps))
    return simulator.Scenario(f"volume-{seed}", grid, gt.ravel(), path, start,
                              TaskSpec(sil, wood))


def write_volume_scenario(lib, seed: int, out_dir: Path,
                          shape: Sequence[int] = FULL.volume_shape) -> Path:
    """Generate the volume scenario and write it in the scenario format."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return simulator.save_scenario(volume_scenario(lib, seed, shape), lib,
                                   out_dir / f"volume-{seed}.txt")


def setup(name: str, seed: int, out_dir: Path, size: Size = FULL):
    """Load the library and the workload's inputs.

    Calls go through module attributes so a traced set-up records them.
    """
    lib = materials.load_library(materials.bundled_library_path())
    if name == "classify":
        return Classify(lib, seed, size)
    if name == "explore_plane":
        out_dir.mkdir(parents=True, exist_ok=True)
        scenarios = tuple(
            simulator.load_scenario(simulator.save_scenario(
                s, lib, out_dir / f"{s.name}.txt"), lib)
            for s in simulator.generate_builtin_scenarios(lib))
    elif name == "explore_volume":
        path = write_volume_scenario(lib, seed, out_dir, size.volume_shape)
        scenarios = (simulator.load_scenario(path, lib),)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Explore(name, lib, scenarios, seed, size)


# ---------------------------------------------------------------------------
# classify

class Classify:
    """The noise sweep, one operation per chunk of ``CHUNK_TRIALS`` trials
    per material of one (noise scale, k) cell.

    Each operation is ``run_noise_sweep`` over that one cell, so a pass
    does the sweep's 400 trials per material per cell.  Chunks keep each
    timed call at a few milliseconds (see ``run.py`` on
    ``touches_per_s``); chunk ``c`` of cell ``m`` is seeded
    ``seed + (m * chunks + c) * materials``, so no two chunks share a
    material's generator.
    """

    def __init__(self, lib, seed: int, size: Size):
        self.name = "classify"
        self.lib = lib
        self.seed = seed
        self.trials = size.trials_per_material
        n = len(lib)
        chunks = [CHUNK_TRIALS] * (self.trials // CHUNK_TRIALS)
        if self.trials % CHUNK_TRIALS:
            chunks.append(self.trials % CHUNK_TRIALS)
        self.specs = []
        for cell, (scale, k) in enumerate((s, k) for s in NOISE_SCALES
                                          for k in K_LIST):
            noise = materials.NoiseSpec.uniform(scale)
            for c, trials in enumerate(chunks):
                chunk_seed = seed + (cell * len(chunks) + c) * n
                self.specs.append((noise, k, trials, chunk_seed))
        self.ops: tuple[Callable, ...] = tuple(self._chunk(*spec)
                                               for spec in self.specs)
        self.op_trials = tuple(trials * n for _, _, trials, _ in self.specs)
        self.cells = None          # confusion matrices, from prepare()
        self.cell_errors: list[str] = []

    def inputs(self) -> dict:
        return {"materials": len(self.lib), "noise_scales": list(NOISE_SCALES),
                "k_list": list(K_LIST), "trials_per_material": self.trials,
                "chunk_trials": CHUNK_TRIALS, "operations": len(self.ops),
                "touches_per_pass": self.trials * len(self.lib)
                * len(NOISE_SCALES) * sum(K_LIST)}

    def _chunk(self, noise, k: int, trials: int, chunk_seed: int):
        touches = trials * len(self.lib) * k

        def op(on_iteration=None) -> Outcome:
            return Outcome(bench.run_noise_sweep(self.lib, (noise,), trials,
                                                 (k,), chunk_seed), touches)

        return op

    def prepare(self) -> None:
        """Rerun every chunk for its confusion matrix, and check each
        against row sums and an independent log-space oracle.  This also
        warms caches and lazy imports before timing."""
        self.cells = []
        for noise, k, trials, chunk_seed in self.specs:
            cm = bench.run_classification_experiment(
                self.lib, trials, k, noise, chunk_seed)
            self.cells.append(cm)
            where = f"cell ({noise.scale_E:g}, k={k}) seed {chunk_seed}"
            rows = cm.counts.sum(axis=1)
            if not np.all(rows == trials):
                self.cell_errors.append(
                    f"{where}: confusion rows sum to {rows.tolist()}, "
                    f"not {trials}")
            oracle, ties = self._oracle_counts(noise, k, trials, chunk_seed)
            off = int(np.abs(cm.counts - oracle).sum()) // 2
            if off > ties:
                self.cell_errors.append(
                    f"{where}: {off} decisions differ from the oracle "
                    f"({ties} near-ties)")

    def _oracle_counts(self, noise, k: int, trials: int, cell_seed: int):
        """Confusion counts from summed log-likelihoods of the same draws.

        Draws follow ``synthesize_sample``'s documented order (e, c, q_E,
        q_C) from the generator seeded ``cell_seed + material``.
        """
        from scipy.stats import norm   # not part of the timed set-up

        mats = self.lib.materials
        mu_e = np.array([m.mu_E for m in mats])
        sd_e = np.array([m.sigma_E for m in mats])
        mu_c = np.array([m.mu_C for m in mats])
        sd_c = np.array([m.sigma_C for m in mats])
        n = len(mats)
        counts = np.zeros((n, n), dtype=int)
        ties = 0
        for m in range(n):
            z = np.random.default_rng(cell_seed + m).standard_normal(
                (trials, k, 4))
            e = (mu_e[m] + sd_e[m] * z[..., 0]
                 + noise.scale_E * abs(mu_e[m]) / 2.0 * z[..., 2])
            c = (mu_c[m] + sd_c[m] * z[..., 1]
                 + noise.scale_C * abs(mu_c[m]) / 2.0 * z[..., 3])
            log_post = (norm.logpdf(e[..., None], mu_e, sd_e)
                        + norm.logpdf(c[..., None], mu_c, sd_c)).sum(axis=1)
            counts[m] = np.bincount(log_post.argmax(axis=1), minlength=n)
            top2 = np.sort(log_post, axis=1)[:, -2:]
            ties += int(np.count_nonzero(top2[:, 1] - top2[:, 0] < TIE_MARGIN))
        return counts, ties

    def check(self, op: int, outcome: Outcome) -> list[str]:
        noise, k, _, chunk_seed = self.specs[op]
        errors = list(self.cell_errors)
        acc = np.asarray(outcome.result.accuracy)
        if acc.shape != (1, 1) or acc[0, 0] != self.cells[op].mean_diagonal_rate():
            errors.append(f"cell ({noise.scale_E:g}, k={k}) seed {chunk_seed}: "
                          f"sweep accuracy {acc.tolist()} differs from its "
                          f"confusion matrix")
        return errors

    def fingerprint(self, outcome: Outcome) -> bytes:
        return np.asarray(outcome.result.accuracy, dtype=float).tobytes()

    def quality(self, outcomes: Sequence[Outcome]) -> dict:
        """Mean over the sweep's cells of their diagonal rate; every cell
        holds the same number of trials."""
        acc = [float(o.result.accuracy[0, 0]) for o in outcomes]
        mean = float(np.average(acc, weights=self.op_trials))
        return {"accuracy_mean": (mean, "1", len(NOISE_SCALES) * len(K_LIST))}

    def digests(self, outcomes) -> dict:
        return {"confusion_counts_sha256": digest(
            cm.counts.astype(np.int64).tobytes() for cm in self.cells)}


# ---------------------------------------------------------------------------
# exploration

class Explore:
    """Seeded exploration trials: one operation per (scenario, trial)."""

    def __init__(self, name: str, lib, scenarios, seed: int, size: Size):
        self.name = name
        self.lib = lib
        self.seed = seed
        self.scenarios = tuple(scenarios)
        self.trials = size.trials_per_scenario
        self.config = simulator.TrialConfig(seed=seed)
        self.specs = tuple((s, seed + i) for s in self.scenarios
                           for i in range(self.trials))
        self.ops = tuple(self._trial(s, trial_seed)
                         for s, trial_seed in self.specs)
        self.op_trials = (1,) * len(self.ops)
        self._distance = {}

    def inputs(self) -> dict:
        grid = self.scenarios[0].grid
        return {"scenarios": [s.name for s in self.scenarios],
                "grid_shape": list(grid.shape), "theta": grid.theta,
                "trials_per_scenario": self.trials,
                "max_iterations": self.config.max_iterations}

    def _trial(self, scenario, trial_seed: int):
        config = dataclasses.replace(self.config, seed=trial_seed)

        def op(on_iteration=None) -> Outcome:
            record = simulator.run_trial(scenario, self.lib, config,
                                         on_iteration)
            return Outcome(record, record.l)

        return op

    def prepare(self) -> None:
        """Warm caches and lazy imports with one untimed trial."""
        self.ops[0]()

    def _distance_to_path(self, scenario) -> np.ndarray:
        """Distance of every voxel center to the nearest benchmark voxel."""
        d = self._distance.get(scenario.name)
        if d is None:
            g = scenario.grid
            mask = np.ones((g.nz, g.ny, g.nx), dtype=bool)
            for v in scenario.benchmark_path:
                mask[v.iz, v.iy, v.ix] = False
            d = ndimage.distance_transform_edt(mask, sampling=g.bounds.epsilon)
            self._distance[scenario.name] = d
        return d

    def check(self, op: int, outcome: Outcome) -> list[str]:
        scenario, trial_seed = self.specs[op]
        rec = outcome.result
        where = f"{scenario.name} seed {trial_seed}"
        grid = scenario.grid
        if rec.seed != trial_seed:
            return [f"{where}: record carries seed {rec.seed}"]
        if not 1 <= rec.l <= self.config.max_iterations:
            return [f"{where}: l = {rec.l} outside [1, "
                    f"{self.config.max_iterations}]"]
        outside = [tuple(v) for v in rec.visited if not grid.contains(v)]
        if outside:
            return [f"{where}: visited voxels outside the grid: {outside[:3]}"]
        errors = []
        expected = replay_termination(rec.visited, set(scenario.benchmark_path),
                                      self.config.max_iterations)
        if rec.terminated_by != expected:
            errors.append(f"{where}: terminated_by {rec.terminated_by!r}, "
                          f"replayed closure rule gives {expected!r}")
        revisits = len(rec.visited) - len(set(rec.visited))
        if rec.revisit_count != revisits:
            errors.append(f"{where}: revisit_count {rec.revisit_count}, "
                          f"path holds {revisits}")
        d = self._distance_to_path(scenario)
        v = np.array(rec.visited)
        oracle = float(d[v[:, 2], v[:, 1], v[:, 0]].sum())
        if not abs(rec.gamma - oracle) <= GAMMA_TOL:
            errors.append(f"{where}: gamma {rec.gamma!r} m, distance "
                          f"transform gives {oracle!r} m")
        return errors

    def fingerprint(self, outcome: Outcome) -> bytes:
        rec = outcome.result
        return (np.array(rec.visited, dtype=np.int64).tobytes()
                + repr((rec.gamma, rec.terminated_by, rec.degenerate_events,
                        rec.revisit_count)).encode())

    def quality(self, outcomes: Sequence[Outcome]) -> dict:
        recs = [o.result for o in outcomes]
        touches = sum(r.l for r in recs)
        return {
            "closure_rate": (sum(r.terminated_by == "loop_closure" for r in recs)
                             / len(recs), "1", len(recs)),
            "gamma_per_l_cm": (float(np.mean([r.gamma_per_l for r in recs])) * 100.0,
                               "cm", len(recs)),
            "revisit_ratio": (sum(r.revisit_count for r in recs) / touches,
                              "1", touches),
        }

    def digests(self, outcomes) -> dict:
        paths = [np.array(o.result.visited, dtype=np.int64).tobytes() + b";"
                 for o in outcomes]
        return {"visited_paths_sha256": digest(paths)}


def replay_termination(visited, bench_set, max_iterations: int) -> str:
    """The termination cause implied by a visited path under the loop
    closure rule: the first benchmark voxel visited is the anchor, and the
    trial closes at the first voxel, from the tenth on, within one step
    (Chebyshev) of it."""
    anchor = None
    for k, v in enumerate(visited):
        if anchor is None and v in bench_set:
            anchor = v
        if (anchor is not None and k + 1 >= simulator.CLOSURE_MIN_ITERATIONS
                and max(abs(a - b) for a, b in zip(v, anchor)) <= 1):
            return "loop_closure" if k == len(visited) - 1 else "early_closure_missed"
    return "budget" if len(visited) == max_iterations else "stopped_early"
