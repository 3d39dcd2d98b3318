"""Scenario definitions, the closed exploration loop, and the path
divergence metric.

A scenario fixes the workspace grid, a ground-truth material per voxel, a
human-specified benchmark path along the material discontinuity, a start
voxel and the task material pair.  A trial runs the sense / infer / select
/ move loop until loop closure is detected or an iteration budget runs
out, then scores the executed path against the benchmark.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .attention import (
    AttentionFields,
    AttentionState,
    TaskSpec,
    inhibition_field,
    select_target,
    target_score,
)
# Not called here.  benchmarks/tracing.py times layers by wrapping these
# names in this module (and grid.WorkspaceGrid.center_arrays), and
# benchmarks/test_benchmark.py::originals reads every one of them with
# vars(owner)[attr], which raises KeyError if one is gone.
from .attention import omega_field, saliency_field, target_posterior, uncertainty_field
from .grid import GridConfigError, VoxelIndex, WorkspaceBounds, WorkspaceGrid, make_grid
from .materials import HapticSample, MaterialLibrary, NoiseSpec, synthesize_sample
from .perception import PosteriorGrid

#: Iterations that must elapse before loop closure may trigger.
CLOSURE_MIN_ITERATIONS = 10

#: Default iteration budget of a trial.
DEFAULT_MAX_ITERATIONS = 80


class ScenarioLoadError(ValueError):
    """Raised when a scenario file is malformed or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    """A fully specified exploration problem."""

    name: str
    grid: WorkspaceGrid
    ground_truth: np.ndarray          # (theta,) material indices
    benchmark_path: tuple              # ordered VoxelIndex sequence
    start: VoxelIndex
    task: TaskSpec

    def __post_init__(self):
        gt = np.asarray(self.ground_truth)
        if gt.shape != (self.grid.theta,):
            raise ValueError("ground truth must cover every voxel")
        if gt.dtype.kind not in "biu":
            # a cast to int would truncate 0.6 to material 0 silently
            whole = (np.isfinite(gt) & (gt == np.round(gt))
                     if gt.dtype.kind == "f" else np.zeros(gt.shape, dtype=bool))
            if not whole.all():
                j = int(np.argmin(whole))
                v = tuple(self.grid.voxel_of_linear(j))
                raise ValueError(f"ground_truth at voxel {v} is {gt[j]}, "
                                 f"not an integer material index")
        object.__setattr__(self, "ground_truth", np.asarray(gt, dtype=int))
        object.__setattr__(self, "benchmark_path", tuple(self.benchmark_path))
        if not self.benchmark_path:
            raise ValueError("benchmark path must be non-empty")
        for v in self.benchmark_path:
            self.grid.require(v)
        self.grid.require(self.start)

    def material_at(self, v: VoxelIndex) -> int:
        return int(self.ground_truth[self.grid.linear_index(v)])


@dataclass(frozen=True)
class TrialConfig:
    """Knobs of one exploration trial."""

    max_iterations: int = DEFAULT_MAX_ITERATIONS
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0

    def __post_init__(self):
        if (not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got "
                             f"{self.max_iterations!r}")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer >= 0, the seeds
    numpy's generators take."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: the executed path and its divergence."""

    visited: tuple
    gamma: float                       # meters
    seed: int
    terminated_by: str                 # "loop_closure" or "budget"
    degenerate_events: int = 0
    revisit_count: int = 0
    l: int = field(init=False)
    gamma_per_l: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "visited", tuple(self.visited))
        object.__setattr__(self, "l", len(self.visited))
        object.__setattr__(self, "gamma_per_l", self.gamma / self.l)


# ---------------------------------------------------------------------------
# scenario file format

_SECTION_RE = re.compile(r"^([A-Za-z_]+):\s*(.*)$")
_SECTIONS = {"name", "grid", "task", "symbols", "start", "path", "raster"}


def save_scenario(scenario: Scenario, lib: MaterialLibrary,
                  destination: Union[str, Path]) -> Path:
    """Write a scenario to its plain-text file format (see module docs).

    Raises ``ValueError`` if the task or the ground truth names a
    material outside ``lib``."""
    _check_materials(scenario, len(lib))
    grid = scenario.grid
    b = grid.bounds
    names = lib.names
    used = sorted(set(int(m) for m in scenario.ground_truth))
    symbols = {m: chr(ord("A") + i) for i, m in enumerate(used)}
    lines = [
        f"name: {scenario.name}",
        f"grid: {b.x_lo:g} {b.x_hi:g} {b.y_lo:g} {b.y_hi:g} {b.z_lo:g} {b.z_hi:g} {b.epsilon:g}",
        f"task: {names[scenario.task.material_a]}, {names[scenario.task.material_b]}",
        "symbols: " + ", ".join(f"{symbols[m]}={names[m]}" for m in used),
        f"start: {scenario.start.ix} {scenario.start.iy} {scenario.start.iz}",
        "path:",
    ]
    lines += [f"{v.ix} {v.iy} {v.iz}" for v in scenario.benchmark_path]
    lines.append("raster:")
    gt = scenario.ground_truth.reshape(grid.nz, grid.ny, grid.nx)
    for iz in range(grid.nz):
        for iy in range(grid.ny):
            lines.append("".join(symbols[int(m)] for m in gt[iz, iy]))
    path = Path(destination)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _parse_sections(text: str, origin: str):
    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m and m.group(1) in _SECTIONS:
            current = m.group(1)
            if current in sections:
                raise ScenarioLoadError(f"{origin}: line {ln}: duplicate "
                                        f"section {current!r}")
            sections[current] = [m.group(2)] if m.group(2) else []
        elif m and current not in ("path", "raster"):
            raise ScenarioLoadError(f"{origin}: line {ln}: unknown section "
                                    f"{m.group(1)!r}")
        elif current is None:
            raise ScenarioLoadError(f"{origin}: line {ln}: content before "
                                    f"any section")
        else:
            sections[current].append(line)
    missing = {"grid", "task", "symbols", "start", "path", "raster"} - set(sections)
    if missing:
        raise ScenarioLoadError(f"{origin}: missing sections {sorted(missing)}")
    return sections


def load_scenario(source: Union[str, Path], lib: MaterialLibrary) -> Scenario:
    """Parse and fully validate a scenario file against a material library.

    Raises :class:`ScenarioLoadError` with the offending location for any
    text that is not UTF-8, malformed grid line, unknown material name,
    task naming one material twice, symbol defined twice, raster size
    mismatch, or out-of-bounds path or start voxel.
    """
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioLoadError(f"{path}: not UTF-8 text: {exc}") from None
    sections = _parse_sections(text, str(path))

    grid_vals = " ".join(sections["grid"]).split()
    if len(grid_vals) != 7:
        raise ScenarioLoadError(f"{path}: grid line needs 7 numbers "
                                f"(x_lo x_hi y_lo y_hi z_lo z_hi epsilon)")
    try:
        nums = [float(x) for x in grid_vals]
        bounds = WorkspaceBounds(*nums)
        grid = make_grid(bounds)
    except (ValueError, GridConfigError) as exc:
        raise ScenarioLoadError(f"{path}: grid: {exc}") from None

    task_names = [t.strip() for t in " ".join(sections["task"]).split(",")]
    if len(task_names) != 2:
        raise ScenarioLoadError(f"{path}: task needs two material names")
    try:
        task = TaskSpec(lib.index_of(task_names[0]), lib.index_of(task_names[1]))
    except (KeyError, ValueError) as exc:
        raise ScenarioLoadError(f"{path}: task: {exc}") from None

    symbol_map: dict[str, int] = {}
    for part in " ".join(sections["symbols"]).split(","):
        part = part.strip()
        if not part:
            continue
        sym, _, name = part.partition("=")
        sym, name = sym.strip(), name.strip()
        if len(sym) != 1 or not name:
            raise ScenarioLoadError(f"{path}: bad symbol entry {part!r}")
        if sym in symbol_map:
            raise ScenarioLoadError(f"{path}: symbol {sym!r} defined twice")
        try:
            symbol_map[sym] = lib.index_of(name)
        except KeyError as exc:
            raise ScenarioLoadError(f"{path}: symbols: {exc}") from None

    def parse_voxel(tokens: Sequence[str], what: str) -> VoxelIndex:
        if len(tokens) != 3:
            raise ScenarioLoadError(f"{path}: {what}: expected 'ix iy iz', "
                                    f"got {' '.join(tokens)!r}")
        try:
            v = VoxelIndex(*(int(t) for t in tokens))
        except ValueError:
            raise ScenarioLoadError(f"{path}: {what}: non-integer index") from None
        if not grid.contains(v):
            raise ScenarioLoadError(f"{path}: {what}: voxel {tuple(v)} outside "
                                    f"grid {grid.shape}")
        return v

    start = parse_voxel(" ".join(sections["start"]).split(), "start")
    bench = [parse_voxel(line.split(), f"path entry {i + 1}")
             for i, line in enumerate(sections["path"])]
    if not bench:
        raise ScenarioLoadError(f"{path}: empty benchmark path")

    raster_lines = sections["raster"]
    if len(raster_lines) != grid.ny * grid.nz:
        raise ScenarioLoadError(
            f"{path}: raster has {len(raster_lines)} lines, grid needs "
            f"{grid.ny * grid.nz} (ny*nz)")
    gt = np.empty(grid.theta, dtype=int)
    for row, line in enumerate(raster_lines):
        if len(line) != grid.nx:
            raise ScenarioLoadError(f"{path}: raster line {row + 1} has "
                                    f"{len(line)} symbols, grid needs {grid.nx}")
        iz, iy = divmod(row, grid.ny)
        for ix, sym in enumerate(line):
            if sym not in symbol_map:
                raise ScenarioLoadError(f"{path}: raster line {row + 1}: "
                                        f"unknown symbol {sym!r}")
            gt[ix + grid.nx * (iy + grid.ny * iz)] = symbol_map[sym]

    name = " ".join(sections.get("name", [path.stem])).strip() or path.stem
    return Scenario(name, grid, gt, bench, start, task)


# ---------------------------------------------------------------------------
# builtin scenarios

#: Workspace of the bundled scenarios: 0.30 x 0.60 x 0.01 m at 1 cm voxels.
BUILTIN_BOUNDS = WorkspaceBounds(0.0, 0.30, 0.0, 0.60, 0.0, 0.01, 0.01)


def _boundary_voxels(grid: WorkspaceGrid, gt: np.ndarray) -> list[VoxelIndex]:
    """All voxels with at least one 26-neighbor of a different material,
    in linear-index order."""
    g = gt.reshape(grid.nz, grid.ny, grid.nx)
    edge = (ndimage.maximum_filter(g, size=3, mode="nearest")
            != ndimage.minimum_filter(g, size=3, mode="nearest"))
    iz, iy, ix = np.nonzero(edge)
    return [VoxelIndex(int(x), int(y), int(z)) for x, y, z in zip(ix, iy, iz)]


def generate_builtin_scenarios(lib: MaterialLibrary):
    """The three bundled silicone/wood exploration problems.

    1. A straight discontinuity: a silicone strip along the workspace edge
       (columns 28-29) against wood; benchmark sorted by (iy, ix).
    2. A gently S-shaped discontinuity whose slope inverts progressively
       along the long axis.
    3. A closed-curve discontinuity: the boundary loop of a thin silicone
       bar island, benchmark ordered as a closed loop.

    Starts at (28,30,0), (28,31,0) and (17,35,0) respectively.
    """
    sil = lib.index_of("silicone")
    wood = lib.index_of("wood")
    task = TaskSpec(sil, wood)
    grid = make_grid(BUILTIN_BOUNDS)
    j = np.arange(grid.theta)
    ix = j % grid.nx
    iy = (j // grid.nx) % grid.ny

    # scenario 1: straight edge between columns 27 and 28
    gt1 = np.where(ix >= 28, sil, wood)
    b1 = sorted(_boundary_voxels(grid, gt1), key=lambda v: (v.iy, v.ix))
    s1 = Scenario("scenario-1", grid, gt1, b1, VoxelIndex(28, 30, 0), task)

    # scenario 2: S-curved edge with progressive slope inversion
    y = np.arange(grid.ny)
    x_edge = np.minimum(27.4 - 1.7 * np.sin(2.0 * np.pi * (y - 31) / 42.0), 28.4)
    gt2 = np.where(ix > x_edge[iy], sil, wood)
    b2 = sorted(_boundary_voxels(grid, gt2), key=lambda v: (v.iy, v.ix))
    s2 = Scenario("scenario-2", grid, gt2, b2, VoxelIndex(28, 31, 0), task)

    # scenario 3: closed loop around a thin silicone bar island
    gt3 = np.where((ix >= 15) & (ix <= 17) & (iy >= 26) & (iy <= 36), sil, wood)
    b3 = _boundary_voxels(grid, gt3)
    b3.sort(key=lambda v: math.atan2((v.iy - 31.0) / 10.0, (v.ix - 16.0) / 2.0))
    s3 = Scenario("scenario-3", grid, gt3, b3, VoxelIndex(17, 35, 0), task)

    return s1, s2, s3


# ---------------------------------------------------------------------------
# sensing, metric and the exploration loop

def sense(scenario: Scenario, lib: MaterialLibrary, v: VoxelIndex,
          noise: NoiseSpec, rng: np.random.Generator) -> HapticSample:
    """Synthesize one haptic sample of the ground-truth material at ``v``."""
    return synthesize_sample(lib, scenario.material_at(v), noise, rng)


def gamma_metric(grid: WorkspaceGrid, visited: Sequence[VoxelIndex],
                 benchmark: Sequence[VoxelIndex]) -> float:
    """Total divergence of the executed path from the benchmark, in meters:
    the sum over visited voxels of the distance to the nearest benchmark
    voxel (between voxel centers)."""
    if not visited or not benchmark:
        raise ValueError("visited and benchmark paths must be non-empty")
    v = np.array(visited, dtype=int)
    outside = ~((v >= 0) & (v < grid.shape)).all(axis=1)
    if outside.any():
        grid.require(visited[int(np.argmax(outside))])
    eps = grid.bounds.epsilon
    b = np.array(benchmark, dtype=float)
    # (visited, benchmark) squared distances, summed per axis as x, y, z
    d2 = ((b[None, :, 0] - v[:, None, 0]) ** 2
          + (b[None, :, 1] - v[:, None, 1]) ** 2
          + (b[None, :, 2] - v[:, None, 2]) ** 2)
    # left-to-right running sum, as a loop would add the terms
    return float(np.cumsum(eps * np.sqrt(d2.min(axis=1)))[-1])


def _chebyshev(a: VoxelIndex, b: VoxelIndex) -> int:
    return max(abs(a.ix - b.ix), abs(a.iy - b.iy), abs(a.iz - b.iz))


def _check_materials(scenario: Scenario, n_materials: int) -> None:
    """Raise ``ValueError`` if the task or the ground truth names a
    material outside a library of ``n_materials``."""
    for name in ("material_a", "material_b"):
        index = getattr(scenario.task, name)
        if index >= n_materials:
            raise ValueError(f"task.{name} is material {index}, but the "
                             f"library has {n_materials} materials")
    gt = scenario.ground_truth
    outside = (gt < 0) | (gt >= n_materials)
    if outside.any():
        j = int(np.argmax(outside))
        v = tuple(scenario.grid.voxel_of_linear(j))
        raise ValueError(f"ground_truth at voxel {v} is material {gt[j]}, "
                         f"but the library has {n_materials} materials")


def run_trial(scenario: Scenario, lib: MaterialLibrary,
              config: TrialConfig = TrialConfig(),
              on_iteration: Optional[Callable[[int, AttentionState], None]] = None,
              ) -> TrialRecord:
    """Run one closed-loop exploration trial.

    Each iteration senses the current voxel, updates its material
    posterior, refreshes the attention fields, scores every voxel as a
    target and teleports to the highest score.  The fields live in an
    :class:`AttentionFields`, which starts from the uniform prior and
    then refreshes only what each update changed, with the same values
    as a full recompute.  The score is :func:`target_score`: the
    inhibition density at each voxel's whole-voxel offset from the
    current position, read from the grid's inhibition table (built in
    the first trial on the grid), times the saliency and uncertainty
    densities.  The target is its maximum, ties to the lowest linear
    index, with no normalization.  A score that is all zero or not finite
    counts one degenerate event and selects linear index 0.  The trial
    ends on loop closure (current voxel within one step of the first
    benchmark voxel visited, once at least ten iterations have run) or
    when the iteration budget is spent.  The start voxel counts as the
    first visited voxel.  A task or ground truth that names a material
    the library lacks raises ``ValueError`` before the first touch.

    ``on_iteration`` receives ``(k, AttentionState)`` after each target
    selection, which is how field snapshots are exported.  The state's
    target posterior is the score the loop selected on, divided by its
    sum, or the uniform vector when that score was degenerate; only its
    inhibition field is built for the observer, so an observer never
    changes the path.  The state's arrays are fresh copies, so a stored
    state stays unchanged as the trial goes on.
    """
    grid = scenario.grid
    _check_materials(scenario, len(lib))
    rng = np.random.default_rng(config.seed)
    posteriors = PosteriorGrid(grid.theta, len(lib))
    fields = AttentionFields(grid, scenario.task, len(lib))
    bench_set = set(scenario.benchmark_path)

    current = scenario.start
    visited: list[VoxelIndex] = []
    anchor: Optional[VoxelIndex] = None
    terminated_by = "budget"
    degenerate_events = 0

    for k in range(config.max_iterations):
        j = grid.linear_index(current)
        visited.append(current)
        sample = sense(scenario, lib, current, config.noise, rng)
        posteriors.update(j, lib, sample)

        if anchor is None and current in bench_set:
            anchor = current
        if (anchor is not None and len(visited) >= CLOSURE_MIN_ITERATIONS
                and _chebyshev(current, anchor) <= 1):
            terminated_by = "loop_closure"
            break

        fields.touch(posteriors, j)
        score = target_score(grid, current, fields.f_saliency,
                             fields.f_uncertainty)
        chosen = select_target(score, grid)
        # scores are >= 0: the maximum is 0 only if every score is, and NaN
        # or inf if any score is
        degenerate = not 0.0 < score[grid.linear_index(chosen)] < math.inf
        if on_iteration is not None:
            on_iteration(k, AttentionState(
                inhibition=inhibition_field(grid, current),
                uncertainty=fields.uncertainty.copy(),
                omega=fields.omega.copy(),
                saliency=fields.saliency.copy(),
                target_posterior=(np.full(grid.theta, 1.0 / grid.theta)
                                  if degenerate else score / score.sum()),
                degenerate=degenerate,
            ))
        if degenerate:
            degenerate_events += 1
            chosen = grid.voxel_of_linear(0)
        current = chosen

    gamma = gamma_metric(grid, visited, scenario.benchmark_path)
    return TrialRecord(visited, gamma, config.seed, terminated_by,
                       degenerate_events + posteriors.degenerate_events,
                       len(visited) - len(set(visited)))
