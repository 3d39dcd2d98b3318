"""Scenario definitions, the closed exploration loop, and the path
divergence metric.

A scenario fixes the workspace grid, a ground-truth material per voxel, a
human-specified benchmark path along the material discontinuity, a start
voxel and the task material pair.  A trial runs the sense / infer / select
/ move loop until loop closure is detected or an iteration budget runs
out, then scores the executed path against the benchmark.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .attention import AttentionState, TaskSpec, TrialState
# Not called here.  benchmarks/tracing.py times layers by wrapping these
# names in this module (and grid.WorkspaceGrid.center_arrays), and
# benchmarks/test_benchmark.py::originals reads every one of them with
# vars(owner)[attr], which raises KeyError if one is gone.
from .attention import (inhibition_field, omega_field, saliency_field,
                        select_target, target_posterior, uncertainty_field)
from .grid import (VoxelIndex, WorkspaceBounds, WorkspaceGrid, _check_integer,
                   _check_real, _check_type, make_grid)
from .materials import MaterialLibrary, NoiseSpec, _samples_of_draws
from .perception import log_likelihoods

#: Iterations that must elapse before loop closure may trigger.
CLOSURE_MIN_ITERATIONS = 10

#: Default iteration budget of a trial.
DEFAULT_MAX_ITERATIONS = 80


class ScenarioLoadError(ValueError):
    """Raised when a scenario file is malformed or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    """A fully specified exploration problem.

    Four read-only arrays are derived once when the scenario is made:
    ``benchmark_points``, the benchmark path as a ``(B, 3)`` float array
    of voxel indices, which every trial's divergence is scored against;
    ``benchmark_mask``, a ``(theta,)`` bool array that marks the voxels
    on the benchmark path by linear index, which a trial's loop closure
    reads; ``materials``, the sorted distinct ground-truth material
    indices, the only materials a trial's sense blocks score; and
    ``material_rows``, each voxel's row in ``materials``, so that
    ``materials[material_rows] == ground_truth``.  ``start`` and each
    benchmark path entry are :class:`VoxelIndex` values, stored with
    Python int indices.
    """

    name: str
    grid: WorkspaceGrid
    ground_truth: np.ndarray          # (theta,) material indices
    benchmark_path: tuple              # ordered VoxelIndex sequence
    start: VoxelIndex
    task: TaskSpec
    benchmark_points: np.ndarray = field(init=False, repr=False, compare=False)
    benchmark_mask: np.ndarray = field(init=False, repr=False, compare=False)
    materials: np.ndarray = field(init=False, repr=False, compare=False)
    material_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_type("grid", self.grid, WorkspaceGrid)
        _check_type("task", self.task, TaskSpec)
        gt = np.asarray(self.ground_truth)
        if gt.shape != (self.grid.theta,):
            raise ValueError("ground truth must cover every voxel")
        if gt.dtype.kind == "b":
            raise ValueError("ground_truth must hold integer material "
                             "indices, got a bool array")
        # a cast to int would truncate 0.6 to material 0 silently, and wrap
        # a value outside int64, such as 2**63 or 1e300, to another material
        if gt.dtype.kind == "f":
            whole = (np.isfinite(gt) & (gt == np.round(gt))
                     & (gt >= -2.0 ** 63) & (gt < 2.0 ** 63))
        elif gt.dtype.kind == "u":
            whole = gt <= np.iinfo(np.int64).max
        else:
            whole = np.full(gt.shape, gt.dtype.kind == "i")
        if not whole.all():
            j = int(np.argmin(whole))
            v = tuple(self.grid.voxel_of_linear(j))
            raise ValueError(f"ground_truth at voxel {v} is {gt[j]}, not an "
                             f"integer material index in the int64 range")
        object.__setattr__(self, "ground_truth", np.asarray(gt, dtype=int))
        materials, rows = np.unique(self.ground_truth, return_inverse=True)
        for name, derived in (("materials", materials), ("material_rows", rows)):
            derived.setflags(write=False)
            object.__setattr__(self, name, derived)
        path = tuple(self.benchmark_path)
        if not path:
            raise ValueError("benchmark path must be non-empty")
        object.__setattr__(self, "start", self._voxel("start", self.start))
        object.__setattr__(self, "benchmark_path", tuple(
            self._voxel(f"benchmark_path[{i}]", v) for i, v in enumerate(path)))
        ixyz = np.array(self.benchmark_path, dtype=np.intp)
        ix, iy, iz = ixyz.T
        mask = np.zeros(self.grid.theta, dtype=bool)
        mask[ix + self.grid.nx * (iy + self.grid.ny * iz)] = True
        for name, derived in (("benchmark_points", ixyz.astype(float)),
                              ("benchmark_mask", mask)):
            derived.setflags(write=False)
            object.__setattr__(self, name, derived)

    def _voxel(self, name: str, v) -> VoxelIndex:
        """``v`` with Python int indices, so that index arithmetic cannot
        wrap; raises ``ValueError`` naming ``name`` unless ``v`` is a
        :class:`VoxelIndex` that :meth:`WorkspaceGrid.require` accepts."""
        if not isinstance(v, VoxelIndex):
            raise ValueError(f"{name} must be a VoxelIndex of integers, "
                             f"got {v!r}")
        return VoxelIndex(*_require(self.grid, name, v))

    def material_at(self, v: VoxelIndex) -> int:
        return int(self.ground_truth[self.grid.linear_index(v)])


def _require(grid: WorkspaceGrid, name: str, v) -> tuple[int, int, int]:
    """:meth:`WorkspaceGrid.require` of ``v``, its ``ValueError`` prefixed
    with ``name``."""
    try:
        return grid.require(v)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class TrialConfig:
    """Knobs of one exploration trial."""

    max_iterations: int = DEFAULT_MAX_ITERATIONS
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0

    def __post_init__(self):
        _check_integer("max_iterations", self.max_iterations, 1)
        _check_type("noise", self.noise, NoiseSpec)
        _check_integer("seed", self.seed, 0)


#: The causes that end a trial.
TERMINATIONS = ("loop_closure", "budget")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: the executed path and its divergence.

    A record with a ``visited`` path that is not a non-empty sequence, a
    ``terminated_by`` outside ``TERMINATIONS``, a ``gamma`` that is not a
    finite real >= 0, or a ``seed``, ``degenerate_events`` or
    ``revisit_count`` that is not an integer >= 0 raises ``ValueError``
    naming the field.
    """

    visited: tuple
    gamma: float                       # meters
    seed: int
    terminated_by: str                 # one of TERMINATIONS
    degenerate_events: int = 0
    revisit_count: int = 0
    l: int = field(init=False)
    gamma_per_l: float = field(init=False)

    def __post_init__(self):
        _check_type("visited", self.visited, Sequence)
        object.__setattr__(self, "visited", tuple(self.visited))
        if not self.visited:
            raise ValueError("visited must hold at least one voxel")
        if self.terminated_by not in TERMINATIONS:
            raise ValueError(f"terminated_by must be one of {TERMINATIONS}, "
                             f"got {self.terminated_by!r}")
        _check_real("gamma", self.gamma, 0)
        _check_integer("seed", self.seed, 0)
        _check_integer("degenerate_events", self.degenerate_events, 0)
        _check_integer("revisit_count", self.revisit_count, 0)
        object.__setattr__(self, "l", len(self.visited))
        object.__setattr__(self, "gamma_per_l", self.gamma / self.l)


# ---------------------------------------------------------------------------
# scenario file format

_SECTION_RE = re.compile(r"^([A-Za-z_]+):\s*(.*)$")
_SECTIONS = {"name", "grid", "task", "symbols", "start", "path", "raster"}
#: Raster symbols of a saved scenario's materials, in order: "A" and the
#: characters after it, up to chr(0x85), the first that ``strip`` removes.
_SYMBOLS = "".join(itertools.takewhile(str.strip,
                                        map(chr, itertools.count(ord("A")))))


def _reads_back(name) -> bool:
    """Whether ``name`` reads back from its line of a scenario file: a
    string, not empty, with no surrounding whitespace or line break, that
    survives a UTF-8 round trip (a lone surrogate does not)."""
    return (isinstance(name, str) and name.splitlines() == [name]
            and name == name.strip()
            and name.encode("utf-8", "replace").decode("utf-8") == name)


def _float_text(x) -> str:
    """A float as a scenario file writes a grid bound and a sweep table a
    noise scale: ``:g``, as in the bundled files, when that reads back
    exactly, and its float's ``repr`` if not."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def save_scenario(scenario: Scenario, lib: MaterialLibrary,
                  destination: Union[str, Path]) -> Path:
    """Write a scenario to its plain-text file format (see module docs).

    Raises ``ValueError``, before anything is written, if the task or the
    ground truth names a material outside ``lib``, if it uses more
    materials than there are raster symbols, or if a name it writes would
    not read back: a scenario name that is not a string, or that is
    empty, has surrounding whitespace, holds a line break or does not
    encode as UTF-8, or a material name that is any of these or holds a
    comma.  Grid bounds read back exactly."""
    _check_type("scenario", scenario, Scenario)
    _check_type("lib", lib, MaterialLibrary)
    name = scenario.name
    if not _reads_back(name):
        raise ValueError(f"scenario name {name!r} cannot be saved: a "
                         f"scenario file needs a name that is not empty, "
                         f"holds no surrounding whitespace or line break "
                         f"and encodes as UTF-8")
    _check_materials(scenario, len(lib))
    grid = scenario.grid
    b = grid.bounds
    names = lib.names
    used = sorted(set(int(m) for m in scenario.ground_truth))
    if len(used) > len(_SYMBOLS):
        raise ValueError(f"scenario uses {len(used)} materials, but a scenario "
                         f"file has symbols for {len(_SYMBOLS)}")
    for m in (scenario.task.material_a, scenario.task.material_b, *used):
        name = names[m]
        if not _reads_back(name) or "," in name:
            raise ValueError(f"material name {name!r} cannot be saved: a "
                             f"scenario file needs names that are not empty, "
                             f"hold no surrounding whitespace, comma or line "
                             f"break and encode as UTF-8")
    symbols = dict(zip(used, _SYMBOLS))
    lines = [
        f"name: {scenario.name}",
        "grid: " + " ".join(map(_float_text, (b.x_lo, b.x_hi, b.y_lo, b.y_hi,
                                               b.z_lo, b.z_hi, b.epsilon))),
        f"task: {names[scenario.task.material_a]}, {names[scenario.task.material_b]}",
        "symbols: " + ", ".join(f"{symbols[m]}={names[m]}" for m in used),
        f"start: {scenario.start.ix} {scenario.start.iy} {scenario.start.iz}",
        "path:",
    ]
    lines += [f"{v.ix} {v.iy} {v.iz}" for v in scenario.benchmark_path]
    lines.append("raster:")
    lines += ["".join(symbols[m] for m in row)
              for row in scenario.ground_truth.reshape(-1, grid.nx).tolist()]
    path = Path(destination)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
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
    mismatch or voxel line that is not three integers.  :class:`Scenario`
    checks the voxels; its ``ValueError`` (an empty path, or a voxel
    outside the grid) is raised as one naming the file.
    """
    _check_type("lib", lib, MaterialLibrary)
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
        grid = make_grid(WorkspaceBounds(*map(float, grid_vals)))
    except ValueError as exc:       # GridConfigError is one
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
        try:
            ix, iy, iz = map(int, tokens)
        except ValueError:
            raise ScenarioLoadError(f"{path}: {what}: expected three integers "
                                    f"'ix iy iz', got {' '.join(tokens)!r}") from None
        return VoxelIndex(ix, iy, iz)

    start = parse_voxel(" ".join(sections["start"]).split(), "start")
    bench = [parse_voxel(line.split(), f"path entry {i + 1}")
             for i, line in enumerate(sections["path"])]

    raster_lines = sections["raster"]
    if len(raster_lines) != grid.ny * grid.nz:
        raise ScenarioLoadError(
            f"{path}: raster has {len(raster_lines)} lines, grid needs "
            f"{grid.ny * grid.nz} (ny*nz)")
    # raster line r holds the voxels of linear indices [r*nx, (r+1)*nx)
    gt = np.empty((len(raster_lines), grid.nx), dtype=int)
    for row, line in enumerate(raster_lines):
        if len(line) != grid.nx:
            raise ScenarioLoadError(f"{path}: raster line {row + 1} has "
                                    f"{len(line)} symbols, grid needs {grid.nx}")
        try:
            gt[row] = [symbol_map[sym] for sym in line]
        except KeyError as exc:
            raise ScenarioLoadError(f"{path}: raster line {row + 1}: "
                                    f"unknown symbol {exc.args[0]!r}") from None

    name = " ".join(sections.get("name", [path.stem])).strip() or path.stem
    try:
        return Scenario(name, grid, gt.ravel(), bench, start, task)
    except ValueError as exc:
        raise ScenarioLoadError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# builtin scenarios

#: Workspace of the bundled scenarios: 0.30 x 0.60 x 0.01 m at 1 cm voxels.
BUILTIN_BOUNDS = WorkspaceBounds(0.0, 0.30, 0.0, 0.60, 0.0, 0.01, 0.01)


def _boundary_voxels(grid: WorkspaceGrid, gt: np.ndarray) -> list[VoxelIndex]:
    """All voxels with at least one 26-neighbor of a different material,
    in linear-index order."""
    g = gt.reshape(grid.nz, grid.ny, grid.nx)
    # edge padding only repeats in-grid neighbours
    padded = np.pad(g, 1, mode="edge")
    edge = np.zeros(g.shape, dtype=bool)
    for z, y, x in itertools.product(range(3), repeat=3):
        edge |= padded[z:z + grid.nz, y:y + grid.ny, x:x + grid.nx] != g
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

#: Touches sensed together: :func:`run_trial` draws the noise of this many
#: consecutive touches at once, so a trial's sensing memory does not grow
#: with its iteration budget.
SENSE_BLOCK = 32


def sense(lib: MaterialLibrary, materials, noise: NoiseSpec,
          rng: np.random.Generator) -> np.ndarray:
    """Sense a block of ``SENSE_BLOCK`` consecutive touches of voxels
    whose materials are among ``materials``, a sequence of distinct
    library indices (a scenario's ``materials``).

    The touches' sensor noise comes from one
    ``rng.standard_normal((SENSE_BLOCK, 1, 4))`` call, the stream of
    ``(SENSE_BLOCK, 4)``, which as :func:`synthesize_sample` documents
    equals ``SENSE_BLOCK`` per-touch draws; the draw does not depend on
    ``materials``.  Each touch's draw gives the sample of every material
    in ``materials``, by :func:`synthesize_sample`'s formula, and all of
    them are scored against the whole library in one
    :func:`log_likelihoods` call.  Returns the ``(SENSE_BLOCK,
    len(materials), n)`` table whose row ``[k, r]`` is the log-likelihood
    row of touch ``k`` of a voxel of material ``materials[r]``: what
    ``log_likelihoods(lib, synthesize_sample(lib, materials[r], noise,
    rng))`` gives for that touch.
    """
    _check_type("lib", lib, MaterialLibrary)
    _check_type("noise", noise, NoiseSpec)
    _check_type("rng", rng, np.random.Generator)
    materials = np.asarray(materials)
    if (materials.ndim != 1 or materials.dtype.kind not in "iu"
            or not ((materials >= 0) & (materials < len(lib))).all()):
        raise ValueError(f"materials must be a sequence of indices into a "
                         f"library of {len(lib)}, got {materials!r}")
    z = rng.standard_normal((SENSE_BLOCK, 1, 4))
    return log_likelihoods(lib, _samples_of_draws(lib, materials, noise, z))


def gamma_metric(grid: WorkspaceGrid, visited: Sequence[VoxelIndex],
                 benchmark: Sequence[VoxelIndex]) -> float:
    """Total divergence of the executed path from the benchmark, in meters:
    the sum over visited voxels of the distance to the nearest benchmark
    voxel (between voxel centers).

    Each path is a non-empty sequence of voxels, each entry read through
    :meth:`WorkspaceGrid.require`, whose ``ValueError`` names the entry:
    ``visited entry 1: voxel (30, 2, 0) outside grid (30, 60, 1)``.
    :func:`run_trial` scores its own path, whose voxels need no checks,
    through the same arithmetic."""
    _check_type("grid", grid, WorkspaceGrid)
    points = []
    for name, path in (("visited", visited), ("benchmark", benchmark)):
        try:
            entries = list(path)
        except TypeError:
            entries = []
        if not entries:
            raise ValueError(f"{name} must be a non-empty sequence of voxels, "
                             f"got {path!r}")
        points.append(np.array([_require(grid, f"{name} entry {i}", v)
                                for i, v in enumerate(entries)], dtype=float))
    return _divergence(grid.bounds.epsilon, *points)


def _divergence(eps: float, v: np.ndarray, b: np.ndarray) -> float:
    """:func:`gamma_metric` of the ``(n, 3)`` float voxel arrays ``v`` and
    ``b``, already checked, on a grid of voxel side ``eps``.

    The squared distances in whole voxels are ``|v|² + |b|² - 2 v bᵀ``.
    Every term, product and partial sum is an integer of at most
    ``6 * 2**48`` while each index is below ``2**24``, which every grid of
    at most ``MAX_VOXELS`` voxels satisfies; integers below ``2**53`` are
    exact floats, so the form is exact in any summation order, a BLAS
    product's included, and equals the per-axis sum of squares."""
    d2 = (v * v).sum(axis=1)[:, None] + (b * b).sum(axis=1) - 2.0 * (v @ b.T)
    # left-to-right running sum, as a loop would add the terms
    return float(np.cumsum(eps * np.sqrt(d2.min(axis=1)))[-1])


def _check_materials(scenario: Scenario, n_materials: int) -> None:
    """Raise ``ValueError`` if the task or the ground truth names a
    material outside a library of ``n_materials``.  The ground truth is
    checked at the two ends of the scenario's sorted ``materials``; its
    voxels are scanned only to name the first offending one."""
    for name in ("material_a", "material_b"):
        index = getattr(scenario.task, name)
        if index >= n_materials:
            raise ValueError(f"task.{name} is material {index}, but the "
                             f"library has {n_materials} materials")
    materials = scenario.materials
    if materials[0] < 0 or materials[-1] >= n_materials:
        gt = scenario.ground_truth
        j = int(np.argmax((gt < 0) | (gt >= n_materials)))
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
    target and teleports to the highest score.  One
    :class:`~hapticbayes.attention.TrialState` holds everything the trial
    changes.  Every ``SENSE_BLOCK`` touches one :func:`sense` call draws
    the next block's noise and scores the sample of each of the scenario's
    ``materials`` at each touch, and the state loads that table; touch
    ``k`` of a voxel reads entry ``[k % SENSE_BLOCK, r]``, ``r`` being the
    voxel's entry of ``material_rows``.  The draws equal one
    :func:`synthesize_sample` draw per touch, so the path is the same as
    with per-touch sensing, and memory does not grow with the budget.
    Each touch then runs the state's ``update``, one
    :meth:`PosteriorGrid.update`; the loop-closure test; the state's
    ``touch``, which refreshes the fields and returns the target score
    with the probe at the touched voxel, the product that
    :func:`~hapticbayes.attention.target_posterior` normalizes; and the
    selection of its maximum, ties to the lowest linear index.  Every
    score lies in [3e-38, 30], as the fields stay finite in [0, 1] and
    ``beta_pdf`` clamps its argument, so a selected score that is not
    positive and finite raises ``FloatingPointError`` naming the
    iteration, the voxel and the value.  ``degenerate_events`` counts the
    posterior updates that kept their prior (e.g. a NaN sample).  The
    trial ends on loop closure (current voxel within one step, in
    Chebyshev distance, of the first voxel visited that the scenario's
    ``benchmark_mask`` marks, once at least ten iterations have run) or
    when the iteration budget is spent.  The start voxel counts as the
    first visited voxel.  An ``on_iteration`` that is neither ``None``
    nor callable, or a task or ground truth that names a material the
    library lacks, raises ``ValueError`` before the first touch.

    ``on_iteration`` receives ``(k, AttentionState)`` after each target
    selection, which is how field snapshots are exported.  The state
    holds the score the loop selected on and copies of the uncertainty,
    similarity and saliency fields, so a stored state stays unchanged as
    the trial goes on.  Its inhibition field and its target posterior
    (that score over its sum) are built only if the observer reads them,
    and no observer changes the path.  The trial's divergence is the
    :func:`gamma_metric` arithmetic on its own path and the scenario's
    ``benchmark_points``, without the checks of caller-given paths, and
    equals ``gamma_metric(grid, visited, scenario.benchmark_path)``.
    """
    _check_type("scenario", scenario, Scenario)
    _check_type("lib", lib, MaterialLibrary)
    _check_type("config", config, TrialConfig)
    if on_iteration is not None and not callable(on_iteration):
        raise ValueError(f"on_iteration must be None or callable, got "
                         f"{on_iteration!r}")
    grid = scenario.grid
    _check_materials(scenario, len(lib))
    rng = np.random.default_rng(config.seed)
    state = TrialState(grid, scenario.task, len(lib))
    material_rows = scenario.material_rows
    on_benchmark = scenario.benchmark_mask
    nx, ny = grid.nx, grid.ny
    nxy = nx * ny

    current = grid.linear_index(scenario.start)
    visited: list[VoxelIndex] = []
    anchor: Optional[VoxelIndex] = None
    terminated_by = "budget"

    for k in range(config.max_iterations):
        j = current
        ix, iy, iz = j % nx, j // nx % ny, j // nxy
        probe = VoxelIndex._make((ix, iy, iz))
        visited.append(probe)
        touch = k % SENSE_BLOCK
        if touch == 0:
            state.load(sense(lib, scenario.materials, config.noise, rng))
        values = state.update(j, touch, material_rows[j])

        if anchor is None and on_benchmark[j]:
            anchor = probe
        if (anchor is not None and len(visited) >= CLOSURE_MIN_ITERATIONS
                and max(abs(ix - anchor[0]), abs(iy - anchor[1]),
                        abs(iz - anchor[2])) <= 1):
            terminated_by = "loop_closure"
            break

        score = state.touch(j, values)
        chosen = int(score.argmax())
        best = score[chosen]
        if not 0.0 < best < math.inf:
            raise FloatingPointError(
                f"iteration {k}: the target score {best} at voxel "
                f"{(chosen % nx, chosen // nx % ny, chosen // nxy)} is not "
                f"positive and finite")
        if on_iteration is not None:
            on_iteration(k, AttentionState(grid, probe, score, state.uncertainty.copy(),
                                           state.omega.copy(), state.saliency.copy()))
        current = chosen

    points = np.fromiter(itertools.chain.from_iterable(visited), float,
                         3 * len(visited)).reshape(-1, 3)
    gamma = _divergence(grid.bounds.epsilon, points, scenario.benchmark_points)
    return TrialRecord(visited, gamma, config.seed, terminated_by,
                       state.degenerate_events,
                       len(visited) - len(set(visited)))
