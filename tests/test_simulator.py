import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from hapticbayes import (
    HapticSample,
    MaterialLibrary,
    MaterialParams,
    MaterialPosterior,
    NoiseSpec,
    Scenario,
    ScenarioLoadError,
    TaskSpec,
    TrialConfig,
    TrialRecord,
    VoxelIndex,
    WorkspaceBounds,
    bundled_library_path,
    gamma_metric,
    load_scenario,
    log_likelihoods,
    make_grid,
    run_trial,
    save_scenario,
    sense,
    synthesize_sample,
)
import hapticbayes
from hapticbayes import attention, perception, simulator
from hapticbayes.simulator import _boundary_voxels
from reference_loop import with_nan_samples


def bundled_scenario_path(name):
    return bundled_library_path().parent / f"{name}.txt"


def minimal_scenario(toy_lib):
    grid = make_grid(WorkspaceBounds(0, 0.02, 0, 0.01, 0, 0.01, 0.01))
    gt = np.array([0, 1])
    bench = [VoxelIndex(0, 0, 0), VoxelIndex(1, 0, 0)]
    return Scenario("mini", grid, gt, bench, VoxelIndex(0, 0, 0), TaskSpec(0, 1))


# ---------------------------------------------------------------------------
# scenario files

@pytest.mark.parametrize("bounds", [
    WorkspaceBounds(0, 8 * 0.0012345678, 0, 4 * 0.0012345678, 0, 0.0012345678,
                    0.0012345678),
    WorkspaceBounds(0.1234567891, 0.1434567891, 0, 0.01, 0, 0.01, 0.01)],
    ids=["epsilon", "x_lo"])
def test_save_load_roundtrip_keeps_grid_bounds_exactly(tmp_path, lib, bounds):
    # the bounds used to be written with 6 significant digits: the first
    # file failed to load ("x extent 0.00987654 is not a multiple of
    # epsilon 0.00123457"), and the second loaded with shifted bounds
    grid = make_grid(bounds)
    gt = np.zeros(grid.theta, dtype=int)
    gt[0] = 1
    scenario = Scenario("fine", grid, gt, [VoxelIndex(0, 0, 0)],
                        VoxelIndex(0, 0, 0), TaskSpec(0, 1))
    loaded = load_scenario(save_scenario(scenario, lib, tmp_path / "s.txt"), lib)
    assert loaded.grid == grid


def test_bundled_scenario_1(lib):
    s = load_scenario(bundled_scenario_path("scenario-1"), lib)
    assert s.grid.shape == (30, 60, 1)
    assert s.start == VoxelIndex(28, 30, 0)
    assert lib.names[s.task.material_a] == "silicone"
    assert lib.names[s.task.material_b] == "wood"
    assert set(np.unique(s.ground_truth)) == {lib.index_of("silicone"),
                                              lib.index_of("wood")}


def test_bundled_files_match_builtins(lib, scenarios):
    for s in scenarios:
        loaded = load_scenario(bundled_scenario_path(s.name), lib)
        assert loaded.name == s.name
        assert np.array_equal(loaded.ground_truth, s.ground_truth)
        assert loaded.benchmark_path == s.benchmark_path
        assert loaded.start == s.start
        assert loaded.task == s.task


def test_save_load_roundtrip(tmp_path, toy_lib):
    scenario = minimal_scenario(toy_lib)
    path = save_scenario(scenario, toy_lib, tmp_path / "mini.txt")
    loaded = load_scenario(path, toy_lib)
    assert np.array_equal(loaded.ground_truth, scenario.ground_truth)
    assert loaded.benchmark_path == scenario.benchmark_path
    assert loaded.start == scenario.start
    assert loaded.task == scenario.task


def test_load_rejects_out_of_bounds_path(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_text()
    lines = src.splitlines()
    i = lines.index("path:")
    lines.insert(i + 1, "40 0 0")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioLoadError, match="outside grid"):
        load_scenario(bad, lib)


@pytest.mark.parametrize("entries, message",
                         [(["40 0 0"], r"benchmark_path\[0\]: voxel \(40, 0, 0\) "
                                       r"outside grid \(30, 60, 1\)"),
                          ([], "benchmark path must be non-empty")],
                         ids=["outside", "empty"])
def test_load_raises_a_scenario_check_naming_the_file(tmp_path, lib, entries,
                                                      message):
    # the file's voxels are checked by Scenario, as every scenario's are
    lines = bundled_scenario_path("scenario-1").read_text().splitlines()
    start, end = lines.index("path:"), lines.index("raster:")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines[:start + 1] + entries + lines[end:]) + "\n")
    with pytest.raises(ScenarioLoadError,
                       match=f"^{re.escape(str(bad))}: {message}$"):
        load_scenario(bad, lib)


@pytest.mark.parametrize("section, what", [("start", "start"),
                                           ("path", "path entry 1")])
@pytest.mark.parametrize("tokens", ["1 2", "1 2 3 4", "1 2.5 0", "1 two 0"],
                         ids=["two", "four", "float", "word"])
def test_load_rejects_a_voxel_line_that_is_not_three_integers(tmp_path, lib,
                                                              section, what,
                                                              tokens):
    lines = bundled_scenario_path("scenario-1").read_text().splitlines()
    if section == "start":
        lines[lines.index("start: 28 30 0")] = f"start: {tokens}"
    else:
        lines.insert(lines.index("path:") + 1, tokens)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioLoadError,
                       match=f"^{re.escape(str(bad))}: {what}: expected three "
                             f"integers 'ix iy iz', got '{re.escape(tokens)}'$"):
        load_scenario(bad, lib)


def test_load_rejects_wrong_raster_size(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_text().splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(src[:-1]) + "\n")     # drop one raster line
    with pytest.raises(ScenarioLoadError, match="raster"):
        load_scenario(bad, lib)


def test_load_rejects_unknown_material(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(src.replace("task: silicone, wood", "task: silicone, velvet"))
    with pytest.raises(ScenarioLoadError, match="velvet"):
        load_scenario(bad, lib)


def test_load_rejects_non_finite_grid_bound(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_text().splitlines()
    i = next(i for i, ln in enumerate(src) if ln.startswith("grid:"))
    src[i] = "grid: 0 inf 0 0.3 0 0.01 0.01"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(src) + "\n")
    with pytest.raises(ScenarioLoadError, match="x_hi must be finite"):
        load_scenario(bad, lib)


def test_load_rejects_duplicate_symbol(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(src.replace("symbols: A=silicone, B=wood",
                               "symbols: A=silicone, A=wood, B=wood"))
    with pytest.raises(ScenarioLoadError, match="symbol 'A' defined twice"):
        load_scenario(bad, lib)


def test_load_rejects_task_naming_one_material_twice(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(src.replace("task: silicone, wood", "task: wood, wood"))
    with pytest.raises(ScenarioLoadError, match="task: task materials must differ"):
        load_scenario(bad, lib)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path, lib):
    src = bundled_scenario_path("scenario-1").read_bytes()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(src.replace(b"name: scenario-1", b"name: scenario-\xff"))
    with pytest.raises(ScenarioLoadError, match=f"{bad}: not UTF-8"):
        load_scenario(bad, lib)


def test_load_rejects_missing_section(tmp_path, lib):
    src = [ln for ln in bundled_scenario_path("scenario-1").read_text().splitlines()
           if not ln.startswith("start:")]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(src) + "\n")
    with pytest.raises(ScenarioLoadError, match="start"):
        load_scenario(bad, lib)


def test_minimal_two_voxel_scenario(toy_lib):
    scenario = minimal_scenario(toy_lib)
    assert scenario.grid.theta == 2
    assert scenario.material_at(VoxelIndex(1, 0, 0)) == 1


def test_scenario_validation(toy_lib):
    grid = make_grid(WorkspaceBounds(0, 0.02, 0, 0.01, 0, 0.01, 0.01))
    with pytest.raises(ValueError, match="cover"):
        Scenario("x", grid, np.array([0]), [VoxelIndex(0, 0, 0)],
                 VoxelIndex(0, 0, 0), TaskSpec(0, 1))
    with pytest.raises(ValueError, match="non-empty"):
        Scenario("x", grid, np.array([0, 1]), [], VoxelIndex(0, 0, 0),
                 TaskSpec(0, 1))


def test_scenario_rejects_a_grid_or_task_of_another_type(scenarios):
    # task=(0, 1) used to build, and run_trial then raised "'tuple' object
    # has no attribute 'material_a'"; a WorkspaceBounds grid raised a stray
    # AttributeError at once
    s = scenarios[0]
    for name, bad, kind in (("task", (0, 1), "TaskSpec"),
                            ("grid", s.grid.bounds, "WorkspaceGrid")):
        with pytest.raises(ValueError, match=rf"^{name} must be a {kind}, got "
                                             rf"{re.escape(repr(bad))}$"):
            dataclasses.replace(s, **{name: bad})


@pytest.mark.parametrize("bad", [(28, 30, 0), VoxelIndex(1.5, 30, 0),
                                 VoxelIndex(True, 30, 0)])
def test_scenario_rejects_voxels_that_are_not_voxel_indices(scenarios, bad):
    # a tuple start used to raise a raw AttributeError, and a VoxelIndex
    # of 1.5 to construct (its linear index read 61.5)
    s = scenarios[0]

    def message(name):
        if isinstance(bad, VoxelIndex):
            return f"{name}: voxel {tuple(bad)}: index {bad.ix!r} is not an integer"
        return f"{name} must be a VoxelIndex of integers, got {bad!r}"

    with pytest.raises(ValueError, match=f"^{re.escape(message('start'))}$"):
        dataclasses.replace(s, start=bad)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(message('benchmark_path[1]'))}$"):
        dataclasses.replace(s, benchmark_path=[s.start, bad])
    with pytest.raises(ValueError, match=r"^start: voxel \(30, 0, 0\) outside"):
        dataclasses.replace(s, start=VoxelIndex(30, 0, 0))
    # numpy integers pass, stored as ints: uint8 arithmetic would wrap
    v = dataclasses.replace(s, start=VoxelIndex(*np.array([28, 30, 0],
                                                          dtype=np.uint8))).start
    assert v == s.start and all(type(i) is int for i in v)


# ---------------------------------------------------------------------------
# builtin scenario geometry

def test_builtin_starts_lie_on_benchmarks(scenarios):
    expected = [VoxelIndex(28, 30, 0), VoxelIndex(28, 31, 0), VoxelIndex(17, 35, 0)]
    for s, start in zip(scenarios, expected):
        assert s.start == start
        assert s.start in set(s.benchmark_path)


def bruteforce_boundary(grid, gt):
    """Independent oracle: every voxel with an in-grid 26-neighbour of
    another material, in linear-index order."""
    out = []
    for j in range(grid.theta):
        v = grid.voxel_of_linear(j)
        for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3):
            w = VoxelIndex(v.ix + dx, v.iy + dy, v.iz + dz)
            if grid.contains(w) and gt[grid.linear_index(w)] != gt[j]:
                out.append(v)
                break
    return out


@pytest.mark.parametrize("shape", [(5, 4, 3), (1, 1, 1), (7, 1, 1), (3, 3, 3),
                                   (4, 1, 3), (4, 3, 1)],
                         ids=lambda s: "x".join(map(str, s)))
def test_boundary_voxels_match_bruteforce(shape):
    eps = 0.01
    grid = make_grid(WorkspaceBounds(0, shape[0] * eps, 0, shape[1] * eps,
                                     0, shape[2] * eps, eps))
    rng = np.random.default_rng(sum(shape))
    for n_materials in (1, 2, 3, 3, 3):
        gt = rng.integers(0, n_materials, grid.theta)
        assert _boundary_voxels(grid, gt) == bruteforce_boundary(grid, gt)


def test_builtin_benchmarks_are_edge_voxels(scenarios):
    for s in scenarios:
        edge = bruteforce_boundary(s.grid, s.ground_truth)
        assert _boundary_voxels(s.grid, s.ground_truth) == edge
        assert set(s.benchmark_path) == set(edge)


def test_scenario_1_benchmark_monotone_along_one_axis(scenarios):
    ys = [v.iy for v in scenarios[0].benchmark_path]
    assert ys == sorted(ys)


def test_scenario_3_benchmark_is_closed_loop(scenarios):
    path = scenarios[2].benchmark_path
    first, last = path[0], path[-1]
    assert max(abs(first.ix - last.ix), abs(first.iy - last.iy),
               abs(first.iz - last.iz)) <= 1


def test_builtin_scenarios_use_two_materials(lib, scenarios):
    sil, wood = lib.index_of("silicone"), lib.index_of("wood")
    for s in scenarios:
        assert set(np.unique(s.ground_truth)) == {sil, wood}
        assert (s.task.material_a, s.task.material_b) == (sil, wood)


# ---------------------------------------------------------------------------
# sensing

def test_sense_delegates_to_ground_truth(toy_lib):
    # the trial reads row [touch, the voxel's material_rows entry] of the
    # block it senses for the scenario's materials
    scenario = minimal_scenario(toy_lib)
    table = sense(toy_lib, scenario.materials, NoiseSpec(0, 0),
                  np.random.default_rng(0))
    assert table.shape == (simulator.SENSE_BLOCK, 2, 2)
    hard = log_likelihoods(toy_lib, HapticSample(1.0, 2.0))    # exact means
    soft = log_likelihoods(toy_lib, HapticSample(10.0, 20.0))
    for k in range(simulator.SENSE_BLOCK):
        assert np.array_equal(table[k, scenario.material_rows[0]], hard)
        assert np.array_equal(table[k, scenario.material_rows[1]], soft)


def test_sense_same_voxel_different_seeds_differ(lib, scenarios):
    s = scenarios[0]
    row = s.material_rows[s.grid.linear_index(s.start)]
    a = sense(lib, s.materials, NoiseSpec(), np.random.default_rng(1))
    b = sense(lib, s.materials, NoiseSpec(), np.random.default_rng(2))
    assert not np.array_equal(a[:, row], b[:, row])


@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.0, 2.5)])
def test_sense_block_equals_per_touch_samples(lib, noise):
    # row [k, r]: the log-likelihoods of the k-th per-touch sample of
    # material materials[r], each touch drawing from where the previous
    # one stopped, whichever materials are sensed
    for materials in (range(len(lib)), [9], [0, 4, 9], [3, 7]):
        rng = np.random.default_rng(5)
        table = sense(lib, list(materials), noise, rng)
        assert table.shape == (simulator.SENSE_BLOCK, len(materials), len(lib))
        after_block = rng.bit_generator.state
        reference = np.random.default_rng(5)
        for k in range(simulator.SENSE_BLOCK):
            state = reference.bit_generator.state
            for r, m in enumerate(materials):
                reference.bit_generator.state = state
                want = log_likelihoods(lib, synthesize_sample(lib, m, noise,
                                                              reference))
                assert np.array_equal(table[k, r], want), (k, m)
        assert reference.bit_generator.state == after_block


@pytest.mark.parametrize("materials", [[10], [-1], [0.0, 1.0], [], [[0, 1]],
                                       [True, False]])
def test_sense_rejects_what_is_not_a_library_index(lib, materials):
    # numpy indexing would score a -1 as the library's last material
    with pytest.raises(ValueError, match="materials must be a sequence of "
                                         "indices into a library of 10"):
        sense(lib, materials, NoiseSpec(), np.random.default_rng(0))


def test_scenario_materials_are_its_distinct_ground_truth(lib, scenarios):
    sil, wood = lib.index_of("silicone"), lib.index_of("wood")
    s = minimal_scenario(lib)
    assert s.materials.tolist() == [0, 1]
    for s in scenarios:
        assert s.materials.tolist() == sorted((sil, wood))
        assert np.array_equal(s.materials[s.material_rows], s.ground_truth)
        assert not (s.materials.flags.writeable
                    or s.material_rows.flags.writeable)
    one = Scenario("one", s.grid, np.full(s.grid.theta, 7), s.benchmark_path,
                   s.start, s.task)
    assert one.materials.tolist() == [7] and not one.material_rows.any()


# ---------------------------------------------------------------------------
# gamma metric

def test_gamma_identical_paths_is_zero(scenarios):
    s = scenarios[0]
    bench = list(s.benchmark_path)
    assert gamma_metric(s.grid, bench, bench) == 0.0


def test_gamma_adjacent_single_voxel(scenarios):
    grid = scenarios[0].grid
    assert gamma_metric(grid, [VoxelIndex(5, 5, 0)], [VoxelIndex(5, 6, 0)]) \
        == pytest.approx(0.01)


def test_gamma_sum_of_nearest_distances(scenarios):
    grid = scenarios[0].grid
    bench = [VoxelIndex(0, 0, 0), VoxelIndex(10, 10, 0)]
    visited = [VoxelIndex(1, 0, 0), VoxelIndex(10, 12, 0)]
    assert gamma_metric(grid, visited, bench) == pytest.approx(0.03)


def test_gamma_doubles_when_trial_duplicated(scenarios):
    grid = scenarios[0].grid
    bench = [VoxelIndex(3, 3, 0)]
    visited = [VoxelIndex(3, 4, 0), VoxelIndex(5, 3, 0)]
    one = gamma_metric(grid, visited, bench)
    two = gamma_metric(grid, visited + visited, bench)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_gamma_zero_iff_on_benchmark(scenarios):
    s = scenarios[0]
    on = [s.benchmark_path[3], s.benchmark_path[10]]
    off = on + [VoxelIndex(0, 0, 0)]
    assert gamma_metric(s.grid, on, s.benchmark_path) == 0.0
    assert gamma_metric(s.grid, off, s.benchmark_path) > 0.0


def test_gamma_requires_non_empty(scenarios):
    s = scenarios[0]
    with pytest.raises(ValueError):
        gamma_metric(s.grid, [], s.benchmark_path)


def test_trial_gamma_equals_gamma_of_the_path_sequence(lib, scenarios):
    # run_trial scores against the scenario's cached array; the public
    # sequence form gives the same bits
    for scenario in scenarios:
        points = scenario.benchmark_points
        assert points.shape == (len(scenario.benchmark_path), 3)
        assert points.dtype == float and not points.flags.writeable
        with pytest.raises(ValueError):
            points[0, 0] = 1.0
        for seed in range(10):
            rec = run_trial(scenario, lib, TrialConfig(seed=seed))
            assert rec.gamma == gamma_metric(scenario.grid, rec.visited,
                                             scenario.benchmark_path)
    # a replaced path gets its own array
    short = dataclasses.replace(scenarios[0],
                                benchmark_path=scenarios[0].benchmark_path[:3])
    assert np.array_equal(short.benchmark_points,
                          np.array(scenarios[0].benchmark_path[:3], dtype=float))


def loop_gamma(grid, visited, benchmark):
    """Reference: one visited voxel at a time, added left to right."""
    b = np.array([[v.ix, v.iy, v.iz] for v in benchmark], dtype=float)
    total = 0.0
    for v in visited:
        d2 = ((b[:, 0] - v.ix) ** 2 + (b[:, 1] - v.iy) ** 2
              + (b[:, 2] - v.iz) ** 2)
        total += grid.bounds.epsilon * math.sqrt(float(d2.min()))
    return total


def test_gamma_matches_loop_exactly():
    rng = np.random.default_rng(12)
    for shape, eps in (((30, 60, 1), 0.01), ((7, 5, 4), 0.003), ((1, 1, 1), 0.02)):
        nx, ny, nz = shape
        grid = make_grid(WorkspaceBounds(0, nx * eps, 0, ny * eps, 0, nz * eps, eps))

        def path(n):
            return [VoxelIndex(int(rng.integers(nx)), int(rng.integers(ny)),
                               int(rng.integers(nz))) for _ in range(n)]

        for _ in range(100):
            visited = path(int(rng.integers(1, 81)))
            bench = path(int(rng.integers(1, 60)))
            assert gamma_metric(grid, visited, bench) \
                == loop_gamma(grid, visited, bench)


def test_gamma_rejects_visited_voxel_outside_grid(scenarios):
    s = scenarios[0]
    with pytest.raises(ValueError, match=r"\(30, 2, 0\) outside grid"):
        gamma_metric(s.grid, [VoxelIndex(1, 1, 0), VoxelIndex(30, 2, 0)],
                     s.benchmark_path)


def test_gamma_rejects_benchmark_voxel_outside_grid(scenarios):
    # used to score a distance of 1e18 m
    grid = scenarios[0].grid
    with pytest.raises(ValueError, match=r"^benchmark entry 1: voxel "
                                         r"\(100000000000000000000, 0, 0\) "
                                         r"outside grid \(30, 60, 1\)$"):
        gamma_metric(grid, [(0, 0, 0)], [(1, 1, 0), (10**20, 0, 0)])
    with pytest.raises(ValueError, match=r"^benchmark entry 0: voxel \(0, -1, 0\)"):
        gamma_metric(grid, [(0, 0, 0)], np.array([[0.0, -1.0, 0.0]]))
    # too large for a float: no raw OverflowError
    with pytest.raises(ValueError, match="^benchmark holds a coordinate too "
                                         "large for a voxel index$"):
        gamma_metric(grid, [(0, 0, 0)], [(10**400, 0, 0)])


@pytest.mark.parametrize("bad", [(0.7, 0.2, 0), (1, 1, math.nan),
                                 (math.inf, 0, 0)])
def test_gamma_rejects_non_integer_voxels(scenarios, bad):
    # a visited (0.7, 0.2, 0) used to be truncated to voxel (0, 0, 0)
    grid = scenarios[0].grid
    entry = re.escape(repr(tuple(float(x) for x in bad)))
    for name, visited, bench in (("visited", [(2, 2, 0), bad], [(0, 0, 0)]),
                                 ("benchmark", [(2, 2, 0)], [(0, 0, 0), bad])):
        with pytest.raises(ValueError, match=rf"^{name} entry 1: {entry} is "
                                             rf"not a whole voxel index$"):
            gamma_metric(grid, visited, bench)


@pytest.mark.parametrize("bad", [(True, 0, 0), VoxelIndex(True, 1, 0),
                                 np.array([True, False, False]),
                                 (0, np.True_, 0), ("1", 0, 0)],
                         ids=["bool", "voxel-bool", "bool-array",
                              "numpy-bool", "str"])
def test_gamma_rejects_coordinates_that_are_not_real_numbers(scenarios, bad):
    # a visited (True, 0, 0) used to be read as voxel (1, 0, 0): gamma 0.01
    grid = scenarios[0].grid
    entry = re.escape(repr(tuple(bad)))
    for name, visited, bench in (("visited", [(2, 2, 0), bad], [(0, 0, 0)]),
                                 ("benchmark", [(2, 2, 0)], [(0, 0, 0), bad])):
        with pytest.raises(ValueError, match=rf"^{name} entry 1: {entry} holds "
                                             rf"a coordinate that is not a "
                                             rf"real number \(bool is not "
                                             rf"one\)$"):
            gamma_metric(grid, visited, bench)
    # a bool array is read the same way
    with pytest.raises(ValueError, match=r"^visited entry 0: \(True, False, "
                                         r"False\) holds a coordinate"):
        gamma_metric(grid, np.array([[True, False, False]]), [(0, 0, 0)])


def test_gamma_takes_whole_float_voxels(scenarios):
    s = scenarios[0]
    visited = [(28, 30, 0), (27, 31, 0), (0, 0, 0)]
    want = gamma_metric(s.grid, visited, s.benchmark_path)
    assert gamma_metric(s.grid, visited, s.benchmark_points) == want
    assert gamma_metric(s.grid, np.array(visited, dtype=float),
                        list(s.benchmark_points)) == want


@pytest.mark.parametrize("path", [[(1, 2)], [1, 2, 3]])
def test_gamma_rejects_paths_that_are_not_voxel_triples(scenarios, path):
    grid = scenarios[0].grid
    with pytest.raises(ValueError, match=r"^visited must be a sequence of "
                                         r"\(ix, iy, iz\) voxels$"):
        gamma_metric(grid, path, [(0, 0, 0)])


def test_trial_record_rejects_what_it_cannot_score():
    # an empty path used to raise a raw ZeroDivisionError
    with pytest.raises(ValueError, match="^visited must hold at least one voxel$"):
        TrialRecord((), 0.0, 0, "budget")
    # any other cause used to be stored as given
    with pytest.raises(ValueError, match=r"^terminated_by must be one of "
                                         r"\('loop_closure', 'budget'\), "
                                         r"got 'timeout'$"):
        TrialRecord([VoxelIndex(0, 0, 0)], 0.0, 0, "timeout")
    for cause in ("loop_closure", "budget"):
        assert TrialRecord([VoxelIndex(0, 0, 0)], 0.0, 0, cause).l == 1
    record = TrialRecord([VoxelIndex(0, 0, 0)], np.float64(0.25), np.int64(3),
                         "budget", np.int64(0), 0)
    assert record.gamma_per_l == 0.25


@pytest.mark.parametrize("field, args, kwargs", [
    ("gamma", (math.nan, 0), {}),
    ("gamma", (math.inf, 0), {}),
    ("gamma", (-0.5, 0), {}),
    ("gamma", ("0.5", 0), {}),
    ("gamma", (True, 0), {}),
    # an integer too large for a float used to pass the range check and
    # raise a stray OverflowError computing gamma_per_l
    ("gamma", (10**400, 0), {}),
    ("seed", (0.0, -1), {}),
    ("seed", (0.0, 1.5), {}),
    ("degenerate_events", (0.0, 0), {"degenerate_events": -1}),
    ("revisit_count", (0.0, 0), {"revisit_count": -2}),
    ("revisit_count", (0.0, 0), {"revisit_count": True}),
])
def test_trial_record_rejects_a_value_it_cannot_score(field, args, kwargs):
    # each used to be stored as given: a NaN gamma made gamma_per_l NaN,
    # which then poisoned ExperimentReport.aggregates
    gamma, seed = args
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        TrialRecord([VoxelIndex(0, 0, 0)], gamma, seed, "budget", **kwargs)


# ---------------------------------------------------------------------------
# the exploration loop

@pytest.mark.parametrize("budget", [0, -3])
def test_trial_config_rejects_empty_budget(budget):
    with pytest.raises(ValueError, match="max_iterations"):
        TrialConfig(max_iterations=budget)


@pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5),
                                         ("seed", "3"), ("seed", True),
                                         ("max_iterations", 2.5),
                                         ("max_iterations", True)])
def test_trial_config_rejects_non_integer_or_negative_seed_and_budget(name,
                                                                      value):
    with pytest.raises(ValueError, match=rf"{name} must be an integer >= "):
        TrialConfig(**{name: value})


@pytest.mark.parametrize("bad", [1.0, None])
def test_trial_config_rejects_a_noise_that_is_not_a_noise_spec(bad):
    with pytest.raises(ValueError, match=re.escape(
            f"noise must be a NoiseSpec, got {bad!r}")):
        TrialConfig(noise=bad)


def test_trial_config_accepts_numpy_integers(toy_lib):
    config = TrialConfig(max_iterations=np.int32(3), seed=np.uint8(4))
    assert run_trial(minimal_scenario(toy_lib), toy_lib, config).l <= 3


def test_run_trial_budget_termination(lib, scenarios):
    rec = run_trial(scenarios[0], lib, TrialConfig(max_iterations=5, seed=0))
    assert rec.l == 5
    assert rec.terminated_by == "budget"


def test_run_trial_loop_closure_on_loop_scenario(lib, scenarios):
    rec = run_trial(scenarios[2], lib, TrialConfig(seed=0))
    assert rec.terminated_by == "loop_closure"
    assert rec.l >= 10


def test_run_trial_iteration_callback(lib, scenarios):
    seen = []
    run_trial(scenarios[0], lib, TrialConfig(max_iterations=4, seed=0),
              on_iteration=lambda k, state: seen.append((k, state)))
    assert [k for k, _ in seen] == [0, 1, 2, 3]
    theta = scenarios[0].grid.theta
    for _, state in seen:
        assert state.target_posterior.shape == (theta,)
        assert abs(state.target_posterior.sum() - 1.0) < 1e-9
        for field in (state.inhibition, state.uncertainty, state.omega,
                      state.saliency):
            assert np.all((field >= 0.0) & (field <= 1.0))


# ---------------------------------------------------------------------------
# selection on the raw score

@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
def test_degenerate_score_raises(lib, scenarios, monkeypatch, bad):
    # an all-zero score, or one NaN or inf entry among positive scores;
    # real scores lie in [3e-38, 30] (see run_trial), so this is a fault
    touch = attention.TrialState.touch

    def score(state, j, values):
        touch(state, j, values)
        out = np.ones(state.grid.theta) if bad else np.zeros(state.grid.theta)
        out[state.grid.theta // 2] = bad
        return out

    monkeypatch.setattr(attention.TrialState, "touch", score)
    grid = scenarios[0].grid
    # np.argmax picks the first maximum, or the first NaN
    voxel = tuple(grid.voxel_of_linear(grid.theta // 2 if bad else 0))
    states = []
    for on_iteration in (None, lambda k, state: states.append(state)):
        with pytest.raises(FloatingPointError, match=re.escape(
                f"iteration 0: the target score {bad} at voxel {voxel} ")):
            run_trial(scenarios[0], lib, TrialConfig(max_iterations=3, seed=0),
                      on_iteration=on_iteration)
    # the observer never sees the bad score
    assert states == []


def test_nan_samples_count_as_degenerate_events(lib, scenarios):
    # the first two touches read a NaN texture feature; each keeps its
    # voxel's prior and counts once, and the scores stay proper (the loop
    # raises otherwise)
    states = []
    with with_nan_samples(lib, {0, 1}):
        rec = run_trial(scenarios[0], lib, TrialConfig(max_iterations=5, seed=0),
                        on_iteration=lambda k, state: states.append(state))
    assert rec.l == 5
    assert rec.degenerate_events == 2
    # a NaN-touched voxel keeps the uniform prior: uncertainty 1.0 up to the
    # rounding of its entropy, as every unexplored voxel reads
    grid = scenarios[0].grid
    for k in (0, 1):
        j = grid.linear_index(rec.visited[k])
        assert states[k].uncertainty[j] == pytest.approx(1.0, abs=1e-15)
        assert states[k].uncertainty[j] == states[k].uncertainty[
            grid.linear_index(rec.visited[4])]


def test_unbounded_budget_allocates_by_block_not_by_budget(lib, scenarios):
    import tracemalloc

    scenario = scenarios[2]
    config = TrialConfig(max_iterations=10**9, seed=0)
    run_trial(scenario, lib, TrialConfig(max_iterations=1))   # grid tables
    tracemalloc.start()
    try:
        rec = run_trial(scenario, lib, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.terminated_by == "loop_closure"
    n = len(lib)
    # the posterior grid and the theta-sized fields, plus one sense block
    # and its temporaries; a table with a row per budgeted touch would
    # need 8 * n * n bytes a touch, 800 GB here
    bound = 8 * (4 * scenario.grid.theta * n + 16 * simulator.SENSE_BLOCK * n * n)
    assert peak < bound, (peak, bound)


#: SHA-256 of the visited paths of the three bundled scenarios x seeds 0-9
#: (each path as int64 (ix, iy, iz) rows, then b";"), as the benchmark's
#: ``visited_paths_sha256`` hashes them; fixed when the inhibition table
#: and the raw-score selection landed.
VISITED_PATHS_SHA256 = \
    "b80a8865a746d5f1d50c2a026a7102bdda7737045b467a0eaccb9532ce8d01b6"


def test_visited_paths_of_bundled_scenarios_are_pinned(lib, scenarios):
    digest = hashlib.sha256()
    for scenario in scenarios:
        for seed in range(10):
            rec = run_trial(scenario, lib, TrialConfig(seed=seed))
            digest.update(np.array(rec.visited, dtype=np.int64).tobytes() + b";")
    assert digest.hexdigest() == VISITED_PATHS_SHA256


def test_an_observer_that_reads_nothing_builds_nothing(lib, scenarios,
                                                      monkeypatch):
    # the score reads the inhibition table once per iteration; an unread
    # state adds no second read and no normalized score
    reads = []
    at_offsets = attention._at_offsets

    def counted(values, shape, *probe):
        reads.append(probe)
        return at_offsets(values, shape, *probe)

    monkeypatch.setattr(attention, "_at_offsets", counted)
    for scenario in scenarios:
        reads.clear()
        states = []
        run_trial(scenario, lib, TrialConfig(seed=0),
                  on_iteration=lambda k, state: states.append(state))
        assert len(reads) == len(states) > 0
        for state in states:
            assert not {"inhibition", "target_posterior"} & set(vars(state))
        # a read builds the field once and keeps it
        first = states[0].inhibition
        assert states[0].inhibition is first and len(reads) == len(states) + 1


@pytest.mark.parametrize("nan_iterations", [(), (0, 5, 40)])
def test_trial_calls_sense_and_update_through_their_attributes(
        lib, scenarios, monkeypatch, nan_iterations):
    # the benchmark's tracer times these layers by replacing the module
    # attribute simulator.sense and the class attribute
    # PosteriorGrid.update, and counts degenerate updates from what update
    # returns; a loop that bypassed either would read 0 calls there
    calls = {"sense": 0, "update": 0, "degenerate": 0}
    sense, update = simulator.sense, perception.PosteriorGrid.update

    def counted_sense(*args, **kwargs):
        calls["sense"] += 1
        return sense(*args, **kwargs)

    def counted_update(self, *args, **kwargs):
        result = update(self, *args, **kwargs)
        calls["update"] += 1
        calls["degenerate"] += result.degenerate
        return result

    monkeypatch.setattr(simulator, "sense", counted_sense)
    monkeypatch.setattr(perception.PosteriorGrid, "update", counted_update)
    blocks = []
    for scenario in scenarios:
        for seed in range(10):
            calls.update(dict.fromkeys(calls, 0))
            with with_nan_samples(lib, set(nan_iterations)):
                rec = run_trial(scenario, lib, TrialConfig(seed=seed))
            blocks.append(-(-rec.l // simulator.SENSE_BLOCK))
            assert calls["sense"] == blocks[-1]
            assert calls["update"] == rec.l
            assert calls["degenerate"] == rec.degenerate_events
            assert rec.degenerate_events == len(
                [k for k in nan_iterations if k < rec.l])
    assert max(blocks) == 3


# ---------------------------------------------------------------------------
# materials a trial may name

def test_task_spec_rejects_negative_material():
    with pytest.raises(ValueError, match=r"^material_a must be an integer "
                                         r">= 0, got -1$"):
        TaskSpec(-1, 2)
    with pytest.raises(ValueError, match=r"^material_b must be an integer "
                                         r">= 0, got -3$"):
        TaskSpec(2, -3)


def test_task_spec_takes_integer_materials_only():
    # 0.0 used to pass here and fail in the trial with a raw IndexError
    with pytest.raises(ValueError, match=r"^material_a must be an integer "
                                         r">= 0, got 0.0$"):
        TaskSpec(0.0, 1.0)
    with pytest.raises(ValueError, match=r"^material_b must be an integer "
                                         r">= 0, got 1.5$"):
        TaskSpec(0, 1.5)
    # True and False used to mean materials 1 and 0
    with pytest.raises(ValueError, match=r"^material_a must be an integer "
                                         r">= 0, got True$"):
        TaskSpec(True, False)
    with pytest.raises(ValueError, match=r"^material_b must be an integer "
                                         r">= 0, got False$"):
        TaskSpec(1, False)
    assert TaskSpec(np.int64(0), np.uint8(1)) == TaskSpec(0, 1)


def test_scenario_rejects_non_integer_ground_truth(scenarios):
    s = scenarios[0]

    def scenario_of(gt):
        return Scenario(s.name, s.grid, gt, s.benchmark_path, s.start, s.task)

    # a cast to int used to truncate 9.6 to material 9
    with pytest.raises(ValueError, match=r"ground_truth at voxel \(0, 0, 0\) "
                                         r"is 9.6, not an integer material"):
        scenario_of(s.ground_truth + 0.6)
    gt = s.ground_truth.astype(float)
    gt[61] = np.nan
    with pytest.raises(ValueError, match=r"voxel \(1, 2, 0\) is nan"):
        scenario_of(gt)
    with pytest.raises(ValueError, match=r"voxel \(0, 0, 0\) is 1, not"):
        scenario_of(np.full(s.grid.theta, "1"))
    # a bool array used to pass as materials 0 and 1
    with pytest.raises(ValueError, match=r"^ground_truth must hold integer "
                                         r"material indices, got a bool array$"):
        scenario_of(s.ground_truth.astype(bool))
    for gt in (s.ground_truth.astype(float), s.ground_truth.astype(np.uint8)):
        loaded = scenario_of(gt).ground_truth
        assert loaded.dtype == int and np.array_equal(loaded, s.ground_truth)


@pytest.mark.parametrize("value", [np.uint64(2**63), 2.0**63, 1e300, -1e300])
def test_scenario_rejects_ground_truth_outside_int64(scenarios, value):
    # these used to build as material -9223372036854775808 (1e300 with only
    # a RuntimeWarning), which run_trial then reported as the voxel's material
    s = scenarios[0]

    def scenario_with(value):
        gt = s.ground_truth.astype(np.asarray(value).dtype)
        gt[61] = value
        return Scenario(s.name, s.grid, gt, s.benchmark_path, s.start, s.task)

    with pytest.raises(ValueError, match=r"ground_truth at voxel \(1, 2, 0\) is "
                                         + re.escape(str(value)) + r", not an "
                                         r"integer material index in the int64 "
                                         r"range$"):
        scenario_with(value)
    # the ends of int64 still build; run_trial rejects them against a library
    for end in (np.uint64(2**63 - 1), -2.0**63):
        assert scenario_with(end).ground_truth[61] == int(end)


def library_of(names):
    return MaterialLibrary([MaterialParams(name, 1.0 + i, 0.1, 2.0 + i, 0.1)
                            for i, name in enumerate(names)])


def line_scenario(n_voxels, gt, task=TaskSpec(0, 1)):
    grid = make_grid(WorkspaceBounds(0, n_voxels * 0.01, 0, 0.01, 0, 0.01, 0.01))
    return Scenario("line", grid, np.asarray(gt), [VoxelIndex(0, 0, 0)],
                    VoxelIndex(0, 0, 0), task)


@pytest.mark.parametrize("name", ["soft, wet", " pad", "pad ", "", "a\x85b",
                                  "a\nb", "pad\r", "a\u2028b", "a\x0cb"])
@pytest.mark.parametrize("where", ["task", "ground truth"])
def test_save_rejects_a_material_name_the_file_cannot_carry(tmp_path, name,
                                                            where):
    # each used to be written, and then failed to load with "task needs two
    # material names", "unknown material name" or a bad section
    lib = library_of(["hard", "soft", name])
    scenario = (line_scenario(2, [0, 1], TaskSpec(0, 2)) if where == "task"
                else line_scenario(3, [0, 1, 2]))
    with pytest.raises(ValueError, match=f"^material name {re.escape(repr(name))} "
                                         f"cannot be saved"):
        save_scenario(scenario, lib, tmp_path / "bad.txt")
    assert not (tmp_path / "bad.txt").exists()


def test_save_writes_names_the_file_can_carry_and_skips_unused_ones(tmp_path):
    lib = library_of(["soft silicone", "a=b", "#wood", " unused, name\n"])
    scenario = line_scenario(3, [0, 1, 2], TaskSpec(2, 0))
    loaded = load_scenario(save_scenario(scenario, lib, tmp_path / "s.txt"), lib)
    assert np.array_equal(loaded.ground_truth, scenario.ground_truth)
    assert loaded.task == scenario.task


@pytest.mark.parametrize("name", ["two\nlines", " padded ", "",
                                  "x\ngrid: 0 1 0 1 0 1 1", "a\x85b", 5])
def test_save_rejects_a_scenario_name_the_file_cannot_carry(tmp_path, lib,
                                                            scenarios, name):
    # each used to be written: "two\nlines" loaded back as "two lines",
    # " padded " as "padded" and "" as the file stem, and the fourth failed
    # to load with "duplicate section 'grid'"
    scenario = dataclasses.replace(scenarios[0], name=name)
    with pytest.raises(ValueError, match=f"^scenario name {re.escape(repr(name))} "
                                         f"cannot be saved"):
        save_scenario(scenario, lib, tmp_path / "bad.txt")
    assert not (tmp_path / "bad.txt").exists()


@pytest.mark.parametrize("where", ["scenario", "material"])
def test_save_leaves_the_file_untouched_for_a_name_utf8_cannot_encode(
        tmp_path, lib, scenarios, where):
    # a lone surrogate used to pass the name checks; the file was then
    # truncated to '' before a UnicodeEncodeError naming no field escaped
    name = "a\ud800"
    if where == "scenario":
        scenario = dataclasses.replace(scenarios[0], name=name)
    else:
        lib = library_of(["hard", name])
        scenario = line_scenario(2, [0, 1])
    path = tmp_path / "kept.txt"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=f"^{where} name {re.escape(repr(name))} "
                                         f"cannot be saved"):
        save_scenario(scenario, lib, path)
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("name", ["a, b", "two  spaces", "#hash", "tab\there",
                                  "name: x", "\u00e9t\u00e9"])
def test_save_keeps_a_scenario_name_the_file_can_carry(tmp_path, lib,
                                                       scenarios, name):
    scenario = dataclasses.replace(scenarios[0], name=name)
    path = save_scenario(scenario, lib, tmp_path / "s.txt")
    assert load_scenario(path, lib).name == name


def test_save_rejects_more_materials_than_raster_symbols(tmp_path):
    # the 69th symbol used to be chr(0x85), which strip() removes, so the
    # file failed to load with "bad symbol entry"
    lib = library_of([f"m{i}" for i in range(69)])
    scenario = line_scenario(68, range(68))
    loaded = load_scenario(save_scenario(scenario, lib, tmp_path / "s.txt"), lib)
    assert np.array_equal(loaded.ground_truth, scenario.ground_truth)
    with pytest.raises(ValueError, match="^scenario uses 69 materials, but a "
                                         "scenario file has symbols for 68$"):
        save_scenario(line_scenario(69, range(69)), lib, tmp_path / "bad.txt")
    assert not (tmp_path / "bad.txt").exists()


@pytest.mark.parametrize("name, bad, message", [
    ("scenario", "scenario-1", "must be a Scenario, got 'scenario-1'"),
    ("lib", "materials.csv", "must be a MaterialLibrary, got 'materials.csv'"),
    ("config", {"seed": 0}, "must be a TrialConfig, got {'seed': 0}"),
    ("on_iteration", 3, "must be None or callable, got 3"),
])
def test_run_trial_rejects_arguments_of_another_type(lib, scenarios, monkeypatch,
                                                     name, bad, message):
    # each used to raise a raw AttributeError or TypeError, the observer's
    # only after the first touch; the checks run before the first sense block
    args = dict(scenario=scenarios[0], lib=lib, config=TrialConfig(seed=0),
                on_iteration=None)
    args[name] = bad
    sensed = []
    monkeypatch.setattr(simulator, "sense", lambda *a: sensed.append(a))
    with pytest.raises(ValueError, match=f"^{re.escape(name + ' ' + message)}$"):
        run_trial(**args)
    assert sensed == []


@pytest.mark.parametrize("entry, name, bad, message", [
    ("sense", "lib", "materials.csv",
     "must be a MaterialLibrary, got 'materials.csv'"),
    ("sense", "noise", 1.0, "must be a NoiseSpec, got 1.0"),
    ("sense", "rng", 7, "must be a Generator, got 7"),
    ("log_likelihoods", "lib", None, "must be a MaterialLibrary, got None"),
    ("log_likelihoods", "sample", (1.0, 2.0),
     "must be a HapticSample, got (1.0, 2.0)"),
    ("update_posterior", "lib", [], "must be a MaterialLibrary, got []"),
    ("update_posterior", "prior", [0.5, 0.5],
     "must be a MaterialPosterior, got [0.5, 0.5]"),
    ("update_posterior", "sample", 1.0, "must be a HapticSample, got 1.0"),
    ("map_category", "post", [0.2, 0.8],
     "must be a MaterialPosterior, got [0.2, 0.8]"),
    ("dump_fields", "state", {"omega": 0.5},
     "must be an AttentionState, got {'omega': 0.5}"),
    ("dump_fields", "iteration", 1.5, "must be an integer >= 0, got 1.5"),
    ("dump_fields", "iteration", True, "must be an integer >= 0, got True"),
    ("dump_fields", "iteration", -3, "must be an integer >= 0, got -3"),
])
def test_entry_points_reject_arguments_of_another_type(lib, scenarios, tmp_path,
                                                       entry, name, bad,
                                                       message):
    # each used to raise a raw AttributeError or TypeError from inside, such
    # as sense's "'float' object has no attribute 'scale_E'"; dump_fields
    # wrote k0001 files for iteration True and k-003 for -3, and made the
    # directory before 1.5 raised a format error.  The checks run once per
    # call, before anything is drawn or written
    states = []
    run_trial(scenarios[0], lib, TrialConfig(max_iterations=1),
              on_iteration=lambda k, state: states.append(state))
    rng = np.random.default_rng(0)
    sample = HapticSample(1.0, 2.0)
    prior = MaterialPosterior.uniform(len(lib))
    args = {
        "sense": dict(lib=lib, materials=scenarios[0].materials,
                      noise=NoiseSpec(), rng=rng),
        "log_likelihoods": dict(lib=lib, sample=sample),
        "update_posterior": dict(lib=lib, prior=prior, sample=sample),
        "map_category": dict(post=prior),
        "dump_fields": dict(state=states[0], iteration=0,
                            destination=tmp_path / "maps"),
    }[entry]
    call = getattr(hapticbayes, entry)
    # the arguments as given are accepted
    call(**{**args, "destination": tmp_path / "valid"}
         if entry == "dump_fields" else args)
    drawn = rng.bit_generator.state
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(name + ' ' + message)}$"):
        call(**args)
    assert rng.bit_generator.state == drawn
    assert not (tmp_path / "maps").exists()


def test_run_trial_rejects_task_material_outside_library(lib, scenarios):
    s = scenarios[0]
    bad = Scenario(s.name, s.grid, s.ground_truth, s.benchmark_path, s.start,
                   TaskSpec(3, len(lib) + 2))
    with pytest.raises(ValueError, match="task.material_b is material 12, "
                                         "but the library has 10 materials"):
        run_trial(bad, lib, TrialConfig(seed=0))


@pytest.mark.parametrize("material", [10, -1])
def test_run_trial_rejects_ground_truth_material_outside_library(lib, scenarios,
                                                                 material):
    s = scenarios[0]
    gt = s.ground_truth.copy()
    gt[61] = material          # voxel (1, 2, 0), far from the probe's path
    bad = Scenario(s.name, s.grid, gt, s.benchmark_path, s.start, s.task)
    message = (rf"ground_truth at voxel \(1, 2, 0\) is material {material}, "
               rf"but the library has 10 materials")
    with pytest.raises(ValueError, match=message):
        run_trial(bad, lib, TrialConfig(seed=0))


def test_save_rejects_ground_truth_material_outside_library(tmp_path, lib,
                                                            scenarios):
    # -1 would otherwise be written as the library's last material
    s = scenarios[0]
    gt = s.ground_truth.copy()
    gt[0] = -1
    bad = Scenario(s.name, s.grid, gt, s.benchmark_path, s.start, s.task)
    with pytest.raises(ValueError, match=r"ground_truth at voxel \(0, 0, 0\)"):
        save_scenario(bad, lib, tmp_path / "bad.txt")
    assert not (tmp_path / "bad.txt").exists()
