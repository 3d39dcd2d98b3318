"""Oracles of the exploration loop's fast paths.

``run_trial`` keeps its state in linear indices and scores its own path
without the checks of caller-given paths.  Its divergence must equal
the public, checked ``gamma_metric`` of its visited path with ``==``,
and that path must hold ``VoxelIndex`` entries of Python ints.  Its loop
closure reads the scenario's ``benchmark_mask``, which must mark exactly
the voxels of the benchmark path, on the bundled scenarios and on
generated ones.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hapticbayes import (
    Scenario,
    TaskSpec,
    TrialConfig,
    VoxelIndex,
    WorkspaceBounds,
    bundled_library_path,
    gamma_metric,
    load_scenario,
    make_grid,
    run_trial,
)

EPS = 0.01


def test_trial_gamma_is_gamma_metric_of_its_visited_path(lib, scenarios):
    for scenario in scenarios:
        for seed in range(10):
            rec = run_trial(scenario, lib, TrialConfig(seed=seed))
            assert rec.gamma == gamma_metric(scenario.grid, rec.visited,
                                             scenario.benchmark_path)
            for v in rec.visited:
                assert type(v) is VoxelIndex
                assert all(type(i) is int for i in v), v


def assert_mask_is_path_membership(scenario):
    mask = scenario.benchmark_mask
    grid = scenario.grid
    assert mask.shape == (grid.theta,) and mask.dtype == bool
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    on_path = set(scenario.benchmark_path)
    for j in range(grid.theta):
        assert mask[j] == (grid.voxel_of_linear(j) in on_path), j


def test_benchmark_mask_of_bundled_scenarios(lib, scenarios):
    for scenario in scenarios:
        assert_mask_is_path_membership(scenario)
        loaded = load_scenario(
            bundled_library_path().parent / f"{scenario.name}.txt", lib)
        assert_mask_is_path_membership(loaded)
        assert np.array_equal(loaded.benchmark_mask, scenario.benchmark_mask)


@st.composite
def scenarios_of_paths(draw):
    """A scenario on a grid of 1-9 voxels per side whose benchmark path
    holds 1-12 voxels, repeats allowed, in any order."""
    nx, ny, nz = (draw(st.integers(1, 9)) for _ in range(3))
    grid = make_grid(WorkspaceBounds(0, nx * EPS, 0, ny * EPS, 0, nz * EPS, EPS))
    voxel = st.builds(VoxelIndex, st.integers(0, nx - 1), st.integers(0, ny - 1),
                      st.integers(0, nz - 1))
    path = draw(st.lists(voxel, min_size=1, max_size=12))
    return Scenario("generated", grid, np.zeros(grid.theta, dtype=int), path,
                    draw(voxel), TaskSpec(0, 1))


@given(scenarios_of_paths())
def test_benchmark_mask_of_generated_scenarios(scenario):
    assert_mask_is_path_membership(scenario)

