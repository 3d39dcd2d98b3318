"""Oracles of the exploration loop's fast paths.

``run_trial`` keeps its state in linear indices and scores its own path
without the checks of caller-given paths.  Its divergence must equal
the public, checked ``gamma_metric`` of its visited path with ``==``,
and that path must hold ``VoxelIndex`` entries of Python ints.  Its loop
closure reads the scenario's ``benchmark_mask``, which must mark exactly
the voxels of the benchmark path, on the bundled scenarios and on
generated ones.  Its ``TrialState`` refreshes the fields incrementally:
at every touch they must equal the full recompute of the public field
functions from the state's own ``PosteriorGrid``, and the score ``touch``
returns, which the loop selects on, the reference product that
``target_posterior`` normalizes with ``==``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hapticbayes import (
    SALIENCY_FACTOR,
    UNCERTAINTY_FACTOR,
    Scenario,
    TaskSpec,
    TrialConfig,
    VoxelIndex,
    WorkspaceBounds,
    beta_pdf,
    bundled_library_path,
    gamma_metric,
    load_scenario,
    make_grid,
    omega_field,
    run_trial,
    saliency_field,
    uncertainty_field,
)
from hapticbayes.attention import TrialState
from reference_loop import reference_score
from test_loop_properties import FIXED

# an oracle CI also runs with numpy's SIMD dispatch disabled (-m dispatch_oracle)
pytestmark = pytest.mark.dispatch_oracle

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


#: The fixed inputs of ``test_loop_properties.py`` that cut the inhibition
#: window and the saliency block on every side.
FUSED = ("bundled-1", "bundled-2", "bundled-3", "tilted-volume", "line-1",
         "line-7")


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("case", FUSED)
def test_trial_state_equals_a_full_recompute_at_every_touch(lib, scenarios,
                                                            monkeypatch, case):
    # after every touch the state's fields equal the public field functions
    # of its own posteriors, by their bytes, and the score the loop selects
    # on equals the reference product of those fields
    touch = TrialState.touch
    scored = []

    def checked(state, j, values):
        score = touch(state, j, values)
        grid, posteriors = state.grid, state.posteriors
        uncertainty = uncertainty_field(posteriors)
        omega = omega_field(posteriors, state.task)
        saliency = saliency_field(grid, omega)
        for got, want in (
                (state.uncertainty, uncertainty), (state.omega, omega),
                (state.saliency, saliency),
                (state.f_uncertainty, beta_pdf(UNCERTAINTY_FACTOR, uncertainty)),
                (state.f_saliency, beta_pdf(SALIENCY_FACTOR, saliency))):
            assert bits(got) == bits(want), j
        want = reference_score(grid, grid.voxel_of_linear(j),
                               state.f_saliency, state.f_uncertainty)
        assert score.shape == want.shape and np.all(score == want), j
        scored.append(j)
        return score

    monkeypatch.setattr(TrialState, "touch", checked)
    make, budget, seeds = FIXED[case][:3]
    scenario = make(lib, scenarios)
    for seed in seeds:
        scored.clear()
        rec = run_trial(scenario, lib, TrialConfig(max_iterations=budget,
                                                   seed=seed))
        # every touch is scored but one that closes the loop
        closed = rec.terminated_by == "loop_closure"
        assert len(scored) == rec.l - closed > 0
        assert scored == [scenario.grid.linear_index(v)
                          for v in rec.visited[:len(scored)]]
