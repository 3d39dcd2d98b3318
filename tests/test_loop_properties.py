"""Generated-scenario oracle for the exploration loop.

Each example draws a small scenario (each grid side 1-9 voxels, a
library of 2-6 bundled materials, a ground truth over 1-4 of them, a
task pair that may be absent from it, a start voxel and a benchmark
path), a trial configuration and the iterations whose sample reads a NaN
feature.  ``run_trial`` must agree, with ``==``, with a plain reference
loop written here: one ``synthesize_sample`` per touch, the full-grid
field functions, the product of the three ``beta_pdf`` factors and
``np.argmax``.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hapticbayes import (
    INHIBITION_FACTOR,
    SALIENCY_FACTOR,
    UNCERTAINTY_FACTOR,
    HapticSample,
    MaterialLibrary,
    NoiseSpec,
    PosteriorGrid,
    Scenario,
    TaskSpec,
    TrialConfig,
    VoxelIndex,
    WorkspaceBounds,
    beta_pdf,
    bundled_library_path,
    load_library,
    make_grid,
    omega_field,
    run_trial,
    saliency_field,
    synthesize_sample,
    uncertainty_field,
)
from hapticbayes import simulator
from hapticbayes.perception import log_likelihoods

#: Fixed examples (no example database, same draws every run), so the
#: suite stays deterministic.
LOOP_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                         derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])

BUNDLED = load_library(bundled_library_path())

#: A sample whose texture feature is NaN: every likelihood floors to zero.
NAN_SAMPLE = HapticSample(math.nan, 1.0)

EPS = 0.01


@st.composite
def trials(draw):
    """A scenario, its library, a trial configuration and the set of
    iterations whose sample is ``NAN_SAMPLE``."""
    picks = draw(st.lists(st.integers(0, len(BUNDLED) - 1), min_size=2,
                          max_size=6, unique=True))
    lib = MaterialLibrary([BUNDLED[i] for i in picks])
    n = len(lib)
    nx, ny, nz = (draw(st.integers(1, 9)) for _ in range(3))
    grid = make_grid(WorkspaceBounds(0, nx * EPS, 0, ny * EPS, 0, nz * EPS, EPS))
    present = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                            unique=True))
    ix, iy, iz = (np.arange(grid.theta) % nx, (np.arange(grid.theta) // nx) % ny,
                  np.arange(grid.theta) // (nx * ny))
    if draw(st.booleans()):
        # a plane through the grid: the task boundary of the paper
        a, b, c = (draw(st.integers(-2, 2)) for _ in range(3))
        side = a * ix + b * iy + c * iz > draw(st.integers(-4, 12))
        gt = np.where(side, present[0], present[-1])
    else:
        gt = np.array(present)[np.random.default_rng(
            draw(st.integers(0, 2**16))).integers(len(present), size=grid.theta)]
    task = TaskSpec(*draw(st.lists(st.integers(0, n - 1), min_size=2,
                                   max_size=2, unique=True)))
    voxel = st.builds(VoxelIndex, st.integers(0, nx - 1), st.integers(0, ny - 1),
                      st.integers(0, nz - 1))
    path = draw(st.lists(voxel, min_size=1, max_size=6))
    scenario = Scenario("generated", grid, gt, path, draw(voxel), task)
    # SENSE_BLOCK is 32: some budgets cross into a second sense block
    budget = draw(st.integers(1, 40) | st.integers(33, 40))
    config = TrialConfig(max_iterations=budget,
                         noise=NoiseSpec.uniform(draw(st.sampled_from(
                             [0.0, 0.5, 1.0, 2.0]))),
                         seed=draw(st.integers(0, 2**16)))
    nan_iterations = frozenset(draw(st.lists(st.integers(0, budget - 1),
                                             max_size=3)))
    return scenario, lib, config, nan_iterations


def reference_trial(scenario, lib, config, nan_iterations, offset_inhibition):
    """The loop, written out: returns the visited path, the termination
    cause, the degenerate update count and, per scored iteration, its
    fields and score."""
    grid = scenario.grid
    rng = np.random.default_rng(config.seed)
    posteriors = PosteriorGrid(grid.theta, len(lib))
    current = scenario.start
    visited, iterations = [], []
    anchor, terminated_by, degenerate = None, "budget", 0
    for k in range(config.max_iterations):
        visited.append(current)
        sample = synthesize_sample(lib, scenario.material_at(current),
                                   config.noise, rng)
        if k in nan_iterations:
            sample = NAN_SAMPLE
        if posteriors.update(grid.linear_index(current),
                             log_likelihoods(lib, sample)).degenerate:
            degenerate += 1
        if anchor is None and current in scenario.benchmark_path:
            anchor = current
        if (anchor is not None and len(visited) >= 10
                and max(abs(a - b) for a, b in zip(current, anchor)) <= 1):
            terminated_by = "loop_closure"
            break
        fields = {"inhibition": offset_inhibition(grid, current),
                  "uncertainty": uncertainty_field(posteriors),
                  "omega": omega_field(posteriors, scenario.task)}
        fields["saliency"] = saliency_field(grid, fields["omega"])
        fields["score"] = (beta_pdf(INHIBITION_FACTOR, fields["inhibition"])
                           * beta_pdf(SALIENCY_FACTOR, fields["saliency"])
                           * beta_pdf(UNCERTAINTY_FACTOR, fields["uncertainty"]))
        iterations.append((current, fields))
        current = grid.voxel_of_linear(int(np.argmax(fields["score"])))
    return visited, terminated_by, degenerate, iterations


def with_nan_samples(lib, nan_iterations):
    """A patch of ``simulator.sense`` for one trial: the rows of
    ``nan_iterations`` are replaced by the log-likelihoods of
    ``NAN_SAMPLE``, for every material."""
    real = simulator.sense
    nan_row = log_likelihoods(lib, NAN_SAMPLE)
    blocks = itertools.count()

    def sense(lib, noise, rng):
        table = real(lib, noise, rng)
        first = next(blocks) * simulator.SENSE_BLOCK
        for k in nan_iterations:
            if first <= k < first + simulator.SENSE_BLOCK:
                table[k - first] = nan_row
        return table

    return mock.patch.object(simulator, "sense", sense)


@LOOP_SETTINGS
@given(trials())
def test_run_trial_equals_the_reference_loop(offset_inhibition, trial):
    scenario, lib, config, nan_iterations = trial
    visited, terminated_by, degenerate, iterations = reference_trial(
        scenario, lib, config, nan_iterations, offset_inhibition)

    def check(k, state):
        probe, want = iterations[k]
        assert state.probe == probe
        for name, value in want.items():
            got = getattr(state, name)
            assert got.shape == value.shape and np.all(got == value), \
                f"iteration {k}: {name} differs from the reference"
        best = int(np.argmax(state.score))
        assert 0.0 < state.score[best] < math.inf
        checked.append(k)

    checked = []
    with with_nan_samples(lib, nan_iterations):
        rec = run_trial(scenario, lib, config, on_iteration=check)
    with with_nan_samples(lib, nan_iterations):
        unobserved = run_trial(scenario, lib, config)
    assert checked == list(range(len(iterations)))
    assert rec.visited == tuple(visited)
    assert rec.terminated_by == terminated_by
    assert rec.degenerate_events == degenerate == len(
        nan_iterations & set(range(len(visited))))
    assert rec.revisit_count == len(visited) - len(set(visited))
    points = scenario.benchmark_path
    assert rec.gamma == sum(
        EPS * math.sqrt(min(sum((a - b) ** 2 for a, b in zip(v, p))
                            for p in points))
        for v in visited)
    # an observer never changes the trial
    assert unobserved == rec
