"""Every test of the exploration loop against the reference loop.

``check_against_reference`` (in ``reference_loop.py``) runs ``run_trial``
observed and unobserved and asserts that it agrees, with ``==``, with a
plain reference loop: one ``synthesize_sample`` per touch, the full-grid
field functions, the product of the three ``beta_pdf`` factors and
``np.argmax``.  It runs on generated scenarios (each grid side 1-9
voxels, a library of 2-6 bundled materials, a ground truth over 1-4 of
them, a task pair that may be absent from it, a start voxel, a benchmark
path and the iterations whose sample reads a NaN feature) and on fixed
ones: the bundled scenarios, a tilted volume, two lines, budgets around
the sense block, and small grids that revisit voxels within and across
sense blocks, with NaN samples on a first touch and on a revisit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hapticbayes import (
    MaterialLibrary,
    NoiseSpec,
    Scenario,
    TaskSpec,
    TrialConfig,
    VoxelIndex,
    WorkspaceBounds,
    bundled_library_path,
    load_library,
    make_grid,
)
from hapticbayes.simulator import DEFAULT_MAX_ITERATIONS, SENSE_BLOCK
from reference_loop import check_against_reference

# an oracle CI also runs with numpy's SIMD dispatch disabled (-m dispatch_oracle)
pytestmark = pytest.mark.dispatch_oracle

BUNDLED = load_library(bundled_library_path())

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


@given(trials())
def test_run_trial_equals_the_reference_loop(trial):
    check_against_reference(*trial)


# ---------------------------------------------------------------------------
# fixed inputs

def tilted_scenario(lib, shape):
    """A material boundary along a plane tilted against all three axes;
    the benchmark path is the far corner alone, so loop closure waits
    until the probe gets there."""
    nx, ny, nz = shape
    grid = make_grid(WorkspaceBounds(0, nx * EPS, 0, ny * EPS, 0, nz * EPS, EPS))
    j = np.arange(grid.theta)
    ix, iy, iz = j % nx, (j // nx) % ny, j // (nx * ny)
    sil, wood = lib.index_of("silicone"), lib.index_of("wood")
    gt = np.where(2 * ix + iy + 2 * iz > nx + 1, sil, wood)
    return Scenario("tilted", grid, gt, [VoxelIndex(nx - 1, ny - 1, nz - 1)],
                    VoxelIndex(0, 0, 0), TaskSpec(sil, wood))


def line_scenario(lib, nx):
    """``nx`` voxels in a row, silicone from voxel 3 on.  On 1x1x1 every
    saliency window side is cut and the corner-to-corner distance is 0;
    on 7x1x1 the y and z sides are cut."""
    grid = make_grid(WorkspaceBounds(0, nx * EPS, 0, EPS, 0, EPS, EPS))
    sil, wood = lib.index_of("silicone"), lib.index_of("wood")
    gt = np.where(np.arange(nx) >= 3, sil, wood)
    return Scenario("line", grid, gt, [VoxelIndex(nx - 1, 0, 0)],
                    VoxelIndex(0, 0, 0), TaskSpec(sil, wood))


def square_scenario(lib):
    """A 3x3x1 grid, silicone from column 1 on, benchmark at the far
    corner: at seed 7 a 40-touch trial stays away from it after its
    tenth touch, so it never closes and revisits voxels all along."""
    grid = make_grid(WorkspaceBounds(0, 3 * EPS, 0, 3 * EPS, 0, EPS, EPS))
    sil, wood = lib.index_of("silicone"), lib.index_of("wood")
    gt = np.where(np.arange(grid.theta) % 3 >= 1, sil, wood)
    return Scenario("square", grid, gt, [VoxelIndex(2, 2, 0)],
                    VoxelIndex(0, 0, 0), TaskSpec(sil, wood))


def scores_at_least(least):
    def expect(scenario, budget, results):
        assert all(checked >= least for _, checked in results)
    return expect


def reaches_every_face(scenario, budget, results):
    scores_at_least(40)(scenario, budget, results)
    # the probe reached every face and several corners, so saliency
    # windows were cut on every side
    visited = {tuple(v) for rec, _ in results for v in rec.visited}
    nx, ny, nz = scenario.grid.shape
    for axis, n in enumerate((nx, ny, nz)):
        assert {v[axis] for v in visited} >= {0, n - 1}
    corners = set(itertools.product((0, nx - 1), (0, ny - 1), (0, nz - 1)))
    assert len(corners & visited) >= 3


def moves_every_iteration(scenario, budget, results):
    # not an invariant: a probe can stay on a line or a two-voxel grid
    for rec, _ in results:
        assert all(a != b for a, b in zip(rec.visited, rec.visited[1:]))


def spends_the_budget(scenario, budget, results):
    for rec, _ in results:
        assert rec.terminated_by == "budget" and rec.l == budget


def revisits_around_blocks(nan_first, nan_revisit):
    """The trials spend the budget and revisit a voxel within one sense
    block and a voxel first touched in an earlier block.  The NaN sample
    at iteration ``nan_first`` falls on a voxel's first touch, a
    degenerate first touch that leaves the voxel unexplored, and the one
    at ``nan_revisit`` on a voxel that an earlier touch explored, so that
    update runs the kernel on the voxel's own row."""
    def expect(scenario, budget, results):
        spends_the_budget(scenario, budget, results)
        for rec, _ in results:
            v = rec.visited
            first = {}
            for k, voxel in enumerate(v):
                first.setdefault(voxel, k)
            block = [k // SENSE_BLOCK for k in range(len(v))]
            assert any(v[k] in v[SENSE_BLOCK * block[k]:k] for k in range(len(v)))
            assert any(block[first[voxel]] < block[k] for k, voxel in enumerate(v))
            assert first[v[nan_first]] == nan_first
            assert any(v[k] == v[nan_revisit]
                       for k in range(nan_revisit) if k != nan_first)
    return expect


#: case id: (scenario from the library and the bundled scenarios, budget,
#: seeds, the iterations whose sample is ``NAN_SAMPLE``, what the trials
#: must show beyond agreeing with the reference).  The ``blocks`` cases
#: end one touch before, on and after a sense block; the ``revisits``
#: cases revisit voxels within and across blocks, with a NaN sample on a
#: first touch and one on a revisit.
FIXED = {
    **{f"bundled-{i + 1}": (lambda lib, bundled, i=i: bundled[i],
                            DEFAULT_MAX_ITERATIONS, range(10), (),
                            moves_every_iteration)
       for i in range(3)},
    "tilted-volume": (lambda lib, _: tilted_scenario(lib, (5, 4, 3)), 120,
                      range(3), (), reaches_every_face),
    **{f"line-{nx}": (lambda lib, _, nx=nx: line_scenario(lib, nx), 30,
                      range(3), (), scores_at_least(9))
       for nx in (1, 7)},
    **{f"blocks-{budget}": (lambda lib, _: tilted_scenario(lib, (8, 6, 3)),
                            budget, range(3), (), spends_the_budget)
       for budget in (1, SENSE_BLOCK - 1, SENSE_BLOCK, SENSE_BLOCK + 1,
                      2 * SENSE_BLOCK + 1)},
    **{f"revisits-{name}": (make, 40, [seed], nan, revisits_around_blocks(*nan))
       for name, make, seed, nan in (
           ("line-6", lambda lib, _: line_scenario(lib, 6), 3, (1, 33)),
           ("square", lambda lib, _: square_scenario(lib), 7, (2, 35)))},
}


@pytest.mark.parametrize("case", FIXED)
def test_run_trial_equals_the_reference_loop_on_fixed_inputs(lib, scenarios,
                                                             case):
    make, budget, seeds, nan_iterations, expect = FIXED[case]
    scenario = make(lib, scenarios)
    expect(scenario, budget, [
        check_against_reference(scenario, lib,
                                TrialConfig(max_iterations=budget, seed=seed),
                                frozenset(nan_iterations))
        for seed in seeds])
