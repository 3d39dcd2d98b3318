"""The per-grid saliency stencil of ``TrialState.touch`` against a
full recompute of the saliency field, on grids with every kind of border."""

import itertools
import re

import numpy as np
import pytest

from hapticbayes import (
    SALIENCY_FACTOR,
    TaskSpec,
    UNCERTAINTY_FACTOR,
    VoxelIndex,
    WorkspaceBounds,
    beta_pdf,
    make_grid,
    saliency_field,
)
from hapticbayes import attention
from hapticbayes.attention import TrialState, saliency_stencil

EPS = 0.01
TASK = TaskSpec(0, 1)
N_MATERIALS = 2


def grid_of(nx, ny, nz):
    return make_grid(WorkspaceBounds(0, nx * EPS, 0, ny * EPS, 0, nz * EPS, EPS))


def border_code(i, n):
    """The documented code of index ``i`` on an axis of ``n`` voxels:
    interior 0, low edge 1, high edge 2, both 3."""
    return (i == 0) + 2 * (i == n - 1)


def touch_every_voxel(fields, rng):
    """Touch every voxel once, in a random order, with a random similarity
    (exact 0, 0.5 and 1 included), checking both saliency arrays against a
    full recompute by their bytes after each touch."""
    grid = fields.grid
    specials = np.array([0.0, 0.5, 1.0])
    for j in rng.permutation(grid.theta):
        j = int(j)
        omega = (specials[rng.integers(3)] if rng.random() < 0.2
                 else rng.random())
        u = rng.random()
        fields.touch(j, (u, beta_pdf(UNCERTAINTY_FACTOR, u), omega))
        want = saliency_field(grid, fields.omega)
        assert fields.saliency.tobytes() == want.tobytes(), j
        assert (fields.f_saliency.tobytes()
                == beta_pdf(SALIENCY_FACTOR, want).tobytes()), j


# (30, 60, 1) is the bundled scenarios' shape; a fresh grid of it starts
# with no stencil case built by another test
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 1), (1, 4, 1), (2, 2, 2),
                                   (4, 3, 2), (5, 4, 3), (30, 60, 1)])
def test_touch_equals_a_full_saliency_recompute_and_hits_every_border_case(shape):
    grid = grid_of(*shape)
    rng = np.random.default_rng(sum(grid.shape))
    touch_every_voxel(TrialState(grid, TASK, N_MATERIALS), rng)

    nx, ny, nz = grid.shape
    reachable = {border_code(ix, nx) + 4 * border_code(iy, ny)
                 + 16 * border_code(iz, nz)
                 for ix, iy, iz in itertools.product(range(nx), range(ny),
                                                     range(nz))}
    distinct = [min(n, 3) for n in grid.shape]
    assert len(reachable) == distinct[0] * distinct[1] * distinct[2]
    assert set(saliency_stencil(grid).cases) == reachable


def test_stencil_cases_hold_the_in_grid_outputs_of_each_voxel():
    grid = grid_of(4, 3, 2)
    stencil = saliency_stencil(grid)
    for j in range(grid.theta):
        ix, iy, iz = grid.voxel_of_linear(j)
        case = stencil.case(ix, iy, iz)
        block = itertools.product(range(ix - 1, ix + 2), range(iy - 1, iy + 2),
                                  range(iz - 1, iz + 2))
        want = [grid.linear_index(v) for v in itertools.starmap(VoxelIndex, block)
                if grid.contains(v)]
        assert sorted(case.outputs + case.first + j) == sorted(want)
        assert case.outputs[0] == 0 and j + case.first == min(want)
        m = len(want)
        assert case.reads.shape == case.weights.shape == (27, 3, m)
        assert (case.reads == case.reads[:, :1]).all()
        for array in case[:3]:
            assert not array.flags.writeable


def test_stencil_is_built_once_per_grid_and_reused_by_every_trial(monkeypatch):
    builds = []
    build = attention.SaliencyStencil._build

    def counting_build(self, key):
        builds.append(key)
        return build(self, key)

    monkeypatch.setattr(attention.SaliencyStencil, "_build", counting_build)
    grid = grid_of(5, 4, 3)
    rng = np.random.default_rng(5)
    first = TrialState(grid, TASK, N_MATERIALS)
    touch_every_voxel(first, rng)
    stencil = saliency_stencil(grid)
    cases = dict(stencil.cases)
    assert len(cases) == 27 and sorted(builds) == sorted(cases)

    second = TrialState(grid, TASK, N_MATERIALS)
    touch_every_voxel(second, rng)
    assert saliency_stencil(grid) is stencil
    assert len(builds) == 27
    assert all(stencil.cases[key] is case for key, case in cases.items())
    assert saliency_stencil(grid_of(5, 4, 3)) is not stencil


@pytest.mark.parametrize("width", range(1, 28))
def test_axis_0_sum_adds_the_rows_in_order(width):
    # the stencil's bit-identity with _sobel_responses rests on this:
    # numpy reduces the leading axis of a C-contiguous (27, 3, m) product
    # one row after another, for any number m of in-grid outputs
    rng = np.random.default_rng(width)
    for _ in range(50):
        shape = (27, 3, width)
        x = (rng.choice([-1.0, 1.0], shape)
             * 10.0 ** rng.uniform(-8, 8, shape) * rng.random(shape))
        x[rng.random(shape) < 0.1] = 0.0
        x[rng.random(shape) < 0.05] = -0.0
        want = x[0].copy()
        for row in x[1:]:
            want = want + row
        assert np.add.reduce(x, 0).tobytes() == want.tobytes()


@pytest.mark.parametrize("j", [-1, 24, 10**20, np.int64(-1), True, 1.0])
def test_touch_rejects_a_j_outside_the_grid_before_changing_anything(j):
    # j = -1 used to overwrite the last voxel's entries before raising, and
    # j = theta raised a stray IndexError
    grid = grid_of(4, 3, 2)
    fields = TrialState(grid, TASK, N_MATERIALS)
    fields.touch(23, (0.125, 0.25, 0.875))
    names = ("uncertainty", "f_uncertainty", "omega", "saliency",
             "f_saliency", "_padded")
    before = [getattr(fields, name).copy() for name in names]
    message = (f"linear index {j!r} is not an integer"
               if type(j) in (bool, float)
               else f"linear index {int(j)} outside [0, 24)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fields.touch(j, (0.25, 0.5, 0.75))
    for name, array in zip(names, before):
        assert np.array_equal(getattr(fields, name), array), name
