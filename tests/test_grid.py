import dataclasses
import math
import re

import numpy as np
import pytest

from hapticbayes import (
    GridConfigError,
    VoxelIndex,
    WorkspaceBounds,
    WorkspaceGrid,
    inhibition_field,
    make_grid,
)
from hapticbayes.grid import MAX_VOXELS

WORKSPACE = WorkspaceBounds(0, 0.30, 0, 0.60, 0, 0.01, 0.01)


def test_make_grid_workspace_dimensions():
    grid = make_grid(WORKSPACE)
    assert (grid.nx, grid.ny, grid.nz) == (30, 60, 1)
    assert grid.theta == 1800


def test_make_grid_single_voxel():
    eps = 0.01
    grid = make_grid(WorkspaceBounds(0, eps, 0, eps, 0, eps, eps))
    assert grid.theta == 1


def test_make_grid_rejects_non_divisible_extent():
    with pytest.raises(GridConfigError, match="y"):
        make_grid(WorkspaceBounds(0, 0.30, 0, 0.25, 0, 0.01, 0.02))


def test_make_grid_rejects_bad_epsilon_and_empty_extent():
    with pytest.raises(GridConfigError):
        WorkspaceBounds(0, 0.1, 0, 0.1, 0, 0.1, -0.01)
    with pytest.raises(GridConfigError, match="x"):
        WorkspaceBounds(0.2, 0.1, 0, 0.1, 0, 0.1, 0.01)


def test_make_grid_rejects_non_finite_bound_or_overflowing_count():
    with pytest.raises(GridConfigError, match="x_hi must be finite"):
        WorkspaceBounds(0, math.inf, 0, 0.3, 0, 0.01, 0.01)
    with pytest.raises(GridConfigError, match="y_lo must be finite"):
        WorkspaceBounds(0, 0.3, -math.inf, 0.3, 0, 0.01, 0.01)
    with pytest.raises(GridConfigError, match="x extent .* overflows"):
        make_grid(WorkspaceBounds(0, 1e300, 0, 0.01, 0, 0.01, 1e-10))


def test_bounds_of_a_narrow_integer_type_are_stored_as_floats():
    # int8 bounds were kept, and the x extent 100 - -100 wrapped to -56
    bounds = WorkspaceBounds(np.int8(-100), np.int8(100), 0, 1, 0, 1, 1)
    assert all(type(v) is float for v in dataclasses.astuple(bounds))
    assert bounds.extent("x") == 200.0
    assert make_grid(bounds).shape == (200, 1, 1)


def test_make_grid_voxel_cap():
    # 10^4 voxels per axis: rejected from the counts alone, nothing allocated
    with pytest.raises(GridConfigError, match="1000000000000 voxels"):
        make_grid(WorkspaceBounds(0, 100.0, 0, 100.0, 0, 100.0, 0.01))
    assert make_grid(WorkspaceBounds(0, 1.0, 0, 1.0, 0, 0.1, 0.01)).theta == 100_000
    assert 100_000 < MAX_VOXELS


def test_linear_index_roundtrip_and_order():
    grid = make_grid(WORKSPACE)
    assert grid.linear_index(VoxelIndex(0, 0, 0)) == 0
    assert grid.linear_index(VoxelIndex(1, 0, 0)) == 1
    assert grid.linear_index(VoxelIndex(0, 1, 0)) == 30
    for j in (0, 17, 1799):
        assert grid.linear_index(grid.voxel_of_linear(j)) == j


def test_indices_are_computed_in_python_ints():
    # numpy uint8 indices used to wrap (RuntimeWarning) in linear_index,
    # and voxel_of_linear(np.uint8(200)) raised a stray OverflowError
    grid = make_grid(WORKSPACE)
    j = grid.linear_index(VoxelIndex(np.uint8(1), np.uint8(10), np.uint8(0)))
    assert j == 301 and type(j) is int
    v = grid.voxel_of_linear(np.uint8(200))
    assert v == (20, 6, 0) and all(type(i) is int for i in v)
    assert grid.voxel_of_linear(np.int64(1799)) == (29, 59, 0)


@pytest.mark.parametrize("voxel", [VoxelIndex(1.5, 2, 0), VoxelIndex(0, 2.0, 0),
                                   VoxelIndex(True, 0, 0),
                                   VoxelIndex(0, 0, np.bool_(False)),
                                   VoxelIndex(0, "1", 0)],
                         ids=["1.5", "2.0", "bool", "numpy-bool", "str"])
def test_linear_index_rejects_an_index_that_is_not_an_integer(voxel):
    # VoxelIndex(1.5, 2, 0) used to give linear index 61.5
    bad = next(i for i in voxel if type(i) is not int)
    with pytest.raises(ValueError, match=rf"^voxel .*: index {bad!r} is not "
                                         rf"an integer$"):
        make_grid(WORKSPACE).linear_index(voxel)


@pytest.mark.parametrize("voxel", [VoxelIndex(1.5, 0, 0), VoxelIndex(True, 0, 0),
                                   VoxelIndex(29.9, 0, 0), VoxelIndex(30, 0, 0),
                                   VoxelIndex(-1, 0, 0), VoxelIndex(0, 0, "0"),
                                   (1, 2), VoxelIndex(29, 59, 0),
                                   VoxelIndex(np.uint8(5), np.int8(3), 0),
                                   5, None, (1, 2, 3, 4)],
                         ids=["1.5", "bool", "29.9", "x-high", "x-low", "str",
                              "pair", "corner", "numpy", "int", "None",
                              "quad"])
def test_contains_agrees_with_require(voxel):
    # contains used to accept 1.5, True and 29.9 on a 30-wide grid
    grid = make_grid(WORKSPACE)
    try:
        grid.require(voxel)
    except ValueError:
        assert not grid.contains(voxel)
    else:
        assert grid.contains(voxel)


@pytest.mark.parametrize("voxel", [5, None, (1, 2), (1, 2, 3, 4)],
                         ids=["int", "None", "pair", "quad"])
def test_a_value_that_is_not_three_indices_is_no_voxel(voxel):
    # require(5), linear_index(None) and contains(5) used to raise a raw
    # TypeError, and (1, 2) a bare "not enough values to unpack"
    grid = make_grid(WORKSPACE)
    message = rf"^voxel {re.escape(repr(voxel))} is not three indices"
    for check in (grid.require, grid.linear_index,
                  lambda v: inhibition_field(grid, v)):
        with pytest.raises(ValueError, match=message):
            check(voxel)
    assert grid.contains(voxel) is False


@pytest.mark.parametrize("j", [3.7, 3.0, True, np.bool_(True), "3"],
                         ids=["3.7", "3.0", "bool", "numpy-bool", "str"])
def test_voxel_of_linear_rejects_an_index_that_is_not_an_integer(j):
    # voxel_of_linear(3.7) used to give (3.7, 0.0, 0.0)
    with pytest.raises(ValueError, match=rf"^linear index {j!r} is not an "
                                         rf"integer$"):
        make_grid(WORKSPACE).voxel_of_linear(j)


@pytest.mark.parametrize("bounds", [(0, 1, 0, 1, 0, 1, 0.5), None],
                         ids=["tuple", "None"])
def test_grid_rejects_bounds_that_are_not_workspace_bounds(bounds):
    # make_grid((0, 1, 0, 1, 0, 1, 0.5)) used to raise a stray
    # AttributeError: 'tuple' object has no attribute 'extent'
    with pytest.raises(GridConfigError, match=rf"^bounds must be a "
                                              rf"WorkspaceBounds, got "
                                              rf"{re.escape(repr(bounds))}$"):
        make_grid(bounds)


def test_grid_counts_come_from_the_bounds():
    # WorkspaceGrid(bounds, 3, 3, 1) used to build 9 voxels over this
    # 30x60 workspace, and (bounds, 0, -2, 1) a grid of none
    grid = WorkspaceGrid(WORKSPACE)
    assert (grid.shape, grid.theta) == ((30, 60, 1), 1800)
    assert grid == make_grid(WORKSPACE)
    with pytest.raises(TypeError):
        WorkspaceGrid(WORKSPACE, 3, 3, 1)
    # the rule and errors of make_grid, which now only builds the grid
    with pytest.raises(GridConfigError, match="y extent 0.25 is not a multiple"):
        WorkspaceGrid(WorkspaceBounds(0, 0.30, 0, 0.25, 0, 0.01, 0.02))
    with pytest.raises(GridConfigError, match="more than the"):
        WorkspaceGrid(WorkspaceBounds(0, 100.0, 0, 100.0, 0, 100.0, 0.01))

