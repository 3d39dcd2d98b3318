"""scipy's ndimage as an independent oracle of the two numpy stencils that
replaced it: the reference Sobel responses behind ``saliency_field`` and
the boundary scan of the builtin scenarios."""

import numpy as np
import pytest
from scipy import ndimage

from hapticbayes import WorkspaceBounds, make_grid
from hapticbayes.attention import _sobel_responses
from hapticbayes.simulator import _boundary_voxels

# an oracle CI also runs with numpy's SIMD dispatch disabled (-m dispatch_oracle)
pytestmark = pytest.mark.dispatch_oracle

EPS = 0.01

#: Grid shapes (nx, ny, nz): single voxels, one-voxel axes, planes,
#: volumes and the bundled scenarios' 30x60x1 plane.
SHAPES = [(1, 1, 1), (3, 1, 1), (1, 4, 1), (2, 2, 2), (4, 3, 2), (5, 4, 3),
          (30, 60, 1), (11, 9, 7), (4, 1, 3), (1, 5, 4)]


def grid_of(nx, ny, nz):
    return make_grid(WorkspaceBounds(0, nx * EPS, 0, ny * EPS, 0, nz * EPS, EPS))


def sobel_kernels():
    """The (x, y, z) Sobel kernels of a ``(nz, ny, nx)`` block as outer
    products: the derivative along the kernel's axis, the smoothing along
    the other two."""
    d = np.array([-1.0, 0.0, 1.0])
    s = np.array([1.0, 2.0, 1.0])
    return [np.multiply.outer(np.multiply.outer(a, b), c)
            for a, b, c in ((s, s, d), (s, d, s), (d, s, s))]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_sobel_responses_equal_ndimage_correlate(shape):
    # ndimage skips zero weights and the numpy sum adds them as +0.0, so
    # only the sign of a zero response may differ; saliency takes
    # absolute values
    nx, ny, nz = shape
    kernels = sobel_kernels()
    rng = np.random.default_rng(sum(shape))
    for _ in range(200):
        f = rng.random((nz, ny, nx))
        planted = rng.random(f.shape) < 0.3
        f[planted] = rng.choice([0.0, 0.5, 1.0], planted.sum())
        want = np.stack([ndimage.correlate(f, k, mode="constant", cval=0.5)
                         for k in kernels])
        got = _sobel_responses(f)
        assert got.shape == want.shape
        assert np.abs(got).tobytes() == np.abs(want).tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_boundary_voxels_equal_ndimage_filters(shape):
    grid = grid_of(*shape)
    rng = np.random.default_rng(sum(shape))
    # small labels: ndimage's int64 filters are not exact beyond 2**53
    # (2**53 + 1 and 2**53 filter as equal); the numpy scan only compares
    labels = np.array([0, 1, 2, -7, 9])
    for n_materials in (1, 2, 3, 5, 5):
        gt = labels[rng.integers(0, n_materials, grid.theta)]
        g = gt.reshape(grid.nz, grid.ny, grid.nx)
        edge = (ndimage.maximum_filter(g, size=3, mode="nearest")
                != ndimage.minimum_filter(g, size=3, mode="nearest"))
        iz, iy, ix = np.nonzero(edge)
        want = list(zip(ix.tolist(), iy.tolist(), iz.tolist()))
        assert [tuple(v) for v in _boundary_voxels(grid, gt)] == want
