import math

import numpy as np
import pytest

from hapticbayes import (
    MaterialLibrary,
    MaterialParams,
    bundled_library_path,
    generate_builtin_scenarios,
    inhibition_profile,
    load_library,
)


@pytest.fixture(scope="session")
def lib():
    return load_library(bundled_library_path())


@pytest.fixture(scope="session")
def scenarios(lib):
    return generate_builtin_scenarios(lib)


@pytest.fixture(scope="session")
def toy_lib():
    """Two well-separated materials with near-zero spread: deterministic
    samples (a normal draw with std 1e-300 rounds to the mean exactly)."""
    return MaterialLibrary([
        MaterialParams("hard", 1.0, 1e-300, 2.0, 1e-300),
        MaterialParams("soft", 10.0, 1e-300, 20.0, 1e-300),
    ])


@pytest.fixture(scope="session")
def offset_inhibition():
    """Oracle of ``inhibition_field``: ``inhibition_profile`` of every
    voxel's distance from the probe in whole voxels over the
    corner-to-corner one; 1 everywhere on a single-voxel grid."""
    def oracle(grid, probe):
        reach2 = (grid.nx - 1) ** 2 + (grid.ny - 1) ** 2 + (grid.nz - 1) ** 2
        if reach2 == 0:
            return np.ones(grid.theta)
        dx = np.arange(grid.nx, dtype=float) - probe.ix
        dy = np.arange(grid.ny, dtype=float) - probe.iy
        dz = np.arange(grid.nz, dtype=float) - probe.iz
        d2 = dz[:, None, None] ** 2 + dy[None, :, None] ** 2 + dx[None, None, :] ** 2
        return inhibition_profile(np.sqrt(d2.ravel()) / math.sqrt(reach2))
    return oracle
