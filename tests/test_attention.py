import math
import re
import sys

import numpy as np
import pytest
from scipy import stats

from hapticbayes import (
    AttentionState,
    BetaFactor,
    INHIBITION_FACTOR,
    MaterialLibrary,
    MaterialParams,
    PosteriorGrid,
    SALIENCY_FACTOR,
    TaskSpec,
    UNCERTAINTY_FACTOR,
    VoxelIndex,
    WorkspaceBounds,
    beta_pdf,
    inhibition_field,
    inhibition_profile,
    make_grid,
    omega_field,
    saliency_field,
    select_target,
    target_posterior,
    uncertainty_field,
)
from hapticbayes.attention import (
    BETA_CLAMP,
    FACTORS,
    TrialState,
    _sobel_responses,
    inhibition_table,
    target_score,
)
from reference_loop import offset_inhibition

EPS = 0.01


def grid_of(nx, ny, nz):
    return make_grid(WorkspaceBounds(0, nx * EPS, 0, ny * EPS, 0, nz * EPS, EPS))


def naive_saliency(grid, omega):
    """Independent oracle: explicit triple-loop correlation with the
    tensor-product Sobel kernels and 0.5 padding."""
    deriv = [-1.0, 0.0, 1.0]
    smooth = [1.0, 2.0, 1.0]
    f = np.asarray(omega).reshape(grid.nz, grid.ny, grid.nx)

    def value(x, y, z):
        if 0 <= x < grid.nx and 0 <= y < grid.ny and 0 <= z < grid.nz:
            return f[z, y, x]
        return 0.5

    out = np.zeros(grid.theta)
    for z in range(grid.nz):
        for y in range(grid.ny):
            for x in range(grid.nx):
                sx = sy = sz = 0.0
                for dz in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            v = value(x + dx, y + dy, z + dz)
                            sx += deriv[dx + 1] * smooth[dy + 1] * smooth[dz + 1] * v
                            sy += smooth[dx + 1] * deriv[dy + 1] * smooth[dz + 1] * v
                            sz += smooth[dx + 1] * smooth[dy + 1] * deriv[dz + 1] * v
                out[x + grid.nx * (y + grid.ny * z)] = max(abs(sx), abs(sy),
                                                           abs(sz)) / 16.0
    return out


# ---------------------------------------------------------------------------
# inhibition

def test_inhibition_profile_endpoints():
    assert inhibition_profile(0.0) == 1.0
    assert inhibition_profile(1.0) == 1.0


def test_inhibition_profile_interior_minimum_is_zero():
    # dense numeric scan: minimum 0 at d* = (alpha-1)/(alpha+beta-2)
    d = np.linspace(0.0, 1.0, 1_000_001)
    prof = inhibition_profile(d)
    d_star = 0.01 / 8.01
    assert prof.min() >= -1e-12
    assert prof.min() <= 1e-6
    assert abs(d[prof.argmin()] - d_star) < 2e-6
    assert inhibition_profile(d_star) == pytest.approx(0.0, abs=1e-12)


def test_inhibition_field_properties():
    grid = grid_of(30, 60, 1)
    current = VoxelIndex(10, 20, 0)
    field = inhibition_field(grid, current)
    assert field.shape == (grid.theta,)
    assert np.all((field >= 0) & (field <= 1))
    assert field[grid.linear_index(current)] == 1.0
    # corner-to-corner pair sits at d = 1, hence full inhibition
    corner_field = inhibition_field(grid, VoxelIndex(0, 0, 0))
    assert corner_field[grid.linear_index(VoxelIndex(29, 59, 0))] \
        == pytest.approx(1.0, abs=1e-12)


#: Grids whose every probe the table oracles check: the bundled 30x60x1
#: workspace, a small volume, one voxel and a line.
TABLE_GRIDS = ((30, 60, 1), (5, 4, 3), (1, 1, 1), (7, 1, 1))


@pytest.mark.parametrize("shape", TABLE_GRIDS)
def test_inhibition_table_equals_profile_of_integer_offsets(shape):
    grid = grid_of(*shape)
    nx, ny, nz = shape
    table = inhibition_table(grid)
    # the table itself: entry [nz-1+dz, ny-1+dy, nx-1+dx] holds offset
    # (dx, dy, dz), so its corner block from the centre is the probe at 0,
    # and a mirrored offset holds the same value
    origin = offset_inhibition(grid, VoxelIndex(0, 0, 0))
    for values, want in ((table.inhibition, origin),
                         (table.density, beta_pdf(INHIBITION_FACTOR, origin))):
        assert values.shape == (2 * nz - 1, 2 * ny - 1, 2 * nx - 1)
        assert np.array_equal(values[nz - 1:, ny - 1:, nx - 1:].ravel(), want)
        for axis in range(3):
            assert np.array_equal(np.flip(values, axis), values)
    ones = np.ones(grid.theta)
    for j in range(grid.theta):
        v = grid.voxel_of_linear(j)
        want = offset_inhibition(grid, v)
        assert np.array_equal(inhibition_field(grid, v), want)
        assert np.array_equal(target_score(grid, v, ones, ones),
                              beta_pdf(INHIBITION_FACTOR, want))


def test_inhibition_table_has_signed_offset_entries_and_is_built_once_per_grid():
    grid = grid_of(5, 4, 3)
    table = inhibition_table(grid)
    assert table.inhibition.shape == table.density.shape == (5, 7, 9)
    assert inhibition_table(grid) is table
    inhibition_field(grid, VoxelIndex(1, 2, 0))
    assert inhibition_table(grid) is table
    other = grid_of(5, 4, 3)            # an equal grid is another object
    assert inhibition_table(other) is not table
    assert inhibition_table(grid_of(4, 5, 3)).inhibition.shape == (5, 9, 7)
    assert inhibition_table(grid_of(1, 1, 1)).inhibition.shape == (1, 1, 1)


@pytest.mark.parametrize("shape", ((1, 1, 1), (7, 1, 1), (1, 6, 1), (5, 4, 3)))
def test_table_reads_share_no_memory_with_the_table(shape):
    # on a line the window of the table is contiguous: a view of it would
    # let target_score's in-place products, or a caller, write into it
    grid = grid_of(*shape)
    table = inhibition_table(grid)
    before = (table.inhibition.copy(), table.density.copy())
    f_saliency = np.full(grid.theta, 3.0)
    f_uncertainty = np.full(grid.theta, 5.0)
    for j in range(grid.theta):
        v = grid.voxel_of_linear(j)
        first = (inhibition_field(grid, v), target_score(grid, v, f_saliency,
                                                         f_uncertainty))
        for out in first:
            assert not np.shares_memory(out, table.inhibition)
            assert not np.shares_memory(out, table.density)
        want = tuple(a.copy() for a in first)
        for out in first:
            out[:] = -7.0
        assert np.array_equal(inhibition_field(grid, v), want[0])
        assert np.array_equal(target_score(grid, v, f_saliency, f_uncertainty),
                              want[1])
    assert np.array_equal(table.inhibition, before[0])
    assert np.array_equal(table.density, before[1])


@pytest.mark.parametrize("probe", [(-1, 0, 0), (0, -2, 1), (5, 0, 0), (0, 4, 0),
                                   (0, 0, 3)])
def test_table_reads_reject_a_probe_outside_the_grid(probe):
    # a negative slice start would wrap and read a window of other offsets
    grid = grid_of(5, 4, 3)
    ones = np.ones(grid.theta)
    with pytest.raises(ValueError, match="outside grid"):
        inhibition_field(grid, VoxelIndex(*probe))
    with pytest.raises(ValueError, match="outside grid"):
        target_score(grid, VoxelIndex(*probe), ones, ones)


@pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0)],
                         ids=["1.5", "bool", "numpy-float"])
def test_table_reads_reject_a_probe_index_that_is_not_an_integer(bad):
    # 1.5 used to raise a raw TypeError from slicing, and True to be read
    # as index 1
    grid = grid_of(300, 2, 1)
    ones = np.ones(grid.theta)
    message = re.escape(f"voxel ({bad!r}, 0, 0): index {bad!r} is not an "
                        f"integer")
    for read in (lambda v: inhibition_field(grid, v),
                 lambda v: target_score(grid, v, ones, ones)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(VoxelIndex(bad, 0, 0))


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_table_reads_take_a_numpy_integer_probe_as_its_value(dtype):
    # on a 300-wide grid, 299 - np.uint8(5) used to raise a stray
    # OverflowError ("Python integer 299 out of bounds for uint8")
    grid = grid_of(300, 2, 1)
    f_saliency = np.linspace(0.5, 2.0, grid.theta)
    ones = np.ones(grid.theta)
    for ix in (0, 5, 127):
        v, want = VoxelIndex(dtype(ix), dtype(1), dtype(0)), VoxelIndex(ix, 1, 0)
        assert np.array_equal(inhibition_field(grid, v),
                              inhibition_field(grid, want))
        assert np.array_equal(target_score(grid, v, f_saliency, ones),
                              target_score(grid, want, f_saliency, ones))
    with pytest.raises(ValueError, match=r"^voxel \(-1, 0, 0\) outside grid"):
        inhibition_field(grid, VoxelIndex(np.int8(-1), 0, 0))


def test_inhibition_field_matches_center_formula():
    # closeness only: the field uses whole-voxel offsets, and the distance
    # between voxel centers, offset origins and odd epsilons included,
    # rounds differently, so the two agree to within 1e-14
    for (nx, ny, nz), (x0, y0, z0), eps in (((6, 5, 4), (0.1, -0.2, 0.05), 0.007),
                                            ((9, 7, 5), (0.3, 0.1, -0.4), 0.013)):
        grid = make_grid(WorkspaceBounds(x0, x0 + nx * eps, y0, y0 + ny * eps,
                                         z0, z0 + nz * eps, eps))
        # the distance between opposite-corner voxel centers
        d_max = eps * math.sqrt((nx - 1) ** 2 + (ny - 1) ** 2 + (nz - 1) ** 2)
        cx, cy, cz = grid.center_arrays()
        for j in range(grid.theta):
            v = grid.voxel_of_linear(j)
            d = np.sqrt((cx - cx[j]) ** 2 + (cy - cy[j]) ** 2
                        + (cz - cz[j]) ** 2) / d_max
            np.testing.assert_allclose(inhibition_field(grid, v),
                                       inhibition_profile(d), rtol=0, atol=1e-14)


def test_inhibition_field_single_voxel_grid():
    grid = grid_of(1, 1, 1)
    assert inhibition_field(grid, VoxelIndex(0, 0, 0)) == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# uncertainty and omega

def test_uncertainty_field_cases():
    pg = PosteriorGrid(3, 10)
    assert uncertainty_field(pg) == pytest.approx(np.ones(3))
    pg.probs[0] = np.eye(10)[2]
    pg.k_counts[0] = 1
    pg.probs[1] = np.r_[0.5, 0.5, np.zeros(8)]
    pg.k_counts[1] = 1
    u = uncertainty_field(pg)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(math.log(2) / math.log(10))
    assert u[2] == pytest.approx(1.0)


def test_omega_field_cases():
    task = TaskSpec(material_a=0, material_b=1)
    pg = PosteriorGrid(4, 4)
    pg.k_counts[:3] = 1
    pg.probs[0] = [0.3, 0.3, 0.2, 0.2]    # P(a) == P(b)
    pg.probs[1] = [0.0, 1.0, 0.0, 0.0]    # certainly material b
    pg.probs[2] = [1.0, 0.0, 0.0, 0.0]    # certainly material a
    om = omega_field(pg, task)
    assert om[0] == pytest.approx(0.5)
    assert om[1] == 0.0
    assert om[2] == 1.0
    assert om[3] == 0.5                    # unexplored stays neutral


def test_task_spec_rejects_equal_materials():
    with pytest.raises(ValueError):
        TaskSpec(2, 2)


@pytest.mark.parametrize("task, n_materials, least",
                         [(TaskSpec(0, 5), 3, 6), (TaskSpec(2, 1), 2, 3),
                          (TaskSpec(0, 1), 1.5, 2), (TaskSpec(0, 1), True, 2)])
def test_trial_state_rejects_a_library_without_the_task_materials(
        task, n_materials, least):
    # TaskSpec(0, 5) over 3 materials used to raise a raw IndexError
    with pytest.raises(ValueError, match=re.escape(
            f"n_materials must be an integer >= {least}, got {n_materials!r}")):
        TrialState(grid_of(3, 2, 1), task, n_materials)


@pytest.mark.parametrize("grid, task, message", [
    (grid_of(3, 2, 1), (0, 1), "task must be a TaskSpec, got (0, 1)"),
    (grid_of(3, 2, 1), None, "task must be a TaskSpec, got None"),
    ((3, 2, 1), TaskSpec(0, 1), "grid must be a WorkspaceGrid, got (3, 2, 1)"),
])
def test_trial_state_rejects_a_grid_or_task_of_another_type(grid, task,
                                                            message):
    # a tuple task used to raise a stray AttributeError reading material_a
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrialState(grid, task, 3)


# ---------------------------------------------------------------------------
# saliency

def test_saliency_constant_field_is_exactly_zero():
    # the neutral constant matches the 0.5 border padding, so the response
    # vanishes everywhere; other constants still vanish away from borders
    grid = grid_of(6, 5, 1)
    s = saliency_field(grid, np.full(grid.theta, 0.5))
    assert np.all(s == 0.0)
    for value in (0.0, 1.0):
        s = saliency_field(grid, np.full(grid.theta, value)).reshape(5, 6)
        assert np.all(s[1:-1, 1:-1] == 0.0)


def test_saliency_axis_step_saturates():
    # hand-convolved oracle: a full 0 -> 1 step along x yields |s_x| = 16
    grid = grid_of(5, 5, 5)
    ix = np.arange(grid.theta) % grid.nx
    omega = np.where(ix >= 2, 1.0, 0.0)
    s = saliency_field(grid, omega)
    interior = grid.linear_index(VoxelIndex(2, 2, 2))
    assert s[interior] == pytest.approx(1.0)
    assert s[grid.linear_index(VoxelIndex(1, 2, 2))] == pytest.approx(1.0)
    assert np.all(s <= 1.0)


def test_saliency_single_layer_z_response_cancels():
    grid = grid_of(4, 4, 1)
    rng = np.random.default_rng(2)
    omega = rng.uniform(0, 1, grid.theta)
    _, _, sz = _sobel_responses(omega.reshape(grid.nz, grid.ny, grid.nx))
    assert sz.ravel() == pytest.approx(np.zeros(grid.theta), abs=1e-12)


def test_saliency_matches_naive_convolution():
    rng = np.random.default_rng(8)
    for shape in ((5, 4, 1), (3, 3, 3), (6, 2, 2)):
        grid = grid_of(*shape)
        omega = rng.uniform(0, 1, grid.theta)
        assert saliency_field(grid, omega) \
            == pytest.approx(naive_saliency(grid, omega), abs=1e-12)


def test_saliency_mirror_symmetry():
    grid = grid_of(6, 5, 1)
    rng = np.random.default_rng(21)
    omega = rng.uniform(0, 1, grid.theta).reshape(grid.ny, grid.nx)
    s = saliency_field(grid, omega.ravel()).reshape(grid.ny, grid.nx)
    s_mirror = saliency_field(grid, omega[:, ::-1].ravel()).reshape(grid.ny, grid.nx)
    assert s_mirror == pytest.approx(s[:, ::-1], abs=1e-12)


# ---------------------------------------------------------------------------
# beta factors

def test_beta_pdf_uniform():
    factor = BetaFactor(1.0, 1.0)
    for x in (0.0, 0.3, 0.5, 1.0):
        assert beta_pdf(factor, x) == pytest.approx(1.0)


def test_beta_pdf_saliency_factor_at_one():
    # density 4x^3 at x = 1 (evaluated at the 1e-6 boundary clamp)
    assert beta_pdf(BetaFactor(4.0, 1.0), 1.0) == pytest.approx(4.0, rel=1e-4)


def test_beta_pdf_inhibition_factor_decreasing():
    assert beta_pdf(INHIBITION_FACTOR, 0.1) > beta_pdf(INHIBITION_FACTOR, 0.9)


def test_beta_pdf_matches_scipy():
    rng = np.random.default_rng(31)
    x = rng.uniform(0.001, 0.999, 200)
    for factor in (INHIBITION_FACTOR, UNCERTAINTY_FACTOR, SALIENCY_FACTOR):
        assert beta_pdf(factor, x) \
            == pytest.approx(stats.beta.pdf(x, *factor), rel=1e-12)


@pytest.mark.parametrize("x", [10**400, [0.5, -10**400]],
                         ids=["10**400", "list"])
@pytest.mark.parametrize("name, call", [
    ("beta_pdf: x", lambda x: beta_pdf(SALIENCY_FACTOR, x)),
    ("inhibition_profile: d", inhibition_profile)], ids=["beta_pdf", "profile"])
def test_densities_reject_an_integer_too_large_for_a_float(name, call, x):
    # used to raise a stray OverflowError from the float conversion
    with pytest.raises(ValueError, match=f"^{name} holds an integer too large "
                                         f"for a float$"):
        call(x)


def two_term_beta_pdf(factor, x):
    """Oracle: the Beta log-density with both terms, as one expression."""
    a, b = factor
    xs = np.clip(np.asarray(x, dtype=float), BETA_CLAMP, 1.0 - BETA_CLAMP)
    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    out = np.exp((a - 1.0) * np.log(xs) + (b - 1.0) * np.log(1.0 - xs) - log_b)
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("factor", FACTORS + (BetaFactor(2.0, 3.5),
                                              BetaFactor(1.0, 1.0)))
def test_beta_pdf_equals_two_term_formula(factor):
    rng = np.random.default_rng(5)
    edges = [0.0, -0.0, 1.0, BETA_CLAMP, 1.0 - BETA_CLAMP, 0.5, 1e-300,
             -1e-300, -0.25, 1.75, -math.inf, math.inf]
    x = np.concatenate([edges, rng.uniform(-0.5, 1.5, 400),
                        rng.uniform(0.0, 1.0, 400)])
    got = beta_pdf(factor, x)
    assert got.shape == x.shape and np.all(got == two_term_beta_pdf(factor, x))
    assert np.array_equal(beta_pdf(factor, x.reshape(2, -1)),
                          two_term_beta_pdf(factor, x.reshape(2, -1)))
    for value in edges:
        one = beta_pdf(factor, value)
        assert type(one) is float and one == two_term_beta_pdf(factor, value)
        assert beta_pdf(factor, np.array(value)) == one
    assert math.isnan(beta_pdf(factor, math.nan))


def test_factor_constants():
    assert tuple(INHIBITION_FACTOR) == (1.0, 2.5)
    assert tuple(UNCERTAINTY_FACTOR) == (4.0, 1.0)
    assert tuple(SALIENCY_FACTOR) == (3.0, 1.0)
    assert FACTORS == (INHIBITION_FACTOR, UNCERTAINTY_FACTOR, SALIENCY_FACTOR)


@pytest.mark.parametrize("factor", FACTORS)
def test_factor_on_the_unit_interval_stays_at_or_above_its_clamp_value(factor):
    # the loop's fields lie in [0, 1]; on these shapes the density is
    # monotone, so its least value there is at one end of the clamp
    x = np.concatenate([[0.0, -0.0, 1.0, BETA_CLAMP, 1.0 - BETA_CLAMP,
                         np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
                        np.linspace(0.0, 1.0, 100_001)])
    floor = min(beta_pdf(factor, BETA_CLAMP), beta_pdf(factor, 1.0 - BETA_CLAMP))
    values = beta_pdf(factor, x)
    assert np.isfinite(values).all()
    assert values.min() >= floor > 0.0


def test_target_score_is_positive_normal_and_finite_on_the_unit_interval():
    # every score is a product of one value of each factor, so it lies
    # between the product of their minima and of their maxima over [0, 1]
    x = np.concatenate([[0.0, -0.0, 1.0], np.linspace(0.0, 1.0, 100_001)])
    lowest = math.prod(float(beta_pdf(f, x).min()) for f in FACTORS)
    highest = math.prod(float(beta_pdf(f, x).max()) for f in FACTORS)
    assert lowest >= sys.float_info.min            # positive and normal
    assert lowest == pytest.approx(2.5e-9 * 4e-18 * 3e-12, rel=1e-4)
    assert highest == pytest.approx(30.0, rel=1e-4)


# ---------------------------------------------------------------------------
# target posterior and selection

def state_of(grid, inhibition=None, uncertainty=None, saliency=None):
    """A hand-built state whose inhibition is assigned, not derived from a
    probe."""
    theta = grid.theta
    state = AttentionState(
        grid, VoxelIndex(0, 0, 0), np.ones(theta),
        uncertainty=np.ones(theta) if uncertainty is None else np.asarray(uncertainty, float),
        omega=np.full(theta, 0.5),
        saliency=np.full(theta, 0.4) if saliency is None else np.asarray(saliency, float),
    )
    state.inhibition = (np.full(theta, 0.3) if inhibition is None
                        else np.asarray(inhibition, float))
    return state


def posterior_of(state):
    """Target posterior of a state's inhibition, saliency and uncertainty."""
    return target_posterior(state.inhibition,
                            beta_pdf(SALIENCY_FACTOR, state.saliency),
                            beta_pdf(UNCERTAINTY_FACTOR, state.uncertainty))


def test_target_posterior_uniform_fields():
    grid = grid_of(4, 3, 1)
    post, degenerate = posterior_of(state_of(grid))
    assert not degenerate
    assert post == pytest.approx(np.full(grid.theta, 1 / grid.theta), abs=1e-12)


def test_target_posterior_saliency_ratio():
    grid = grid_of(2, 1, 1)
    post, _ = posterior_of(state_of(grid, saliency=[0.9, 0.1]))
    assert post[0] / post[1] == pytest.approx(81.0, rel=1e-9)


def test_target_posterior_full_inhibition_excludes_voxel():
    grid = grid_of(3, 1, 1)
    post, _ = posterior_of(state_of(grid, inhibition=[1.0, 0.3, 0.3]))
    assert post[0] < 1e-8
    assert post[1] == pytest.approx(post[2])


def test_target_posterior_degenerate_fallback():
    grid = grid_of(3, 1, 1)
    post, degenerate = posterior_of(
        state_of(grid, saliency=[0.4, math.nan, 0.4]))
    assert degenerate
    assert post == pytest.approx(np.full(3, 1 / 3))


def test_target_posterior_matches_bruteforce():
    # oracle: per-voxel scipy Beta product, explicitly normalized
    rng = np.random.default_rng(77)
    for _ in range(20):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        grid = grid_of(nx, ny, 1)
        state = state_of(grid,
                         inhibition=rng.uniform(0, 1, grid.theta),
                         uncertainty=rng.uniform(0, 1, grid.theta),
                         saliency=rng.uniform(0, 1, grid.theta))
        post, _ = posterior_of(state)
        scores = np.array([
            stats.beta.pdf(min(max(state.inhibition[j], 1e-6), 1 - 1e-6), 1.0, 2.5)
            * stats.beta.pdf(min(max(state.saliency[j], 1e-6), 1 - 1e-6), 3.0, 1.0)
            * stats.beta.pdf(min(max(state.uncertainty[j], 1e-6), 1 - 1e-6), 4.0, 1.0)
            for j in range(grid.theta)
        ])
        assert post == pytest.approx(scores / scores.sum(), abs=1e-9)


def test_select_target_tie_break_and_scaling():
    grid = grid_of(5, 1, 1)
    delta = np.zeros(5)
    delta[3] = 1.0
    assert select_target(delta, grid) == VoxelIndex(3, 0, 0)
    assert select_target(np.full(5, 0.2), grid) == VoxelIndex(0, 0, 0)
    scores = np.array([0.1, 0.5, 0.4, 0.2, 0.3])
    assert select_target(scores, grid) == select_target(scores * 7.3, grid)


def _with(value, at):
    score = np.ones(1800)
    score[at] = value
    return score


@pytest.mark.parametrize("score, message", [
    (None, "must be a 1-D array of 1800 real numbers, got shape () and "
           "dtype object"),
    (np.ones(5), "must be a 1-D array of 1800 real numbers, got shape (5,) "
                 "and dtype float64"),
    (np.ones((60, 30)), "must be a 1-D array of 1800 real numbers, got shape "
                        "(60, 30) and dtype float64"),
    (np.ones(1801), "must be a 1-D array of 1800 real numbers, got shape "
                    "(1801,) and dtype float64"),
    (np.full(1800, "1"), "must be a 1-D array of 1800 real numbers, got "
                         "shape (1800,) and dtype <U1"),
    (np.full(1800, np.nan), "must have a finite maximum, got nan at linear "
                            "index 0"),
    (_with(np.nan, 700), "must have a finite maximum, got nan at linear "
                         "index 700"),
    (_with(np.inf, 9), "must have a finite maximum, got inf at linear index 9"),
])
def test_select_target_rejects_a_score_it_cannot_select_on(scenarios, score,
                                                           message):
    # on the bundled grid None, the 5-entry, 60x30 and all-NaN scores used
    # to select voxel (0, 0, 0), a NaN or inf entry won the selection, and
    # the theta + 1 array raised "linear index 1800 outside [0, 1800)"
    with pytest.raises(ValueError, match=f"^{re.escape('score ' + message)}$"):
        select_target(score, scenarios[0].grid)
    # a list of theta numbers is an array of them
    assert select_target(_with(2.0, 3).tolist(), scenarios[0].grid) == \
        VoxelIndex(3, 0, 0)


@pytest.mark.parametrize("shape", [(30, 60, 1), (5, 4, 3), (7, 1, 1)])
def test_raw_score_selection_equals_posterior_argmax(shape):
    # oracle: the normalized target posterior of the same inputs
    grid = grid_of(*shape)
    rng = np.random.default_rng(5)
    for probe in rng.integers(0, grid.theta, 20):
        v = grid.voxel_of_linear(int(probe))
        f_saliency = beta_pdf(SALIENCY_FACTOR, rng.uniform(0, 1, grid.theta))
        f_uncertainty = beta_pdf(UNCERTAINTY_FACTOR, rng.uniform(0, 1, grid.theta))
        score = target_score(grid, v, f_saliency, f_uncertainty)
        post, degenerate = target_posterior(inhibition_field(grid, v),
                                            f_saliency, f_uncertainty)
        assert not degenerate
        assert np.array_equal(score / score.sum(), post)
        assert select_target(score, grid) == select_target(post, grid)


def test_raw_score_symmetric_ties_go_to_lowest_index():
    # the four neighbours of the centre of a 5x5 grid sit at the same
    # whole-voxel distance, so with flat fields they tie exactly
    grid = grid_of(5, 5, 1)
    flat = np.ones(grid.theta)
    score = target_score(grid, VoxelIndex(2, 2, 0), flat, flat)
    ties = [grid.linear_index(VoxelIndex(x, y, 0))
            for x, y in ((2, 1), (1, 2), (3, 2), (2, 3))]
    assert len({score[j] for j in ties}) == 1
    assert score[ties[0]] == score.max()
    assert select_target(score, grid) == VoxelIndex(2, 1, 0)


def test_step_field_target_is_on_the_step():
    # combine the three fields by hand on a 5x5x1 grid with an omega step
    grid = grid_of(5, 5, 1)
    ix = np.arange(grid.theta) % grid.nx
    omega = np.where(ix >= 2, 1.0, 0.0)
    current = VoxelIndex(2, 2, 0)
    uncertainty = np.ones(grid.theta)
    saliency = saliency_field(grid, omega)
    score = target_score(grid, current, beta_pdf(SALIENCY_FACTOR, saliency),
                         beta_pdf(UNCERTAINTY_FACTOR, uncertainty))
    state = AttentionState(grid, current, score, uncertainty=uncertainty,
                           omega=omega, saliency=saliency)
    post, _ = posterior_of(state)
    assert np.array_equal(state.inhibition, inhibition_field(grid, current))
    assert np.array_equal(state.target_posterior, post)
    chosen = select_target(post, grid)
    assert chosen.ix in (1, 2)                      # on the omega step
    assert max(abs(chosen.ix - 2), abs(chosen.iy - 2)) <= 1


def test_fields_stay_in_range_during_updates(lib):
    grid = grid_of(6, 6, 1)
    pg = PosteriorGrid(grid.theta, len(lib))
    task = TaskSpec(lib.index_of("silicone"), lib.index_of("wood"))
    rng = np.random.default_rng(4)
    from hapticbayes import NoiseSpec, log_likelihoods, synthesize_sample
    for j in rng.integers(0, grid.theta, 12):
        pg.update(int(j), log_likelihoods(
            lib, synthesize_sample(lib, 9, NoiseSpec(), rng)))
        for field in (uncertainty_field(pg), omega_field(pg, task),
                      saliency_field(grid, omega_field(pg, task))):
            assert np.all((field >= 0.0) & (field <= 1.0))


@pytest.mark.parametrize("shape", [(5, 4, 3), (1, 1, 1)])
@pytest.mark.parametrize("n_materials", [2, 10])
def test_trial_state_start_equals_full_fields_of_a_fresh_grid(shape,
                                                              n_materials):
    # oracle: the full-grid field functions on a fresh, uniform PosteriorGrid
    grid = grid_of(*shape)
    task = TaskSpec(n_materials - 1, 0)
    fields = TrialState(grid, task, n_materials)
    fresh = PosteriorGrid(grid.theta, n_materials)
    assert np.array_equal(fields.posteriors.probs, fresh.probs)
    assert np.array_equal(fields.posteriors.k_counts, fresh.k_counts)
    uncertainty = uncertainty_field(fresh)
    omega = omega_field(fresh, task)
    saliency = saliency_field(grid, omega)
    for got, want in ((fields.uncertainty, uncertainty), (fields.omega, omega),
                      (fields.saliency, saliency),
                      (fields.f_uncertainty, beta_pdf(UNCERTAINTY_FACTOR, uncertainty)),
                      (fields.f_saliency, beta_pdf(SALIENCY_FACTOR, saliency))):
        assert got.shape == want.shape and np.all(got == want)
