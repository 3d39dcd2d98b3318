"""Oracle of the loop's per-block first-touch outcomes.

Once per sense block, ``TrialState.load`` computes what a first touch
gives for every entry of the block's table: ``PosteriorGrid.first_updates``
(one ``_posterior_update`` of the uniform prior over the whole table) and
the uncertainty, its density and the similarity of its rows
(``attention._row_values``).  ``TrialState.update`` of an unexplored voxel
then takes its entry.  These tests hold each entry, and what ``update``
stores and returns for it, to the same two calls on that one row,
compared by bytes, so a -0.0 or a NaN payload that differs shows.  The tables come from ``sense`` for every material subset
size of libraries of 2-10 bundled materials, with NaN, +-inf and
huge-magnitude entries planted in them.
"""

import math

import numpy as np
import pytest

from hapticbayes import (
    MaterialLibrary,
    NoiseSpec,
    PosteriorGrid,
    TaskSpec,
    WorkspaceBounds,
    bundled_library_path,
    load_library,
    make_grid,
    sense,
)
from hapticbayes.attention import TrialState, _row_values
from hapticbayes.perception import _posterior_update

BUNDLED = load_library(bundled_library_path())

#: Quiet NaNs with different payloads and signs, as bit patterns.
NANS = np.array([0x7FF8000000000000, 0x7FF8000000000123, 0xFFF8000000000000,
                 0xFFF8000000000ABC], dtype=np.uint64).view(float)
#: Entries planted one at a time.
SPECIAL = np.concatenate([NANS, [math.inf, -math.inf, 1e308, -1e308, 1e300,
                                 -1e300, -800.0, -1e4, 0.0, -0.0, 5e-324]])


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def plant(table, rng):
    """Overwrite entries and whole rows of ``table`` with special values:
    single entries, rows with no finite maximum (degenerate), rows where
    every term but one floors to zero (one-hot) and rows of huge
    magnitude."""
    blocks, size, n = table.shape
    hit = rng.random(table.shape) < 0.15
    table[hit] = rng.choice(SPECIAL, hit.sum())
    rows = [(k, r) for k in range(blocks) for r in range(size)]
    picks = rng.permutation(len(rows))[:6]
    for kind, i in zip(range(6), picks):
        row = table[rows[i]]
        if kind == 0:
            row[:] = -math.inf
        elif kind == 1:
            row[:] = rng.choice(NANS)
        elif kind == 2:
            row[:] = -1e6
            row[rng.integers(n)] = 0.0
        elif kind == 3:
            row[:] = rng.choice([-1e308, 1e308], n)
        elif kind == 4:
            row[:] = -1e300
        else:
            row[rng.integers(n)] = math.inf


def library_of(n, rng):
    return MaterialLibrary([BUNDLED[int(i)]
                            for i in rng.permutation(len(BUNDLED))[:n]])


@pytest.mark.parametrize("n", range(2, 11))
# a +1e308 entry beside a -1e308 one overflows the kernel's max
# subtraction to -inf, which floors to zero on either path; sensed
# log-likelihoods stay below about 1,400, so only planted rows get there
@pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
def test_block_first_touches_equal_single_row_calls(n):
    rng = np.random.default_rng(n)
    lib = library_of(n, rng)
    uniform = np.full(n, 1.0 / n)
    # a voxel per table entry, so that each entry meets an unexplored one
    grid = make_grid(WorkspaceBounds(0, 0.32, 0, 0.01 * n, 0, 0.01, 0.01))
    checked = degenerate_rows = negative_zeros = 0
    for size in range(1, n + 1):
        materials = np.sort(rng.permutation(n)[:size])
        noise = NoiseSpec.uniform(float(rng.choice([0.0, 1.0, 2.0])))
        table = sense(lib, materials, noise, rng)
        plant(table, rng)
        task = TaskSpec(*(int(m) for m in rng.permutation(n)[:2]))
        state = TrialState(grid, task, n)
        state.load(table)
        posteriors = PosteriorGrid(1, n)
        probs, degenerate = posteriors.first_updates(table)
        values = _row_values(task, probs, ~degenerate)
        assert probs.shape == table.shape
        assert all(v.shape == degenerate.shape == table.shape[:2] for v in values)
        # a one-hot row's entropy is -0.0, which the clip keeps
        negative_zeros += int(np.signbit(values[0]).sum())
        for at in np.ndindex(*table.shape[:2]):
            row, row_degenerate = _posterior_update(uniform, table[at])
            assert bits(probs[at]) == bits(row), at
            assert degenerate[at] == row_degenerate, at
            single = _row_values(task, row, not row_degenerate)
            for got, want in zip(values, single):
                assert bits(got[at]) == bits(want), at
            # the state's first touch of a voxel stores and returns the same
            j = at[0] * n + at[1]
            events = state.degenerate_events
            returned = state.update(j, *at)
            assert bits(state.posteriors.probs[j]) == bits(row), at
            assert state.posteriors.k_counts[j] == (not row_degenerate), at
            assert state.degenerate_events == events + bool(row_degenerate)
            for got, want in zip(returned, single):
                assert bits(got) == bits(want), at
            # the loop's path: an unexplored voxel takes its entry
            fresh, kernel = PosteriorGrid(1, n), PosteriorGrid(1, n)
            assert (fresh.update(0, table[at], (probs[at], degenerate[at]))
                    == kernel.update(0, table[at]))
            assert bits(fresh.probs) == bits(kernel.probs)
            assert np.array_equal(fresh.k_counts, kernel.k_counts)
            checked += 1
            degenerate_rows += bool(row_degenerate)
    assert checked == 32 * n * (n + 1) // 2
    assert 0 < degenerate_rows < checked
    assert negative_zeros > 0


def test_first_touch_outcome_is_refused_for_an_explored_voxel(lib):
    posteriors = PosteriorGrid(2, len(lib))
    table = sense(lib, [0, 3], NoiseSpec(), np.random.default_rng(0))
    probs, degenerate = posteriors.first_updates(table)
    posteriors.update(1, table[0, 0], (probs[0, 0], degenerate[0, 0]))
    assert posteriors.k_counts.tolist() == [0, 1]
    # voxel 1's row is no longer the prior that the outcome assumed
    with pytest.raises(ValueError, match="voxel 1 has 1 samples"):
        posteriors.update(1, table[1, 0], (probs[1, 0], degenerate[1, 0]))
    assert posteriors.k_counts.tolist() == [0, 1]
    assert np.array_equal(posteriors.probs[1], probs[0, 0])
