"""One probe table held against every entry point that takes an index.

Each entry point reads a voxel, linear or material index through one
check: numpy integers are accepted and come back, or are stored, as
Python ints; ``bool``, floats and integers outside the index range are
rejected with a ``ValueError`` naming the argument, before any state
changes.
"""

from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from hapticbayes import (
    HapticSample,
    MaterialLibrary,
    MaterialParams,
    NoiseSpec,
    PosteriorGrid,
    Scenario,
    TaskSpec,
    VoxelIndex,
    WorkspaceBounds,
    log_likelihoods,
    make_grid,
    sense,
    synthesize_sample,
)
from hapticbayes.attention import TrialState

GRID = make_grid(WorkspaceBounds(0, 0.04, 0, 0.03, 0, 0.02, 0.01))   # 4 x 3 x 2
LIB = MaterialLibrary([MaterialParams("hard", 1.0, 0.1, 2.0, 0.2),
                       MaterialParams("soft", 10.0, 1.0, 20.0, 2.0),
                       MaterialParams("foam", 5.0, 0.5, 1.0, 0.1)])
TASK = TaskSpec(0, 1)


class Entry(NamedTuple):
    """An index entry point: ``make()`` gives ``(call, arrays)``, where
    ``call(value)`` passes ``value`` as the index on a fresh object and
    returns what comes back or is stored, and ``arrays()`` copies every
    array the call may change."""

    make: Callable
    stop: Optional[int]      # the first index past the range, if known
    not_integer: str         # expected messages, formatted with v=value
    outside: str


def _stateless(call):
    return lambda: (call, list)


def _touch():
    state = TrialState(GRID, TASK, len(LIB))
    state.touch(23, (0.125, 0.25, 0.875))

    def arrays():
        return [state.uncertainty.copy(), state.f_uncertainty.copy(),
                state.omega.copy(), state.saliency.copy(),
                state.f_saliency.copy(), state._padded.copy()]

    def call(j):
        state.touch(j, (0.25, 0.5, 0.75))
        return arrays()
    return call, arrays


def _state_update():
    state = TrialState(GRID, TASK, len(LIB))
    state.load(sense(LIB, [0, 2], NoiseSpec(), np.random.default_rng(0)))
    state.update(23, 0, 1)

    def arrays():
        return [state.posteriors.probs.copy(), state.posteriors.k_counts.copy()]

    def call(j):
        return state.update(j, 1, 0), *arrays()
    return call, arrays


def _update():
    posteriors = PosteriorGrid(GRID.theta, len(LIB))
    log_lik = log_likelihoods(LIB, HapticSample(1.0, 2.0))
    posteriors.update(23, log_lik)

    def arrays():
        return [posteriors.probs.copy(), posteriors.k_counts.copy()]

    def call(linear):
        return posteriors.update(linear, log_lik), *arrays()
    return call, arrays


def _scenario_start(v):
    gt = np.zeros(GRID.theta, dtype=int)
    gt[::2] = 1
    return Scenario("probe", GRID, gt, [VoxelIndex(0, 0, 0)],
                    VoxelIndex(v, 0, 0), TASK).start


LINEAR = ("linear index {v!r} is not an integer",
          "linear index {v} outside [0, 24)")
MATERIAL = ("material index {v!r} is not an integer",
            "material index {v} outside [0, 3)")

ENTRIES = {
    "linear_index": Entry(
        _stateless(lambda v: GRID.linear_index(VoxelIndex(v, 0, 0))), 4,
        "voxel ({v!r}, 0, 0): index {v!r} is not an integer",
        "voxel ({v}, 0, 0) outside grid (4, 3, 2)"),
    "voxel_of_linear": Entry(_stateless(GRID.voxel_of_linear), 24, *LINEAR),
    "touch": Entry(_touch, 24, *LINEAR),
    "TrialState.update": Entry(_state_update, 24, *LINEAR),
    "update": Entry(_update, 24, *LINEAR),
    "synthesize_sample": Entry(
        _stateless(lambda m: synthesize_sample(LIB, m, NoiseSpec(),
                                               np.random.default_rng(0))),
        3, *MATERIAL),
    "MaterialLibrary.getitem": Entry(_stateless(LIB.__getitem__), 3, *MATERIAL),
    "TaskSpec": Entry(
        _stateless(lambda m: tuple(vars(TaskSpec(0, m)).values())), None,
        "material_b must be an integer >= 0, got {v!r}",
        "material_b must be an integer >= 0, got {v!r}"),
    "Scenario.start": Entry(
        _stateless(_scenario_start), 4,
        "start: voxel ({v!r}, 0, 0): index {v!r} is not an integer",
        "start: voxel ({v}, 0, 0) outside grid (4, 3, 2)"),
}


def _same(got, want) -> bool:
    """Equal values of the same types, all the way down: a numpy integer
    where ``want`` holds a Python int is a difference."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and np.array_equal(got, want))
    if isinstance(want, (tuple, list)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(_same, got, want)))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("value", [np.int8(1), np.uint8(1), np.int64(1)],
                         ids=["int8", "uint8", "int64"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_index_entry_points_take_numpy_integers_as_python_ints(entry, value):
    make = ENTRIES[entry].make
    want = make()[0](1)
    assert _same(make()[0](value), want)


STOP = object()
REJECTED = [(True, "not_integer"), (np.True_, "not_integer"),
            (1.0, "not_integer"), (1.5, "not_integer"),
            (-1, "outside"), (STOP, "outside")]


@pytest.mark.parametrize("entry, probe, kind", [
    pytest.param(entry, probe, kind,
                 id=f"{entry}-{'stop' if probe is STOP else repr(probe)}")
    for entry in ENTRIES for probe, kind in REJECTED
    if not (probe is STOP and ENTRIES[entry].stop is None)])
def test_index_entry_points_reject_what_is_not_an_index_in_range(entry, probe,
                                                                 kind):
    # lib[True] used to give material 1 and lib[-1] the last one;
    # synthesize_sample(lib, True, ...) stacked every material's draw;
    # update(-1, ...) changed the last voxel's row and count
    spec = ENTRIES[entry]
    value = spec.stop if probe is STOP else probe
    call, arrays = spec.make()
    before = arrays()
    message = getattr(spec, kind).format(v=value)
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message
    assert all(map(np.array_equal, arrays(), before))
