"""The exploration loop written out plainly, and the check of
``run_trial`` against it.

:func:`reference_trial` runs the sense / infer / select / move loop one
step at a time: one ``synthesize_sample`` per touch, the full-grid field
functions, the product of the three ``beta_pdf`` factors and
``np.argmax``.  :func:`check_against_reference` runs ``run_trial`` with
and without an observer and asserts that it agrees with that loop, value
for value.  Every exploration-loop test, generated or fixed, goes
through it.  :func:`reference_score` is the target score that
``TrialState.touch`` returns, written as ``target_posterior``'s product.
"""

import itertools
import math
from unittest import mock

import numpy as np

from hapticbayes import (
    INHIBITION_FACTOR,
    SALIENCY_FACTOR,
    UNCERTAINTY_FACTOR,
    HapticSample,
    PosteriorGrid,
    beta_pdf,
    inhibition_field,
    inhibition_profile,
    omega_field,
    run_trial,
    saliency_field,
    synthesize_sample,
    uncertainty_field,
)
from hapticbayes import simulator
from hapticbayes.perception import log_likelihoods

#: A sample whose texture feature is NaN: every likelihood floors to zero.
NAN_SAMPLE = HapticSample(math.nan, 1.0)


def offset_inhibition(grid, probe):
    """Oracle of ``inhibition_field``: ``inhibition_profile`` of every
    voxel's distance from the probe in whole voxels over the
    corner-to-corner one; 1 everywhere on a single-voxel grid."""
    reach2 = (grid.nx - 1) ** 2 + (grid.ny - 1) ** 2 + (grid.nz - 1) ** 2
    if reach2 == 0:
        return np.ones(grid.theta)
    dx = np.arange(grid.nx, dtype=float) - probe.ix
    dy = np.arange(grid.ny, dtype=float) - probe.iy
    dz = np.arange(grid.nz, dtype=float) - probe.iz
    d2 = dz[:, None, None] ** 2 + dy[None, :, None] ** 2 + dx[None, None, :] ** 2
    return inhibition_profile(np.sqrt(d2.ravel()) / math.sqrt(reach2))


def reference_score(grid, probe, f_saliency, f_uncertainty):
    """The unnormalized score of ``target_posterior`` with the probe at
    voxel ``probe``: the inhibition Beta density of ``inhibition_field``
    times ``f_saliency`` times ``f_uncertainty``, in that order.
    ``TrialState.touch`` must return it with ``==``."""
    return (beta_pdf(INHIBITION_FACTOR, inhibition_field(grid, probe))
            * f_saliency * f_uncertainty)


def reference_trial(scenario, lib, config, nan_iterations=frozenset()):
    """The loop, written out, with ``NAN_SAMPLE`` sensed at the iterations
    in ``nan_iterations``: returns the visited path, the termination
    cause, the degenerate update count and, per scored iteration, its
    probe and a dict of its fields, score and target posterior."""
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
        fields["target_posterior"] = fields["score"] / fields["score"].sum()
        iterations.append((current, fields))
        current = grid.voxel_of_linear(int(np.argmax(fields["score"])))
    return visited, terminated_by, degenerate, iterations


def with_nan_samples(lib, nan_iterations):
    """A patch of ``simulator.sense`` for one trial: the rows of
    ``nan_iterations`` are replaced by the log-likelihoods of
    ``NAN_SAMPLE``, for every material sensed.  The loop computes its
    first-touch outcomes from the table the patch returns."""
    real = simulator.sense
    nan_row = log_likelihoods(lib, NAN_SAMPLE)
    blocks = itertools.count()

    def sense(lib, materials, noise, rng):
        table = real(lib, materials, noise, rng)
        first = next(blocks) * simulator.SENSE_BLOCK
        for k in nan_iterations:
            if first <= k < first + simulator.SENSE_BLOCK:
                table[k - first] = nan_row
        return table

    return mock.patch.object(simulator, "sense", sense)


#: The ``AttentionState`` fields built on first read.
LAZY_FIELDS = ("inhibition", "target_posterior")


def _assert_fields(k, state, want):
    for name, value in want.items():
        got = getattr(state, name)
        assert got.shape == value.shape and np.all(got == value), \
            f"iteration {k}: {name} differs from the reference"


def check_against_reference(scenario, lib, config, nan_iterations=frozenset()):
    """Assert that ``run_trial``, observed and unobserved, agrees with
    :func:`reference_trial`; returns the record and the number of
    iterations scored.

    The observer compares each state's probe, fields and score with
    ``==`` when it gets the state and keeps the state.  After the trial,
    every kept state is read again, its ``inhibition`` and
    ``target_posterior`` for the first time, so the states must be
    snapshots and their lazy fields must be built from what they hold.
    """
    visited, terminated_by, degenerate, iterations = reference_trial(
        scenario, lib, config, nan_iterations)
    states = []

    def observe(k, state):
        probe, want = iterations[k]
        assert state.probe == probe
        _assert_fields(k, state, {name: value for name, value in want.items()
                                  if name not in LAZY_FIELDS})
        best = int(np.argmax(state.score))
        assert 0.0 < state.score[best] < math.inf
        states.append(state)

    with with_nan_samples(lib, nan_iterations):
        rec = run_trial(scenario, lib, config, on_iteration=observe)
    with with_nan_samples(lib, nan_iterations):
        unobserved = run_trial(scenario, lib, config)
    # an observer never changes the trial
    assert unobserved == rec
    assert len(states) == len(iterations)
    for k, (state, (_, want)) in enumerate(zip(states, iterations)):
        _assert_fields(k, state, want)

    assert rec.visited == tuple(visited)
    assert rec.visited[0] == scenario.start
    assert rec.terminated_by == terminated_by
    assert rec.degenerate_events == degenerate == len(
        nan_iterations & set(range(len(visited))))
    assert rec.revisit_count == len(visited) - len(set(visited))
    eps = scenario.grid.bounds.epsilon
    assert rec.gamma == sum(
        eps * math.sqrt(min(sum((a - b) ** 2 for a, b in zip(v, p))
                            for p in scenario.benchmark_path))
        for v in visited)
    return rec, len(iterations)
