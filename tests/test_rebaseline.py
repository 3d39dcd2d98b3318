"""Re-baseline gate of the whole-voxel inhibition table and the selection
on the raw target score.

Both changed which voxel wins near-ties, so paths at a fixed seed changed.
The gate was fixed before the change, from the code before it: on seeds
0-99 of each bundled scenario, mean gamma/l moves by less than two of the
old standard errors and the loop closures by at most five.  Marked
``slow``: the default test run leaves it out; run it with
``pytest -m slow tests/test_rebaseline.py``.
"""

import numpy as np
import pytest

from hapticbayes import TrialConfig, run_trial

SEEDS = range(100)

#: Before the change, per bundled scenario: mean gamma/l over seeds 0-99
#: (cm), its standard error (cm) and the trials that closed the loop.
BEFORE = {
    "scenario-1": (0.670, 0.074, 81),
    "scenario-2": (0.553, 0.068, 88),
    "scenario-3": (0.464, 0.076, 85),
}


@pytest.mark.slow
@pytest.mark.parametrize("index", [0, 1, 2])
def test_seeds_0_to_99_stay_within_the_gate(lib, scenarios, index):
    scenario = scenarios[index]
    mean_before, se_before, closures_before = BEFORE[scenario.name]
    records = [run_trial(scenario, lib, TrialConfig(seed=seed)) for seed in SEEDS]
    mean = float(np.mean([r.gamma_per_l for r in records])) * 100.0
    closures = sum(r.terminated_by == "loop_closure" for r in records)
    assert abs(mean - mean_before) < 2.0 * se_before, \
        f"{scenario.name}: mean gamma/l {mean:.3f} cm, before {mean_before} cm"
    assert abs(closures - closures_before) <= 5, \
        f"{scenario.name}: {closures} closures, before {closures_before}"
