"""Rewrite ``paths.txt``, the readable pin of the bundled scenarios' trials.

One line per bundled scenario and seed 0-9, at the default
``TrialConfig``: the scenario's name, the seed, ``terminated_by``,
``repr(gamma)`` and the visited voxels as ``ix,iy,iz``, separated by
spaces.  ``tests/test_golden_paths.py`` compares it line by line.  A change
of behaviour reruns this script, so its diff shows which trials moved::

    PYTHONPATH=src python tests/golden/regen.py
"""

from pathlib import Path

from hapticbayes import (TrialConfig, bundled_library_path,
                         generate_builtin_scenarios, load_library, run_trial)

#: The checked-in file this script writes.
PATHS = Path(__file__).with_name("paths.txt")
#: Seeds of each scenario's trials: the ones ``VISITED_PATHS_SHA256`` covers.
SEEDS = range(10)


def path_line(scenario, seed, record) -> str:
    """One trial's line of ``paths.txt``."""
    voxels = (f"{v.ix},{v.iy},{v.iz}" for v in record.visited)
    return " ".join((scenario.name, str(seed), record.terminated_by,
                     repr(record.gamma), *voxels))


def paths_text(lib, scenarios) -> str:
    """The text of ``paths.txt`` for ``scenarios`` explored with ``lib``."""
    return "".join(path_line(s, seed, run_trial(s, lib, TrialConfig(seed=seed)))
                   + "\n" for s in scenarios for seed in SEEDS)


if __name__ == "__main__":
    lib = load_library(bundled_library_path())
    PATHS.write_text(paths_text(lib, generate_builtin_scenarios(lib)))
    print(f"wrote {PATHS}")
