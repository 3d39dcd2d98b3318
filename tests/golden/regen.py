"""Rewrite ``paths.txt`` and ``confusion.csv``, the readable pins of the
bundled experiments.

``paths.txt`` has one line per bundled scenario and seed 0-9, at the
default ``TrialConfig``: the scenario's name, the seed, ``terminated_by``,
``repr(gamma)`` and the visited voxels as ``ix,iy,iz``, separated by
spaces.

``confusion.csv`` holds the confusion counts of ``classify`` at the CLI
defaults, then of each ``sweep-noise`` cell at the CLI defaults, in the
sweep's order: per cell, a label line ``<command> noise_scale=<scale>
k_samples=<k> seed=<seed>``, then the cell's ``ConfusionMatrix`` CSV, and a
blank line between cells.  The counts are recorded from the CLI's own runs.

``tests/test_golden_paths.py`` and ``tests/test_golden_counts.py`` compare
them line by line.  A change of behaviour reruns this script, so its diff
shows which trials and cells moved::

    PYTHONPATH=src python tests/golden/regen.py
"""

import contextlib
import inspect
import io
import tempfile
from pathlib import Path
from unittest import mock

from hapticbayes import (TrialConfig, bundled_library_path,
                         generate_builtin_scenarios, load_library, run_trial)
from hapticbayes import bench, cli

#: The checked-in files this script writes.
PATHS = Path(__file__).with_name("paths.txt")
CONFUSION = Path(__file__).with_name("confusion.csv")
#: Seeds of each scenario's trials.
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


def confusion_text() -> str:
    """The text of ``confusion.csv``: ``classify`` and ``sweep-noise`` run
    through ``cli.main`` at their defaults, each classification experiment
    they run recorded as one labelled block."""
    run = bench.run_classification_experiment
    signature = inspect.signature(run)
    blocks = []

    def record(*args, **kwargs):
        cell = signature.bind(*args, **kwargs)
        cell.apply_defaults()
        cm = run(*args, **kwargs)
        noise, seed = cell.arguments["noise"], cell.arguments["seed"]
        blocks.append(f"{command} noise_scale={noise.scale_E!r} "
                      f"k_samples={cm.k_samples} seed={seed}\n{cm.to_csv()}")
        return cm

    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.object(cli, "run_classification_experiment", record), \
            mock.patch.object(bench, "run_classification_experiment", record):
        for command in ("classify", "sweep-noise"):
            if cli.main([command, "--out", out]) != 0:
                raise RuntimeError(f"hapticbayes {command} failed")
    return "\n".join(blocks)


if __name__ == "__main__":
    lib = load_library(bundled_library_path())
    PATHS.write_text(paths_text(lib, generate_builtin_scenarios(lib)))
    CONFUSION.write_text(confusion_text())
    print(f"wrote {PATHS} and {CONFUSION}")
