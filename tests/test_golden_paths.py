"""The bundled scenarios' trials against ``tests/golden/paths.txt``.

The file pins the same 30 trials as ``VISITED_PATHS_SHA256``, as text: a
changed path fails here with the scenario, the seed, the first visited
index where it differs and both voxels.  ``tests/golden/regen.py``
rewrites the file after a deliberate change of behaviour.
"""

from itertools import zip_longest

import pytest

from golden.regen import PATHS, paths_text


def first_difference(want: str, got: str) -> str:
    """What differs between two lines of ``paths.txt``: the trial, and the
    first differing visited index with both voxels, or else the
    termination and gamma."""
    w, g = want.split(" "), got.split(" ")
    trial = f"{w[0]} seed {w[1]}"
    for i, (a, b) in enumerate(zip_longest(w[4:], g[4:], fillvalue="end")):
        if a != b:
            return f"{trial}: visited index {i} is {b}, pinned {a}"
    return f"{trial}: terminated_by and gamma are {g[2:4]}, pinned {w[2:4]}"


def test_bundled_paths_equal_the_golden_file(lib, scenarios):
    want = PATHS.read_text().splitlines(keepends=True)
    text = paths_text(lib, scenarios)
    got = text.splitlines(keepends=True)
    assert len(got) == len(want)
    diffs = [first_difference(w.rstrip("\n"), g.rstrip("\n"))
             for w, g in zip(want, got) if w != g]
    assert not diffs, "\n".join(diffs)
    # regen.py writes these bytes
    assert text.encode() == PATHS.read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda v: v[:5] + ["9,9,0"] + v[6:],
     "scenario-3 seed 7: visited index 1 is 9,9,0, pinned "),
    (lambda v: v[:6], "scenario-3 seed 7: visited index 2 is end, pinned "),
    (lambda v: v[:2] + ["budget"] + v[3:],
     "scenario-3 seed 7: terminated_by and gamma are ['budget', "),
])
def test_a_changed_path_names_its_trial_and_index(edit, message):
    line = next(line for line in PATHS.read_text().splitlines()
                if line.startswith("scenario-3 7 "))
    fields = line.split(" ")
    assert first_difference(line, " ".join(edit(fields))).startswith(message)
