"""The CLI's confusion counts against ``tests/golden/confusion.csv``.

The file pins the counts of ``classify`` and of each ``sweep-noise`` cell
at the CLI defaults, as text: a changed count fails here with its cell's
noise scale and sample count, the truth and predicted materials and both
counts.  ``tests/golden/regen.py`` rewrites the file after a deliberate
change of behaviour.
"""

import csv

import pytest

from golden.regen import CONFUSION, confusion_text


def cells(text: str) -> list:
    """The cells of a ``confusion.csv`` text: its label line and its CSV
    rows, each."""
    return [(lines[0], list(csv.reader(lines[1:])))
            for lines in map(str.splitlines, text.split("\n\n")) if lines]


def count_differences(want: str, got: str) -> list:
    """What differs between two ``confusion.csv`` texts, line by line: per
    differing count, the cell's label, the truth and predicted materials
    and both counts; a differing label or header names both lines."""
    diffs = []
    for (label, w), (g_label, g) in zip(cells(want), cells(got)):
        if g_label != label or g[0] != w[0] or len(g) != len(w):
            diffs.append(f"cell {g_label!r} with header {g[0]}, pinned "
                         f"{label!r} with header {w[0]}")
            continue
        for w_row, g_row in zip(w[1:], g[1:]):
            for predicted, a, b in zip(w[0][1:], w_row[1:], g_row[1:]):
                if a != b:
                    diffs.append(f"{label}: truth {w_row[0]}, predicted "
                                 f"{predicted}: count {b}, pinned {a}")
    return diffs


def test_cli_confusion_counts_equal_the_golden_file():
    want = CONFUSION.read_text()
    text = confusion_text()
    assert len(cells(text)) == len(cells(want)) == 7
    diffs = count_differences(want, text)
    assert not diffs, "\n".join(diffs)
    # regen.py writes these bytes
    assert text.encode() == CONFUSION.read_bytes()


@pytest.mark.parametrize("old, new, message", [
    ("wood,32,140,", "wood,32,141,",
     "sweep-noise noise_scale=1.0 k_samples=1 seed=0: truth wood, predicted "
     "brick: count 141, pinned 140"),
    ("sweep-noise noise_scale=2.0 k_samples=5", "sweep-noise noise_scale=2.0 "
     "k_samples=6", "cell 'sweep-noise noise_scale=2.0 k_samples=6 seed=5'"),
])
def test_a_changed_count_names_its_cell(old, new, message):
    want = CONFUSION.read_text()
    assert want.count(old) == 1
    diffs = count_differences(want, want.replace(old, new))
    assert len(diffs) == 1 and diffs[0].startswith(message), diffs
