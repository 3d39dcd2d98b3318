"""Property tests of the two file loaders: whatever bytes a scenario or
material parameter file holds, loading it either succeeds or raises the
loader's own error (``ScenarioLoadError``, ``LibraryLoadError``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hapticbayes import (
    LibraryLoadError,
    ScenarioLoadError,
    bundled_library_path,
    load_library,
    load_scenario,
)

#: Byte strings that a mutation splices in: separators and keywords of
#: both formats, numbers at the edges of what floats and grids accept,
#: and bytes that are not UTF-8.
TOKENS = [b"\xff", b"\xc3", b"\x00", b"\n", b"\r", b" ", b",", b"=", b":",
          b"#", b'"', b"0", b"-1", b"1e308", b"1e-300", b"nan", b"inf",
          b"A", b"B", b"silicone", b"wood", b"grid:", b"path:", b"raster:",
          b"symbols: A=wood", b"task: wood, wood", b"9" * 30]


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """``original`` with one to four deletions, insertions or
    replacements at random positions."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        if kind == "delete":
            del data[pos:pos + draw(st.integers(1, 40))]
        elif kind == "insert":
            data[pos:pos] = draw(st.sampled_from(TOKENS)
                                 | st.binary(min_size=1, max_size=8))
        else:
            data[pos:pos + draw(st.integers(1, 8))] = draw(st.sampled_from(TOKENS))
    return bytes(data)


SCENARIO_BYTES = (bundled_library_path().parent / "scenario-2.txt").read_bytes()
LIBRARY_BYTES = bundled_library_path().read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


def load_scenario_bytes(data, directory, lib):
    path = directory / "scenario.txt"
    path.write_bytes(data)
    try:
        load_scenario(path, lib)
    except ScenarioLoadError as exc:
        assert str(path) in str(exc)


def load_library_bytes(data, directory):
    path = directory / "materials.csv"
    path.write_bytes(data)
    try:
        load_library(path)
    except LibraryLoadError as exc:
        assert str(path) in str(exc)


@given(data=st.binary(max_size=600))
def test_scenario_loader_arbitrary_bytes(data, scratch, lib):
    load_scenario_bytes(data, scratch, lib)


@given(data=mutated(SCENARIO_BYTES))
def test_scenario_loader_mutated_bundled_file(data, scratch, lib):
    load_scenario_bytes(data, scratch, lib)


@given(data=st.binary(max_size=600))
def test_library_loader_arbitrary_bytes(data, scratch):
    load_library_bytes(data, scratch)


@given(data=mutated(LIBRARY_BYTES))
def test_library_loader_mutated_bundled_file(data, scratch):
    load_library_bytes(data, scratch)
