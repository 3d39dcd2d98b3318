"""One probe table held against every entry point that takes a real number.

Each real parameter goes through one check: a real number whose float is
finite, and at least the parameter's bound if it has one, is taken as
given, numpy floats and integers of every width included, and only the
bounds store its float; anything else (NaN, an infinity, an integer too
large for a float, ``bool``, a string, ``None``) is rejected with a
``ValueError`` naming the parameter, the bounds' :class:`GridConfigError`
among them.  Each float conversion of a caller's values goes through one
conversion, which rejects an integer too large for a float the same way,
where numpy raises ``OverflowError``, and rejects values that are not
real numbers, where numpy returned NaN for ``None`` and parsed a string.
"""

import math
import re
from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from hapticbayes import (
    GridConfigError,
    HapticSample,
    MaterialLibrary,
    MaterialParams,
    MaterialPosterior,
    NoiseSpec,
    SALIENCY_FACTOR,
    TrialRecord,
    VoxelIndex,
    WorkspaceBounds,
    beta_pdf,
    inhibition_profile,
    log_likelihoods,
    make_grid,
    saliency_field,
)

BOUNDS = WorkspaceBounds(0, 2, 0, 2, 0, 1, 1)
PARAMS = MaterialParams("a", 1, 1, 1, 1)
GRID = make_grid(WorkspaceBounds(0, 0.02, 0, 0.02, 0, 0.01, 0.01))   # 2 x 2 x 1
LIB = MaterialLibrary([PARAMS, MaterialParams("b", 2, 1, 2, 1)])


class Real(NamedTuple):
    """A real parameter: ``call(value)`` passes ``value`` as the parameter
    and returns it as stored; ``good`` is an integer it takes, so every
    numpy width holds it exactly."""

    call: Callable
    good: int
    least: Optional[int] = None
    error: type = ValueError
    prefix: str = ""          # before the parameter's name in a message
    stored: Optional[type] = None     # the type stored, if not as given


def _field(record, name, good, **kwargs) -> Real:
    """The field ``name`` of the dataclass ``record``, set by ``replace``."""
    return Real(lambda v: getattr(replace(record, **{name: v}), name), good,
                **kwargs)


REALS = {
    **{name: _field(BOUNDS, name, int(getattr(BOUNDS, name)),
                    error=GridConfigError, stored=float)
       for name in ("x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi", "epsilon")},
    **{name: _field(NoiseSpec(), name, 1, least=0)
       for name in ("scale_E", "scale_C")},
    **{name: _field(PARAMS, name, 1, prefix="a: ")
       for name in ("mu_E", "sigma_E", "mu_C", "sigma_C")},
    "gamma": _field(TrialRecord([VoxelIndex(0, 0, 0)], 0.0, 0, "budget"),
                    "gamma", 1, least=0),
}

NOT_FINITE_REALS = [math.nan, np.float32(math.nan), math.inf, -math.inf,
                    np.float64(-math.inf), 10**400, -10**400, True, np.True_,
                    "1", None]


def _id(value) -> str:
    """``repr(value)``, with each power of ten past 20 digits as ``10**k``."""
    return re.sub(r"10{20,}", lambda m: f"10**{len(m[0]) - 1}", repr(value))


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{_id(value)}")
    for name, spec in REALS.items()
    for value in NOT_FINITE_REALS + ([] if spec.least is None else [-1])])
def test_real_parameters_reject_what_is_not_a_finite_real(name, value):
    # 10**400 used to raise a raw OverflowError and "1" a raw TypeError in
    # the bounds, noise scales and material features, and a bool was
    # taken as 1 there
    spec = REALS[name]
    bound = "" if spec.least is None else f" and >= {spec.least}"
    with pytest.raises(ValueError) as info:
        spec.call(value)
    assert type(info.value) is spec.error
    assert str(info.value) == (f"{spec.prefix}{name} must be finite{bound}, "
                               f"got {value!r}")


NUMPY_REALS = [np.float16, np.float32, np.float64, np.longdouble,
               np.int8, np.int16, np.int32, np.int64,
               np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("kind", NUMPY_REALS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", REALS)
def test_real_parameters_take_numpy_reals_as_given(name, kind):
    # the bounds store floats: an int8 extent used to wrap, 100 - -100
    # giving -56
    spec = REALS[name]
    got = spec.call(kind(spec.good))
    assert type(got) is (spec.stored or kind) and got == spec.good


class Floats(NamedTuple):
    """A parameter whose values are converted to floats: ``call(value)``
    passes ``value`` as it; ``good``, if given, is a value it takes, in
    integers; ``probes`` hold an integer too large for a float."""

    call: Callable
    good: object
    probes: tuple


TOO_LARGE = (10**400, [0.5, -10**400], np.array([0.5, 10**400], dtype=object))
ROWS_TOO_LARGE = ([10**400, 0], [[0.5, 0.5], [0, -10**400]],
                  np.array([10**400, 0], dtype=object),
                  np.array([[0.5, 0.5], [0, -10**400]], dtype=object))


FLOATS = {
    "probs": Floats(lambda v: MaterialPosterior(v).probs, [1, 0],
                    ROWS_TOO_LARGE),
    # a count, which takes integers alone
    "n": Floats(lambda v: MaterialPosterior.uniform(v).probs, None, (10**400,)),
    "x": Floats(lambda v: beta_pdf(SALIENCY_FACTOR, v), [0, 1], TOO_LARGE),
    "d": Floats(inhibition_profile, [0, 1], TOO_LARGE),
    "omega": Floats(lambda v: saliency_field(GRID, [v] * 4), 1, TOO_LARGE),
    "sample.e": Floats(lambda v: log_likelihoods(LIB, HapticSample(
        v, np.ones(np.shape(v)))), [1, 2], TOO_LARGE),
    "sample.c": Floats(lambda v: log_likelihoods(LIB, HapticSample(
        np.ones(np.shape(v)), v)), [1, 2], TOO_LARGE),
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{_id(value)}")
    for name, spec in FLOATS.items() for value in spec.probes])
def test_float_conversions_reject_an_integer_too_large_for_a_float(name, value):
    # each used to raise a stray OverflowError from the float conversion,
    # MaterialPosterior's was reported as probabilities that do not sum to 1
    with pytest.raises(ValueError) as info:
        FLOATS[name].call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} holds an integer too large for a float"


NOT_REALS = {"None": None, "str": "0.5", "str-list": ["0.5", 1],
             "None-list": [0.5, None],
             "None-object-array": np.array([0.5, None], dtype=object),
             "object": object(), "bool": True, "bool-list": [True, False],
             "bool-array": np.array([1, 0], dtype=bool), "complex": 1 + 2j,
             "bytes": b"1"}


@pytest.mark.parametrize("name, label", [
    pytest.param(name, label, id=f"{name}-{label}")
    for name, spec in FLOATS.items() if spec.good is not None
    for label in NOT_REALS])
def test_float_conversions_reject_what_is_not_a_real_number(name, label):
    # beta_pdf(SALIENCY_FACTOR, None) returned nan, inhibition_profile("0.5")
    # 0.9958 and True was taken as 1; object() raised a raw TypeError
    with pytest.raises(ValueError) as info:
        FLOATS[name].call(NOT_REALS[label])
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{name} must hold real numbers, got ")


@pytest.mark.parametrize("kind", NUMPY_REALS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", [name for name, spec in FLOATS.items()
                                  if spec.good is not None])
def test_float_conversions_take_numpy_reals(name, kind):
    spec = FLOATS[name]
    want = spec.call(spec.good)
    scalars = (kind(spec.good) if np.ndim(spec.good) == 0
               else [kind(v) for v in spec.good])
    for value in (np.array(spec.good, dtype=kind), scalars):
        assert np.array_equal(spec.call(value), want)
