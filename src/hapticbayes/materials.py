"""Material parameter library and synthetic haptic sample generation.

Each material carries Gaussian models for two scalar features: a texture
feature ``e`` and a compliance feature ``c`` (dimensionless feature units).
Synthetic sensing draws from those models and corrupts the draw with
additive white Gaussian noise whose standard deviation is half the feature
mean, optionally rescaled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from .grid import _as_index, _check_real, _check_type

#: Required columns of a material parameter file.
LIBRARY_FIELDS = ("name", "mu_E", "sigma_E", "mu_C", "sigma_C")


class LibraryLoadError(ValueError):
    """Raised when a material parameter file is malformed."""


class HapticSample(NamedTuple):
    """Synthetic touch observations: texture and compliance values.

    ``e`` and ``c`` are scalars for one touch, or equally shaped arrays
    holding one touch per element.
    """

    e: float
    c: float


@dataclass(frozen=True)
class NoiseSpec:
    """Multipliers on the per-material additive noise std ``|mu| / 2``.

    ``scale_E = scale_C = 1.0`` reproduces the base noise level; 0 disables
    the additive noise entirely.  Each scale is a real >= 0.
    """

    scale_E: float = 1.0
    scale_C: float = 1.0

    def __post_init__(self):
        for name in ("scale_E", "scale_C"):
            _check_real(name, getattr(self, name), 0)

    @classmethod
    def uniform(cls, scale: float) -> "NoiseSpec":
        return cls(scale, scale)


@dataclass(frozen=True)
class MaterialParams:
    """Feature models of one material; each sigma is positive."""

    name: str
    mu_E: float
    sigma_E: float
    mu_C: float
    sigma_C: float

    def __post_init__(self):
        for name in ("mu_E", "sigma_E", "mu_C", "sigma_C"):
            _check_real(f"{self.name}: {name}", getattr(self, name))
        if self.sigma_E <= 0 or self.sigma_C <= 0:
            raise ValueError(f"{self.name}: sigmas must be positive")


class MaterialLibrary:
    """Ordered collection of material parameter sets.

    The order is fixed and defines material indices 0..n-1.  ``lib[i]``
    is material ``i``'s parameters, for an integer ``i`` in ``[0, n)``:
    no slice or negative index.  A library holds at least 2
    :class:`MaterialParams` entries, with distinct names.
    """

    def __init__(self, materials: Sequence[MaterialParams]):
        _check_type("materials", materials, Sequence)
        materials = list(materials)
        for i, m in enumerate(materials):
            _check_type(f"materials[{i}]", m, MaterialParams)
        if len(materials) < 2:
            raise ValueError("a material library needs at least 2 materials")
        names = [m.name for m in materials]
        if len(set(names)) != len(names):
            raise ValueError("material names must be unique")
        self.materials = materials
        self._index = {m.name: i for i, m in enumerate(materials)}
        # column arrays for vectorized likelihoods
        self.mu_e = np.array([m.mu_E for m in materials])
        self.sigma_e = np.array([m.sigma_E for m in materials])
        self.mu_c = np.array([m.mu_C for m in materials])
        self.sigma_c = np.array([m.sigma_C for m in materials])
        self.log_sigma_e = np.log(self.sigma_e)
        self.log_sigma_c = np.log(self.sigma_c)

    def __len__(self) -> int:
        return len(self.materials)

    def __getitem__(self, i: int) -> MaterialParams:
        return self.materials[_as_index(i, "material index", len(self))]

    def __iter__(self):
        # else iteration would run through __getitem__, whose ValueError
        # past the last material ends no loop
        return iter(self.materials)

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.materials]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown material name {name!r}") from None


def bundled_library_path() -> Path:
    """Path of the parameter file shipped with the package."""
    return Path(resources.files("hapticbayes").joinpath("data/materials.csv"))


def load_library(source: Union[str, Path]) -> MaterialLibrary:
    """Load a material library from a CSV parameter file.

    The file must be UTF-8 text with exactly the header columns ``name,
    mu_E, sigma_E, mu_C, sigma_C``; lines starting with ``#`` are
    comments.  Any other encoding, malformed CSV, unknown, missing or
    duplicated column, duplicate name, non-finite parameter or
    non-positive sigma rejects the file with a :class:`LibraryLoadError`
    naming the path and, where there is one, the offending record.
    """
    path = Path(source)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh)
                    if r and not (r[0].lstrip().startswith("#"))]
    except UnicodeDecodeError as exc:
        raise LibraryLoadError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise LibraryLoadError(f"{path}: {exc}") from None
    if not rows:
        raise LibraryLoadError(f"{path}: empty parameter file")
    header = [h.strip() for h in rows[0]]
    if sorted(header) != sorted(LIBRARY_FIELDS):
        unknown = set(header) - set(LIBRARY_FIELDS)
        missing = set(LIBRARY_FIELDS) - set(header)
        duplicated = {h for h in header if header.count(h) > 1}
        raise LibraryLoadError(
            f"{path}: bad header (unknown fields {sorted(unknown)}, "
            f"missing fields {sorted(missing)}, "
            f"duplicated fields {sorted(duplicated)})"
        )
    col = {name: header.index(name) for name in LIBRARY_FIELDS}
    materials = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise LibraryLoadError(f"{path}: record {i}: expected "
                                   f"{len(header)} fields, got {len(row)}")
        try:
            params = MaterialParams(
                name=row[col["name"]].strip(),
                mu_E=float(row[col["mu_E"]]),
                sigma_E=float(row[col["sigma_E"]]),
                mu_C=float(row[col["mu_C"]]),
                sigma_C=float(row[col["sigma_C"]]),
            )
        except ValueError as exc:
            raise LibraryLoadError(f"{path}: record {i}: {exc}") from None
        materials.append(params)
    try:
        return MaterialLibrary(materials)
    except ValueError as exc:
        raise LibraryLoadError(f"{path}: {exc}") from None


def synthesize_sample(lib: MaterialLibrary, material_index: int,
                      noise: NoiseSpec, rng: np.random.Generator,
                      shape: tuple = ()) -> HapticSample:
    """Draw noisy haptic samples of the given material.

    Each sample draws ``e ~ N(mu_E, sigma_E)`` and ``c ~ N(mu_C, sigma_C)``,
    then adds independent noise ``q_E ~ N(0, scale_E * |mu_E| / 2)`` and
    ``q_C ~ N(0, scale_C * |mu_C| / 2)``.  With the default ``shape=()``
    the result holds one sample as two scalars; otherwise ``e`` and ``c``
    are arrays of that shape.  The draws come from one
    ``rng.standard_normal(shape + (4,))`` call, each sample taking its
    four values in the fixed order (e, c, q_E, q_C), so a seeded
    generator reproduces the stream exactly, and consecutive calls give
    the same samples as one call of their combined leading shape.
    """
    _check_type("lib", lib, MaterialLibrary)
    material_index = _as_index(material_index, "material index", len(lib))
    _check_type("noise", noise, NoiseSpec)
    _check_type("rng", rng, np.random.Generator)
    return _samples_of_draws(lib, material_index, noise,
                             rng.standard_normal(shape + (4,)))


def _samples_of_draws(lib: MaterialLibrary, material, noise: NoiseSpec,
                      z: np.ndarray) -> HapticSample:
    """The samples of :func:`synthesize_sample` from standard normal draws
    ``z``, whose last axis holds each sample's (e, c, q_E, q_C) values.

    ``material`` indexes the library's parameter columns.  It is a
    material index or a material array that broadcasts against
    ``z.shape[:-1]``, and the samples take the broadcast shape.  An
    ``(m,)`` array with ``z`` of shape ``(..., 1, 4)`` gives each of those
    materials' sample of each draw, along a last axis of length ``m``; an
    ``(m, 1, 1)`` array with ``z`` of shape ``(m, t, k, 4)`` gives
    material ``i`` the samples of draws ``z[i]``.  Each sample is computed
    elementwise, so it does not depend on which other materials are
    indexed with it.
    """
    mu_e, mu_c = lib.mu_e[material], lib.mu_c[material]
    z_e, z_c, z_qe, z_qc = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    e = mu_e + lib.sigma_e[material] * z_e
    c = mu_c + lib.sigma_c[material] * z_c
    q_e = 0.0 + noise.scale_E * np.abs(mu_e) / 2.0 * z_qe
    q_c = 0.0 + noise.scale_C * np.abs(mu_c) / 2.0 * z_qc
    return HapticSample(e + q_e, c + q_c)
