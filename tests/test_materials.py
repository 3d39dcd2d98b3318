from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hapticbayes import (
    LibraryLoadError,
    MaterialLibrary,
    MaterialParams,
    NoiseSpec,
    load_library,
    synthesize_sample,
)

REFERENCE_MATERIALS = ["acrylic", "brick", "copper", "damp sponge", "feather",
                   "rough foam", "plush toy", "silicone", "soft foam", "wood"]


def write_csv(tmp_path, rows, header="name,mu_E,sigma_E,mu_C,sigma_C"):
    path = tmp_path / "params.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_bundled_library_names_and_order(lib):
    assert lib.names == REFERENCE_MATERIALS
    assert len(lib) == 10


def test_load_rejects_zero_sigma(tmp_path):
    path = write_csv(tmp_path, ["a,1.0,0.0,1.0,0.1", "b,2.0,0.1,2.0,0.1"])
    with pytest.raises(LibraryLoadError, match="record 1"):
        load_library(path)


@pytest.mark.parametrize("record, field", [
    ("a,nan,0.1,1.0,0.1", "mu_E"),
    ("a,1.0,inf,1.0,0.1", "sigma_E"),
])
def test_load_rejects_non_finite_parameter(tmp_path, record, field):
    path = write_csv(tmp_path, ["b,2.0,0.1,2.0,0.1", record])
    with pytest.raises(LibraryLoadError, match=f"record 2: a: {field}"):
        load_library(path)


def test_load_two_material_file(tmp_path):
    path = write_csv(tmp_path, ["a,1.0,0.1,1.0,0.1", "b,2.0,0.2,2.0,0.2"])
    lib = load_library(path)
    assert lib.names == ["a", "b"]


def test_load_rejects_single_material(tmp_path):
    path = write_csv(tmp_path, ["a,1.0,0.1,1.0,0.1"])
    with pytest.raises(LibraryLoadError, match="at least 2"):
        load_library(path)


def test_load_rejects_duplicate_names(tmp_path):
    path = write_csv(tmp_path, ["a,1,0.1,1,0.1", "a,2,0.2,2,0.2"])
    with pytest.raises(LibraryLoadError, match="unique"):
        load_library(path)


def test_load_rejects_unknown_field(tmp_path):
    path = write_csv(tmp_path, ["a,1,0.1,1,0.1,7", "b,2,0.2,2,0.2,7"],
                     header="name,mu_E,sigma_E,mu_C,sigma_C,extra")
    with pytest.raises(LibraryLoadError, match="unknown fields"):
        load_library(path)


def test_load_rejects_duplicated_field(tmp_path):
    path = write_csv(tmp_path, ["a,1,0.1,1,0.1,a", "b,2,0.2,2,0.2,b"],
                     header="name,mu_E,sigma_E,mu_C,sigma_C,name")
    with pytest.raises(LibraryLoadError, match=r"duplicated fields \['name'\]"):
        load_library(path)


def test_load_rejects_missing_field(tmp_path):
    path = write_csv(tmp_path, ["a,1,0.1,1", "b,2,0.2,2"],
                     header="name,mu_E,sigma_E,mu_C")
    with pytest.raises(LibraryLoadError, match="missing fields"):
        load_library(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "params.csv"
    path.write_bytes(b"name,mu_E,sigma_E,mu_C,sigma_C\n"
                     b"a\xff,1,0.1,1,0.1\nb,2,0.2,2,0.2\n")
    with pytest.raises(LibraryLoadError, match=f"{path}: not UTF-8"):
        load_library(path)


def test_load_rejects_oversized_csv_field(tmp_path):
    # the csv module refuses fields over its 131,072-character limit
    path = write_csv(tmp_path, ["a" * 200_000 + ",1,0.1,1,0.1", "b,2,0.2,2,0.2"])
    with pytest.raises(LibraryLoadError, match="field larger than field limit"):
        load_library(path)


def test_sample_determinism(lib):
    noise = NoiseSpec()
    a = synthesize_sample(lib, 3, noise, np.random.default_rng(42))
    b = synthesize_sample(lib, 3, noise, np.random.default_rng(42))
    c = synthesize_sample(lib, 3, noise, np.random.default_rng(43))
    assert a == b
    assert a != c


def test_sample_degenerate_is_exact(toy_lib):
    sample = synthesize_sample(toy_lib, 0, NoiseSpec(0.0, 0.0),
                               np.random.default_rng(0))
    assert sample == (1.0, 2.0)


def test_batched_samples_match_scalar_draws(lib):
    noise = NoiseSpec(1.0, 2.0)
    rng = np.random.default_rng(8)
    scalar = [synthesize_sample(lib, 4, noise, rng) for _ in range(15)]
    rng = np.random.default_rng(8)
    first = synthesize_sample(lib, 4, noise, rng, (2, 5))
    rest = synthesize_sample(lib, 4, noise, rng, (1, 5))
    e = np.concatenate([first.e, rest.e]).ravel()
    c = np.concatenate([first.c, rest.c]).ravel()
    assert first.e.shape == first.c.shape == (2, 5)
    assert np.array_equal(e, [s.e for s in scalar])
    assert np.array_equal(c, [s.c for s in scalar])


def test_sample_rejects_bad_index(lib):
    with pytest.raises(ValueError):
        synthesize_sample(lib, len(lib), NoiseSpec(), np.random.default_rng(0))


def test_sample_variance_matches_sum_of_gaussians(lib):
    # oracle: Var(e) = sigma_E^2 + (mu_E / 2)^2 for independent Gaussians
    m = lib[lib.index_of("silicone")]
    rng = np.random.default_rng(7)
    draws = np.array([synthesize_sample(lib, lib.index_of("silicone"),
                                        NoiseSpec(), rng).e
                      for _ in range(100_000)])
    expected = m.sigma_E ** 2 + (m.mu_E / 2) ** 2
    assert np.var(draws) == pytest.approx(expected, rel=0.05)
    assert np.mean(draws) == pytest.approx(m.mu_E, abs=0.01)


def test_zero_scale_matches_plain_normal(lib):
    # KS test at significance 0.01 against Normal(mu, sigma)
    m = lib[lib.index_of("wood")]
    rng = np.random.default_rng(123)
    draws = [synthesize_sample(lib, lib.index_of("wood"), NoiseSpec(0.0, 0.0),
                               rng).c for _ in range(10_000)]
    result = stats.kstest(draws, "norm", args=(m.mu_C, m.sigma_C))
    assert result.pvalue > 0.01


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale_E"):
            NoiseSpec(bad, 1.0)
        with pytest.raises(ValueError, match="scale_C"):
            NoiseSpec(1.0, bad)
    with pytest.raises(ValueError):
        MaterialParams("x", 1.0, -0.2, 1.0, 0.1)
    with pytest.raises(ValueError):
        MaterialLibrary([MaterialParams("x", 1, 0.1, 1, 0.1)])


#: Values no numeric constructor may take: an integer too large for a
#: float (used to raise a raw OverflowError), a string (a raw TypeError)
#: and a bool (used to be taken as 1).
NOT_FINITE_REALS = [pytest.param(10**400, id="10**400"),
                    pytest.param("1", id="str"), pytest.param(True, id="bool")]


@pytest.mark.parametrize("bad", NOT_FINITE_REALS)
@pytest.mark.parametrize("field", ["scale_E", "scale_C"])
def test_noise_spec_rejects_what_is_not_a_finite_real(field, bad):
    with pytest.raises(ValueError, match=rf"^noise {field} must be finite"):
        NoiseSpec(**{field: bad})


@pytest.mark.parametrize("bad", NOT_FINITE_REALS)
@pytest.mark.parametrize("field", ["mu_E", "sigma_E", "mu_C", "sigma_C"])
def test_material_params_reject_what_is_not_a_finite_real(field, bad):
    with pytest.raises(ValueError, match=rf"^a: {field} must be finite"):
        replace(MaterialParams("a", 1.0, 0.1, 1.0, 0.1), **{field: bad})
