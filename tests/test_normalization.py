"""Unit + property tests for the 8 normalization methods (paper Section 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro._validation import EPS
from repro.exceptions import UnknownNormalizationError, ValidationError
from repro.normalization import (
    ADAPTIVE_SCALING,
    PAPER_NORMALIZATIONS,
    ZSCORE,
    adaptive_scaling_factor,
    get_normalizer,
    list_normalizers,
    logistic,
    make_minmax_range,
    mean_norm,
    median_norm,
    minmax,
    normalize,
    normalize_dataset,
    tanh,
    unit_length,
    zscore,
)

finite_series = arrays(
    np.float64,
    st.integers(min_value=2, max_value=60),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestRegistry:
    def test_eight_methods_registered(self):
        assert len(list_normalizers()) == 8

    def test_paper_order_names_resolve(self):
        for name in PAPER_NORMALIZATIONS:
            assert get_normalizer(name).name == name

    def test_aliases_resolve(self):
        assert get_normalizer("z-score").name == "zscore"
        assert get_normalizer("sigmoid").name == "logistic"
        assert get_normalizer("AdaptiveScaling").name == "adaptive"

    def test_unknown_raises(self):
        with pytest.raises(UnknownNormalizationError):
            get_normalizer("nope")

    def test_normalize_dataset_rowwise(self):
        X = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
        Z = normalize_dataset(X, "zscore")
        assert np.allclose(Z.mean(axis=1), 0.0)
        assert np.allclose(Z.std(axis=1), 1.0)


class TestZScore:
    @given(finite_series)
    @settings(max_examples=50, deadline=None)
    def test_zero_mean_unit_std(self, x):
        z = zscore(x)
        if np.std(x) > 1e-9:
            assert abs(z.mean()) < 1e-8
            assert abs(z.std() - 1.0) < 1e-8

    def test_constant_series_maps_to_zeros(self):
        assert np.array_equal(zscore(np.full(5, 3.0)), np.zeros(5))

    @given(finite_series)
    @settings(max_examples=50, deadline=None)
    def test_scale_translation_invariance(self, x):
        if np.std(x) > 1e-6:
            assert np.allclose(zscore(x), zscore(3.0 * x + 7.0), atol=1e-6)


class TestMinMax:
    def test_range_is_unit_interval(self):
        out = minmax(np.array([2.0, 4.0, 6.0]))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_custom_range(self):
        out = minmax(np.array([0.0, 1.0]), low=-1.0, high=1.0)
        assert out.tolist() == [-1.0, 1.0]

    def test_constant_maps_to_midpoint(self):
        out = minmax(np.full(4, 9.0), low=0.0, high=2.0)
        assert np.allclose(out, 1.0)


class TestMeanNorm:
    def test_zero_mean(self):
        out = mean_norm(np.array([1.0, 2.0, 3.0, 10.0]))
        assert abs(out.mean()) < 1e-12

    def test_range_bounded_by_one(self):
        out = mean_norm(np.array([1.0, 2.0, 3.0, 10.0]))
        assert out.max() - out.min() <= 1.0 + 1e-12

    def test_constant_maps_to_zeros(self):
        assert np.array_equal(mean_norm(np.full(3, 5.0)), np.zeros(3))


class TestMedianNorm:
    def test_divides_by_median(self):
        out = median_norm(np.array([2.0, 4.0, 6.0]))
        assert np.allclose(out, [0.5, 1.0, 1.5])

    def test_zero_median_falls_back_to_mean(self):
        x = np.array([-1.0, 0.0, 1.0, 4.0])  # median 0.5? no: (0+1)/2 = 0.5
        x = np.array([-1.0, 0.0, 0.0, 5.0])  # median 0 -> mean fallback (=1)
        out = median_norm(x)
        assert np.allclose(out, x / 1.0)

    def test_degenerate_returns_copy(self):
        x = np.array([-1.0, 0.0, 1.0])  # median 0, mean 0
        out = median_norm(x)
        assert np.array_equal(out, x)
        assert out is not x


class TestUnitLength:
    @given(finite_series)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm(self, x):
        if np.linalg.norm(x) > 1e-9:
            assert abs(np.linalg.norm(unit_length(x)) - 1.0) < 1e-9

    def test_zero_series_stays_zero(self):
        assert np.array_equal(unit_length(np.zeros(4)), np.zeros(4))


class TestAdaptiveScaling:
    def test_factor_recovers_known_scale(self):
        x = np.array([1.0, 2.0, 3.0])
        assert abs(adaptive_scaling_factor(2.0 * x, x) - 2.0) < 1e-12

    def test_pair_transform_scales_second(self):
        norm = get_normalizer("adaptive")
        x = np.array([2.0, 4.0])
        y = np.array([1.0, 2.0])
        a, b = norm.apply_pair(x, y)
        assert np.array_equal(a, x)
        assert np.allclose(b, x)

    def test_is_pairwise(self):
        assert get_normalizer("adaptive").is_pairwise

    def test_dataset_passthrough(self):
        X = np.ones((3, 4))
        assert np.array_equal(get_normalizer("adaptive").apply_dataset(X), X)

    def test_zero_reference_factor_zero(self):
        assert adaptive_scaling_factor(np.ones(3), np.zeros(3)) == 0.0


class TestActivations:
    def test_logistic_bounds(self):
        out = logistic(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == 0.5
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    @given(finite_series)
    @settings(max_examples=50, deadline=None)
    def test_logistic_in_unit_interval(self, x):
        out = logistic(x)
        assert ((out >= 0.0) & (out <= 1.0)).all()

    def test_tanh_matches_numpy(self):
        x = np.linspace(-3, 3, 11)
        assert np.allclose(tanh(x), np.tanh(x))

    @given(finite_series)
    @settings(max_examples=50, deadline=None)
    def test_tanh_monotone(self, x):
        xs = np.sort(x)
        out = tanh(xs)
        assert (np.diff(out) >= -1e-12).all()


class TestNormalizeEntryPoint:
    def test_default_is_zscore(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(normalize(x), zscore(x))

    @pytest.mark.parametrize("name", PAPER_NORMALIZATIONS)
    def test_all_methods_return_same_length(self, name):
        x = np.linspace(-1, 1, 17)
        assert normalize(x, name).shape == x.shape


class TestMinMaxRangeFactory:
    def test_custom_range_applied(self):
        from repro.normalization import make_minmax_range

        norm = make_minmax_range(0.1, 1.0)
        out = norm(np.array([3.0, 5.0, 7.0]))
        assert out.min() == pytest.approx(0.1)
        assert out.max() == pytest.approx(1.0)

    def test_strictly_positive_for_probability_measures(self):
        from repro.normalization import make_minmax_range

        norm = make_minmax_range(0.1, 1.0)
        out = norm(np.linspace(-5, 5, 20))
        assert (out > 0).all()

    def test_registrable(self):
        from repro.normalization import (
            get_normalizer,
            make_minmax_range,
            register_normalizer,
        )
        from repro.normalization import base as norm_base

        snapshot = dict(norm_base._REGISTRY)
        try:
            register_normalizer(make_minmax_range(-1.0, 1.0))
            assert get_normalizer("minmax[-1,1]").label == "MinMax[-1,1]"
        finally:
            # Restore the global registry so census/catalog tests keep
            # seeing exactly the paper's 8 methods.
            norm_base._REGISTRY.clear()
            norm_base._REGISTRY.update(snapshot)

    def test_invalid_range_rejected(self):
        from repro.normalization import make_minmax_range

        with pytest.raises(ValueError):
            make_minmax_range(1.0, 1.0)


# ----------------------------------------------------------------------
# The row-wise layer: one core per method, whole datasets in one call
# ----------------------------------------------------------------------
def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# The per-series formulas as they were written before the row-wise cores
# existed, kept as an independent oracle: every core must reproduce them
# bit for bit (the parent-format artifact fixtures, all z-score, check
# their fresh-fit fingerprints against this arithmetic).
def _scalar_zscore(x):
    std = x.std()
    return np.zeros_like(x) if std < EPS else (x - x.mean()) / std


def _scalar_minmax(x, low=0.0, high=1.0):
    span = x.max() - x.min()
    if span < EPS:
        return np.full_like(x, (low + high) / 2.0)
    scaled = (x - x.min()) / span
    return low + scaled * (high - low)


def _scalar_mean_norm(x):
    span = x.max() - x.min()
    return np.zeros_like(x) if span < EPS else (x - x.mean()) / span


def _scalar_median_norm(x):
    med = np.median(x)
    if abs(med) >= EPS:
        return x / med
    mean = x.mean()
    if abs(mean) >= EPS:
        return x / mean
    return x.copy()


def _scalar_logistic(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


SCALAR_ORACLES = {
    "zscore": _scalar_zscore,
    "minmax": _scalar_minmax,
    "meannorm": _scalar_mean_norm,
    "mediannorm": _scalar_median_norm,
    "logistic": _scalar_logistic,
    "tanh": np.tanh,
}


@pytest.fixture(scope="module")
def row_cases(adversarial_batches):
    """Every ``adversarial_batches`` case plus the median fallbacks and
    rows that are negative throughout."""
    gen = np.random.default_rng(31)
    return {
        **adversarial_batches,
        "zero_median": np.array([[-1.0, 0.0, 0.0, 5.0], [2.0, 0.0, 0.0, -7.0]]),
        "zero_mean_and_median": np.array(
            [[-1.0, 0.0, 1.0], [-2.5, 0.0, 2.5], [0.0, 0.0, 0.0]]
        ),
        "all_negative": -np.abs(gen.normal(size=(6, 24))) - 0.5,
    }


def _all_normalizers():
    return [get_normalizer(name) for name in list_normalizers()] + [
        make_minmax_range(0.1, 1.0)
    ]


class TestRowWiseLayer:
    @pytest.mark.parametrize("norm", _all_normalizers(), ids=lambda n: n.name)
    def test_dataset_equals_row_by_row(self, norm, row_cases):
        for name, X in row_cases.items():
            want = np.vstack([norm(row) for row in X])
            assert _same_bits(norm.apply_dataset(X), want), name

    @pytest.mark.parametrize("name", sorted(SCALAR_ORACLES))
    def test_matches_the_per_series_formulas(self, name, row_cases):
        norm, oracle = get_normalizer(name), SCALAR_ORACLES[name]
        for case, X in row_cases.items():
            want = np.vstack([oracle(row) for row in X])
            assert _same_bits(norm.apply_dataset(X), want), case
            assert _same_bits(norm(X[0]), oracle(X[0])), case

    def test_minmax_range_matches_the_per_series_formula(self, row_cases):
        norm = make_minmax_range(0.1, 1.0)
        for case, X in row_cases.items():
            want = np.vstack([_scalar_minmax(row, 0.1, 1.0) for row in X])
            assert _same_bits(norm.apply_dataset(X), want), case

    def test_unit_length_is_one_last_axis_reduction(self, row_cases):
        norm = get_normalizer("unitlength")
        for case, X in row_cases.items():
            length = np.sqrt((X * X).sum(axis=1))[:, None]
            want = np.zeros_like(X)
            np.divide(X, length, out=want, where=length >= EPS)
            got = norm.apply_dataset(X)
            assert _same_bits(got, want), case
            # The same series BLAS would scale by np.linalg.norm.
            blas = np.vstack(
                [r / np.linalg.norm(r) if np.linalg.norm(r) >= EPS else 0 * r for r in X]
            )
            assert np.allclose(got, blas, rtol=1e-14, atol=0.0), case

    def test_apply_dataset_calls_its_core_once(self):
        import dataclasses

        calls = []

        def core(X):
            calls.append(X.shape)
            return ZSCORE.transform(X)

        X = np.random.default_rng(3).normal(size=(9, 12))
        counted = dataclasses.replace(ZSCORE, transform=core)
        assert _same_bits(counted.apply_dataset(X), ZSCORE.apply_dataset(X))
        assert calls == [(9, 12)]

    def test_dataset_path_returns_a_new_array(self):
        X = np.random.default_rng(4).normal(size=(3, 5))
        for norm in _all_normalizers():
            out = norm.apply_dataset(X)
            if not norm.is_pairwise:
                assert not np.shares_memory(out, X), norm.name


class TestAdaptiveFactors:
    def test_factor_is_one_last_axis_reduction(self, row_cases):
        for case, X in row_cases.items():
            x = X[0]
            for y in X:
                denom = (y * y).sum()
                want = 0.0 if denom < EPS else (x * y).sum() / denom
                assert adaptive_scaling_factor(x, y) == want, case

    def test_batched_pair_transform_equals_each_pair(self, row_cases):
        for case, X in row_cases.items():
            for x in X[:3]:
                kept, scaled = ADAPTIVE_SCALING.pair_transform(x, X)
                assert kept is x
                want = np.vstack(
                    [ADAPTIVE_SCALING.apply_pair(x, y)[1] for y in X]
                )
                assert _same_bits(scaled, want), case

    def test_zero_reference_row_scales_to_zero(self):
        X = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]])
        _, scaled = ADAPTIVE_SCALING.pair_transform(np.ones(3), X)
        assert np.array_equal(scaled[1], np.zeros(3))

    def test_unequal_lengths_name_both(self):
        x, y = np.ones(20), np.ones(25)
        with pytest.raises(ValidationError, match="20 and 25"):
            adaptive_scaling_factor(x, y)
        with pytest.raises(ValidationError, match="20 and 25"):
            get_normalizer("adaptive").apply_pair(x, y)
