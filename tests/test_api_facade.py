"""Tests for the unified public API facade.

The package-level entry points (``distance``, ``pairwise_distances``,
``dissimilarity_matrix``) must accept ``normalization=`` uniformly and
agree with each other; ``describe_measure`` exposes registry metadata as
plain dicts.
"""

import numpy as np
import pytest

import repro


@pytest.fixture(scope="module")
def X():
    gen = np.random.default_rng(77)
    return gen.normal(size=(6, 32))


@pytest.fixture(scope="module")
def Y():
    gen = np.random.default_rng(78)
    return gen.normal(size=(4, 32))


class TestDistanceNormalization:
    def test_matches_manual_normalization(self, X):
        from repro.normalization import normalize

        expected = repro.distance(
            normalize(X[0], "zscore"), normalize(X[1], "zscore"), "euclidean"
        )
        got = repro.distance(X[0], X[1], "euclidean", normalization="zscore")
        assert got == pytest.approx(expected)

    def test_pairwise_normalizer_applies_jointly(self, X):
        # AdaptiveScaling depends on both series: routing through the
        # facade must use the pair path, not per-series normalization.
        got = repro.distance(X[0], X[1], "euclidean", normalization="adaptive")
        assert got != pytest.approx(repro.distance(X[0], X[1], "euclidean"))

    def test_none_is_identity(self, X):
        assert repro.distance(X[0], X[1]) == pytest.approx(
            repro.distance(X[0], X[1], normalization=None)
        )

    def test_unknown_normalization_raises(self, X):
        from repro.exceptions import UnknownNormalizationError

        with pytest.raises(UnknownNormalizationError):
            repro.distance(X[0], X[1], "euclidean", normalization="nope")


class TestPairwiseDistancesNormalization:
    def test_agrees_with_dissimilarity_matrix(self, X, Y):
        for norm in (None, "zscore", "minmax", "adaptive"):
            want = repro.dissimilarity_matrix("lorentzian", X, Y, norm)
            got = repro.pairwise_distances(
                X, Y, "lorentzian", normalization=norm
            )
            np.testing.assert_allclose(got, want)

    def test_self_matrix_with_normalization(self, X):
        D = repro.pairwise_distances(X, measure="msm", normalization="zscore")
        assert D.shape == (len(X), len(X))
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-12)

    def test_old_positional_signature_still_works(self, X, Y):
        # pre-1.1 call shape: (X, Y, measure, **params)
        D = repro.pairwise_distances(X, Y, "dtw", delta=5.0)
        assert D.shape == (len(X), len(Y))

    def test_agreement_with_measure_pairwise(self, X, Y):
        np.testing.assert_allclose(
            repro.pairwise_distances(X, Y, "euclidean"),
            repro.get_measure("euclidean").pairwise(X, Y),
        )


class TestDescribeMeasure:
    def test_metadata_fields(self):
        info = repro.describe_measure("msm")
        assert info["name"] == "msm"
        assert info["category"] == "elastic"
        assert info["complexity"] == "O(m^2)"
        assert isinstance(info["aliases"], list)
        (param,) = [p for p in info["params"] if p["name"] == "c"]
        assert param["grid"]  # Table 4 grid is populated

    def test_parameter_free_measure(self):
        info = repro.describe_measure("euclidean")
        assert info["params"] == []
        assert info["symmetric"] is True

    def test_resolves_aliases(self):
        assert repro.describe_measure("sbd") == repro.describe_measure("nccc")

    def test_json_serializable(self):
        import json

        for name in ("euclidean", "dtw", "kdtw", "sbd"):
            json.dumps(repro.describe_measure(name))

    def test_unknown_measure_raises(self):
        from repro.exceptions import UnknownMeasureError

        with pytest.raises(UnknownMeasureError):
            repro.describe_measure("definitely-not-a-measure")


class TestObservabilityReexports:
    def test_entry_points_exported(self):
        assert callable(repro.trace_to)
        assert callable(repro.get_recorder)
        assert callable(repro.get_bus)
        for name in ("trace_to", "get_recorder", "get_bus", "EventBus",
                     "Recorder", "JsonlSink", "ProgressSink"):
            assert name in repro.__all__

    def test_describe_measure_exported(self):
        assert "describe_measure" in repro.__all__

