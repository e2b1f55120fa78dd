"""Tests for the subsequence-search substrate (MASS, matrix profile)."""

import importlib

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft

from repro._validation import EPS
from repro.exceptions import ValidationError
from repro.search import (
    best_match,
    clamped_window_stats,
    mass,
    matrix_profile,
    nearest_neighbors,
    rolling_mean_std,
    sliding_dot_product,
    top_k_matches,
)
from repro.search.mass import profile_rows

#: The module, not the ``repro.search.mass`` function that shadows it.
mass_module = importlib.import_module("repro.search.mass")


def per_query_mass(query, series, stats=None):
    """MASS one 1-D query at a time, with fresh temporaries: the kernel
    the block ``mass`` must equal bitwise, row by row."""
    q, n = query.shape[0], series.shape[0]
    means, stds = rolling_mean_std(series, q) if stats is None else stats
    sigma_q, mu_q = float(query.std()), float(query.mean())
    if sigma_q < EPS:
        return np.where(stds < EPS, 0.0, np.sqrt(2.0 * q))
    nfft = next_fast_len(n + q - 1, real=True)
    qt = irfft(rfft(series, nfft) * rfft(query[::-1], nfft), nfft)[q - 1 : n]
    denom = q * stds * sigma_q
    corr = np.where(
        denom < EPS, 0.0, (qt - q * means * mu_q) / np.maximum(denom, EPS)
    )
    return np.sqrt(2.0 * q * (1.0 - np.clip(corr, -1.0, 1.0)))


def per_row_matrix_profile(series, window):
    """The matrix profile one ``mass`` call per subsequence."""
    n_sub = series.shape[0] - window + 1
    exclusion = max(1, window // 2)
    profile = np.full(n_sub, np.inf)
    indices = np.zeros(n_sub, dtype=np.intp)
    for i in range(n_sub):
        dist = per_query_mass(series[i : i + window], series)
        dist[max(0, i - exclusion) : min(n_sub, i + exclusion + 1)] = np.inf
        j = int(np.argmin(dist))
        profile[i], indices[i] = dist[j], j
    return profile, indices


def block_series():
    """Series the block kernels must answer bitwise like the per-row
    ones on: ties, flat windows (and so constant queries), exact
    duplicates, a large offset."""
    gen = np.random.default_rng(17)
    t = np.linspace(0, 30, 400)
    return {
        "wave": np.sin(t) + 0.05 * gen.normal(size=400),
        "lattice": gen.integers(-3, 4, size=300).astype(float),
        "flat_runs": np.concatenate(
            [
                np.zeros(40),
                np.sin(np.arange(50.0)),
                np.full(45, 3.0),
                np.zeros(30),
            ]
        ),
        "tiled": np.tile(gen.normal(size=23), 10),
        "offset": 1e6 + np.sin(t) + 0.01 * gen.normal(size=400),
    }


BLOCK_SERIES = block_series()


@pytest.fixture(scope="module")
def long_series(rng):
    """A noisy sine with a known planted pattern and one anomaly."""
    t = np.linspace(0, 12 * np.pi, 600)
    base = np.sin(t) + rng.normal(0, 0.05, size=600)
    pattern = np.concatenate([np.linspace(0, 3, 15), np.linspace(3, -1, 15)])
    series = base.copy()
    series[100:130] += pattern
    series[400:430] += pattern  # the repeated motif
    series[250:260] += 4.0  # the anomaly (discord)
    return series, pattern


class TestSlidingDotProduct:
    def test_matches_naive(self, rng):
        q = rng.normal(size=8)
        t = rng.normal(size=50)
        qt = sliding_dot_product(q, t)
        naive = np.array(
            [float(np.dot(q, t[i : i + 8])) for i in range(50 - 8 + 1)]
        )
        assert np.allclose(qt, naive, atol=1e-8)

    def test_query_longer_than_series_rejected(self):
        with pytest.raises(ValidationError):
            sliding_dot_product(np.ones(10), np.ones(5))


class TestRollingStats:
    def test_matches_naive(self, rng):
        t = rng.normal(size=40)
        mean, std = rolling_mean_std(t, 7)
        for i in range(40 - 7 + 1):
            window = t[i : i + 7]
            assert mean[i] == pytest.approx(window.mean())
            assert std[i] == pytest.approx(window.std(), abs=1e-9)

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            rolling_mean_std(np.ones(5), 0)
        with pytest.raises(ValidationError):
            rolling_mean_std(np.ones(5), 6)

    def test_large_offset_constant_ish_series_clamped(self):
        # Regression: a huge offset with a tiny spread makes
        # sum(x^2)/w - mean^2 cancel catastrophically; the raw
        # subtraction can land a few ulps below zero and sqrt would
        # return NaN without the clamp.
        series = 1e8 + 1e-6 * np.sin(np.linspace(0.0, 4.0, 64))
        mean, std = rolling_mean_std(series, 12)
        assert np.isfinite(std).all()
        assert (std >= 0.0).all()
        assert np.allclose(mean, 1e8)
        # Exactly constant at a huge offset: std must be exactly 0.
        _, std0 = rolling_mean_std(np.full(32, 1e8), 8)
        assert (std0 == 0.0).all()

    def test_clamped_window_stats_guard(self):
        # Totals crafted so sums2/w - mean^2 is a hair negative.
        mean, std = clamped_window_stats(
            np.array([4.0]), np.array([4.0 - 1e-12]), 4
        )
        assert std[0] == 0.0
        assert mean[0] == 1.0

    def test_streaming_state_shares_the_guard(self):
        # The incremental stats must agree bitwise with the batch path
        # on the same pathological input (shared clamp, shared sums).
        from repro.streaming import StreamState

        series = 1e8 + 1e-6 * np.sin(np.linspace(0.0, 4.0, 64))
        state = StreamState(window=12)
        state.append(series)
        mean, std = rolling_mean_std(series, 12)
        assert np.array_equal(state.window_means, mean)
        assert np.array_equal(state.window_stds, std)


class TestMassStatsReuse:
    def test_precomputed_stats_identical_result(self, rng):
        q = rng.normal(size=12)
        t = rng.normal(size=90)
        assert np.array_equal(
            mass(q, t), mass(q, t, stats=rolling_mean_std(t, 12))
        )

    def test_wrong_length_stats_rejected(self, rng):
        q = rng.normal(size=12)
        t = rng.normal(size=90)
        means, stds = rolling_mean_std(t, 11)  # 80 entries, need 79
        with pytest.raises(ValidationError):
            mass(q, t, stats=(means, stds))


class TestDeterministicTieBreaking:
    def test_best_match_lowest_offset_wins_on_exact_tie(self):
        # A constant query over a constant series ties every offset at
        # exactly 0.0; argmin first-occurrence must pick offset 0.
        idx, dist = best_match(np.full(4, 7.0), np.zeros(16))
        assert idx == 0
        assert dist == 0.0

    def test_top_k_lowest_offsets_under_exclusion_on_ties(self):
        # All-tied profile (constant query/series): each selection round
        # takes the lowest surviving offset; the default exclusion
        # radius (q//2 = 2) then blanks idx..idx+2 each side.
        hits = top_k_matches(np.full(4, 1.0), np.zeros(12), k=3)
        assert [idx for idx, _ in hits] == [0, 3, 6]
        assert all(dist == 0.0 for _, dist in hits)

    def test_repeated_runs_identical(self, long_series):
        series, pattern = long_series
        assert best_match(pattern, series) == best_match(pattern, series)
        assert top_k_matches(pattern, series, k=3) == top_k_matches(
            pattern, series, k=3
        )


class TestMASS:
    def test_profile_length(self, rng):
        q, t = rng.normal(size=10), rng.normal(size=100)
        assert mass(q, t).shape == (91,)

    def test_matches_naive_znormalized_ed(self, rng):
        from repro.normalization import zscore

        q = rng.normal(size=9)
        t = rng.normal(size=60)
        profile = mass(q, t)
        qz = zscore(q)
        for i in range(0, 52, 7):
            wz = zscore(t[i : i + 9])
            assert profile[i] == pytest.approx(
                float(np.linalg.norm(qz - wz)), abs=1e-6
            )

    def test_exact_occurrence_found(self, long_series):
        series, pattern = long_series
        idx, dist = best_match(pattern, series[80:160])
        # Pattern planted at offset 100 in the original (offset 20 here);
        # the sine background can shift the optimum by a sample.
        assert abs(idx - 20) <= 2
        assert dist < 1.5  # noise + sine background perturb it slightly

    def test_scale_invariance(self, rng):
        q = rng.normal(size=12)
        t = rng.normal(size=80)
        assert np.allclose(mass(q, t), mass(3.0 * q + 5.0, t), atol=1e-6)

    def test_profile_bounded(self, rng):
        q = rng.normal(size=12)
        t = rng.normal(size=80)
        profile = mass(q, t)
        assert (profile >= -1e-9).all()
        # d^2 = 2q(1 - corr) with corr in [-1, 1]: max is sqrt(4q)
        # (anti-correlated window), not sqrt(2q).
        assert (profile <= np.sqrt(4 * 12) + 1e-6).all()

    def test_constant_query_matches_constant_windows(self):
        t = np.concatenate([np.zeros(20), np.sin(np.linspace(0, 6, 30))])
        profile = mass(np.full(5, 2.0), t)
        assert profile[0] == 0.0
        assert profile[-1] > 0.0

    def test_flat_windows_max_distance_vs_shaped_query(self):
        t = np.concatenate([np.full(20, 3.0), np.sin(np.linspace(0, 6, 30))])
        profile = mass(np.sin(np.linspace(0, 3, 5)), t)
        assert profile[0] == pytest.approx(np.sqrt(10))


class TestMassBlocks:
    @pytest.mark.parametrize("window", [4, 16, 33])
    @pytest.mark.parametrize("name", sorted(BLOCK_SERIES))
    def test_rows_equal_the_one_query_call(self, name, window):
        series = BLOCK_SERIES[name]
        stats = rolling_mean_std(series, window)
        windows = np.lib.stride_tricks.sliding_window_view(series, window)
        rows = [windows[0], windows[-1], np.full(window, 2.5)]
        rows += list(windows[5 : 5 + 40 : 3])
        block = np.array(rows)
        for given in (None, stats):
            profiles = mass(block, series, stats=given)
            assert profiles.shape == (len(rows), series.shape[0] - window + 1)
            for query, profile in zip(block, profiles):
                one = mass(query, series, stats=given)
                assert profile.tobytes() == one.tobytes()
                assert one.tobytes() == per_query_mass(query, series).tobytes()
            # Row blocks of one and of three rows.
            for size in (1, 3):
                for start in range(0, len(rows), size):
                    rows_ = block[start : start + size]
                    part = mass(rows_, series, stats=given)
                    assert part.tobytes() == np.ascontiguousarray(
                        profiles[start : start + size]
                    ).tobytes()

    def test_one_by_q_is_a_block_of_one(self, rng):
        q, t = rng.normal(size=10), rng.normal(size=100)
        block = mass(q[None, :], t)
        assert block.shape == (1, 91)
        assert block[0].tobytes() == mass(q, t).tobytes()

    def test_q_by_one_is_q_queries(self, rng):
        q, t = rng.normal(size=10), rng.normal(size=100)
        block = mass(q[:, None], t)
        assert block.shape == (10, 100)
        for value, row in zip(q, block):
            assert row.tobytes() == mass(np.array([value]), t).tobytes()

    def test_block_validation(self, rng):
        t = rng.normal(size=50)
        with pytest.raises(ValidationError):
            mass(np.ones((2, 60)), t)  # longer than the series
        with pytest.raises(ValidationError):
            mass(np.array([[1.0, np.nan, 2.0]]), t)
        means, stds = rolling_mean_std(t, 7)
        with pytest.raises(ValidationError):
            mass(np.ones((2, 8)), t, stats=(means, stds))

    def test_sliding_dot_product_matches_per_query_fft(self, rng):
        q, t = rng.normal(size=13), rng.normal(size=211)
        nfft = next_fast_len(211 + 12, real=True)
        want = irfft(rfft(t, nfft) * rfft(q[::-1], nfft), nfft)[12:211]
        assert sliding_dot_product(q, t).tobytes() == want.tobytes()


class TestRowBlockedCallers:
    """``matrix_profile`` and the subsequence route run one ``mass``
    block per row block; every answer stays the per-row one, bitwise."""

    @pytest.mark.parametrize("window", [4, 16, 33])
    @pytest.mark.parametrize("name", sorted(BLOCK_SERIES))
    def test_matrix_profile_equals_per_row_loop(self, name, window):
        series = BLOCK_SERIES[name]
        mp = matrix_profile(series, window)
        profile, indices = per_row_matrix_profile(series, window)
        assert mp.profile.tobytes() == profile.tobytes()
        assert np.array_equal(mp.indices, indices)

    def test_matrix_profile_shortest_series_and_small_blocks(
        self, monkeypatch
    ):
        series = BLOCK_SERIES["wave"][:40]  # n = 2 * window
        profile, indices = per_row_matrix_profile(series, 20)
        for budget in (1 << 16, 1 << 6, 1 << 7):
            monkeypatch.setattr(mass_module, "PROFILE_BUDGET", budget)
            mp = matrix_profile(series, 20)
            assert mp.profile.tobytes() == profile.tobytes()
            assert np.array_equal(mp.indices, indices)

    def test_matrix_profile_calls_mass_once_per_row_block(self, monkeypatch):
        series = BLOCK_SERIES["wave"]
        calls = []
        real = mass_module.mass

        def counted(query, series, **kwargs):
            calls.append(np.shape(query))
            return real(query, series, **kwargs)

        monkeypatch.setattr(
            importlib.import_module("repro.search.matrix_profile"),
            "mass",
            counted,
        )
        matrix_profile(series, 25)
        n_sub = series.shape[0] - 25 + 1
        rows = profile_rows(series.shape[0], 25)
        assert len(calls) == -(-n_sub // rows)

    @pytest.mark.parametrize("name", sorted(BLOCK_SERIES))
    def test_subsequence_route_equals_per_query_top_k(self, name, monkeypatch):
        series = BLOCK_SERIES[name]
        window = 16
        windows = np.lib.stride_tricks.sliding_window_view(series, window)
        queries = np.vstack([windows[::9], np.full((1, window), 1.0)])
        for budget in (1 << 16, 1 << 12):
            monkeypatch.setattr(mass_module, "PROFILE_BUDGET", budget)
            for k, exclusion in ((1, None), (3, None), (40, window)):
                got = nearest_neighbors(
                    queries, series, domain="subsequence", k=k,
                    exclusion=exclusion,
                )
                want = [
                    top_k_matches(q, series, k=k, exclusion=exclusion)
                    for q in queries
                ]
                width = max(min(k, *(len(hits) for hits in want)), 1)
                indices = [[i for i, _ in hits[:width]] for hits in want]
                distances = [[d for _, d in hits[:width]] for hits in want]
                assert np.array_equal(got.indices, indices)
                assert got.distances.tobytes() == np.array(distances).tobytes()


class TestTopKMatches:
    def test_finds_both_planted_occurrences(self, long_series):
        series, pattern = long_series
        hits = top_k_matches(pattern, series, k=2)
        offsets = sorted(idx for idx, _ in hits)
        assert abs(offsets[0] - 100) <= 3
        assert abs(offsets[1] - 400) <= 3

    def test_non_overlapping(self, long_series):
        series, pattern = long_series
        hits = top_k_matches(pattern, series, k=3)
        offsets = sorted(idx for idx, _ in hits)
        for a, b in zip(offsets, offsets[1:]):
            assert b - a >= len(pattern) // 2


class TestMatrixProfile:
    def test_motif_finds_planted_repeat(self, long_series):
        # The two pattern copies sit 300 samples apart (an exact multiple
        # of the background sine's period, so neighboring offsets are
        # equally valid motif anchors).
        series, pattern = long_series
        mp = matrix_profile(series, window=30)
        a, b, dist = mp.motif()
        offsets = sorted((a, b))
        assert abs((offsets[1] - offsets[0]) - 300) <= 5
        assert abs(offsets[0] - 100) <= 15
        assert dist < 2.0

    def test_discord_finds_anomaly(self, long_series):
        series, _ = long_series
        mp = matrix_profile(series, window=30)
        (idx, _), = mp.discords(1)
        assert 220 <= idx <= 280  # the +4 bump planted at 250..260

    def test_profile_shape(self):
        t = np.sin(np.linspace(0, 8 * np.pi, 120))
        mp = matrix_profile(t, window=20)
        assert mp.profile.shape == (101,)
        assert mp.indices.shape == (101,)

    def test_periodic_signal_all_low(self):
        t = np.sin(np.linspace(0, 16 * np.pi, 300))
        mp = matrix_profile(t, window=30)
        assert float(np.median(mp.profile)) < 0.5

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            matrix_profile(np.ones(20), window=15)
