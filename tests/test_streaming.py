"""Tests for the streaming subsystem (repro.streaming + /stream routes).

The load-bearing contract is **replay parity**: replaying any prefix of
any series through the incremental path must reproduce the batch
answer — window statistics bitwise, matrix profile within 1e-9 —
regardless of how the points were chunked. Everything else (detectors,
server endpoints, CLI) builds on that invariant.
"""

from __future__ import annotations

import importlib
import json
import math
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import default_archive
from repro.exceptions import StreamingError, ValidationError
import repro.streaming.profile as profile_module
from repro.search import mass, matrix_profile, rolling_mean_std
from repro.search.mass import profile_rows
from repro.serving import (
    ModelArtifact,
    QueryEngine,
    ReproServer,
    StreamRegistry,
)
from repro.streaming import (
    Alert,
    DiscordDetector,
    DriftDetector,
    Hysteresis,
    LabelMonitor,
    MotifDetector,
    NO_NEIGHBOR,
    StreamClient,
    StreamingMatrixProfile,
    StreamMonitor,
    StreamState,
    build_monitor,
    inject_discord,
    replay_local,
    replay_remote,
    verify_against_batch,
)

PARITY_ATOL = 1e-9


def profile_diff(a, b):
    """Max elementwise gap, treating matching ``inf`` entries as equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf, zeroed below
        diff = np.abs(a - b)
    diff[np.isinf(a) & np.isinf(b)] = 0.0
    return float(np.max(diff)) if diff.size else 0.0


def chunked(series, sizes):
    """Split *series* into chunks cycling through *sizes*."""
    out, start, i = [], 0, 0
    while start < len(series):
        size = sizes[i % len(sizes)]
        out.append(series[start : start + size])
        start += size
        i += 1
    return out


class PerRowProfile:
    """The streaming fold one subsequence at a time: one 1-D ``mass``
    call per new subsequence, folded row by row. The block fold of
    :class:`StreamingMatrixProfile` must equal it bitwise."""

    def __init__(self, window):
        self.state = StreamState(window)
        self.exclusion = max(1, window // 2)
        self.profile = np.zeros(0)
        self.indices = np.zeros(0, dtype=np.intp)

    def append(self, values):
        self.state.append(values)
        n_sub = self.state.n_windows
        new = n_sub - self.profile.shape[0]
        self.profile = np.concatenate([self.profile, np.full(new, np.inf)])
        self.indices = np.concatenate(
            [self.indices, np.full(new, NO_NEIGHBOR, dtype=np.intp)]
        )
        series = self.state.values
        stats = (self.state.window_means, self.state.window_stds)
        w, e = self.state.window, self.exclusion
        for j in range(n_sub - new, n_sub):
            row = mass(series[j : j + w], series, stats=stats)
            row[max(0, j - e) : min(n_sub, j + e + 1)] = np.inf
            best = int(np.argmin(row))
            if row[best] < self.profile[j]:
                self.profile[j] = row[best]
                self.indices[j] = best
            better = row < self.profile
            self.profile[better] = row[better]
            self.indices[better] = j


def assert_fold_matches_per_row(series, window, sizes):
    """Replay *series* in chunks cycling through *sizes* through both
    folds; profiles and neighbor indices must agree bitwise."""
    streamed, reference = StreamingMatrixProfile(window), PerRowProfile(window)
    for block in chunked(series, sizes):
        streamed.append(block)
        reference.append(block)
    assert streamed.profile.tobytes() == reference.profile.tobytes()
    assert np.array_equal(streamed.indices, reference.indices)


def fold_series():
    """Series on which the block fold must reproduce the per-row fold:
    ties, flat windows, a constant query, exact duplicates, a large
    offset."""
    gen = np.random.default_rng(31)
    t = np.linspace(0, 40, 900)
    flat = np.concatenate(
        [
            np.zeros(60),
            np.sin(np.arange(80.0)),
            np.full(70, 3.0),
            gen.normal(size=90),
            np.zeros(50),
        ]
    )
    return {
        "wave": np.sin(t) + 0.05 * gen.normal(size=900),
        "lattice": gen.integers(-3, 4, size=500).astype(float),
        "flat_runs": flat,
        "tiled": np.tile(gen.normal(size=37), 12),
        "offset": 1e6 + np.sin(t[:700]) + 0.01 * gen.normal(size=700),
    }


FOLD_SERIES = fold_series()

#: Chunkings: point by point, the server's 64-point appends, a mix, and
#: one whole append (``None``).
FOLD_CHUNKINGS = ([1], [64], [1, 7, 128, 3], None)


@pytest.fixture(scope="module")
def wave(rng):
    t = np.linspace(0, 40, 900)
    return np.sin(t) + 0.05 * rng.normal(size=900)


# ---------------------------------------------------------------------------
# StreamState
# ---------------------------------------------------------------------------
class TestStreamState:
    def test_window_stats_bitwise_equal_batch(self, rng):
        series = rng.normal(2.0, 3.0, size=257)
        state = StreamState(window=16)
        for block in chunked(series, [1, 7, 64, 3]):
            state.append(block)
        means, stds = rolling_mean_std(series, 16)
        # Bitwise, not approx: both paths accumulate the identical
        # cumulative sums and share the same clamped variance guard.
        assert np.array_equal(state.window_means, means)
        assert np.array_equal(state.window_stds, stds)

    def test_large_offset_constant_series_stats_finite(self):
        # The catastrophic-cancellation regression case: huge offset,
        # tiny spread. Both paths must clamp, never NaN.
        series = 1e8 + 1e-6 * np.sin(np.linspace(0, 5, 120))
        state = StreamState(window=10)
        state.append(series)
        assert np.isfinite(state.window_stds).all()
        assert np.array_equal(
            state.window_stds, rolling_mean_std(series, 10)[1]
        )

    def test_welford_matches_numpy(self, rng):
        series = rng.normal(-5.0, 0.5, size=400)
        state = StreamState(window=8)
        state.append(series)
        assert state.mean == pytest.approx(series.mean(), rel=1e-12)
        assert state.std == pytest.approx(series.std(), rel=1e-10)

    def test_capacity_drops_counted_indices_stable(self):
        state = StreamState(window=4, capacity=10)
        assert state.append(np.arange(8.0)) == 8
        assert state.append(np.arange(8.0)) == 2  # only 2 slots left
        assert state.n == 10
        assert state.dropped == 6
        assert state.append([1.0]) == 0
        assert state.dropped == 7
        # The buffered prefix is untouched by the drops.
        assert np.array_equal(state.values[:8], np.arange(8.0))

    def test_validation(self):
        with pytest.raises(StreamingError):
            StreamState(window=1)
        with pytest.raises(StreamingError):
            StreamState(window=8, capacity=10)
        state = StreamState(window=4)
        with pytest.raises(ValidationError):
            state.append([1.0, np.nan])
        with pytest.raises(StreamingError):
            state.latest_window(1)  # empty stream


# ---------------------------------------------------------------------------
# StreamingMatrixProfile: replay parity
# ---------------------------------------------------------------------------
class TestStreamingProfileParity:
    def test_prefix_parity_point_by_point(self, wave):
        series = wave[:300]
        window = 25
        smp = StreamingMatrixProfile(window)
        for i, v in enumerate(series):
            smp.append([v])
            n = i + 1
            if n >= 2 * window and n % 37 == 0:
                batch = matrix_profile(series[:n], window=window)
                assert profile_diff(batch.profile, smp.profile) <= PARITY_ATOL

    def test_chunked_replay_parity_and_chunk_invariance(self, wave):
        window = 40
        profiles = []
        for sizes in ([1], [64], [1, 7, 128, 3]):
            smp = StreamingMatrixProfile(window)
            for block in chunked(wave, sizes):
                smp.append(block)
            profiles.append(smp.profile)
        batch = matrix_profile(wave, window=window)
        for streamed in profiles:
            assert profile_diff(batch.profile, streamed) <= PARITY_ATOL
        # Chunkings agree with each other within the same gate (each
        # chunk size folds rows against a different-length prefix, so
        # bitwise equality across chunkings is not expected)...
        assert profile_diff(profiles[0], profiles[1]) <= PARITY_ATOL
        assert profile_diff(profiles[0], profiles[2]) <= PARITY_ATOL
        # ...but replaying the *same* chunking twice is bitwise identical.
        rerun = StreamingMatrixProfile(window)
        for block in chunked(wave, [1, 7, 128, 3]):
            rerun.append(block)
        assert np.array_equal(profiles[2], rerun.profile)

    def test_neighbor_indices_agree_with_batch_where_unambiguous(self, wave):
        window = 40
        smp = StreamingMatrixProfile(window)
        smp.append(wave)
        batch = matrix_profile(wave, window=window)
        disagree = smp.indices != batch.indices
        if disagree.any():
            # Indices may differ only between (near-)equidistant
            # neighbors — distances there agree within tolerance.
            assert profile_diff(
                batch.profile[disagree], smp.profile[disagree]
            ) <= PARITY_ATOL

    def test_window_sized_stream_all_inf(self):
        smp = StreamingMatrixProfile(6)
        smp.append(np.sin(np.arange(6.0)))
        assert smp.n_subsequences == 1
        assert np.isinf(smp.profile).all()
        assert (smp.indices == NO_NEIGHBOR).all()

    def test_exclusion_zone_edge_at_stream_start(self):
        # 2 subsequences, |i - j| = 1 <= exclusion: nothing comparable,
        # the batch path would reject this length outright.
        window = 8
        smp = StreamingMatrixProfile(window)
        smp.append(np.sin(np.arange(window + 1.0)))
        assert smp.n_subsequences == 2
        assert np.isinf(smp.profile).all()
        j, value = smp.latest()
        assert j == 1 and np.isinf(value)

    def test_shortest_batch_accepted_stream_parity(self):
        # n == 2 * window, the batch validator's floor.
        rng = np.random.default_rng(5)
        window = 10
        series = rng.normal(size=2 * window)
        smp = StreamingMatrixProfile(window)
        for v in series:
            smp.append([v])
        batch = matrix_profile(series, window=window)
        assert profile_diff(batch.profile, smp.profile) <= PARITY_ATOL

    def test_snapshot_ships_none_where_no_candidate(self, wave):
        smp = StreamingMatrixProfile(8)
        smp.append(wave[:13])  # 6 subsequences: the middle ones are inf
        snapshot = smp.to_dict()
        profile = smp.profile
        assert np.isinf(profile).any() and np.isfinite(profile).any()
        assert snapshot["profile"] == [
            None if not np.isfinite(v) else float(v) for v in profile
        ]
        assert all(
            type(v) is float for v in snapshot["profile"] if v is not None
        )
        json.dumps(snapshot, allow_nan=False)

    def test_as_matrix_profile_discord_helpers(self, wave):
        series, at = inject_discord(wave, scale=8.0)
        smp = StreamingMatrixProfile(40)
        smp.append(series)
        snapshot = smp.as_matrix_profile()
        discord, _ = snapshot.discords(k=1)[0]
        assert at - 40 <= discord <= at + len(series) // 20

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_hypothesis_replay_parity(self, data):
        window = data.draw(st.integers(2, 8), label="window")
        n = data.draw(st.integers(2 * window, 80), label="n")
        # Integer lattice, bounded magnitude: every window's std is
        # either exactly 0 (the FFT-free flat-window convention, shared
        # by both paths) or >= ~1/window, so z-normalization cannot
        # amplify FFT noise unboundedly. Free-form floats can plant a
        # 1e-5 spread next to a +/-100 value, where BOTH paths' MASS
        # answers drift past 1e-9 of the true distance (a conditioning
        # property of the algorithm, not of the incremental replay this
        # test gates) — while exact ties, duplicates, and flat windows
        # stay heavily exercised.
        series = np.array(
            data.draw(
                st.lists(
                    st.integers(-100, 100), min_size=n, max_size=n
                ),
                label="series",
            ),
            dtype=float,
        )
        chunk = data.draw(st.integers(1, n), label="chunk")
        smp = StreamingMatrixProfile(window)
        reference = PerRowProfile(window)
        for start in range(0, n, chunk):
            smp.append(series[start : start + chunk])
            reference.append(series[start : start + chunk])
        # The block fold is the per-row fold, bitwise, ties included.
        assert smp.profile.tobytes() == reference.profile.tobytes()
        assert np.array_equal(smp.indices, reference.indices)
        batch = matrix_profile(series, window=window)
        assert smp.profile.shape == batch.profile.shape
        # Hypothesis happily constructs EXACT z-normalized duplicates
        # (d = 0), where sqrt(2q(1 - corr)) has infinite slope: one ulp
        # of correlation difference between the two FFT directions
        # amplifies to ~1e-8 in distance. Squared-distance space has no
        # such cliff — parity there is the invariant that holds for
        # arbitrary inputs; distance-space 1e-9 holds away from d ~ 0
        # (and for real series end to end, as the non-adversarial tests
        # and the CLI/CI --verify gate check directly).
        assert (
            profile_diff(batch.profile**2, smp.profile**2) <= PARITY_ATOL
        )
        away = np.isfinite(batch.profile) & (batch.profile > 1e-3)
        assert (
            profile_diff(batch.profile[away], smp.profile[away])
            <= PARITY_ATOL
        )


# ---------------------------------------------------------------------------
# StreamingMatrixProfile: the block fold is the per-row fold, bitwise
# ---------------------------------------------------------------------------
class TestBlockFoldEqualsPerRowFold:
    @pytest.mark.parametrize("sizes", FOLD_CHUNKINGS, ids=str)
    @pytest.mark.parametrize("window", [4, 25, 40])
    @pytest.mark.parametrize("name", sorted(FOLD_SERIES))
    def test_every_chunking(self, name, window, sizes):
        series = FOLD_SERIES[name]
        assert_fold_matches_per_row(series, window, sizes or [len(series)])

    @pytest.mark.parametrize("window", [2, 6, 10])
    def test_short_streams(self, window):
        rng = np.random.default_rng(window)
        for n in (window, window + 1, 2 * window, 2 * window + 3):
            series = rng.normal(size=n)
            for sizes in ([1], [2], [n]):
                assert_fold_matches_per_row(series, window, sizes)

    def test_one_append_spans_many_row_blocks(self, monkeypatch):
        mass_module = importlib.import_module("repro.search.mass")
        series = FOLD_SERIES["wave"]
        window = 25
        # 2^10 values per block: one row per block over 900 points.
        monkeypatch.setattr(mass_module, "PROFILE_BUDGET", 1 << 10)
        assert profile_rows(series.shape[0], window) == 1
        assert_fold_matches_per_row(series, window, [len(series)])
        monkeypatch.setattr(mass_module, "PROFILE_BUDGET", 1 << 12)
        assert 1 < profile_rows(series.shape[0], window) < 8
        for sizes in ([len(series)], [1, 7, 128, 3]):
            assert_fold_matches_per_row(series, window, sizes)


class TestStreamingFoldStaysBlocked:
    """A fallback to one MASS call per new subsequence keeps every
    answer and only costs time; these count the calls and bound the
    memory of one 64-point append over 8192 points instead."""

    WINDOW = 64

    @classmethod
    def profile_with_history(cls, n):
        # The fold's cost does not depend on the profile's values, so the
        # history's entries are left at inf instead of computed.
        series = np.sin(np.linspace(0, 400, n)) + 0.1 * np.random.default_rng(
            3
        ).normal(size=n)
        smp = StreamingMatrixProfile(cls.WINDOW)
        smp.state.append(series[: n - 64])
        n_sub = smp.state.n_windows
        smp._profile = np.full(n_sub, np.inf)
        smp._indices = np.full(n_sub, NO_NEIGHBOR, dtype=np.intp)
        smp._n_sub = n_sub
        return smp, series[n - 64 :]

    def test_mass_calls_per_append(self, monkeypatch):
        smp, chunk = self.profile_with_history(8192)
        calls = []

        def counted(query, series, **kwargs):
            calls.append(np.shape(query))
            return mass(query, series, **kwargs)

        monkeypatch.setattr(profile_module, "mass", counted)
        smp.append(chunk)
        rows = profile_rows(8192, self.WINDOW)
        assert 1 < rows < 64
        assert len(calls) == math.ceil(64 / rows)
        assert all(shape[0] <= rows for shape in calls)

    def test_append_memory_bound(self):
        smp, chunk = self.profile_with_history(8192)
        smp.append(chunk[:1])  # warm FFT plans and buffers
        tracemalloc.start()
        try:
            smp.append(chunk[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One row block (a few cache-sized buffers) at a time; a whole
        # append's distance block alone is 63 x 8129 x 8 B = 3.9 MiB.
        assert peak < 3 * 2**20


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------
class TestDetectors:
    def test_hysteresis_single_fire_until_release(self):
        trig = Hysteresis(trigger=5.0, release=3.0)
        fired = [trig.update(v) for v in [1, 6, 7, 6, 2, 8, 4, 9]]
        # Fires at the first crossing, re-arms only below 3, fires again.
        assert fired == [False, True, False, False, False, True, False, False]

    def test_hysteresis_low_side(self):
        trig = Hysteresis(trigger=1.0, release=2.0, direction=-1)
        fired = [trig.update(v) for v in [5, 0.5, 0.4, 3.0, 0.9]]
        assert fired == [False, True, False, False, True]

    def test_hysteresis_validation(self):
        with pytest.raises(StreamingError):
            Hysteresis(1.0, 2.0, direction=1)
        with pytest.raises(StreamingError):
            Hysteresis(2.0, 1.0, direction=-1)
        with pytest.raises(StreamingError):
            Hysteresis(1.0, 1.0, direction=0)

    def test_discord_fires_near_injected_anomaly(self, wave):
        series, at = inject_discord(wave, scale=8.0)
        monitor = build_monitor(window=40, discord_threshold=0.8)
        alerts = []
        replay_local(series, monitor, chunk=32, on_alert=alerts.append)
        discords = [a for a in alerts if a.kind == "discord"]
        assert discords, "injected discord did not fire"
        burst = range(at - 40, at + len(series) // 20 + 1)
        assert any(a.at in burst for a in discords)

    def test_alerts_replay_deterministic(self, wave):
        series, _ = inject_discord(wave, scale=8.0)

        def run(chunk):
            monitor = build_monitor(
                window=40, discord_threshold=0.8, drift_z=5.0
            )
            fired = []
            replay_local(series, monitor, chunk=chunk, on_alert=fired.append)
            return [(a.kind, a.at, a.value) for a in fired]

        # Same points, same chunking -> bit-identical alert sequence.
        assert run(17) == run(17)
        assert run(256) == run(256)

    def test_motif_detector_reports_neighbor(self):
        pattern = np.sin(np.linspace(0, 2 * np.pi, 32))
        rng = np.random.default_rng(9)
        series = np.concatenate(
            [pattern, rng.normal(0, 0.4, 200), pattern]
        )
        monitor = StreamMonitor(
            16, detectors=[MotifDetector(threshold=0.5)]
        )
        alerts = monitor.append(series)
        motifs = [a for a in alerts if a.kind == "motif"]
        assert motifs
        assert any(a.detail["neighbor"] < 32 for a in motifs)

    def test_drift_detector_fires_after_level_shift(self):
        rng = np.random.default_rng(11)
        calm = rng.normal(0, 1, 400)
        shifted = rng.normal(25, 1, 200)
        monitor = StreamMonitor(
            20,
            detectors=[DriftDetector(z_threshold=5.0, baseline_points=300)],
        )
        assert not monitor.append(calm)
        alerts = monitor.append(shifted)
        drift = [a for a in alerts if a.kind == "drift"]
        assert len(drift) == 1  # hysteresis: one alert for one excursion
        detector = monitor.detectors[0]
        # One window ends at each point past the baseline; 197 of those
        # windows score at or above the trigger.
        assert detector.drifted_points == 197
        # The baseline froze over exactly the first baseline_points
        # points, although the first append carried 400.
        assert detector.baseline_mean == pytest.approx(calm[:300].mean())
        assert detector.baseline_std == pytest.approx(calm[:300].std())

    def test_drift_detector_does_not_depend_on_chunking(self):
        rng = np.random.default_rng(11)
        series = np.concatenate(
            [
                rng.normal(0, 1, 400),
                rng.normal(6, 1, 200),
                rng.normal(0, 1, 200),
                rng.normal(-6, 1, 100),
            ]
        )

        def run(chunk):
            detector = DriftDetector(z_threshold=5.0, baseline_points=300)
            monitor = StreamMonitor(20, detectors=[detector])
            alerts = []
            for start in range(0, series.shape[0], chunk):
                alerts.extend(monitor.append(series[start : start + chunk]))
            return (
                [a.to_dict() for a in alerts],
                detector.drifted_points,
                detector.baseline_mean,
            )

        runs = [run(chunk) for chunk in (1, 8, 64, series.shape[0])]
        assert all(r == runs[0] for r in runs[1:])
        alerts, drifted, _ = runs[0]
        # Two excursions, two alerts (the calm stretch between re-arms
        # the trigger), each at the last point of its first window past
        # the trigger.
        assert [a["at"] for a in alerts] == [414, 814]
        assert drifted == 276

    def test_label_monitor_alerts_on_shift(self):
        dataset = default_archive(n_datasets=4, size_scale=0.4, seed=3).subset(
            1
        )[0]
        artifact = ModelArtifact.fit_dataset(
            dataset, measure="euclidean", normalization="zscore"
        )
        engine = QueryEngine(artifact)
        labels = artifact.train_y
        a = dataset.train_X[labels == labels.min()][0]
        b = dataset.train_X[labels == labels.max()][0]
        # Three repeats of class A then three of class B.
        stream = np.concatenate([a, a, a, b, b, b])
        monitor = StreamMonitor(
            8, detectors=[LabelMonitor(engine)]
        )
        alerts = monitor.append(stream)
        shifts = [a for a in alerts if a.kind == "label_shift"]
        assert len(shifts) == 1
        assert shifts[0].value == float(labels.max())
        assert shifts[0].detail["previous"] == float(labels.min())
        assert monitor.detectors[0].checks == 6

    def test_monitor_counters_and_alert_cap(self, wave):
        monitor = build_monitor(window=40, discord_threshold=0.8)
        replay_local(wave, monitor)
        counters = monitor.counters()
        assert counters["n"] == wave.shape[0]
        assert counters["subsequences"] == wave.shape[0] - 40 + 1
        assert counters["alerts"] == sum(counters["alerts_by_kind"].values())

    def test_verify_against_batch(self, wave):
        monitor = build_monitor(window=30)
        short = StreamMonitor(30)
        short.append(wave[:40])
        assert verify_against_batch(short)["checked"] is False
        monitor.append(wave)
        report = verify_against_batch(monitor)
        assert report["checked"] and report["ok"]
        assert report["max_abs_diff"] <= PARITY_ATOL


# ---------------------------------------------------------------------------
# Server /stream endpoints
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_dataset():
    return default_archive(n_datasets=4, size_scale=0.4, seed=3).subset(1)[0]


@pytest.fixture(scope="module")
def stream_artifact(stream_dataset):
    return ModelArtifact.fit_dataset(
        stream_dataset, measure="euclidean", normalization="zscore"
    )


@pytest.fixture()
def stream_server(stream_artifact):
    server = ReproServer(
        QueryEngine(stream_artifact), port=0, max_streams=2
    )
    server.start_background()
    yield server
    if server._thread is not None:
        server.shutdown()


def http(url, payload=None, method=None):
    """Request helper returning ``(status, decoded_json)``, never raising."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestStreamEndpoints:
    def test_append_profile_alerts_delete_lifecycle(self, stream_server, wave):
        url = stream_server.url
        series, at = inject_discord(wave, scale=8.0)
        status, body = http(
            url + "/stream/s1",
            {
                "values": series[:500].tolist(),
                "window": 40,
                "discord_threshold": 0.8,
            },
        )
        assert status == 200 and body["created"] is True
        assert body["accepted"] == 500 and body["dropped"] == 0
        status, body = http(
            url + "/stream/s1", {"values": series[500:].tolist()}
        )
        assert status == 200 and body["created"] is False
        assert body["n"] == series.shape[0]

        status, prof = http(url + "/stream/s1/profile")
        assert status == 200
        streamed = np.array(
            [np.inf if v is None else v for v in prof["profile"]]
        )
        batch = matrix_profile(series, window=40)
        assert profile_diff(batch.profile, streamed) <= PARITY_ATOL

        status, alerts = http(url + "/stream/s1/alerts")
        assert status == 200
        assert any(a["kind"] == "discord" for a in alerts["alerts"])
        assert alerts["counters"]["n"] == series.shape[0]

        status, listing = http(url + "/stream")
        assert status == 200 and listing["active"] == 1
        assert listing["streams"][0]["stream"] == "s1"

        status, body = http(url + "/stream/s1", method="DELETE")
        assert status == 200 and body["deleted"] is True
        status, _ = http(url + "/stream/s1/profile")
        assert status == 404

    def test_window_conflict_409(self, stream_server):
        url = stream_server.url
        status, _ = http(
            url + "/stream/w", {"values": [1.0, 2.0], "window": 16}
        )
        assert status == 200
        status, body = http(
            url + "/stream/w", {"values": [3.0], "window": 32}
        )
        assert status == 409 and "already exists" in body["error"]
        # Same window (or none) is accepted.
        status, _ = http(url + "/stream/w", {"values": [3.0], "window": 16})
        assert status == 200

    def test_registry_limit_409_and_counters(self, stream_server):
        url = stream_server.url
        for name in ("a", "b"):
            status, _ = http(url + f"/stream/{name}", {"values": [1.0]})
            assert status == 200
        status, body = http(url + "/stream/c", {"values": [1.0]})
        assert status == 409 and "limit" in body["error"]
        status, health = http(url + "/healthz")
        assert health["streams"]["active"] == 2
        assert health["streams"]["rejected"] == 1

    def test_bad_requests(self, stream_server):
        url = stream_server.url
        for name, payload in [
            ("bad1", {"points": [1.0]}),  # missing 'values'
            ("bad2", {"values": ["x"]}),  # non-numeric
            ("bad3", {"values": [np.nan]}),  # non-finite (json allows NaN)
            ("bad4", {"values": [1.0], "window": 1}),  # bad window
        ]:
            status, body = http(url + f"/stream/{name}", payload)
            assert status == 400, body
        status, _ = http(url + "/stream/no%20good", {"values": [1.0]})
        assert status == 400  # invalid id
        status, _ = http(url + "/stream/none/profile")
        assert status == 404
        status, _ = http(url + "/stream/none", method="DELETE")
        assert status == 404

    def test_metrics_carry_stream_counters_and_gauges(self, stream_server):
        url = stream_server.url
        status, _ = http(
            url + "/stream/m", {"values": list(np.sin(np.arange(200.0)))}
        )
        assert status == 200
        status, metrics = http(url + "/metrics")
        # Bus counters are process-global (other tests feed streams too):
        # assert presence and a sane floor, not exact totals.
        assert metrics["counters"]["serve.stream.points"] >= 200
        assert metrics["counters"]["serve.stream.create"] >= 1
        assert metrics["streams"]["active"] == 1
        assert metrics["streams"]["points"] == 200
        req = urllib.request.Request(
            url + "/metrics?format=prometheus"
        )
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            text = resp.read().decode()
        assert "repro_serve_stream_points_total" in text
        assert "repro_serve_streams_active 1.0" in text
        assert "repro_serve_streams_points 200.0" in text
        assert "repro_serve_stream_max_lag_seconds" in text

    def test_remote_replay_client_parity(self, stream_server, wave):
        series, _ = inject_discord(wave[:600], scale=8.0)
        client = StreamClient(
            stream_server.url,
            "remote",
            config={"window": 30, "discord_threshold": 0.8},
        )
        seen = []
        summary = replay_remote(
            series, client, chunk=100, on_alert=seen.append
        )
        assert all(isinstance(a, Alert) for a in seen)
        assert summary["counters"]["n"] == series.shape[0]
        payload = client.profile()
        streamed = np.array(
            [np.inf if v is None else v for v in payload["profile"]]
        )
        batch = matrix_profile(series, window=30)
        assert profile_diff(batch.profile, streamed) <= PARITY_ATOL
        client.delete()

    def test_stream_id_validation_registry(self):
        registry = StreamRegistry(max_streams=1)
        with pytest.raises(StreamingError):
            registry.get_or_create("../escape")
        with pytest.raises(StreamingError):
            StreamRegistry(max_streams=0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestStreamCli:
    def test_replay_local_verify(self, capsys):
        from repro.cli import main

        code = main(
            [
                "stream",
                "replay",
                "--points",
                "700",
                "--window",
                "40",
                "--inject-discord",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verify:" in out and "ok" in out
        assert "ALERT discord" in out

    def test_replay_remote_verify(self, stream_server, capsys):
        from repro.cli import main

        code = main(
            [
                "stream",
                "replay",
                "--url",
                stream_server.url,
                "--stream-id",
                "cli",
                "--points",
                "600",
                "--window",
                "30",
                "--inject-discord",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verify:" in out and "ok" in out

    def test_replay_series_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "series.npy"
        np.save(path, np.sin(np.linspace(0, 30, 400)))
        code = main(
            [
                "stream",
                "replay",
                "--series",
                str(path),
                "--window",
                "25",
                "--verify",
            ]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_too_short_rejected(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "short.npy"
        np.save(path, np.arange(10.0))
        code = main(
            ["stream", "replay", "--series", str(path), "--window", "40"]
        )
        assert code == 2
        assert "shorter" in capsys.readouterr().err
