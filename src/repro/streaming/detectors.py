"""Windowed detectors over a live stream: discords, motifs, drift, labels.

Detectors are small stateful observers the :class:`~repro.streaming
.monitor.StreamMonitor` calls after every append. Each returns zero or
more :class:`Alert` records; the monitor accumulates them, counts them
on the event bus, and the server/CLI surface them live.

Alert semantics are **replay-deterministic**: every detector's decision
is a pure function of the appended prefix (the profile's lowest-index
tie-breaking and the state's incremental statistics are deterministic),
so replaying the same points with the same chunking always fires the
bit-identical alert sequence — the property the CI smoke and the parity
tests rely on. Different chunkings may observe a profile entry earlier
or later (the entry only decreases as data arrives), so alert *values*
near a threshold can differ across chunk sizes.

Threshold detectors use **hysteresis** (a Schmitt trigger): one alert
when the signal crosses the trigger level, re-armed only after it
returns past the release level. A discord hovering around the threshold
therefore fires once, not once per point — alert volume stays bounded
by the number of genuine excursions, not by their duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from .._validation import EPS
from ..exceptions import StreamingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .monitor import StreamMonitor

#: Alert kinds emitted by the built-in detectors.
ALERT_KINDS = ("discord", "motif", "drift", "label_shift")


@dataclass(frozen=True)
class Alert:
    """One detector firing.

    ``at`` is a stream offset: the subsequence start for profile-based
    alerts (discord/motif), the point index for drift and label alerts.
    ``value`` is the signal that crossed the threshold (profile value,
    drift z-score, or the new label).
    """

    kind: str
    at: int
    value: float
    detail: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "at": int(self.at),
            "value": float(self.value),
        }
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    def describe(self) -> str:
        """One human line, as printed live by ``repro stream replay``."""
        extra = "".join(
            f" {k}={v}" for k, v in sorted(self.detail.items())
        )
        return f"ALERT {self.kind} at={self.at} value={self.value:.6g}{extra}"


class Hysteresis:
    """Schmitt trigger: fire on crossing ``trigger``, re-arm at ``release``.

    ``direction=+1`` fires when the signal rises to ``>= trigger`` and
    re-arms once it falls below ``release`` (``release <= trigger``);
    ``direction=-1`` mirrors both comparisons for low-side triggers.
    """

    def __init__(self, trigger: float, release: float, direction: int = 1):
        if direction not in (1, -1):
            raise StreamingError(f"direction must be +1 or -1, got {direction}")
        if direction == 1 and release > trigger:
            raise StreamingError(
                f"release ({release}) must be <= trigger ({trigger})"
            )
        if direction == -1 and release < trigger:
            raise StreamingError(
                f"release ({release}) must be >= trigger ({trigger})"
            )
        self.trigger = float(trigger)
        self.release = float(release)
        self.direction = direction
        self.armed = True

    def update(self, value: float) -> bool:
        """Feed one signal sample; True exactly when an alert fires."""
        crossed = (
            value >= self.trigger
            if self.direction == 1
            else value <= self.trigger
        )
        if self.armed and crossed:
            self.armed = False
            return True
        released = (
            value < self.release
            if self.direction == 1
            else value > self.release
        )
        if not self.armed and released:
            self.armed = True
        return False


class DiscordDetector:
    """Fire when a new subsequence lands isolated (high profile value).

    The signal is the newest subsequence's matrix-profile entry — its
    distance to the closest non-trivial neighbor seen *so far*. An entry
    can only decrease as more data arrives, so firing at append time is
    the earliest (and loudest) the anomaly will ever look; the alert
    records the value at fire time. Entries still at ``inf`` (exclusion
    zone covers every candidate, i.e. stream start) never fire.
    """

    kind = "discord"

    def __init__(self, threshold: float, release: float | None = None):
        if threshold <= 0:
            raise StreamingError(f"threshold must be > 0, got {threshold}")
        release = 0.8 * threshold if release is None else release
        self._trigger = Hysteresis(threshold, release, direction=1)

    def update(
        self, monitor: "StreamMonitor", new_subsequences: range
    ) -> list[Alert]:
        alerts = []
        profile = monitor.profile._profile  # no copy on the hot path
        for j in new_subsequences:
            value = float(profile[j])
            if np.isfinite(value) and self._trigger.update(value):
                alerts.append(
                    Alert(
                        self.kind,
                        at=j,
                        value=value,
                        detail={"threshold": self._trigger.trigger},
                    )
                )
        return alerts


class MotifDetector:
    """Fire when a new subsequence closely repeats an earlier one.

    The mirror of :class:`DiscordDetector`: low-side hysteresis on the
    newest profile entry. The alert's detail carries the matched
    neighbor's offset, so a live consumer can fetch both occurrences.
    """

    kind = "motif"

    def __init__(self, threshold: float, release: float | None = None):
        if threshold <= 0:
            raise StreamingError(f"threshold must be > 0, got {threshold}")
        release = 1.25 * threshold if release is None else release
        self._trigger = Hysteresis(threshold, release, direction=-1)

    def update(
        self, monitor: "StreamMonitor", new_subsequences: range
    ) -> list[Alert]:
        alerts = []
        profile = monitor.profile._profile
        indices = monitor.profile._indices
        for j in new_subsequences:
            value = float(profile[j])
            if np.isfinite(value) and self._trigger.update(value):
                alerts.append(
                    Alert(
                        self.kind,
                        at=j,
                        value=value,
                        detail={
                            "neighbor": int(indices[j]),
                            "threshold": self._trigger.trigger,
                        },
                    )
                )
        return alerts


class DriftDetector:
    """Distribution drift: every window's mean vs a frozen baseline.

    The first ``baseline_points`` points (default: four windows) freeze a
    baseline mean/std. Every window ending past them is then scored, in
    stream order, as the z-value of its mean against that baseline;
    crossing ``z_threshold`` fires a ``drift`` alert at the window's last
    point (with hysteresis), and :attr:`drifted_points` counts the
    windows scored at or above the trigger — one window ends at each
    point past the baseline, so this is the "how long have we been
    off-distribution" count in points, exported to ``/metrics``. Scores,
    alerts and the count depend only on the points, not on how the
    appends chunk them.
    """

    kind = "drift"

    def __init__(
        self,
        z_threshold: float = 4.0,
        release: float | None = None,
        baseline_points: int | None = None,
    ):
        if z_threshold <= 0:
            raise StreamingError(
                f"z_threshold must be > 0, got {z_threshold}"
            )
        release = 0.6 * z_threshold if release is None else release
        self._trigger = Hysteresis(z_threshold, release, direction=1)
        self.baseline_points = baseline_points
        self.baseline_mean: float | None = None
        self.baseline_std: float | None = None
        #: Windows (one per point past the baseline) scored at/above
        #: the trigger.
        self.drifted_points = 0

    def update(
        self, monitor: "StreamMonitor", new_subsequences: range
    ) -> list[Alert]:
        state = monitor.state
        window = state.window
        baseline = self.baseline_points or 4 * window
        if self.baseline_mean is None:
            if state.n < baseline:
                return []
            head = state.values[:baseline]
            self.baseline_mean = float(head.mean())
            self.baseline_std = max(float(head.std()), EPS)
        # The new windows whose last point lies past the baseline, in
        # stream order. A plain loop: most appends bring one window.
        first = max(new_subsequences.start, baseline - window + 1)
        means = state.window_means[first : new_subsequences.stop].tolist()
        alerts = []
        for start, mean in enumerate(means, first):
            z = abs(mean - self.baseline_mean) / self.baseline_std
            if z >= self._trigger.trigger:
                self.drifted_points += 1
            if self._trigger.update(z):
                alerts.append(
                    Alert(
                        self.kind,
                        at=start + window - 1,
                        value=z,
                        detail={
                            "baseline_mean": self.baseline_mean,
                            "window_mean": mean,
                        },
                    )
                )
        return alerts


class LabelMonitor:
    """Online 1-NN label monitoring against a frozen model artifact.

    Every ``stride`` points (default: one artifact window), the latest
    ``series_length`` points are classified through the serving
    :class:`~repro.serving.QueryEngine` — the exact same normalization
    and measure arithmetic as ``/predict``. A change of predicted label
    between consecutive checks emits a ``label_shift`` alert; the first
    prediction only sets the reference. Checks are driven by stream
    position (not wall clock), so replays reproduce them exactly.
    """

    kind = "label_shift"

    def __init__(self, engine, stride: int | None = None):
        self.engine = engine
        self.length = int(engine.artifact.series_length)
        self.stride = self.length if stride is None else int(stride)
        if self.stride < 1:
            raise StreamingError(f"stride must be >= 1, got {self.stride}")
        self._next_check = self.length
        self._last_label: float | None = None
        #: Number of 1-NN checks performed (exported as a counter).
        self.checks = 0

    def update(
        self, monitor: "StreamMonitor", new_subsequences: range
    ) -> list[Alert]:
        state = monitor.state
        alerts: list[Alert] = []
        while state.n >= self._next_check:
            # The window *ending at the check position*, not the newest
            # points: a large chunk append may pass several checkpoints
            # at once, and chunk size must not change what gets scored.
            check = self._next_check
            window = np.asarray(state.values[check - self.length : check])
            label = self.engine.predict(window[None, :])[0].item()
            self.checks += 1
            at = check - 1
            self._next_check += self.stride
            if self._last_label is not None and label != self._last_label:
                alerts.append(
                    Alert(
                        self.kind,
                        at=at,
                        value=float(label),
                        detail={"previous": self._last_label},
                    )
                )
            self._last_label = label
        return alerts
