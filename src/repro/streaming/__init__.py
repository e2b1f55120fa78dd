"""Streaming subsystem: online ingestion + continuous monitoring.

The paper's evaluation — and the serving stack built from it — is
batch-shaped: frozen reference sets, request/response 1-NN. This
package opens the *streaming* scenario (ROADMAP item 4): points arrive
one at a time, and the budget is per-point update cost, not batch
throughput — exactly where the scalability concerns of the
representation/distance comparison literature bite hardest. Four
layers, bottom up:

- :class:`StreamState` — append-only buffer with incremental window
  statistics (O(1) per point, bitwise equal to the batch rolling stats);
- :class:`StreamingMatrixProfile` — the batch
  :func:`repro.search.matrix_profile` answer extended append by append
  (one MASS row per new subsequence, computed in row blocks; within
  1e-9 of batch on any prefix);
- detectors (:class:`DiscordDetector`, :class:`MotifDetector`,
  :class:`DriftDetector`, :class:`LabelMonitor`) + the orchestrating
  :class:`StreamMonitor` — replay-deterministic alerts with hysteresis;
- replay helpers (:func:`replay_local`, :class:`StreamClient`,
  :func:`inject_discord`) powering ``repro stream replay`` and the CI
  smoke against the server's ``/stream`` endpoints.

Quickstart::

    from repro.streaming import build_monitor, replay_local

    monitor = build_monitor(window=50, discord_threshold=0.8)
    alerts = monitor.append(live_points)          # incremental update
    print(monitor.profile.profile)                 # == batch, within 1e-9
"""

from .detectors import (
    ALERT_KINDS,
    Alert,
    DiscordDetector,
    DriftDetector,
    Hysteresis,
    LabelMonitor,
    MotifDetector,
)
from .monitor import StreamMonitor, build_monitor
from .profile import NO_NEIGHBOR, StreamingMatrixProfile
from .replay import (
    StreamClient,
    inject_discord,
    iter_chunks,
    replay_local,
    replay_remote,
    verify_against_batch,
)
from .state import DEFAULT_CAPACITY, StreamState

__all__ = [
    "StreamState",
    "StreamingMatrixProfile",
    "StreamMonitor",
    "build_monitor",
    "Alert",
    "ALERT_KINDS",
    "Hysteresis",
    "DiscordDetector",
    "MotifDetector",
    "DriftDetector",
    "LabelMonitor",
    "StreamClient",
    "replay_local",
    "replay_remote",
    "verify_against_batch",
    "inject_discord",
    "iter_chunks",
    "NO_NEIGHBOR",
    "DEFAULT_CAPACITY",
]
