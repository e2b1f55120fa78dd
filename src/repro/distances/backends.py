"""Tiered per-measure backend registry for the DP hot-path kernels.

The paper's elastic and kernel measures (DTW, MSM, TWE, ERP, GAK, KDTW)
fill quadratic DP matrices per comparison. On the reference tier the
elastic pairwise matrices run on a pair-batched numpy DP
(:func:`repro.distances.elastic._dp.pairwise_dp`) and everything else on
pure-Python recurrences. This module gives each such measure a second,
*compiled* implementation tier
(numba ``@njit`` kernels from :mod:`repro.distances._compiled`) behind
one registry, so every consumer — ``distance()``, ``pairwise_distances``,
``dissimilarity_matrix``, ``run_sweep`` and the serving ``QueryEngine`` —
routes through the same selection logic:

- ``backend="reference"`` always uses the numpy/pure-Python reference
  implementation registered on the :class:`~repro.distances.base.DistanceMeasure`;
- ``backend="compiled"`` requires the compiled tier and raises
  :class:`~repro.exceptions.BackendUnavailableError` when it cannot run
  (numba missing, JIT compilation failed, or no compiled tier registered)
  instead of silently answering with a different implementation;
- ``backend="auto"`` (the default everywhere) prefers the compiled tier
  when it is usable and degrades gracefully to the reference tier
  otherwise, emitting a single structured :class:`BackendFallbackWarning`
  per process the first time a speedup is forfeited.

Selection is also steerable ambiently: :func:`use_backend` installs a
policy for a ``with`` block (a :mod:`contextvars` value, so it is
thread- and executor-safe), which is how ``SweepConfig.backend`` reaches
every cell of a sweep without threading a parameter through the engine.

The compiled tier is *warmed* (JIT-compiled on a tiny input) the first
time it is resolved, so "compiled" never means "will compile mid-query";
``repro backends`` reports each tier's warm/cold state.

Parity guarantee: compiled kernels mirror the reference recurrences
operation for operation with ``fastmath`` off, so both tiers agree
bitwise wherever float semantics allow (the elastic four are exact; GAK/
KDTW may differ by the platform's ``exp``/``log`` rounding, bounded well
under 1e-12 relative). ``tests/test_backends.py`` gates this across the
Table 4 parameter grids.
"""

from __future__ import annotations

import importlib
import threading
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..exceptions import BackendUnavailableError, ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import DistanceMeasure

#: Valid backend selection policies, in preference order.
BACKEND_POLICIES: tuple[str, ...] = ("auto", "compiled", "reference")

#: Backend tier names (what a policy resolves *to*).
BACKEND_TIERS: tuple[str, ...] = ("compiled", "reference")


class BackendFallbackWarning(UserWarning):
    """``backend="auto"`` wanted the compiled tier but fell back.

    Emitted at most once per process (for the numba-missing case) or once
    per measure (for a JIT compilation failure), so logs stay readable
    while the forfeited speedup stays visible.
    """


class BackendMismatchWarning(UserWarning):
    """A serving engine runs a different backend than its artifact was
    validated against (see :class:`repro.serving.QueryEngine`)."""


@dataclass(frozen=True)
class ResolvedBackend:
    """Outcome of one backend resolution: a tier name plus its callables.

    ``func`` is the pair function (validated float64 arrays in, float
    out); ``matrix_func`` is the vectorized pairwise kernel or ``None``
    when the tier has no matrix form (the generic per-pair loop is used
    then, calling ``func``).
    """

    name: str
    func: Callable[..., float]
    matrix_func: Callable[..., np.ndarray] | None = None


@dataclass
class _CompiledTier:
    """Registry record of one measure's compiled implementation.

    ``state`` is ``"cold"`` (not yet JIT-compiled), ``"warm"`` (compiled
    and smoke-called successfully) or ``"failed"`` (the module import or
    JIT compilation raised; ``reason`` holds the error). Availability of
    numba itself is tracked globally, not per tier.
    """

    measure: str
    module: str
    pair_name: str
    matrix_name: str
    state: str = "cold"
    reason: str = ""
    pair: Callable | None = field(default=None, repr=False)
    matrix: Callable | None = field(default=None, repr=False)


_COMPILED_TIERS: dict[str, _CompiledTier] = {}

_LOCK = threading.Lock()

#: ``None`` until probed; then ``(available, version)``.
_NUMBA: tuple[bool, str | None] | None = None

_FALLBACK_WARNED = False  # process-wide: numba-missing warned once

_ACTIVE_POLICY: ContextVar[str] = ContextVar("repro_backend_policy", default="auto")


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def register_compiled_backend(
    measure: str, module: str, pair_name: str, matrix_name: str
) -> None:
    """Register a compiled tier for ``measure`` (lazy: nothing imports yet).

    ``module`` is imported and ``pair_name`` / ``matrix_name`` looked up
    the first time the tier is resolved; import or JIT errors mark the
    tier failed rather than propagating into distance computations.
    """
    _COMPILED_TIERS[measure] = _CompiledTier(
        measure=measure,
        module=module,
        pair_name=pair_name,
        matrix_name=matrix_name,
    )


for _measure, _pair, _matrix in (
    ("dtw", "dtw_pair", "dtw_matrix"),
    ("msm", "msm_pair", "msm_matrix"),
    ("twe", "twe_pair", "twe_matrix"),
    ("erp", "erp_pair", "erp_matrix"),
):
    register_compiled_backend(
        _measure, "repro.distances._compiled.elastic", _pair, _matrix
    )
for _measure, _pair, _matrix in (
    ("gak", "gak_pair", "gak_matrix"),
    ("kdtw", "kdtw_pair", "kdtw_matrix"),
):
    register_compiled_backend(
        _measure, "repro.distances._compiled.kernels", _pair, _matrix
    )
del _measure, _pair, _matrix


# ----------------------------------------------------------------------
# ambient policy
# ----------------------------------------------------------------------
def _validate_policy(backend: str) -> str:
    if backend not in BACKEND_POLICIES:
        raise ParameterError(
            f"backend must be one of {BACKEND_POLICIES}, got {backend!r}"
        )
    return backend


def default_backend() -> str:
    """The ambient backend policy (``"auto"`` unless :func:`use_backend`
    or ``SweepConfig.backend`` installed something else)."""
    return _ACTIVE_POLICY.get()


@contextmanager
def use_backend(backend: str) -> Iterator[None]:
    """Install a backend policy for the duration of a ``with`` block.

    The policy lives in a :class:`~contextvars.ContextVar`, so it nests,
    is thread-local, and crosses into worker processes only through
    explicit configuration (``SweepConfig.backend``) — never by accident.

    >>> from repro.distances import distance, use_backend
    >>> with use_backend("reference"):
    ...     d = distance([0.0, 1.0], [0.0, 1.0], "dtw")
    """
    token = _ACTIVE_POLICY.set(_validate_policy(backend))
    try:
        yield
    finally:
        _ACTIVE_POLICY.reset(token)


# ----------------------------------------------------------------------
# numba probe and tier loading
# ----------------------------------------------------------------------
def numba_status() -> tuple[bool, str | None]:
    """``(available, version)`` for numba, probed lazily and cached.

    The cache is invalidated by :func:`reset_backends` so tests can hide
    numba via ``sys.modules`` patching and observe the fallback path.
    """
    global _NUMBA
    if _NUMBA is None:
        try:
            module = importlib.import_module("numba")
            _NUMBA = (True, getattr(module, "__version__", "unknown"))
        except ImportError:
            _NUMBA = (False, None)
    return _NUMBA


def _load_and_warm(tier: _CompiledTier) -> tuple[bool, str]:
    """Import, JIT-compile and smoke-call one tier; returns ``(ok, reason)``.

    Called under :data:`_LOCK`. The smoke call runs the pair and matrix
    kernels on 2-point series with default parameters, which forces numba
    to compile (or load its on-disk cache) right here — so a resolved
    compiled tier never compiles mid-sweep or mid-request — and proves
    the kernels actually execute on this interpreter.
    """
    if tier.state == "warm":
        return True, ""
    if tier.state == "failed":
        return False, tier.reason
    available, _ = numba_status()
    if not available:
        return False, "numba is not installed (pip install repro[compiled])"
    try:
        module = importlib.import_module(tier.module)
        pair = getattr(module, tier.pair_name)
        matrix = getattr(module, tier.matrix_name)
        probe = np.zeros(2, dtype=np.float64)
        pair(probe, probe)
        matrix(probe.reshape(1, 2), probe.reshape(1, 2))
    except Exception as exc:  # import error, TypingError, LoweringError, ...
        tier.state = "failed"
        tier.reason = f"{type(exc).__name__}: {exc}"
        return False, tier.reason
    tier.pair = pair
    tier.matrix = matrix
    tier.state = "warm"
    tier.reason = ""
    return True, ""


def _warn_fallback(measure: str, reason: str) -> None:
    """One structured warning per process for the auto-mode fallback."""
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        f"backend='auto' fell back to the reference implementation for "
        f"{measure!r}: {reason}. Elastic pairwise matrices run on the "
        "pair-batched numpy DP; single pairs and GAK/KDTW run a pure-Python "
        "DP, which is much slower. Install the compiled extra (pip install "
        "repro[compiled]) or pass backend='reference' to silence this "
        "warning.",
        BackendFallbackWarning,
        stacklevel=3,
    )


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def resolve_backend(
    measure: "DistanceMeasure", backend: str | None = None
) -> ResolvedBackend:
    """Resolve the implementation tier for one measure under a policy.

    ``backend=None`` and ``backend="auto"`` defer to the ambient policy
    (:func:`use_backend` / ``SweepConfig.backend``); explicit
    ``"compiled"`` / ``"reference"`` always win. Resolution of a cold
    compiled tier warms it (JIT compile + smoke call) before returning.
    """
    policy = default_backend() if backend in (None, "auto") else backend
    _validate_policy(policy)
    reference = ResolvedBackend("reference", measure.func, measure.matrix_func)
    if policy == "reference":
        return reference
    tier = _COMPILED_TIERS.get(measure.name)
    if tier is None:
        if policy == "compiled":
            raise BackendUnavailableError(
                measure.name, "no compiled tier is registered for this measure"
            )
        return reference
    with _LOCK:
        ok, reason = _load_and_warm(tier)
        if ok:
            return ResolvedBackend("compiled", tier.pair, tier.matrix)
    if policy == "compiled":
        raise BackendUnavailableError(measure.name, reason)
    _warn_fallback(measure.name, reason)
    return reference


def active_backend(
    measure: "DistanceMeasure | str", backend: str | None = None
) -> str:
    """The tier name a computation would use right now (no JIT warming).

    Unlike :func:`resolve_backend` this never imports or compiles
    anything — it answers from availability state only, which is what
    span attributes and ``describe_measure`` want.
    """
    name = measure if isinstance(measure, str) else measure.name
    policy = default_backend() if backend in (None, "auto") else backend
    _validate_policy(policy)
    if policy == "reference":
        return "reference"
    tier = _COMPILED_TIERS.get(name)
    usable = (
        tier is not None
        and tier.state != "failed"
        and (tier.state == "warm" or numba_status()[0])
    )
    if usable:
        return "compiled"
    return "compiled" if policy == "compiled" else "reference"


# ----------------------------------------------------------------------
# introspection, warming, test support
# ----------------------------------------------------------------------
def measure_backends(name: str) -> dict[str, dict]:
    """Per-tier availability of one measure, keyed by tier name.

    The ``describe_measure()['backends']`` payload: every measure has a
    ``reference`` tier; measures with a registered compiled tier also
    report its availability, warm/cold state and (when unavailable or
    failed) the reason.
    """
    tiers: dict[str, dict] = {
        "reference": {"available": True, "state": "ready", "reason": ""}
    }
    tier = _COMPILED_TIERS.get(name)
    if tier is not None:
        available, _ = numba_status()
        if tier.state == "failed":
            info = {"available": False, "state": "failed", "reason": tier.reason}
        elif tier.state == "warm":
            info = {"available": True, "state": "warm", "reason": ""}
        elif available:
            info = {"available": True, "state": "cold", "reason": ""}
        else:
            info = {
                "available": False,
                "state": "unavailable",
                "reason": "numba is not installed",
            }
        tiers["compiled"] = info
    return tiers


def compiled_measures() -> list[str]:
    """Names of measures with a registered compiled tier, sorted."""
    return sorted(_COMPILED_TIERS)


def warm_backends(
    measures: list[str] | None = None, *, strict: bool = False
) -> dict[str, str]:
    """Force-warm compiled tiers; returns ``{measure: state}``.

    ``measures=None`` warms every registered tier. With ``strict=True`` a
    tier that cannot warm raises :class:`BackendUnavailableError`
    (useful before latency-sensitive serving); otherwise failures are
    reported in the returned states.
    """
    states: dict[str, str] = {}
    for name in measures if measures is not None else compiled_measures():
        tier = _COMPILED_TIERS.get(name)
        if tier is None:
            raise ParameterError(
                f"{name!r} has no compiled tier; registered: "
                f"{compiled_measures()}"
            )
        with _LOCK:
            ok, reason = _load_and_warm(tier)
        if not ok and strict:
            raise BackendUnavailableError(name, reason)
        states[name] = tier.state
    return states


def reset_backends() -> None:
    """Forget all cached backend state (tests only).

    Clears the numba probe, every tier's compiled functions and
    warm/failed state, and re-arms the once-per-process fallback warning
    — so a test can hide numba via ``sys.modules`` patching, exercise
    the fallback, and restore the world afterwards.
    """
    global _NUMBA, _FALLBACK_WARNED
    with _LOCK:
        _NUMBA = None
        _FALLBACK_WARNED = False
        for tier in _COMPILED_TIERS.values():
            tier.state = "cold"
            tier.reason = ""
            tier.pair = None
            tier.matrix = None
