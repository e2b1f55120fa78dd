r"""The ``ReferenceIndex`` protocol: sub-linear search over a frozen set.

Serving answered queries by brute force until now — every query paid one
full distance computation per reference series. The paper's M1/M2
discussion is precisely about why that is unnecessary: the indexing
literature (Agrawal et al. [2], Faloutsos et al. [51], Keogh et al.
[73], iSAX [25, 135]) built representations whose distances *lower
bound* the true distance, so most candidates can be discarded from the
representation alone. This module defines the contract those indexes
implement and the registry the serving artifact resolves specs against.

Two index classes exist:

- **exact** indexes (``exact = True``) — a cheap screen plus an exact
  refine stage. Answers are bitwise-identical to an exhaustive scan: a
  candidate is skipped only when its screen proves it cannot enter the
  top ``k``. Under ED that is ``ed_scan`` (:mod:`repro.index.scan`), a
  cached-norm GEMM screen over the whole batch; under banded DTW it is
  ``paa_lb``'s admissible lower bound, its candidates refined in
  ascending-bound blocks for the whole batch until the bound loses to
  each query's current ``k``-th best distance;
- **approximate** indexes (``exact = False``) — embedding-space search
  with a true-distance re-rank, gated by a recall measurement at build
  time.

Both are searched through one loop over groups of queries; an
approximate kind supplies a per-query step, while ``ed_scan`` and
``paa_lb`` answer whole groups by overriding ``search``. Every exact or
approximate answer is selected by one stable ``(distance, index)``
helper, :func:`top_k_rows`.

A representation earns its place by what it saves *net of its own
cost*, not by pruning power alone (Wang et al.): the DFT, Euclidean PAA
and iSAX filters pruned 87.5–99.9% of the candidates and still lost to
``ed_scan`` at every measured size, so they were retired and their
names resolve to it under ED (:func:`resolve_kind`). For the same
reason ``paa_lb`` refines blocks of candidates through the pair-batched
DP rather than one scalar early-abandoning DP per candidate, which lost
to ``pairwise`` plus a stable argsort.

Every index serializes to ``(spec, arrays)``: the spec is a small
JSON-able dict folded into the artifact fingerprint, and the arrays ride
in the artifact's ``arrays.npz`` under per-array digests — so a frozen
index is tamper-checked exactly like the reference set itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..exceptions import IndexBuildError, ValidationError

#: Relative safety margin applied to every lower bound before it is
#: compared against the running k-th best distance. Admissibility is a
#: mathematical property of the bounds; the margin absorbs the ~1e-15
#: floating-point noise of FFTs and fused reductions so "LB <= distance"
#: survives rounding, keeping pruning exact in float64 arithmetic.
LB_SAFETY = 1e-9

#: Values (rows x series length) one refine chunk gathers, in
#: ``ed_scan`` and in the ``prune=False`` scan.
REFINE_BUDGET = 2**16

#: Kind of the exact Euclidean top-k kernel (:mod:`repro.index.scan`).
ED_SCAN = "ed_scan"

#: Exact Euclidean kinds the kernel replaced. Under ED their names
#: resolve to it when an artifact is fitted or loaded and in request
#: pins, so saved artifacts and callers that name them keep working;
#: ``paa_lb`` stays a real kind for banded DTW.
RETIRED_ED_KINDS = frozenset({"dft_lb", "isax", "paa_lb"})


def resolve_kind(kind: str, measure: str) -> str:
    """The registered kind that answers index ``kind`` under ``measure``."""
    if measure == "euclidean" and kind in RETIRED_ED_KINDS:
        return ED_SCAN
    return kind


@dataclass(frozen=True)
class IndexSearchStats:
    """Work accounting for one index search (summed over a query batch).

    ``candidates`` counts every (query, reference) pair the search could
    have computed; ``refined`` counts the pairs whose true distance it
    actually computed. The difference is what the index saved.
    """

    candidates: int
    refined: int

    @property
    def pruned(self) -> int:
        """Pairs eliminated from the representation alone."""
        return self.candidates - self.refined

    @property
    def pruning_rate(self) -> float:
        """Fraction of pairs that skipped the full distance."""
        if self.candidates == 0:
            return 0.0
        return 1.0 - self.refined / self.candidates

    def to_dict(self) -> dict:
        """JSON-able rendering (what ``/predict`` schema 2 reports)."""
        return {
            "candidates": self.candidates,
            "refined": self.refined,
            "pruned": self.pruned,
            "pruning_rate": round(self.pruning_rate, 6),
        }


def top_k_rows(
    owner: np.ndarray, index: np.ndarray, distance: np.ndarray, r: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest candidates of each of ``r`` queries.

    Candidate ``i`` belongs to query ``owner[i]``, names reference
    ``index[i]`` and lies at ``distance[i]``; every query must own at
    least ``k`` candidates. Returns ``(indices, distances)``, both
    ``(r, k)``, ordered by ``(distance, index)``: among equal distances
    the *lowest* reference index wins, as in a stable ``argsort`` over
    the full distance vector and paper Algorithm 1's strict ``<`` scan.
    """
    order = np.lexsort((index, distance, owner))
    counts = np.bincount(owner, minlength=r)
    starts = np.cumsum(counts) - counts
    pick = order[starts[:, None] + np.arange(k)]
    return index[pick], distance[pick]


class ReferenceIndex(ABC):
    """Frozen search structure over one reference set.

    Subclasses declare their registry ``kind``, whether their answers
    are ``exact``, and which measures they ``support`` (``None`` means
    any measure with a ``pairwise`` kernel). Instances are built once at
    fit time (:meth:`build`), serialized into the artifact
    (:meth:`spec` + :meth:`arrays`), and revived at load time
    (:meth:`restore`) against the verified reference arrays.
    """

    #: Registry name (``ed_scan``, ``paa_lb``, ``grail_ann``...).
    kind: str = ""
    #: Whether answers are bitwise-identical to the exhaustive scan.
    exact: bool = True
    #: Measure names the index admits, or ``None`` for any measure.
    supports: frozenset[str] | None = frozenset()

    def __init__(self, X: np.ndarray, measure: str, params: Mapping[str, float]):
        self._X = np.ascontiguousarray(X, dtype=np.float64)
        self.measure = str(measure)
        self.params = dict(params)

    # ------------------------------------------------------------------
    # construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def check_supported(cls, measure: str) -> None:
        """Raise :class:`IndexBuildError` for an unsupported measure."""
        if cls.supports is not None and measure not in cls.supports:
            raise IndexBuildError(
                f"index kind {cls.kind!r} does not support measure "
                f"{measure!r} (supported: {sorted(cls.supports)})"
            )

    @classmethod
    @abstractmethod
    def build(
        cls,
        X: np.ndarray,
        *,
        measure: str,
        params: Mapping[str, float],
        **spec_params,
    ) -> "ReferenceIndex":
        """Construct the index over reference set ``X`` at fit time."""

    @abstractmethod
    def spec(self) -> dict:
        """JSON-able configuration, including ``kind``.

        The spec participates in the artifact fingerprint, so it must be
        deterministic for a given build.
        """

    @abstractmethod
    def arrays(self) -> dict[str, np.ndarray]:
        """Derived arrays to persist (digest-verified like all arrays)."""

    @classmethod
    @abstractmethod
    def restore(
        cls,
        spec: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
        X: np.ndarray,
        *,
        measure: str,
        params: Mapping[str, float],
    ) -> "ReferenceIndex":
        """Revive a frozen index from its spec + verified arrays."""

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self, Q: np.ndarray, k: int, *, prune: bool = True
    ) -> tuple[np.ndarray, np.ndarray, IndexSearchStats]:
        """Top-``k`` neighbors of each normalized query row.

        Returns ``(indices, distances, stats)`` with both arrays shaped
        ``(len(Q), k)``. Exact kinds answer whole batches by overriding
        this method and send ``prune=False`` here: :meth:`_scan`, the
        identical refine arithmetic over *every* candidate — the
        engine's ``mode="brute"`` baseline the exactness tests compare
        against, differing from ``prune=True`` only in which candidates
        get skipped. Approximate kinds answer one query at a time
        through :meth:`_nearest`, the same way either way.
        """
        step = self._nearest if prune or not self.exact else self._scan
        return self._grouped(Q, k, lambda block, k: step(block[0], k), 1)

    def _grouped(self, Q, k, answer, group):
        """``search``'s result from ``answer(block, k) -> (indices,
        distances, pairs refined)`` over blocks of at most ``group``
        query rows, after checking ``k``."""
        Q = np.asarray(Q, dtype=np.float64)
        self._check_k(k)
        r = Q.shape[0]
        indices = np.empty((r, k), dtype=np.intp)
        distances = np.empty((r, k), dtype=np.float64)
        refined = 0
        for lo in range(0, r, group):
            block = slice(lo, lo + group)
            indices[block], distances[block], count = answer(Q[block], k)
            refined += count
        return indices, distances, IndexSearchStats(candidates=r * self.n, refined=refined)

    def _check_k(self, k: int) -> None:
        """Reject a ``k`` outside ``[1, max_k]``."""
        bound = self.max_k
        if not 1 <= k <= bound:
            raise ValidationError(
                f"k must be in [1, {bound}] for this {self.kind} index, "
                f"got {k}"
            )

    def _nearest(
        self, q: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """An approximate kind's search for one query: ``(indices,
        distances, pairs refined)``, sorted by ``(distance, index)``."""
        raise NotImplementedError

    def _distances(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """An exact kind's refine distance from ``q`` to each of ``rows``."""
        raise NotImplementedError

    def _scan(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The pruning-disabled scan: the refine arithmetic, every row.

        :meth:`_distances` refines :data:`REFINE_BUDGET` values at a time,
        and each chunk merges into the running top ``k`` — seeded with
        ``(inf, n)`` placeholders — by :func:`top_k_rows`.
        """
        best_i = np.full(k, self.n, dtype=np.intp)
        best_d = np.full(k, np.inf)
        chunk = max(1, REFINE_BUDGET // self.series_length)
        for pos in range(0, self.n, chunk):
            d = self._distances(q, self._X[pos : pos + chunk])
            index = np.concatenate((best_i, np.arange(pos, pos + d.shape[0])))
            (best_i,), (best_d,) = top_k_rows(
                np.zeros_like(index), index, np.concatenate((best_d, d)), 1, k
            )
        return best_i, best_d, self.n

    @property
    def max_k(self) -> int:
        """Largest ``k`` one search may ask for."""
        return self.n

    @property
    def n(self) -> int:
        """Number of indexed reference series."""
        return int(self._X.shape[0])

    @property
    def series_length(self) -> int:
        """Length of every indexed series."""
        return int(self._X.shape[1])

    def describe(self) -> dict:
        """Human-readable summary (manifest / ``/healthz``)."""
        return {"kind": self.kind, "exact": self.exact, **self.spec()}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[ReferenceIndex]] = {}


def register_index(cls: type[ReferenceIndex]) -> type[ReferenceIndex]:
    """Class decorator adding an index type to the registry."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must declare a registry kind")
    _REGISTRY[cls.kind] = cls
    return cls


def get_index_type(kind: str) -> type[ReferenceIndex]:
    """Resolve a registry kind to its index class."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise IndexBuildError(
            f"unknown index kind {kind!r} (available: {list_index_kinds()})"
        ) from None


def list_index_kinds() -> list[str]:
    """Canonical names of every registered index type."""
    return sorted(_REGISTRY)


def normalize_index_spec(spec: str | Mapping[str, object], measure: str) -> dict:
    """Canonicalize one user-facing index spec under ``measure``.

    Accepts a bare kind name (``"ed_scan"``) or a mapping with a
    ``kind`` key plus build parameters. A retired kind becomes the kind
    that answers for it (:func:`resolve_kind`); its build parameters
    configured the retired bound and are dropped.
    """
    if isinstance(spec, str):
        out: dict = {"kind": spec}
    elif isinstance(spec, Mapping):
        out = {str(k): v for k, v in spec.items()}
    else:
        raise IndexBuildError(
            f"index spec must be a kind name or a mapping, got {type(spec).__name__}"
        )
    if "kind" not in out:
        raise IndexBuildError(f"index spec {out!r} is missing its 'kind'")
    kind = resolve_kind(str(out["kind"]), measure)
    get_index_type(kind)  # validate early
    return out if kind == out["kind"] else {"kind": kind}


def normalize_index_specs(
    index: str | Mapping[str, object] | Sequence | None, measure: str
) -> tuple[dict, ...]:
    """Canonicalize the ``index=`` argument of :meth:`ModelArtifact.fit`.

    ``None`` means no index; a single spec (name or mapping) means one;
    a sequence means several (e.g. one exact kind plus one approximate).
    Kinds are resolved under ``measure`` before duplicates are refused.
    """
    if index is None:
        return ()
    if isinstance(index, (str, Mapping)):
        return (normalize_index_spec(index, measure),)
    specs = tuple(normalize_index_spec(item, measure) for item in index)
    kinds = [s["kind"] for s in specs]
    if len(set(kinds)) != len(kinds):
        raise IndexBuildError(f"duplicate index kinds in spec: {kinds}")
    return specs


def build_index(
    spec: str | Mapping[str, object],
    X: np.ndarray,
    *,
    measure: str,
    params: Mapping[str, float],
) -> ReferenceIndex:
    """Build one index over ``X`` from a user-facing spec."""
    normalized = normalize_index_spec(spec, measure)
    kind = str(normalized.pop("kind"))
    cls = get_index_type(kind)
    cls.check_supported(measure)
    try:
        return cls.build(X, measure=measure, params=params, **normalized)
    except TypeError as exc:
        raise IndexBuildError(
            f"invalid parameters for index kind {kind!r}: {exc}"
        ) from exc


def restore_index(
    spec: Mapping[str, object],
    arrays: Mapping[str, np.ndarray],
    X: np.ndarray,
    *,
    measure: str,
    params: Mapping[str, float],
) -> ReferenceIndex:
    """Revive a frozen index from a manifest spec + verified arrays.

    A retired kind's spec revives the kind that answers for it, which
    ignores the retired kind's stored arrays.
    """
    cls = get_index_type(resolve_kind(str(spec.get("kind", "")), measure))
    return cls.restore(spec, arrays, X, measure=measure, params=params)


def indexable_kinds(measure: str) -> list[str]:
    """Exact index kinds that admit ``measure`` (catalog's column).

    Approximate (embedding) kinds support every measure and are listed
    separately by the catalog, so only exact kinds appear here.
    """
    return [
        kind
        for kind, cls in sorted(_REGISTRY.items())
        if cls.exact and (cls.supports is None or measure in cls.supports)
    ]
