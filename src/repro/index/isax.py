r"""iSAX-style tree index (``kind="isax"``), Euclidean only.

Shieh & Keogh's iSAX family ([135]; iSAX 2.0 [25]) — the index whose
massive-scale experiments seeded misconception M2 — organizes SAX words
of *variable per-dimension cardinality* in a tree: every node refines
one dimension of its parent's word by doubling that dimension's alphabet
cardinality. Because the Gaussian breakpoints at cardinality ``2c`` are
a superset of those at ``c``, a symbol at cardinality ``c`` splits
exactly into two child symbols at ``2c`` (the prefix property), so the
tree partitions the reference set hierarchically without ever storing
more than one PAA word per series.

Search is best-first over nodes ordered by MINDIST(query, node): the
per-dimension gap between the query's PAA frame and the node's symbol
region, scaled by ``sqrt(m / w)``. The chain

``MINDIST(q, region) <= sqrt(m/w) * ||paa(q) - paa(x)|| <= ED(q, x)``

holds for *any* real-valued inputs — the breakpoints are fixed
quantization levels, so z-normalization affects only how balanced the
tree is, never admissibility. A node is pruned when its deflated
MINDIST strictly exceeds the running k-th best distance; every series
in a pruned node then has true distance strictly above the threshold,
which keeps answers bitwise-identical to the exhaustive scan (the same
argument as the flat filters in :mod:`repro.index.lower_bound`).

The tree itself is *not* serialized: it is rebuilt deterministically at
restore time by re-inserting rows ``0..n-1`` from the persisted PAA
frame matrix, so the frozen state stays pure arrays + a tiny spec.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import IndexBuildError
from ..representations.paa import paa_transform
from ..representations.sax import gaussian_breakpoints
from .base import (
    LB_SAFETY,
    ReferenceIndex,
    TopK,
    euclidean_refine,
    register_index,
)
from .lower_bound import DEFAULT_WIDTH, paa_matrix


class _Node:
    """One iSAX tree node: a per-dimension ``(symbol, level)`` region."""

    __slots__ = ("symbols", "levels", "rows", "children", "split_dim")

    def __init__(self, symbols: np.ndarray, levels: np.ndarray):
        self.symbols = symbols  # symbol index per dim at that dim's level
        self.levels = levels  # log2(cardinality) per dim
        self.rows: list[int] = []  # leaf payload (empty for internal)
        self.children: dict[int, "_Node"] | None = None
        self.split_dim: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@register_index
class ISAXTreeIndex(ReferenceIndex):
    """Variable-cardinality SAX tree with best-first exact search."""

    kind = "isax"
    exact = True
    supports = frozenset({"euclidean"})

    def __init__(
        self,
        X,
        measure,
        params,
        *,
        segments: int,
        leaf_size: int,
        max_level: int,
        frames: np.ndarray,
    ):
        super().__init__(X, measure, params)
        self.segments = int(segments)
        self.leaf_size = int(leaf_size)
        self.max_level = int(max_level)
        self._frames = np.ascontiguousarray(frames, dtype=np.float64)
        self._scale = np.sqrt(self.series_length / self.segments)
        # Breakpoints per level, cached once: level l has 2^l symbols.
        self._breakpoints = {
            level: gaussian_breakpoints(2**level)
            for level in range(1, self.max_level + 1)
        }
        self._root = _Node(
            np.zeros(self.segments, dtype=np.intp),
            np.zeros(self.segments, dtype=np.intp),
        )
        for row in range(self._frames.shape[0]):
            self._insert(row)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        X,
        *,
        measure,
        params,
        segments: int = DEFAULT_WIDTH,
        leaf_size: int = 32,
        max_level: int = 6,
    ):
        """Build the tree over ``X`` (``2**max_level`` max cardinality)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        segments = min(int(segments), X.shape[1])
        if segments < 1:
            raise IndexBuildError("isax needs at least one segment")
        if leaf_size < 1:
            raise IndexBuildError("isax leaf_size must be >= 1")
        if not 1 <= max_level <= 12:
            raise IndexBuildError("isax max_level must be in [1, 12]")
        return cls(
            X,
            measure,
            params,
            segments=segments,
            leaf_size=int(leaf_size),
            max_level=int(max_level),
            frames=paa_matrix(X, segments),
        )

    def _symbol(self, value: float, level: int) -> int:
        """Symbol of one PAA frame value at cardinality ``2**level``."""
        if level == 0:
            return 0
        return int(np.searchsorted(self._breakpoints[level], value))

    def _child_key(self, node: _Node, row: int) -> int:
        """Child symbol of ``row`` along the node's split dimension."""
        dim = node.split_dim
        return self._symbol(self._frames[row, dim], int(node.levels[dim]) + 1)

    def _split(self, node: _Node) -> None:
        """Promote one dimension's cardinality, redistributing the leaf.

        The split dimension is chosen round-robin by node depth (sum of
        levels), skipping dimensions already at ``max_level`` — fully
        deterministic, so rebuilds reproduce the identical tree.
        """
        depth = int(node.levels.sum())
        candidates = [
            (depth + offset) % self.segments for offset in range(self.segments)
        ]
        dim = next(
            (d for d in candidates if node.levels[d] < self.max_level), -1
        )
        if dim < 0:
            return  # every dimension saturated: oversized leaf allowed
        node.split_dim = dim
        node.children = {}
        rows, node.rows = node.rows, []
        for row in rows:
            self._route(node, row)

    def _route(self, node: _Node, row: int) -> None:
        """Place ``row`` into the proper child, creating it on demand."""
        assert node.children is not None
        key = self._child_key(node, row)
        child = node.children.get(key)
        if child is None:
            dim = node.split_dim
            symbols = node.symbols.copy()
            levels = node.levels.copy()
            symbols[dim] = key
            levels[dim] = levels[dim] + 1
            child = _Node(symbols, levels)
            node.children[key] = child
        child.rows.append(row)
        if len(child.rows) > self.leaf_size and child.is_leaf:
            self._split(child)

    def _insert(self, row: int) -> None:
        node = self._root
        while not node.is_leaf:
            key = self._child_key(node, row)
            child = node.children.get(key)
            if child is None:
                self._route(node, row)
                return
            node = child
        node.rows.append(row)
        if len(node.rows) > self.leaf_size:
            self._split(node)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _node_mindist(self, fq: np.ndarray, node: _Node) -> float:
        """MINDIST between query PAA frames and the node's symbol region."""
        total = 0.0
        for dim in range(self.segments):
            level = int(node.levels[dim])
            if level == 0:
                continue  # unrefined dim spans the whole line: gap 0
            breakpoints = self._breakpoints[level]
            s = int(node.symbols[dim])
            lo = -np.inf if s == 0 else breakpoints[s - 1]
            hi = np.inf if s == breakpoints.shape[0] else breakpoints[s]
            v = fq[dim]
            if v < lo:
                gap = lo - v
            elif v > hi:
                gap = v - hi
            else:
                continue
            total += gap * gap
        return float(self._scale * np.sqrt(total))

    def lower_bounds(self, q: np.ndarray) -> np.ndarray:
        """Per-row admissible bound: MINDIST of each row's leaf region.

        Exposed for the admissibility property tests; search itself
        prunes whole nodes rather than scanning rows.
        """
        fq = paa_transform(np.asarray(q, dtype=np.float64), self.segments)
        out = np.empty(self.n, dtype=np.float64)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.rows:
                    out[node.rows] = self._node_mindist(fq, node)
            else:
                stack.extend(node.children.values())
                if node.rows:  # defensive: internal nodes hold no rows
                    out[node.rows] = self._node_mindist(fq, node)
        return out

    def _nearest(self, q: np.ndarray, k: int) -> tuple[TopK, int]:
        """Best-first over nodes by ascending MINDIST until it loses."""
        topk = TopK(k)
        refined = 0
        fq = paa_transform(q, self.segments)
        # Heap entries carry an insertion counter so equal-MINDIST
        # nodes pop in deterministic insertion order.
        counter = 0
        heap: list[tuple[float, int, _Node]] = [(0.0, counter, self._root)]
        while heap:
            mindist, _, node = heapq.heappop(heap)
            if mindist * (1.0 - LB_SAFETY) > topk.threshold:
                break  # min-heap: every remaining node loses
            if node.is_leaf:
                if not node.rows:
                    continue
                rows = np.asarray(node.rows, dtype=np.intp)
                dists = euclidean_refine(self._X, rows, q)
                refined += rows.shape[0]
                for idx, d in zip(rows, dists):
                    topk.offer(float(d), int(idx))
            else:
                for child in node.children.values():
                    counter += 1
                    heapq.heappush(
                        heap, (self._node_mindist(fq, child), counter, child)
                    )
        return topk, refined

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """Fingerprinted configuration."""
        return {
            "kind": self.kind,
            "segments": self.segments,
            "leaf_size": self.leaf_size,
            "max_level": self.max_level,
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """Persisted PAA frames (the tree is rebuilt from them)."""
        return {"frames": self._frames}

    @classmethod
    def restore(cls, spec, arrays, X, *, measure, params):
        """Rebuild the identical tree from the persisted frames."""
        return cls(
            X,
            measure,
            params,
            segments=int(spec["segments"]),
            leaf_size=int(spec["leaf_size"]),
            max_level=int(spec["max_level"]),
            frames=arrays["frames"],
        )
