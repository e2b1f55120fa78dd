r"""The exact Euclidean top-k kernel (``kind="ed_scan"``).

Every exact ED question — the serving engine's ``mode="exact"``, the
search facade, ``/predict`` — is answered here, in four steps:

1. ``‖x‖²`` of every frozen reference is computed when the kernel is
   built or restored (artifacts store no derived arrays);
2. each block of queries is screened with one GEMM: the screen value
   ``s = ‖x‖² − 2⟨q, x⟩`` is ``‖x − q‖² − ‖q‖²``, so within one query
   row it orders references like the squared distance;
3. a reference survives when its screen value is within a certified
   rounding slack of the row's ``k``-th smallest screen value;
4. the survivors are refined with the row-wise ED definition,
   :func:`~repro.distances.lockstep.minkowski.euclidean`, and the top
   ``k`` are selected by stable ``(distance, index)`` order.

The distances are therefore the row-wise ``sqrt(sum((x − q)²))``, bitwise
— the arithmetic of the ``prune=False`` scan — whatever BLAS's blocking
or thread count, and the neighbours are the scan's.

The slack
---------
Let ``u = 2⁻⁵³`` be the unit roundoff, ``γₙ = nu / (1 − nu)``, and for
one query ``q`` and reference ``x`` let ``D = ‖x − q‖²`` exactly,
``W = max_x ‖x‖² + ‖q‖²`` (so ``D ≤ 2W``). Only one assumption is made
of the GEMM: each entry is some sum of ``m`` rounded products, in any
order (no Strassen-like algorithm). Three errors are bounded:

- **The GEMM form.** ``fl(‖x‖²)`` and ``fl(⟨q, x⟩)`` are sums of ``m``
  products, each off by at most ``γₘ`` times the sum of the absolute
  terms, i.e. ``γₘ‖x‖²`` and ``γₘ(‖x‖² + ‖q‖²)/2``; the final
  ``‖x‖² − 2⟨q, x⟩`` rounds once more. So the screen value ``s`` is
  within ``E = 2γₘ₊₁W`` of ``D − ‖q‖²``.
- **The row-wise form.** Each term ``fl(fl(x − q)²)`` is within ``γ₃``
  of ``(x − q)²`` and the ``m`` non-negative terms are summed, so the
  squared distance ``ρ`` the refine computes is within ``γₘ₊₂D`` of
  ``D``.
- **Ties after the square root.** ``r = fl(√ρ)`` is monotone but not
  injective: ``r' ≥ r`` only gives ``ρ' ≥ (1 − 4u)ρ``.

Now take any reference ``x`` of the true top ``k`` (by ``(r, index)``)
that is not among the ``k`` smallest screen values ``K``. At most
``k − 1`` references precede ``x``, so some ``x' ∈ K`` follows it:
``r' ≥ r``. Chaining the three bounds,

``s − s' ≤ (D − D') + E + E' ≤ 4u(1 + γₘ₊₂)·2W + γₘ₊₂·4W + 4γₘ₊₁W
≤ 14γₘ₊₂W``,

and ``s' ≤ t``, the row's ``k``-th smallest screen value. The kernel
keeps every reference with ``s ≤ t + 16γₘ₊₂W``; the margin over ``14``
absorbs the rounding of ``W``, of the slack and of ``t + slack``. No
true neighbour is screened out. When the slack admits every reference
(large offsets make ``W`` huge next to the spread of the distances) the
kernel degrades to the row-wise scan over every reference — never to a
wrong answer — and the refine runs in chunks, so memory stays bounded.
An overflowing screen compares as a survivor for the same reason.

Memory: queries are screened in blocks of at most :data:`SCREEN_BUDGET`
screen values (at least one query per block), each block's screen is
allocated once, and survivors are refined :data:`REFINE_BUDGET` values
at a time.
"""

from __future__ import annotations

import numpy as np

from ..distances.lockstep.minkowski import euclidean
from .base import (
    ED_SCAN,
    REFINE_BUDGET,
    IndexSearchStats,
    ReferenceIndex,
    register_index,
    top_k_rows,
)

#: Screen values (queries x references) one block holds: 16 MiB. Up to
#: 20 queries over 10^5 references are one block (one pass of the GEMM
#: over the references); a large request over the same references is
#: screened 20 queries at a time.
SCREEN_BUDGET = 2**21

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def screen_slack(m: int, weight: np.ndarray) -> np.ndarray:
    """Certified slack ``16 γₘ₊₂ W`` of the screen (module docstring)."""
    nu = (m + 2) * _UNIT_ROUNDOFF
    return (16.0 * nu / (1.0 - nu)) * weight


@register_index
class EuclideanScan(ReferenceIndex):
    """Exact Euclidean top-k over a frozen reference set (``ed_scan``).

    Holds ``‖x‖²`` of the references, nothing else; its spec is its
    kind and it stores no arrays.
    """

    kind = ED_SCAN
    exact = True
    supports = frozenset({"euclidean"})

    def __init__(self, X, measure, params):
        super().__init__(X, measure, params)
        self._norms = np.einsum("ij,ij->i", self._X, self._X)
        self._norm_max = float(self._norms.max())

    @classmethod
    def build(cls, X, *, measure, params):
        """Compute the reference norms."""
        return cls(X, measure, params)

    def spec(self) -> dict:
        """Fingerprinted configuration: the kind alone."""
        return {"kind": self.kind}

    def arrays(self) -> dict[str, np.ndarray]:
        """Nothing is stored: the norms are rebuilt on restore."""
        return {}

    @classmethod
    def restore(cls, spec, arrays, X, *, measure, params):
        """Recompute the norms from the verified references."""
        return cls(X, measure, params)

    def search(
        self, Q: np.ndarray, k: int, *, prune: bool = True
    ) -> tuple[np.ndarray, np.ndarray, IndexSearchStats]:
        """Screen, refine and select (module docstring); ``prune=False``
        is the base class's row-wise scan over every reference."""
        if not prune:
            return super().search(Q, k, prune=False)
        return self._grouped(Q, k, self._screen, max(1, SCREEN_BUDGET // self.n))

    def _screen(
        self, block: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Top ``k`` of one block of queries, and the pairs refined."""
        screen = block @ self._X.T
        screen *= -2.0
        screen += self._norms
        weight = self._norm_max + np.einsum("ij,ij->i", block, block)
        slack = screen_slack(self.series_length, weight)
        bound = np.partition(screen, k - 1, axis=1)[:, k - 1] + slack
        # Negated so an overflowing (NaN) screen value survives.
        keep = np.flatnonzero(~(screen > bound[:, None]))
        del screen
        rows, cols = np.divmod(keep, self.n)
        dists = self._refine_euclidean(block, rows, cols)
        # Every row keeps at least the k references of its k smallest
        # screen values.
        return (*top_k_rows(rows, cols, dists, block.shape[0], k), cols.shape[0])

    def _distances(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row-wise ED from ``q`` to each of ``rows``."""
        return euclidean(rows, q)

    def _refine_euclidean(
        self, Q: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Row-wise ED of each survivor ``(Q[rows[i]], X[cols[i]])``."""
        out = np.empty(cols.shape[0], dtype=np.float64)
        chunk = max(1, REFINE_BUDGET // self.series_length)
        for lo in range(0, cols.shape[0], chunk):
            hi = lo + chunk
            out[lo:hi] = euclidean(self._X[cols[lo:hi]], Q[rows[lo:hi]])
        return out
