"""Fitted serving artifacts: a frozen reference set plus its indexes.

The offline evaluation stack answers "which measure should we deploy?";
this module packages the answer so it can actually be deployed. A
:class:`ModelArtifact` freezes everything a 1-NN query needs:

- the **reference set** (the training split), already normalized with the
  chosen Section-4 method so queries pay normalization once per series,
  never per comparison;
- any **fitted reference indexes** (:mod:`repro.index`), whose specs
  join the fingerprint; the structures a route derives from the
  reference set alone (reference FFTs for the sliding family, LB_Keogh
  envelopes for banded DTW) are not stored but built when the
  :class:`~repro.serving.QueryEngine` is constructed;
- a **content-hash fingerprint** over the reference arrays and every
  knob, built from the same :func:`~repro.evaluation.engine.keys.content_key`
  machinery that keys sweep checkpoints — so two artifacts fitted from
  the same bytes with the same config are interchangeable, and a
  corrupted or hand-edited artifact is refused at load time.

On disk an artifact is a directory holding a versioned ``arrays.npz``
plus a human-readable ``manifest.json``; :meth:`ModelArtifact.load`
verifies a per-array digest *and* the logical fingerprint before
returning anything to the query engine.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .._validation import as_dataset, as_labels
from ..distances.backends import active_backend
from ..distances.base import DistanceMeasure, get_measure
from ..evaluation.engine.keys import content_key
from ..exceptions import ArtifactError
from ..index import build_index, normalize_index_specs, restore_index
from ..normalization import get_normalizer

#: Artifact layout identifier; bumped whenever the on-disk format changes.
ARTIFACT_SCHEMA = "repro.artifact/1"

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"


def _array_digest(array: np.ndarray) -> str:
    """Exact digest of one stored array (dtype + shape + bytes).

    Unlike :func:`content_key` this does *not* canonicalize dtype — the
    arrays here were written by :meth:`ModelArtifact.save` in a known
    layout, and the digest's job is to detect on-disk corruption, so the
    stricter "these exact bytes" semantics are what we want (it also
    keeps complex FFT arrays hashable).
    """
    arr = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(arr.dtype.str.encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class ModelArtifact:
    """A fitted, serveable 1-NN model: reference set + measure + config.

    Instances are immutable; build them with :meth:`fit` or :meth:`load`.

    Attributes
    ----------
    measure:
        Canonical registry name of the distance measure.
    normalization:
        Normalization method name (applied to the stored reference set at
        fit time and to every query at predict time), or ``None``.
    params:
        Fully-resolved measure parameters (defaults merged under any
        caller overrides at fit time).
    train_X:
        Normalized ``(n, m)`` float64 reference series.
    train_y:
        Integer labels, shape ``(n,)``.
    fingerprint:
        Content hash over the reference arrays and every config knob.
    backend:
        Implementation-backend tier that was active when the artifact
        was fitted (``"reference"`` or ``"compiled"``). Recorded in the
        manifest — but *not* in the fingerprint, because both tiers
        compute the same function — so the query engine can warn when it
        serves with a different tier than the artifact was validated
        against.
    index_specs:
        Frozen JSON-able specs of every fitted reference index, in build
        order (the exact configuration each index reported after build —
        clamped parameters, measured recall, etc.). Folded into the
        fingerprint when non-empty; legacy index-free artifacts keep
        their original fingerprints.
    indexes:
        The live :class:`~repro.index.ReferenceIndex` objects matching
        ``index_specs`` (revived at load time from verified arrays).
    """

    measure: str
    normalization: str | None
    params: dict[str, float]
    train_X: np.ndarray
    train_y: np.ndarray
    fingerprint: str = ""
    created_unix: float = 0.0
    backend: str = "reference"
    index_specs: tuple = ()
    indexes: tuple = ()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        train_X,
        train_y,
        *,
        measure: str | DistanceMeasure = "nccc",
        normalization: str | None = None,
        params: Mapping[str, float] | None = None,
        index=None,
    ) -> "ModelArtifact":
        """Freeze a reference set for online 1-NN serving.

        Normalizes the training series (per-series methods only — the
        pairwise AdaptiveScaling cannot be frozen into a reference set
        and is rejected), resolves the measure's parameters, and builds
        the requested indexes.

        ``index`` optionally requests one or more reference indexes for
        the sub-linear query path: a kind name (``"ed_scan"``), a
        mapping with a ``kind`` key plus build parameters, or a sequence
        of either (e.g. one exact kind plus one approximate embedding
        index). A retired Euclidean kind (``"dft_lb"``, ``"isax"``,
        ``"paa_lb"`` under ED) builds ``ed_scan`` and is recorded as
        such. Indexes are built over the *normalized* reference set and
        frozen into the artifact — their specs join the fingerprint, so
        an artifact with an index is a different logical model than the
        same data without one.
        """
        m = get_measure(measure)
        resolved = m.resolve_params(dict(params or {}))
        X = as_dataset(train_X, "train_X")
        y = as_labels(train_y, X.shape[0], "train_y")
        norm_name = None
        if normalization is not None:
            norm = get_normalizer(normalization)
            if norm.is_pairwise:
                raise ArtifactError(
                    f"normalization {norm.name!r} is pairwise (it depends on "
                    "both series of each comparison) and cannot be frozen "
                    "into a serving artifact; use a per-series method"
                )
            X = norm.apply_dataset(X)
            norm_name = norm.name
        X = np.ascontiguousarray(X, dtype=np.float64)
        requested = normalize_index_specs(index, m.name)
        indexes = tuple(
            build_index(spec, X, measure=m.name, params=resolved)
            for spec in requested
        )
        index_specs = tuple(ix.spec() for ix in indexes)

        fingerprint = cls._fingerprint(
            m.name, norm_name, resolved, X, y, index_specs
        )
        return cls(
            measure=m.name,
            normalization=norm_name,
            params=resolved,
            train_X=X,
            train_y=y,
            fingerprint=fingerprint,
            created_unix=round(time.time(), 3),
            backend=active_backend(m),
            index_specs=index_specs,
            indexes=indexes,
        )

    @classmethod
    def fit_dataset(cls, dataset, **kwargs) -> "ModelArtifact":
        """:meth:`fit` on a :class:`~repro.datasets.Dataset`'s train split."""
        return cls.fit(dataset.train_X, dataset.train_y, **kwargs)

    @staticmethod
    def _fingerprint(
        measure: str,
        normalization: str | None,
        params: Mapping[str, float],
        train_X: np.ndarray,
        train_y: np.ndarray,
        index_specs: tuple = (),
    ) -> str:
        """Logical identity: config + reference values (not derived data).

        Derived arrays are deterministic functions of these inputs, so
        they are excluded — refitting from the same data always
        reproduces the same fingerprint. Index *specs* are included (only
        when present, so legacy index-free fingerprints are unchanged):
        the stored index arrays are again deterministic given the specs,
        but the specs themselves change which answers the engine's
        ``mode="approx"`` path can produce.
        """
        payload: dict = {
            "schema": ARTIFACT_SCHEMA,
            "measure": measure,
            "normalization": normalization,
            "params": {k: float(v) for k, v in sorted(params.items())},
        }
        if index_specs:
            payload["indexes"] = [dict(spec) for spec in index_specs]
        return content_key(payload, [train_X, train_y])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_train(self) -> int:
        """Number of reference series."""
        return int(self.train_X.shape[0])

    @property
    def series_length(self) -> int:
        """Length every query must have."""
        return int(self.train_X.shape[1])

    @property
    def category(self) -> str:
        """The measure's paper category (lockstep/sliding/elastic/...)."""
        return get_measure(self.measure).category

    def describe(self) -> dict:
        """JSON-able summary (what ``/healthz`` reports)."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "fingerprint": self.fingerprint,
            "measure": self.measure,
            "category": self.category,
            "normalization": self.normalization,
            "params": dict(self.params),
            "n_train": self.n_train,
            "series_length": self.series_length,
            "n_classes": int(np.unique(self.train_y).size),
            "backend": self.backend,
            "indexes": [dict(spec) for spec in self.index_specs],
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the artifact into directory ``path`` and return it.

        Layout: ``arrays.npz`` (reference + index arrays) and
        ``manifest.json`` (config, shapes, fingerprint, per-array
        digests). The manifest is written last so a crash mid-save leaves
        a directory that :meth:`load` cleanly rejects.
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {"train_X": self.train_X, "train_y": self.train_y}
        # Index arrays are namespaced per index position so two indexes
        # can both store e.g. a "frames" array without colliding.
        index_arrays: list[str] = []
        for i, ix in enumerate(self.indexes):
            for name, arr in ix.arrays().items():
                arrays[f"index{i}_{name}"] = arr
                index_arrays.append(f"index{i}_{name}")
        np.savez(directory / ARRAYS_NAME, **arrays)
        manifest = {
            **self.describe(),
            "created_unix": self.created_unix,
            "index_arrays": sorted(index_arrays),
            "array_digests": {
                name: _array_digest(arr) for name, arr in arrays.items()
            },
        }
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return directory

    @classmethod
    def load(cls, path: str | Path) -> "ModelArtifact":
        """Read and *verify* an artifact directory.

        Every stored array must hash to the digest the manifest recorded
        for it, and the reference arrays plus config must reproduce the
        manifest's logical fingerprint; any mismatch raises
        :class:`~repro.exceptions.ArtifactError` rather than serving
        silently-wrong answers. Older artifacts also stored derived
        arrays under ``precomputed``; those are verified like the rest
        and then ignored.
        """
        directory = Path(path)
        manifest_path = directory / MANIFEST_NAME
        arrays_path = directory / ARRAYS_NAME
        if not manifest_path.exists() or not arrays_path.exists():
            raise ArtifactError(
                f"{directory} is not an artifact directory "
                f"(need {MANIFEST_NAME} + {ARRAYS_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise ArtifactError(
                f"{manifest_path}: malformed manifest ({exc})"
            ) from exc
        schema = manifest.get("schema")
        if schema != ARTIFACT_SCHEMA:
            raise ArtifactError(
                f"{directory}: unsupported artifact schema {schema!r} "
                f"(want {ARTIFACT_SCHEMA!r})"
            )
        try:
            with np.load(arrays_path) as bundle:
                arrays = {name: bundle[name] for name in bundle.files}
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"{arrays_path}: unreadable array bundle ({exc})"
            ) from exc
        digests = manifest.get("array_digests", {})
        expected_names = {
            "train_X",
            "train_y",
            *manifest.get("precomputed", []),
            *manifest.get("index_arrays", []),
        }
        if set(arrays) != expected_names or set(digests) != expected_names:
            raise ArtifactError(
                f"{directory}: array inventory mismatch "
                f"(manifest {sorted(expected_names)}, bundle {sorted(arrays)})"
            )
        for name, arr in arrays.items():
            if _array_digest(arr) != digests[name]:
                raise ArtifactError(
                    f"{directory}: integrity check failed for array "
                    f"{name!r} (content does not match its manifest digest)"
                )
        params = {k: float(v) for k, v in manifest["params"].items()}
        index_specs = tuple(manifest.get("indexes", []))
        fingerprint = cls._fingerprint(
            manifest["measure"],
            manifest["normalization"],
            params,
            arrays["train_X"],
            arrays["train_y"],
            index_specs,
        )
        if fingerprint != manifest["fingerprint"]:
            raise ArtifactError(
                f"{directory}: fingerprint mismatch (manifest "
                f"{manifest['fingerprint']}, recomputed {fingerprint})"
            )
        train_X = np.ascontiguousarray(arrays["train_X"], dtype=np.float64)
        indexes = []
        for i, spec in enumerate(index_specs):
            prefix = f"index{i}_"
            own = {
                name[len(prefix) :]: arrays[name]
                for name in arrays
                if name.startswith(prefix)
            }
            indexes.append(
                restore_index(
                    spec,
                    own,
                    train_X,
                    measure=manifest["measure"],
                    params=params,
                )
            )
        return cls(
            measure=manifest["measure"],
            normalization=manifest["normalization"],
            params=params,
            train_X=train_X,
            train_y=as_labels(
                arrays["train_y"], arrays["train_X"].shape[0], "train_y"
            ),
            fingerprint=fingerprint,
            created_unix=float(manifest.get("created_unix", 0.0)),
            backend=manifest.get("backend", "reference"),
            index_specs=index_specs,
            indexes=tuple(indexes),
        )
