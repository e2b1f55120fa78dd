"""Tests for the tiered implementation-backend registry.

Covers the redesigned backend-aware API end to end:

- **parity**: the compiled-tier kernels agree with the reference
  recurrences across the Table 4 parameter grids — bitwise for the
  elastic four (DTW, MSM, TWE, ERP), to 1e-9 relative for the exp/log
  kernel measures (GAK, KDTW) — on random, constant, extreme and
  unequal-length inputs. Without numba the kernels run as plain Python
  (the ``_jit`` shim), so the parity suite is meaningful on every
  machine; on the numba CI leg the same tests gate the JIT output.
- **selection**: ``backend="auto"|"compiled"|"reference"`` semantics,
  the single-per-process :class:`BackendFallbackWarning`, the
  :class:`BackendUnavailableError` contract of explicit ``"compiled"``,
  and the ambient :func:`use_backend` policy (``SweepConfig.backend``).
- **surfaces**: ``describe_measure`` payload, ``repro backends`` CLI,
  span ``backend`` attributes, and the serving-artifact ``backend``
  manifest field with the engine's mismatch warning.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classification import dissimilarity_matrix
from repro.cli import main as cli_main
from repro.datasets import default_archive
from repro.distances import (
    BACKEND_POLICIES,
    BackendFallbackWarning,
    BackendMismatchWarning,
    compiled_measures,
    default_backend,
    describe_measure,
    distance,
    get_measure,
    measure_backends,
    numba_status,
    reset_backends,
    resolve_backend,
    use_backend,
    warm_backends,
)
from repro.distances._compiled import elastic as _compiled_elastic
from repro.distances._compiled import kernels as _compiled_kernels
from repro.distances.backends import active_backend
from repro.evaluation import MeasureVariant, run_sweep
from repro.evaluation.engine.config import SweepConfig
from repro.exceptions import (
    BackendUnavailableError,
    EvaluationError,
    ParameterError,
)
from repro.observability import Recorder, get_bus
from repro.serving import ModelArtifact, QueryEngine

#: Module holding each measure's compiled kernel pair.
_KERNEL_MODULES = {
    "dtw": _compiled_elastic,
    "msm": _compiled_elastic,
    "twe": _compiled_elastic,
    "erp": _compiled_elastic,
    "gak": _compiled_kernels,
    "kdtw": _compiled_kernels,
}

#: Tiers agree bitwise for these (IEEE-exact ops only); the kernel
#: measures go through exp/log where libm rounding may differ.
BITWISE = {"dtw", "msm", "twe", "erp"}


def _kernels(name):
    module = _KERNEL_MODULES[name]
    return getattr(module, f"{name}_pair"), getattr(module, f"{name}_matrix")


def _grid_cases(name):
    """Default params plus the low/high Table 4 grid corner per knob."""
    measure = get_measure(name)
    defaults = {spec.name: spec.default for spec in measure.params}
    cases = [defaults]
    for spec in measure.params:
        for value in (spec.grid[0], spec.grid[-1]):
            cases.append({**defaults, spec.name: value})
    return cases


def _assert_parity(name, got, want):
    if name in BITWISE:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.fixture()
def no_numba(monkeypatch):
    """Hide numba (even when installed) and re-arm the fallback warning."""
    monkeypatch.setitem(sys.modules, "numba", None)
    reset_backends()
    yield
    monkeypatch.undo()
    reset_backends()


@pytest.fixture(scope="module")
def serving_dataset():
    return default_archive(n_datasets=4, size_scale=0.4, seed=3).subset(1)[0]


# ----------------------------------------------------------------------
# parity: compiled kernels vs reference recurrences
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize("name", sorted(_KERNEL_MODULES))
    def test_pair_parity_across_table4_grid(self, name, random_pairs):
        measure = get_measure(name)
        pair, _ = _kernels(name)
        for params in _grid_cases(name):
            for x, y in random_pairs[:4]:
                _assert_parity(
                    name,
                    float(pair(x, y, **params)),
                    measure(x, y, backend="reference", **params),
                )

    @pytest.mark.parametrize("name", sorted(_KERNEL_MODULES))
    def test_matrix_parity_across_table4_grid(self, name):
        measure = get_measure(name)
        _, matrix = _kernels(name)
        rng = np.random.default_rng(20200607)
        X = rng.standard_normal((4, 23))
        Y = rng.standard_normal((3, 23))
        for params in _grid_cases(name):
            _assert_parity(
                name,
                matrix(X, Y, **params),
                measure.pairwise(X, Y, backend="reference", **params),
            )

    @pytest.mark.parametrize("name", sorted(_KERNEL_MODULES))
    def test_self_matrix_parity(self, name):
        measure = get_measure(name)
        _, matrix = _kernels(name)
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 17))
        _assert_parity(
            name, matrix(X, X), measure.pairwise(X, backend="reference")
        )

    @pytest.mark.parametrize("name", sorted(_KERNEL_MODULES))
    def test_unequal_length_parity(self, name):
        measure = get_measure(name)
        pair, _ = _kernels(name)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(19), rng.standard_normal(28)
        _assert_parity(
            name, float(pair(x, y)), measure(x, y, backend="reference")
        )

    @pytest.mark.parametrize("name", sorted(_KERNEL_MODULES))
    def test_degenerate_inputs_parity(self, name):
        """Constant, zero and large-magnitude series (GAK/KDTW rescale path)."""
        measure = get_measure(name)
        pair, _ = _kernels(name)
        cases = [
            (np.zeros(12), np.zeros(12)),
            (np.full(10, 3.5), np.full(10, -2.25)),
            (np.linspace(-50.0, 50.0, 40), np.linspace(50.0, -50.0, 40)),
            (np.full(30, 1e3), np.full(30, -1e3)),
        ]
        for x, y in cases:
            _assert_parity(
                name, float(pair(x, y)), measure(x, y, backend="reference")
            )

    @pytest.mark.parametrize("name", sorted(BITWISE))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hypothesis_pair_parity(self, name, data):
        series = st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=24,
        )
        x = np.asarray(data.draw(series), dtype=np.float64)
        y = np.asarray(data.draw(series), dtype=np.float64)
        measure = get_measure(name)
        pair, _ = _kernels(name)
        assert float(pair(x, y)) == measure(x, y, backend="reference")

    @pytest.mark.parametrize("name", ["gak", "kdtw"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_hypothesis_kernel_parity(self, name, data):
        series = st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=2,
            max_size=20,
        )
        x = np.asarray(data.draw(series), dtype=np.float64)
        y = np.asarray(data.draw(series), dtype=np.float64)
        measure = get_measure(name)
        pair, _ = _kernels(name)
        np.testing.assert_allclose(
            float(pair(x, y)),
            measure(x, y, backend="reference"),
            rtol=1e-9,
            atol=1e-12,
        )


# ----------------------------------------------------------------------
# selection: policies, fallback, errors
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_policies_and_registry_contents(self):
        assert BACKEND_POLICIES == ("auto", "compiled", "reference")
        assert compiled_measures() == ["dtw", "erp", "gak", "kdtw", "msm", "twe"]

    def test_reference_forced_everywhere(self, sine_pair):
        x, y = sine_pair
        measure = get_measure("msm")
        assert resolve_backend(measure, "reference").name == "reference"
        assert active_backend("msm", "reference") == "reference"
        d = distance(x, y, "msm", backend="reference")
        assert d == measure(x, y, backend="reference")

    def test_auto_matches_reference_values(self, sine_pair):
        """Whatever tier auto picks, the numbers match the reference tier."""
        x, y = sine_pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BackendFallbackWarning)
            for name in compiled_measures():
                auto = distance(x, y, name)
                ref = distance(x, y, name, backend="reference")
                _assert_parity(name, auto, ref)

    def test_auto_fallback_warns_once_per_process(self, no_numba, sine_pair):
        x, y = sine_pair
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = distance(x, y, "msm")
            second = distance(x, y, "dtw")
        fallbacks = [
            w for w in caught if issubclass(w.category, BackendFallbackWarning)
        ]
        assert len(fallbacks) == 1
        assert "reference" in str(fallbacks[0].message)
        assert first == distance(x, y, "msm", backend="reference")
        assert second == distance(x, y, "dtw", backend="reference")

    def test_explicit_compiled_raises_without_numba(self, no_numba, sine_pair):
        x, y = sine_pair
        with pytest.raises(BackendUnavailableError, match="dtw"):
            distance(x, y, "dtw", backend="compiled")
        with pytest.raises(BackendUnavailableError):
            get_measure("msm").pairwise(
                np.vstack([x]), np.vstack([y]), backend="compiled"
            )

    def test_compiled_rejected_for_unregistered_measure(self, sine_pair):
        x, y = sine_pair
        with pytest.raises(BackendUnavailableError, match="euclidean"):
            distance(x, y, "euclidean", backend="compiled")

    def test_invalid_policy_rejected(self, sine_pair):
        x, y = sine_pair
        with pytest.raises(ParameterError, match="backend"):
            distance(x, y, "msm", backend="fast")

    @pytest.mark.skipif(
        not numba_status()[0], reason="numba not installed here"
    )
    def test_auto_prefers_compiled_when_available(self):
        assert resolve_backend(get_measure("msm")).name == "compiled"
        assert active_backend("msm") == "compiled"
        assert measure_backends("msm")["compiled"]["state"] == "warm"


class TestAmbientPolicy:
    def test_use_backend_scopes_and_restores(self):
        assert default_backend() == "auto"
        with use_backend("reference"):
            assert default_backend() == "reference"
            assert active_backend("dtw") == "reference"
            with use_backend("compiled"):
                assert default_backend() == "compiled"
            assert default_backend() == "reference"
        assert default_backend() == "auto"

    def test_use_backend_validates(self):
        with pytest.raises(ParameterError):
            with use_backend("jit"):
                pass  # pragma: no cover - never reached

    def test_sweep_config_validates_backend(self):
        assert SweepConfig(backend="reference").backend == "reference"
        with pytest.raises(EvaluationError, match="backend"):
            SweepConfig(backend="fast")

    def test_run_sweep_threads_backend_into_cell_spans(self, tiny_archive):
        recorder = Recorder()
        dataset = tiny_archive.subset(1)[0]
        with get_bus().sink(recorder):
            run_sweep(
                [MeasureVariant("msm")], [dataset], backend="reference"
            )
        (cell,) = recorder.spans("sweep.cell")
        assert cell.attrs["backend"] == "reference"


# ----------------------------------------------------------------------
# introspection and warming
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_measure_backends_shape(self):
        tiers = measure_backends("msm")
        assert tiers["reference"] == {
            "available": True,
            "state": "ready",
            "reason": "",
        }
        assert tiers["compiled"]["state"] in (
            "cold",
            "warm",
            "failed",
            "unavailable",
        )
        assert measure_backends("euclidean") == {
            "reference": {"available": True, "state": "ready", "reason": ""}
        }

    def test_describe_measure_reports_backends(self):
        info = describe_measure("msm")
        assert set(info["backends"]) == {"reference", "compiled"}
        assert info["active_backend"] in ("reference", "compiled")
        json.dumps(info)  # the CLI serializes this payload

    def test_warm_backends_rejects_unknown_measure(self):
        with pytest.raises(ParameterError, match="euclidean"):
            warm_backends(["euclidean"])

    def test_warm_backends_reports_states(self):
        states = warm_backends(["msm", "dtw"])
        assert set(states) == {"msm", "dtw"}
        assert all(s in ("warm", "cold", "failed") for s in states.values())

    def test_warm_backends_strict_raises_without_numba(self, no_numba):
        with pytest.raises(BackendUnavailableError, match="msm"):
            warm_backends(["msm"], strict=True)

    def test_numba_status_shape(self):
        available, version = numba_status()
        assert isinstance(available, bool)
        assert (version is None) == (not available)


# ----------------------------------------------------------------------
# spans and CLI surfaces
# ----------------------------------------------------------------------
class TestSurfaces:
    def test_matrix_compute_span_backend_attr(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 16))
        recorder = Recorder()
        with get_bus().sink(recorder), use_backend("reference"):
            dissimilarity_matrix("msm", X)
        (span,) = recorder.spans("matrix.compute")
        assert span.attrs["backend"] == "reference"

    def test_cli_backends_table(self, capsys):
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "Implementation backends" in out
        for name in compiled_measures():
            assert name in out
        assert "numba" in out

    def test_cli_evaluate_accepts_backend_flag(self, capsys):
        code = cli_main(
            [
                "evaluate",
                "euclidean",
                "--datasets",
                "1",
                "--scale",
                "0.3",
                "--backend",
                "reference",
            ]
        )
        assert code == 0
        assert "avg accuracy" in capsys.readouterr().out


# ----------------------------------------------------------------------
# serving: manifest field and mismatch warning
# ----------------------------------------------------------------------
class TestServingBackend:
    def test_fit_records_active_backend(self, serving_dataset):
        artifact = ModelArtifact.fit_dataset(
            serving_dataset, measure="msm", normalization=None
        )
        assert artifact.backend in ("reference", "compiled")
        assert artifact.describe()["backend"] == artifact.backend

    def test_manifest_roundtrip_and_backward_compat(
        self, serving_dataset, tmp_path
    ):
        artifact = ModelArtifact.fit_dataset(
            serving_dataset, measure="msm", normalization=None
        )
        artifact.save(tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["backend"] == artifact.backend
        loaded = ModelArtifact.load(tmp_path / "model")
        assert loaded.backend == artifact.backend
        # Pre-backend manifests (no such key) load as "reference": the
        # field is deliberately outside the content fingerprint.
        del manifest["backend"]
        manifest_path.write_text(json.dumps(manifest))
        legacy = ModelArtifact.load(tmp_path / "model")
        assert legacy.backend == "reference"
        assert legacy.fingerprint == artifact.fingerprint

    def test_engine_warns_on_backend_mismatch(self, serving_dataset):
        artifact = ModelArtifact.fit_dataset(
            serving_dataset, measure="msm", normalization=None
        )
        mismatched = dataclasses.replace(artifact, backend="compiled")
        recorder = Recorder()
        with get_bus().sink(recorder):
            with pytest.warns(BackendMismatchWarning, match="compiled"):
                engine = QueryEngine(mismatched, backend="reference")
        assert engine.backend == "reference"
        assert recorder.counters() == {"serve.backend.mismatch": 1}

    def test_engine_quiet_when_backends_agree(self, serving_dataset):
        artifact = ModelArtifact.fit_dataset(
            serving_dataset, measure="msm", normalization=None
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = QueryEngine(artifact)
        assert engine.backend == artifact.backend
        assert not [
            w for w in caught if issubclass(w.category, BackendMismatchWarning)
        ]

    def test_cascade_route_reports_reference(self, serving_dataset):
        """The sliding route and the DTW route (a full-resolution
        paa_lb index) bypass the registry by design."""
        artifact = ModelArtifact.fit_dataset(
            serving_dataset,
            measure="dtw",
            normalization="zscore",
            params={"delta": 10.0},
        )
        engine = QueryEngine(artifact)
        assert engine.route == "index"
        assert engine.backend == "reference"
