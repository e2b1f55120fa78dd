"""Unit tests for the 4 embedding measures (paper Section 9)."""

import numpy as np
import pytest

from repro.embeddings import (
    GRAIL,
    RWS,
    SIDL,
    SPIRAL,
    get_embedding,
    list_embeddings,
    select_landmarks_sbd,
)
from repro.distances.kernels import sink_similarity
from repro.distances.sliding import ncc_c
from repro.embeddings import grail as grail_module
from repro.exceptions import EvaluationError, UnknownMeasureError


@pytest.fixture(scope="module")
def train_test(small_dataset):
    return small_dataset.train_X, small_dataset.test_X


class TestRegistry:
    def test_four_embeddings(self):
        assert list_embeddings() == ["grail", "rws", "sidl", "spiral"]

    def test_get_by_name(self):
        assert isinstance(get_embedding("grail"), GRAIL)
        assert isinstance(get_embedding("rws"), RWS)
        assert isinstance(get_embedding("sidl"), SIDL)
        assert isinstance(get_embedding("spiral"), SPIRAL)

    def test_unknown_rejected(self):
        with pytest.raises(UnknownMeasureError):
            get_embedding("nope")

    def test_transform_before_fit_rejected(self, train_test):
        train, _ = train_test
        with pytest.raises(EvaluationError):
            get_embedding("grail").transform(train)


class TestLandmarkSelection:
    def test_count_capped_at_dataset_size(self, train_test):
        train, _ = train_test
        idx = select_landmarks_sbd(train, k=1000)
        assert idx.shape[0] == train.shape[0]

    def test_deterministic(self, train_test):
        train, _ = train_test
        a = select_landmarks_sbd(train, k=5)
        b = select_landmarks_sbd(train, k=5)
        assert np.array_equal(a, b)

    def test_no_duplicates(self, train_test):
        train, _ = train_test
        idx = select_landmarks_sbd(train, k=8)
        assert len(set(idx.tolist())) == idx.shape[0]


@pytest.mark.parametrize("name", ["grail", "rws", "sidl", "spiral"])
class TestCommonContract:
    def _make(self, name):
        return get_embedding(name, dimensions=8, random_state=0)

    def test_shapes(self, name, train_test):
        train, test = train_test
        emb = self._make(name)
        z_train = emb.fit_transform(train)
        z_test = emb.transform(test)
        assert z_train.shape[0] == train.shape[0]
        assert z_test.shape[0] == test.shape[0]
        assert z_train.shape[1] == z_test.shape[1] <= 8

    def test_finite(self, name, train_test):
        train, test = train_test
        emb = self._make(name)
        emb.fit(train)
        assert np.isfinite(emb.transform(test)).all()

    def test_deterministic_given_seed(self, name, train_test):
        train, test = train_test
        z1 = get_embedding(name, dimensions=6, random_state=1).fit(train).transform(test)
        z2 = get_embedding(name, dimensions=6, random_state=1).fit(train).transform(test)
        assert np.allclose(z1, z2)

    def test_dissimilarity_matrices_shapes(self, name, train_test):
        train, test = train_test
        W, E = self._make(name).dissimilarity_matrices(train, test)
        assert W.shape == (train.shape[0], train.shape[0])
        assert E.shape == (test.shape[0], train.shape[0])
        assert (W >= -1e-9).all() and (E >= -1e-9).all()


class TestSimilarityPreservation:
    def test_grail_ed_correlates_with_sink_distance(self, train_test):
        """The embedding contract: ED over representations preserves the
        *ordering* induced by the construction measure (here SINK) — the
        kernel-to-feature map is monotone, so rank correlation is the
        right fidelity check."""
        from scipy.stats import spearmanr

        from repro.distances.kernels import sink

        train, test = train_test
        emb = get_embedding(
            "grail", dimensions=train.shape[0], gamma=5.0
        ).fit(train)
        z_test = emb.transform(test)
        z_train = emb.transform(train)
        pairs = [(i, j) for i in range(6) for j in range(10)]
        ed = [float(np.linalg.norm(z_test[i] - z_train[j])) for i, j in pairs]
        true = [sink(test[i], train[j], gamma=5.0) for i, j in pairs]
        corr = spearmanr(ed, true).statistic
        assert corr > 0.5

    def test_spiral_ed_correlates_with_dtw(self, train_test):
        from scipy.stats import spearmanr

        from repro.distances.elastic import dtw

        train, test = train_test
        emb = get_embedding("spiral", dimensions=train.shape[0]).fit(train)
        z_test = emb.transform(test)
        z_train = emb.transform(train)
        pairs = [(i, j) for i in range(6) for j in range(10)]
        ed = [float(np.linalg.norm(z_test[i] - z_train[j])) for i, j in pairs]
        true = [dtw(test[i], train[j], 10.0) for i, j in pairs]
        corr = spearmanr(ed, true).statistic
        assert corr > 0.3

    def test_sidl_representation_is_shift_tolerant(self, rng):
        base = np.sin(np.linspace(0, 4 * np.pi, 64))
        train = np.vstack([np.roll(base, int(s)) for s in rng.integers(0, 64, 12)])
        emb = get_embedding("sidl", dimensions=4).fit(train)
        z = emb.transform(np.vstack([base, np.roll(base, 17)]))
        assert np.linalg.norm(z[0] - z[1]) < 0.2


class TestGrailAutoGamma:
    def test_auto_selects_candidate(self, train_test):
        train, _ = train_test
        emb = get_embedding("grail", dimensions=8, gamma="auto").fit(train)
        assert emb.fitted_gamma_ in GRAIL.GAMMA_CANDIDATES

    def test_fixed_gamma_recorded(self, train_test):
        train, _ = train_test
        emb = get_embedding("grail", dimensions=8, gamma=5.0).fit(train)
        assert emb.fitted_gamma_ == 5.0

    def test_auto_deterministic(self, train_test):
        train, test = train_test
        a = get_embedding("grail", dimensions=8, gamma="auto").fit(train)
        b = get_embedding("grail", dimensions=8, gamma="auto").fit(train)
        assert a.fitted_gamma_ == b.fitted_gamma_
        assert np.allclose(a.transform(test), b.transform(test))


def pair_loop_landmarks(X, k, random_state=0):
    """select_landmarks_sbd on the scalar ncc_c, one pair at a time."""
    n = X.shape[0]
    k = min(k, n)
    mean_shape = X.mean(axis=0)
    first = int(np.argmin([ncc_c(row, mean_shape) for row in X]))
    chosen = [first]
    min_dist = np.array([ncc_c(X[i], X[first]) for i in range(n)])
    while len(chosen) < k:
        min_dist[chosen] = 0.0
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] <= 0:
            remaining = [i for i in range(n) if i not in chosen]
            chosen.extend(remaining[: k - len(chosen)])
            break
        chosen.append(nxt)
        new_dist = np.array([ncc_c(X[i], X[nxt]) for i in range(n)])
        min_dist = np.minimum(min_dist, new_dist)
    return np.asarray(chosen[:k], dtype=np.intp)


class PairLoopGRAIL(GRAIL):
    """GRAIL on the scalar sink_similarity, one pair at a time: the oracle
    for the batched landmark kernel and transform."""

    def _kernel_matrix(self, landmarks, gamma):
        k = landmarks.shape[0]
        kernel = np.empty((k, k), dtype=np.float64)
        for i in range(k):
            kernel[i, i] = 1.0
            for j in range(i + 1, k):
                kernel[i, j] = kernel[j, i] = sink_similarity(
                    landmarks[i], landmarks[j], gamma
                )
        return kernel

    def _transform(self, X):
        landmarks, gamma = self._landmark_series, self.fitted_gamma_
        sims = np.array(
            [[sink_similarity(row, lm, gamma) for lm in landmarks] for row in X]
        )
        return sims @ self._projection


class TestGrailMatchesPairDefinitions:
    """The batched SINK/SBD paths answer bitwise like the pair loops."""

    def test_landmarks(self, adversarial_batches, train_test):
        for name, X in {**adversarial_batches, "train": train_test[0]}.items():
            for k in (3, X.shape[0]):
                np.testing.assert_array_equal(
                    select_landmarks_sbd(X, k),
                    pair_loop_landmarks(X, k),
                    err_msg=name,
                )

    def test_duplicate_rows_never_repeat_an_index(self, adversarial_batches):
        X = adversarial_batches["duplicate_rows"]  # 3 shapes, 3 copies each
        idx = select_landmarks_sbd(X, X.shape[0])
        assert sorted(idx.tolist()) == list(range(X.shape[0]))

    def test_exact_duplicates_reach_the_fill_fallback(self, adversarial_batches):
        # Length-1 series have one shape per sign and an exact SBD of 0
        # within a sign: after one landmark per sign, the rest fill in
        # index order.
        X = adversarial_batches["length_1"]
        idx = select_landmarks_sbd(X, X.shape[0])
        assert np.sign(X[idx[0], 0]) != np.sign(X[idx[1], 0])
        rest = [i for i in range(X.shape[0]) if i not in idx[:2]]
        assert idx[2:].tolist() == rest

    @pytest.mark.parametrize("gamma", [1.0, 5.0, 20.0])
    def test_kernel_matrix(self, adversarial_batches, gamma):
        for name, X in adversarial_batches.items():
            np.testing.assert_array_equal(
                GRAIL()._kernel_matrix(X, gamma),
                PairLoopGRAIL()._kernel_matrix(X, gamma),
                err_msg=name,
            )

    @pytest.mark.parametrize("gamma", [1.0, 20.0, "auto"])
    def test_fit_transform(self, adversarial_batches, monkeypatch, gamma):
        for name, X in adversarial_batches.items():
            Q = np.vstack([X, np.full((1, X.shape[1]), 0.5)])
            batched = GRAIL(dimensions=8, gamma=gamma).fit(X)
            with monkeypatch.context() as patch:
                patch.setattr(
                    grail_module, "select_landmarks_sbd", pair_loop_landmarks
                )
                oracle = PairLoopGRAIL(dimensions=8, gamma=gamma).fit(X)
            assert batched.fitted_gamma_ == oracle.fitted_gamma_, name
            np.testing.assert_array_equal(
                batched.transform(Q), oracle.transform(Q), err_msg=name
            )
