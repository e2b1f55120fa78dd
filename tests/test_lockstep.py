"""Unit tests for the 52 lock-step measures (paper Section 5)."""

import tracemalloc

import numpy as np
import pytest

from repro.distances import get_measure, iter_measures, list_measures
from repro.distances.lockstep import (
    avg_l1_linf,
    canberra,
    chebyshev,
    clark,
    cosine,
    dice,
    dissim,
    euclidean,
    gower,
    jaccard,
    lorentzian,
    manhattan,
    minkowski,
    soergel,
    squared_euclidean,
    topsoe,
)
from repro.distances.lockstep import _common
from repro.distances.lockstep.special import asd
from repro.exceptions import ParameterError, UnknownMeasureError
from repro.index.scan import screen_slack

#: The six measures whose matrices come from one GEMM (``gram_matrix``).
GRAM_SIX = ("euclidean", "squaredeuclidean", "rbf", "innerproduct", "cosine", "asd")
#: Every measure whose matrix is ``elementwise_matrix`` of its ``f`` or,
#: for NCC_c and SINK, the one sliding block routine.
ONE_DEFINITION = [
    n for n in list_measures("lockstep") if n not in GRAM_SIX
] + ["minsymmetricchi2", "cid", "nccc", "sink"]


class TestCensus:
    def test_52_lockstep_measures(self):
        assert len(list_measures("lockstep")) == 52

    def test_family_cardinalities_match_cha_survey(self):
        expected = {
            "minkowski": 4,
            "l1": 6,
            "intersection": 7,
            "inner_product": 6,
            "fidelity": 5,
            "squared_l2": 8,
            "entropy": 6,
            "combination": 3,
            "vicissitude": 5,
            "special": 2,
        }
        for family, count in expected.items():
            assert len(list_measures("lockstep", family)) == count, family

    def test_unknown_measure_raises_with_hint(self):
        with pytest.raises(UnknownMeasureError):
            get_measure("lorentz")  # not an alias

    def test_emanon_aliases(self):
        assert get_measure("emanon4").name == "vicissymmetric3"
        assert get_measure("emanon1").name == "viciswavehedges"


class TestMinkowskiFamily:
    def test_euclidean_known_value(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_manhattan_known_value(self):
        assert manhattan(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 7.0

    def test_chebyshev_known_value(self):
        assert chebyshev(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 4.0

    def test_minkowski_interpolates_lp(self):
        x, y = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert minkowski(x, y, p=1.0) == pytest.approx(manhattan(x, y))
        assert minkowski(x, y, p=2.0) == pytest.approx(euclidean(x, y))
        assert minkowski(x, y, p=np.inf) == pytest.approx(chebyshev(x, y))

    def test_fractional_p_supported(self):
        x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        assert minkowski(x, y, p=0.5) == pytest.approx(4.0)

    def test_minkowski_requires_known_param_name(self):
        with pytest.raises(ParameterError):
            get_measure("minkowski")(np.ones(3), np.zeros(3), q=2)

    def test_param_grid_has_20_values(self):
        assert len(get_measure("minkowski").param_grid()) == 20


class TestL1Family:
    def test_lorentzian_log_damped(self):
        x, y = np.zeros(2), np.array([np.e - 1.0, 0.0])
        assert lorentzian(x, y) == pytest.approx(1.0)

    def test_lorentzian_less_sensitive_to_spikes_than_ed(self):
        clean = np.zeros(20)
        spike = np.zeros(20)
        spike[10] = 100.0
        small = np.full(20, 1.0)
        # ED treats one huge spike as worse than many small deviations;
        # Lorentzian's log damping reverses that judgement.
        assert euclidean(clean, spike) > euclidean(clean, small)
        assert lorentzian(clean, spike) < lorentzian(clean, small)

    def test_gower_is_mean_abs(self):
        x, y = np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0])
        assert gower(x, y) == pytest.approx(2.5)

    def test_soergel_known_value(self, positive_pair):
        x, y = positive_pair
        expected = np.abs(x - y).sum() / np.maximum(x, y).sum()
        assert soergel(x, y) == pytest.approx(expected)

    def test_canberra_bounded_by_length(self, positive_pair):
        x, y = positive_pair
        assert 0.0 <= canberra(x, y) <= x.shape[0]


class TestInnerProductFamily:
    def test_cosine_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_cosine_identical_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert cosine(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_jaccard_equals_one_minus_kumar_hassebrook(self, positive_pair):
        x, y = positive_pair
        kh = get_measure("kumarhassebrook")
        assert jaccard(x, y) == pytest.approx(kh.func(x, y))

    def test_dice_known_value(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert dice(x, y) == pytest.approx(1.0)


class TestSquaredL2Family:
    def test_squared_euclidean_is_ed_squared(self, sine_pair):
        x, y = sine_pair
        assert squared_euclidean(x, y) == pytest.approx(euclidean(x, y) ** 2)

    def test_clark_bounded(self, positive_pair):
        x, y = positive_pair
        assert 0.0 <= clark(x, y) <= np.sqrt(x.shape[0])

    def test_pearson_neyman_asymmetric(self, positive_pair):
        x, y = positive_pair
        pearson = get_measure("pearsonchi2")
        assert pearson(x, y) != pytest.approx(pearson(y, x))
        assert not pearson.symmetric


class TestEntropyFamily:
    def test_kl_zero_for_identical(self, positive_pair):
        x, _ = positive_pair
        assert get_measure("kl")(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_topsoe_is_twice_jensen_shannon(self, positive_pair):
        x, y = positive_pair
        js = get_measure("jensenshannon")
        assert topsoe(x, y) == pytest.approx(2.0 * js.func(x, y))

    def test_jensen_shannon_symmetric(self, positive_pair):
        x, y = positive_pair
        js = get_measure("jensenshannon")
        assert js(x, y) == pytest.approx(js(y, x))

    def test_entropy_finite_for_zscored_inputs(self, sine_pair):
        # z-scored series contain negatives; the nonneg guard must keep
        # every entropy measure finite (the paper pairs them with MinMax,
        # but the framework sweeps every combination).
        x, y = sine_pair
        for name in ("kl", "jeffreys", "kdivergence", "topsoe", "jensenshannon", "jensendifference"):
            assert np.isfinite(get_measure(name)(x, y)), name


class TestCombinationsAndVicissitude:
    def test_avg_l1_linf_definition(self, sine_pair):
        x, y = sine_pair
        assert avg_l1_linf(x, y) == pytest.approx(
            (manhattan(x, y) + chebyshev(x, y)) / 2.0
        )

    def test_emanon4_uses_max_denominator(self):
        x, y = np.array([1.0, 2.0]), np.array([2.0, 4.0])
        expected = 1.0 / 2.0 + 4.0 / 4.0
        assert get_measure("emanon4")(x, y) == pytest.approx(expected)

    def test_max_symmetric_at_least_min_symmetric(self, positive_pair):
        x, y = positive_pair
        assert get_measure("emanon5")(x, y) >= get_measure("emanon6")(x, y)


class TestSpecialMeasures:
    def test_dissim_is_trapezoidal_l1(self):
        x = np.array([0.0, 0.0, 0.0])
        y = np.array([2.0, 4.0, 6.0])
        assert dissim(x, y) == pytest.approx((2 + 4) / 2 + (4 + 6) / 2)

    def test_dissim_single_point(self):
        assert dissim(np.array([1.0]), np.array([4.0])) == pytest.approx(3.0)

    def test_asd_scale_invariant_in_second_argument(self, sine_pair):
        x, y = sine_pair
        assert asd(x, 5.0 * y) == pytest.approx(asd(x, y), abs=1e-9)

    def test_asd_zero_for_scaled_copy(self, sine_pair):
        x, _ = sine_pair
        assert asd(x, 3.0 * x) == pytest.approx(0.0, abs=1e-9)

    def test_asd_against_zero_reference(self):
        assert asd(np.ones(4), np.zeros(4)) == pytest.approx(2.0)


class TestGenericContracts:
    @pytest.mark.parametrize("name", list_measures("lockstep"))
    def test_identity_is_minimal(self, name, positive_pair):
        """d(x, x) <= d(x, y) for a generic pair — the sanity every 1-NN
        evaluation relies on (not full metric axioms; many survey measures
        are not metrics). Probability-style measures get unit-mass inputs,
        their intended domain (e.g. Fidelity's 1 - sum(sqrt(xy)) is only
        identity-minimal for densities)."""
        x, y = positive_pair
        measure = get_measure(name)
        if measure.requires_nonnegative:
            x = x / x.sum()
            y = y / y.sum()
        assert measure(x, x) <= measure(x, y) + 1e-9

    @pytest.mark.parametrize("name", list_measures("lockstep"))
    def test_finite_on_zscored_data(self, name, sine_pair):
        x, y = sine_pair
        x = (x - x.mean()) / x.std()
        y = (y - y.mean()) / y.std()
        assert np.isfinite(get_measure(name)(x, y)), name

    @pytest.mark.parametrize(
        "name", [n for n in list_measures("lockstep") if get_measure(n).symmetric]
    )
    def test_declared_symmetry_holds(self, name, positive_pair):
        x, y = positive_pair
        measure = get_measure(name)
        assert measure(x, y) == pytest.approx(measure(y, x), rel=1e-9)

    @pytest.mark.parametrize("name", ONE_DEFINITION + list(GRAM_SIX))
    def test_matrix_matches_scalar_loop(self, name, parity_cases):
        """``pairwise`` is ``m(x, y)`` pair by pair: bitwise for every
        measure defined once, and within the Gram bound for the Gram six
        — self and rectangular, on signed, positive and near-zero-norm
        batches."""
        measure = get_measure(name)
        for case, X in parity_cases.items():
            half = X.shape[0] // 2
            for A, B in ((X, None), (X[: half + 1], X[half:])):
                got = measure.pairwise(A, B)
                B = A if B is None else B
                want = np.array([[measure(a, b) for b in B] for a in A])
                if name in GRAM_SIX:
                    assert_within_gram_bound(name, got, want, A, B, case)
                else:
                    np.testing.assert_array_equal(got, want, err_msg=case)


@pytest.fixture(scope="module")
def parity_cases(adversarial_batches):
    """Every ``adversarial_batches`` case, a positive batch, and rows of
    near-zero norm: scaled by 1e-7 and 1e-13, and a zero row."""
    gen = np.random.default_rng(31)
    near_zero = gen.normal(size=(8, 24))
    near_zero[[1, 5]] *= 1e-7
    near_zero[[2, 6]] *= 1e-13
    near_zero[3] = 0.0
    return {
        **adversarial_batches,
        "positive": gen.uniform(0.1, 1.0, size=(9, 24)),
        "near_zero_norms": near_zero,
    }


def gram_bound(name, A, B, gamma=2.0):
    """Largest |Gram − f| the Gram six may show, in squared space.

    The GEMM and the row-wise ``f`` sum the same ``m`` products in
    different orders, so each inner product is within ``γₘ Σ|xᵢyᵢ|`` of
    the other; ``index/scan.py`` bounds the squared-distance form by
    ``screen_slack(m, ‖x‖² + ‖y‖²)`` the same way. Cosine shares the
    norms and divides by ``‖x‖‖y‖ ≥ Σ|xᵢyᵢ|`` (weight 1); ASD's residual
    ``‖x‖² − ⟨x, y⟩²/‖y‖²`` is within the same slack of weight ``‖x‖²``.
    """
    xx = np.sum(A * A, axis=1)[:, None]
    yy = np.sum(B * B, axis=1)[None, :]
    weight = {"cosine": 1.0, "asd": xx, "rbf": gamma * (xx + yy)}.get(name, xx + yy)
    return screen_slack(A.shape[1], weight)


def assert_within_gram_bound(name, got, want, A, B, case=""):
    """Gram matrix ``got`` against the scalar ``want`` (squared space for
    the two root forms). Where the scalar's zero rule fires, a Gram form
    that clamps its denominator instead misses by orders of magnitude."""
    if name in ("euclidean", "asd"):
        got, want = got * got, want * want
    gap = np.abs(got - want)
    bound = gram_bound(name, A, B)
    assert (gap <= bound).all(), (case, float((gap / bound).max()))


#: Measures whose reference-tier matrix is still one Python call per
#: pair; the symmetry check truncates their batches.
PER_PAIR_PYTHON = {"ddtw", "wdtw", "gak", "kdtw"}
#: Measures defined once as a last-axis reduction (``elementwise_matrix``).
ELEMENTWISE = [n for n in ONE_DEFINITION if n not in ("nccc", "sink")]


class TestDeclaredSymmetryAcrossRegistry:
    """``symmetric=True`` is relied on, not assumed: k-medoids skips
    symmetrizing a symmetric measure's W. Every registered symmetric
    measure's ``pairwise(A, A.copy())`` equals its transpose — bitwise
    for the measures defined once as a last-axis reduction, within twice
    the Gram bound for the Gram forms, and within 1e-9 relative (1e-12
    absolute near 0) for the FFT and DP kernels, whose two orientations
    round differently."""

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                m.name,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="GAK rescales a DP row by its maximum, so cells far "
                    "below it underflow to 0; in one orientation the final "
                    "cell does: d(x, y) finite, d(y, x) inf",
                ),
            )
            if m.name == "gak"
            else m.name
            for m in iter_measures()
            if m.symmetric
        ],
    )
    def test_matrix_equals_its_transpose(self, name, parity_cases):
        measure = get_measure(name)
        for case, X in parity_cases.items():
            if name in PER_PAIR_PYTHON:
                X = X[:5]
            W = measure.pairwise(X, X.copy())
            if name in ELEMENTWISE:
                np.testing.assert_array_equal(W, W.T, err_msg=case)
            elif name in GRAM_SIX:
                gap = np.abs(W - W.T)
                assert (gap <= 2 * gram_bound(name, X, X)).all(), case
            else:
                np.testing.assert_allclose(
                    W, W.T, rtol=1e-9, atol=1e-12, err_msg=case
                )

    def test_jeffreys_is_symmetric_where_the_clip_bites(self, sine_pair):
        """Z-scored series are clipped to the nonnegative floor; a floored
        ratio made d(x, y) and d(y, x) differ by percents."""
        x, y = sine_pair
        jeffreys = get_measure("jeffreys")
        assert jeffreys(x, y) == jeffreys(y, x)


class TestBroadcastBlocks:
    """``elementwise_matrix`` blocks rows and columns under one element
    budget; every entry is still ``f`` on one pair."""

    @pytest.mark.parametrize(
        "name,params",
        [("lorentzian", {}), ("minkowski", {"p": 0.5}), ("jaccard", {}), ("cid", {})],
    )
    def test_blocked_equals_one_block(
        self, name, params, adversarial_batches, monkeypatch
    ):
        X = adversarial_batches["more_rows_than_one_block"]
        measure = get_measure(name)

        def results():
            return measure.pairwise(X, **params), measure.pairwise(X[:7], X, **params)

        assert 40 * 40 * 24 <= _common.BROADCAST_BUDGET  # one block each
        whole = results()
        np.testing.assert_array_equal(
            whole[0], [[measure(a, b, **params) for b in X] for a in X]
        )
        # Whole rows per block, then part-rows down to one pair a block.
        for budget in (3 * 40 * 24, 15 * 24, 24, 1):
            monkeypatch.setattr(_common, "BROADCAST_BUDGET", budget)
            for got, want in zip(results(), whole):
                np.testing.assert_array_equal(got, want, err_msg=str(budget))

    def test_peak_memory_is_bounded(self):
        """4 queries against 2e4 references (m = 128): one broadcast over
        all references peaked at 157 MiB. A block's temporaries hold at
        most BROADCAST_BUDGET values each, so the peak stays under four
        budgets' worth of float64 values plus the output (≈2.6 MiB)."""
        gen = np.random.default_rng(0)
        Q, X = gen.normal(size=(4, 128)), gen.normal(size=(20000, 128))
        matrix_func = get_measure("lorentzian").matrix_func
        tracemalloc.start()
        try:
            out = matrix_func(Q, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 20000)
        assert peak < 4 * _common.BROADCAST_BUDGET * 8 + out.nbytes
