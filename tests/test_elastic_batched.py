"""Bitwise parity of the pair-batched elastic DP with the scalar functions.

The reference tier's ``pairwise`` for DTW, MSM, TWE, ERP, LCSS, EDR and
Swale runs every pair's recurrence at once along the DP's anti-diagonals
(:func:`repro.distances.elastic._dp.pairwise_dp`). The scalar functions
stay the definition: every entry must equal the per-pair loop bitwise, in
self mode (upper triangle with its diagonal, mirrored), for rectangular
and unequal-length batches, whatever the chunking.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.distances import get_measure, list_measures
from repro.distances.elastic import _dp

ELASTIC = ("dtw", "edr", "erp", "lcss", "msm", "swale", "twe")


def _corner_cases(name):
    """Defaults plus each parameter's low and high Table 4 grid corner."""
    measure = get_measure(name)
    defaults = measure.default_params
    cases = [defaults]
    for spec in measure.params:
        for value in (spec.grid[0], spec.grid[-1]):
            case = {**defaults, spec.name: value}
            if case not in cases:
                cases.append(case)
    return cases


def _loop(name, X, Y, params):
    """The scalar oracle: one call of the measure's function per pair."""
    func = get_measure(name).func
    return np.array([[func(x, y, **params) for y in Y] for x in X])


def _self_oracle(full):
    """What pairwise's self mode computes from the scalar loop: the upper
    triangle with its diagonal, mirrored."""
    upper = np.triu(np.ones(full.shape, dtype=bool))
    return np.where(upper, full, full.T)


def _assert_parity(name, X, Y, params):
    np.testing.assert_array_equal(
        get_measure(name).pairwise(X, Y, backend="reference", **params),
        _loop(name, X, Y, params),
    )


def test_the_seven_elastic_measures_are_batched():
    assert sorted(ELASTIC) == list_measures("elastic")
    for name in ELASTIC:
        assert get_measure(name).matrix_func is not None


@pytest.mark.parametrize("name", ELASTIC)
def test_adversarial_batches(name, adversarial_batches):
    """Self mode, ``pairwise(X, X)``, rectangular and unequal lengths in
    both orders, at the defaults and at every Table 4 grid corner."""
    measure = get_measure(name)
    for params in _corner_cases(name):
        for batch, X in adversarial_batches.items():
            msg = f"{name} {params} {batch}"
            full = _loop(name, X, X, params)
            np.testing.assert_array_equal(
                measure.pairwise(X, backend="reference", **params),
                _self_oracle(full),
                err_msg=msg,
            )
            # The same array object twice: pairwise_dp's self mode, which
            # must still equal the full per-pair loop.
            np.testing.assert_array_equal(
                measure.pairwise(X, X, backend="reference", **params),
                full,
                err_msg=msg,
            )
            Q = np.vstack([X[:4], np.full((1, X.shape[1]), 0.5)])
            _assert_parity(name, Q, X, params)
            longer = np.hstack([X[:3], X[:3, ::-1]])
            _assert_parity(name, X, longer, params)
            _assert_parity(name, longer, X, params)


@pytest.mark.parametrize("name", ELASTIC)
def test_every_table4_grid_value(name):
    measure = get_measure(name)
    gen = np.random.default_rng(20200614)
    X = gen.normal(size=(6, 15))
    Y = gen.normal(size=(4, 11))
    for params in measure.param_grid():
        full = _loop(name, X, X, params)
        np.testing.assert_array_equal(
            measure.pairwise(X, backend="reference", **params),
            _self_oracle(full),
            err_msg=f"{name} {params}",
        )
        _assert_parity(name, X, Y, params)


@pytest.mark.parametrize("name", ELASTIC)
def test_chunks_equal_one_chunk(name, monkeypatch):
    """With the pair budget cut to a few pairs per chunk, chunks split
    rows (and the self-mode triangle) anywhere; nothing changes."""
    measure = get_measure(name)
    gen = np.random.default_rng(7)
    X = gen.normal(size=(9, 20))
    Y = gen.normal(size=(7, 13))
    whole_self = measure.pairwise(X, backend="reference")
    whole_rect = measure.pairwise(X, Y, backend="reference")
    assert 9 * 7 * 21 <= _dp.PAIR_BUDGET  # one chunk above
    monkeypatch.setattr(_dp, "PAIR_BUDGET", 4 * 21)
    np.testing.assert_array_equal(
        measure.pairwise(X, backend="reference"), whole_self
    )
    np.testing.assert_array_equal(
        measure.pairwise(X, Y, backend="reference"), whole_rect
    )


@pytest.mark.parametrize("name", ["dtw", "msm", "twe", "erp"])
def test_peak_memory_is_bounded_by_the_budget(name):
    """40 000 pairs of length 16 are about 20 budgets' worth of values per
    pairs x length array, so two unchunked arrays would already break the
    bound; chunked, the peak is a fixed number of chunk-sized arrays (the
    cell rules keep about 15 alive) plus the output."""
    gen = np.random.default_rng(3)
    X = gen.normal(size=(200, 16))
    Y = gen.normal(size=(200, 16))
    assert 2 * 200 * 200 * 17 > 24 * _dp.PAIR_BUDGET
    tracemalloc.start()
    try:
        D = get_measure(name).pairwise(X, Y, backend="reference")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = _dp.PAIR_BUDGET * 8
    assert peak <= 24 * chunk_bytes + D.nbytes
