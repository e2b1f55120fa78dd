"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import DatasetSpec, default_archive, generate_dataset


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def sine_pair():
    """Two distinct but related smooth series of equal length."""
    t = np.linspace(0.0, 4 * np.pi, 64)
    return np.sin(t), np.sin(t + 0.7) * 1.3 + 0.2


@pytest.fixture(scope="session")
def random_pairs():
    """A batch of random series pairs for property-style loops.

    Self-seeded (not drawn from the shared ``rng``) so values do not
    depend on test collection order.
    """
    gen = np.random.default_rng(2024)
    return [
        (gen.normal(size=40), gen.normal(size=40))
        for _ in range(10)
    ]


@pytest.fixture(scope="session")
def positive_pair():
    """Strictly positive series for probability-style measures
    (self-seeded for collection-order independence)."""
    gen = np.random.default_rng(4048)
    return (
        gen.uniform(0.1, 1.0, size=50),
        gen.uniform(0.1, 1.0, size=50),
    )


@pytest.fixture(scope="session")
def adversarial_batches():
    """Inputs on which the batched SINK/SBD/GRAIL paths and the
    pair-batched elastic DP must answer exactly like the scalar
    functions: a zero row, constant rows,
    duplicate rows, a large offset with small noise, lengths 1 and 2, and
    a 40-row batch."""
    gen = np.random.default_rng(77)
    base = gen.normal(size=(40, 24))
    zero_row = base[:9].copy()
    zero_row[3] = 0.0
    constant = base[:9].copy()
    constant[2], constant[6] = 4.0, -1.5
    return {
        "more_rows_than_one_block": base,
        "zero_row": zero_row,
        "constant_rows": constant,
        "duplicate_rows": np.repeat(base[:3], 3, axis=0),
        "large_offset": 1e6 + 1e-3 * gen.normal(size=(9, 24)),
        "length_1": gen.normal(size=(7, 1)),
        "length_2": gen.normal(size=(7, 2)),
    }


@pytest.fixture(scope="session")
def tiny_archive():
    """Small synthetic archive reused across integration tests."""
    return default_archive(n_datasets=8, size_scale=0.5, seed=3)


@pytest.fixture(scope="session")
def small_dataset():
    """One small, easy dataset with clear class structure."""
    spec = DatasetSpec(
        name="TestEasy",
        domain="sensor",
        n_classes=3,
        length=48,
        train_size=18,
        test_size=15,
        noise=0.1,
        seed=42,
    )
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def shifted_dataset():
    """Dataset whose classes differ only up to large circular shifts."""
    spec = DatasetSpec(
        name="TestShifted",
        domain="sensor",
        n_classes=2,
        length=48,
        train_size=14,
        test_size=14,
        noise=0.05,
        shift_frac=0.3,
        seed=11,
    )
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def warped_dataset():
    """Dataset with strong local warping (elastic measures' home turf)."""
    # Classes must differ in *shape* (not just temporal position) for
    # warping invariance to help rather than hurt; this configuration is
    # verified to favor elastic measures over ED.
    spec = DatasetSpec(
        name="TestWarped",
        domain="ecg",
        n_classes=3,
        length=64,
        train_size=20,
        test_size=20,
        noise=0.15,
        warp_frac=0.2,
        shift_frac=0.05,
        seed=1,
    )
    return generate_dataset(spec)
