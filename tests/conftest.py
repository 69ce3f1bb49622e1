"""Shared randomized-instance helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from iqcontrol import StateVector, SystemSpec, UnitaryOperator

# Property tests draw a fixed sequence of examples and keep no example
# database, so every Tier-1 run checks the same inputs.
settings.register_profile("iqcontrol", derandomize=True, database=None, deadline=None)
settings.load_profile("iqcontrol")


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(z / np.linalg.norm(z))


def haar_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the QR phase ambiguity so the distribution is Haar
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryOperator(q)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2.0


def random_spec(rng: np.random.Generator, dim: int) -> SystemSpec:
    drift = np.sort(rng.normal(size=dim) * 2.0)
    return SystemSpec(dim=dim, drift=drift, coupling=random_hermitian(rng, dim))


def state_with_good_weight(
    rng: np.random.Generator, dim: int, good_indices, g: float
) -> StateVector:
    """Random state with exactly weight g on the given 1-based labels."""
    mask = np.zeros(dim, dtype=bool)
    for i in good_indices:
        mask[i - 1] = True
    zg = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    zg[~mask] = 0.0
    zb = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    zb[mask] = 0.0
    zg *= np.sqrt(g) / np.linalg.norm(zg)
    zb *= np.sqrt(1.0 - g) / np.linalg.norm(zb)
    return StateVector(zg + zb)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
