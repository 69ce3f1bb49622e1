"""Shared randomized-instance helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from iqcontrol import StateVector, SystemSpec, UnitaryOperator

# Property tests draw a fixed sequence of examples and keep no example
# database, so every Tier-1 run checks the same inputs.
settings.register_profile("iqcontrol", derandomize=True, database=None, deadline=None)
settings.load_profile("iqcontrol")
# A randomized soak for properties that read their example count from the
# profile, such as the two render properties in tests/test_cli.py:
# ``pytest --hypothesis-profile=soak``.  Tier-1 never loads it.
settings.register_profile("soak", derandomize=False, database=None, deadline=None, max_examples=2000)


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


COUPLING_KINDS = ("complex", "real", "blocks", "one-sided")


def coupling_of_kind(rng: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    """A Hermitian coupling of one of COUPLING_KINDS: dense complex; dense
    real; blocks over a random partition of the levels, real or complex
    each, with level 1 a singleton with B_11 != 0 and some singletons
    with no coupling at all; or a sparse real one with a single entry
    below the Hermiticity tolerance on one side of the diagonal only."""
    if kind == "complex":
        return random_hermitian(rng, dim)
    if kind == "real":
        return random_hermitian(rng, dim).real
    coupling = np.zeros((dim, dim), dtype=complex)
    if kind == "blocks":
        coupling[0, 0] = rng.normal()
        start = 1
        for end in range(2, dim + 1):
            if end < dim and rng.random() < 0.6:
                continue
            block, start = np.arange(start, end), end
            if block.size > 1 and rng.random() < 0.8:
                sub = random_hermitian(rng, block.size)
                coupling[np.ix_(block, block)] = sub.real if rng.random() < 0.5 else sub
        return coupling
    upper = np.triu(rng.random((dim, dim)) < 0.3, 1) * rng.normal(size=(dim, dim))
    coupling = upper + upper.T
    i, j = sorted(rng.choice(dim, 2, replace=False))
    coupling[i, j] = coupling[j, i] = 0.0
    coupling[(i, j) if rng.random() < 0.5 else (j, i)] = 5e-13
    return coupling.real


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
