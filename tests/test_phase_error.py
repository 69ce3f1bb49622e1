"""The closed form's phase-error bound against a 60-digit mpmath oracle.

After L applications, each weight of ``closed_form_weights`` and each
amplitude of ``amplified_state`` (up to the phase the amplitudes share)
lies within PHASE_ERROR_ULPS * L * ulp(1.0) + 1e-15 of the exact value
at the same float inputs.  The oracle powers Q's 2x2 action, read off
Q = -U P0(phi1) U^-1 Pchi(phi2) itself, at 60 digits.  mpmath is a test
dependency (the ``test`` extra): without it this module fails to import
rather than skipping.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iqcontrol import GoodSubspace, StateVector, amplified_state, closed_form_weights, make_plan
from iqcontrol.amplification import (
    DEFAULT_L_MAX,
    MAX_ITERATIONS,
    MIN_GOOD_WEIGHT,
    PHASE_ERROR_ULPS,
    PHASE_TOLERANCE,
)

SLACK = 1e-15  # the part of the error that does not grow with L


def bound(iterations):
    return PHASE_ERROR_ULPS * iterations * math.ulp(1.0) + SLACK


def exact_parts(g, b, phi1, phi2, iterations):
    """(x, y) with Q^L psi = x e_good + y e_bad, where psi = sqrt(g) e_good
    + sqrt(b) e_bad, g + b = 1, and Q = -(I + (e^{i phi1} - 1) |psi><psi|)
    Pchi(phi2) on span{e_good, e_bad}."""
    rg, rb = mpmath.sqrt(g), mpmath.sqrt(b)
    projector = mpmath.matrix([[g, rg * rb], [rg * rb, b]])
    reflect = mpmath.eye(2) + (mpmath.expj(mpmath.mpf(phi1)) - 1) * projector
    w = -reflect * mpmath.diag([mpmath.expj(mpmath.mpf(phi2)), 1])
    v = w**iterations * mpmath.matrix([rg, rb])
    return v[0], v[1]


def check_weights(g, phi1, phi2, iterations):
    good, bad = closed_form_weights(g, phi1, phi2, iterations)
    with mpmath.workdps(60):
        x, y = exact_parts(mpmath.mpf(g), 1 - mpmath.mpf(g), phi1, phi2, iterations)
        errors = abs(good - abs(x) ** 2), abs(bad - abs(y) ** 2)
    assert max(errors) <= bound(iterations), (g, phi1, phi2, iterations, errors)


def check_amplitudes(state, good, phi1, phi2, iterations):
    amplified = amplified_state(make_plan(state, good, phi1, phi2, iterations)).amplitudes
    mask = good.mask()
    with mpmath.workdps(60):
        entries = [mpmath.mpc(complex(a)) for a in state.amplitudes]
        weights = [abs(a) ** 2 for a in entries]
        norm = mpmath.fsum(weights)
        g = mpmath.fsum(w for w, m in zip(weights, mask) if m) / norm
        x, y = exact_parts(g, 1 - g, phi1, phi2, iterations)
        scale = [(x / mpmath.sqrt(g) if m else y / mpmath.sqrt(1 - g)) / mpmath.sqrt(norm) for m in mask]
        exact = [a * s for a, s in zip(entries, scale)]
        # the good block's Born weight, read from the amplitudes
        weight = float(np.sum(np.abs(amplified[mask]) ** 2))
        weight_error = abs(weight - abs(x) ** 2)
        # the amplitudes, up to the phase e^{i L alpha} they all share
        overlap = mpmath.fsum(mpmath.conj(e) * a for e, a in zip(exact, amplified))
        shared = overlap / abs(overlap) if overlap else 1
        amplitude_error = max(abs(a - shared * e) for a, e in zip(amplified, exact))
    assert weight_error <= bound(iterations), (g, phi1, phi2, iterations, weight_error)
    assert amplitude_error <= bound(iterations), (g, phi1, phi2, iterations, amplitude_error)


GRID_WEIGHTS = [MIN_GOOD_WEIGHT, 1e-9, 1e-4, 0.01, 0.25, 0.5, 0.75, 1 - 1e-9]
GRID_PHASES = [0.0, 1e-8, 0.5, math.pi / 2, 3.0, math.pi]
GRID_COUNTS = [0, 1, 7, 1000, DEFAULT_L_MAX, MAX_ITERATIONS]


def test_cap_is_the_largest_count_within_the_tolerance():
    assert MAX_ITERATIONS == 1125899
    assert PHASE_ERROR_ULPS * MAX_ITERATIONS * math.ulp(1.0) <= PHASE_TOLERANCE
    assert PHASE_ERROR_ULPS * (MAX_ITERATIONS + 1) * math.ulp(1.0) > PHASE_TOLERANCE
    assert DEFAULT_L_MAX <= MAX_ITERATIONS


@pytest.mark.parametrize("g", GRID_WEIGHTS)
def test_weights_within_the_bound(g):
    for phi1 in GRID_PHASES:
        for phi2 in GRID_PHASES:
            for iterations in GRID_COUNTS:
                check_weights(g, phi1, phi2, iterations)


@pytest.mark.parametrize("g", GRID_WEIGHTS)
def test_amplitudes_within_the_bound(g):
    # 4 levels, good {1, 3}, complex amplitudes; the smallest weight is
    # lifted off MIN_GOOD_WEIGHT so that rounding cannot take it below
    g = max(g, 2 * MIN_GOOD_WEIGHT)
    rng = np.random.default_rng(int(-math.log10(g) * 1000))
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z[[0, 2]] *= math.sqrt(g) / np.linalg.norm(z[[0, 2]])
    z[[1, 3]] *= math.sqrt(1 - g) / np.linalg.norm(z[[1, 3]])
    state, good = StateVector(z), GoodSubspace.of([1, 3], 4)
    for phi1 in GRID_PHASES:
        for phi2 in GRID_PHASES:
            for iterations in GRID_COUNTS:
                check_amplitudes(state, good, phi1, phi2, iterations)


@given(
    g=st.floats(MIN_GOOD_WEIGHT, 1.0, exclude_max=True) | st.floats(-15.0, 0.0).map(lambda e: 10**e * 0.999),
    phi1=st.floats(0.0, math.pi),
    phi2=st.floats(0.0, math.pi),
    iterations=st.integers(0, MAX_ITERATIONS),
)
def test_closed_form_within_the_bound(g, phi1, phi2, iterations):
    # random draws under the soak profile; g also log-uniform, as a plain
    # float draw rarely lands below 1e-3
    g = max(g, MIN_GOOD_WEIGHT)
    check_weights(g, phi1, phi2, iterations)
    b = 1.0 - g
    state = StateVector([math.sqrt(b) * 0.6, math.sqrt(g), math.sqrt(b) * 0.8j])
    if g >= 2 * MIN_GOOD_WEIGHT:  # else rounding may leave the state no good weight to plan
        check_amplitudes(state, GoodSubspace.of(2, 3), phi1, phi2, iterations)
