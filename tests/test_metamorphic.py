"""Metamorphic properties of the whole pipeline: transformations of the
input whose effect on the output is known without a reference
implementation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcontrol import (
    ControlPulse,
    GoodSubspace,
    HydrogenModel,
    MeasurementPartition,
    StateVector,
    SystemSpec,
    amplified_state,
    assess,
    born_probabilities,
    closed_form_weights,
    make_plan,
    propagate,
    propagate_interaction_picture,
)
from conftest import random_spec, random_state, state_with_good_weight


@st.composite
def relabeled_chains(draw):
    """A chain of 3-10 levels k/m (|k| <= 20, m <= 10), one of them shifted
    by sqrt(2), with at most one link cut; a state, a good set, phases, and
    a permutation ``perm`` taking label i to perm[i - 1] + 1.  With the
    shift, whether the ratio check passes depends on which levels it
    compares, and a labelling must not choose them."""
    dim = draw(st.integers(3, 10))
    drift = [
        draw(st.integers(-20, 20)) / draw(st.integers(1, 10)) for _ in range(dim)
    ]
    drift[draw(st.integers(0, dim - 1))] += math.sqrt(2.0)
    cut = draw(st.sets(st.integers(1, dim - 1), max_size=1))
    coupling = np.zeros((dim, dim))
    for i in range(1, dim):
        if i not in cut:
            coupling[i - 1, i] = coupling[i, i - 1] = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    good = draw(st.sets(st.integers(1, dim), min_size=1, max_size=dim - 1))
    phases = (draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, math.pi)))
    perm = np.array(draw(st.permutations(range(dim))))
    return drift, coupling, amplitudes / np.linalg.norm(amplitudes), good, phases, perm


def _collisions(report, rename):
    """Each collision class as its set of unoriented edges under ``rename``,
    with its zero-frequency flag: a relabeling may reverse any edge."""
    return sorted(
        (sorted(tuple(sorted(map(rename, t))) for t in c.transitions), c.zero_frequency)
        for c in report.frequency_collisions
    )


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@settings(max_examples=200)
@given(case=relabeled_chains())
def test_relabeling_permutes_every_result(case):
    drift, coupling, amplitudes, good, (phi1, phi2), perm = case
    dim = len(drift)
    inverse = np.argsort(perm)

    def rename(label):
        return int(perm[label - 1]) + 1

    spec = SystemSpec(dim=dim, drift=drift, coupling=coupling)
    moved = SystemSpec(
        dim=dim, drift=np.asarray(drift)[inverse], coupling=coupling[np.ix_(inverse, inverse)]
    )
    report, moved_report = assess(spec), assess(moved)
    verdicts = {
        frozenset(map(rename, v.component)): v.verdict for v in report.subspace_verdicts
    }
    assert verdicts == {frozenset(v.component): v.verdict for v in moved_report.subspace_verdicts}
    assert {frozenset(c) for c in moved_report.components} == set(verdicts)
    assert moved_report.global_verdict == report.global_verdict
    assert _collisions(moved_report, int) == _collisions(report, rename)

    state, moved_state = StateVector(amplitudes), StateVector(amplitudes[inverse])
    target = GoodSubspace.of(sorted(good), dim)
    moved_target = GoodSubspace.of(sorted(map(rename, good)), dim)
    plan = make_plan(state, target, phi1, phi2)
    moved_plan = make_plan(moved_state, moved_target, phi1, phi2)
    assert moved_plan.iterations == plan.iterations
    out, moved_out = amplified_state(plan), amplified_state(moved_plan)
    np.testing.assert_allclose(
        moved_out.populations(), out.populations()[inverse], rtol=0, atol=1e-12
    )
    probs = born_probabilities(out, MeasurementPartition.binary(target))
    moved_probs = born_probabilities(moved_out, MeasurementPartition.binary(moved_target))
    np.testing.assert_allclose(moved_probs, probs, rtol=0, atol=1e-12)


def _pulse(rng, segments: int) -> ControlPulse:
    return ControlPulse(tuple(
        (float(rng.uniform(0.05, 1.5)), float(rng.uniform(-2.0, 2.0))) for _ in range(segments)
    ))


def _tail(pulse: ControlPulse, start: float) -> ControlPulse:
    """The pulse's segments after time ``start``, the one it cuts shortened."""
    segments, end = [], 0.0
    for d, u in pulse.segments:
        end += d
        if end > start:
            segments.append((min(d, end - start), u))
    return ControlPulse(tuple(segments))


def _model(rng) -> HydrogenModel:
    gap, kappa_ground, kappa_excited = rng.uniform([0.1, -3.0, -3.0], [2.0, 3.0, 3.0])
    return HydrogenModel(float(gap), float(kappa_ground), float(kappa_excited))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       sizes=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_propagate_concatenates_pulses(seed, dim, sizes):
    rng = np.random.default_rng(seed)
    spec, state = random_spec(rng, dim), random_state(rng, dim)
    first, second = (_pulse(rng, n) for n in sizes)
    chained = propagate(spec, second, propagate(spec, first, state))
    joined = propagate(spec, ControlPulse(first.segments + second.segments), state)
    np.testing.assert_allclose(chained.amplitudes, joined.amplitudes, rtol=0, atol=1e-12)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), segments=st.integers(1, 8), cut=st.floats(0.01, 0.99))
def test_interaction_picture_concatenates_pulses(seed, segments, cut):
    # the pulse cut at an interior time, then its tail from that time on
    rng = np.random.default_rng(seed)
    model, state, pulse = _model(rng), random_state(rng, 5), _pulse(rng, segments)
    t0, start = float(rng.uniform(-5.0, 5.0)), cut * pulse.duration
    head = propagate_interaction_picture(model, pulse, state, start, t0)
    chained = propagate_interaction_picture(model, _tail(pulse, start), head, t0=t0 + start)
    joined = propagate_interaction_picture(model, pulse, state, t0=t0)
    np.testing.assert_allclose(chained.amplitudes, joined.amplitudes, rtol=0, atol=1e-12)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 64), t0_steps=st.integers(-64, 64),
       data=st.data())
def test_interaction_picture_concatenates_a_callable(seed, steps, t0_steps, data):
    # max_step is a power of two no longer than the rule's step, so the field
    # is sampled on the grid t0 + k * max_step however the run is split, and a
    # run cut at a grid point and chained from there takes the same steps
    rng = np.random.default_rng(seed)
    model, state = _model(rng), random_state(rng, 5)
    a, w, phase, offset = rng.uniform([0.0, 0.2, 0.0, -1.0], [2.0, 3.0, 6.3, 1.0])
    field = lambda t: a * math.cos(w * t + phase) + offset
    kappa = max(abs(model.kappa_ground), abs(model.kappa_excited))
    rate = max(model.energy_gap, (a + abs(offset)) * kappa, 1e-6)
    step = 2.0 ** math.floor(math.log2(0.02 / rate))
    split = data.draw(st.integers(1, steps - 1))
    duration, start, t0 = steps * step, split * step, t0_steps * step
    head = propagate_interaction_picture(model, field, state, start, t0, step)
    chained = propagate_interaction_picture(model, field, head, duration - start, t0 + start, step)
    joined = propagate_interaction_picture(model, field, state, duration, t0, step)
    np.testing.assert_allclose(chained.amplitudes, joined.amplitudes, rtol=0, atol=1e-12)


@st.composite
def phased_plans(draw):
    """A state with good weight g from 1e-12 to 1 on a random good set, or
    with none and the pre-rotation on; phases; and a global phase alpha."""
    dim = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    good = draw(st.sets(st.integers(1, dim), min_size=1, max_size=dim - 1))
    if 1 not in good and draw(st.booleans()):
        state, pre_rotation = state_with_good_weight(rng, dim, good, 0.0), True
    else:
        g = min(10.0 ** draw(st.floats(-12.0, 0.0)), 1.0)
        state, pre_rotation = state_with_good_weight(rng, dim, good, g), False
    phases = (draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, math.pi)))
    return state, GoodSubspace.of(sorted(good), dim), phases, pre_rotation, draw(st.floats(0.0, 2 * math.pi))


@settings(max_examples=300)
@given(case=phased_plans())
def test_global_phase_changes_no_plan(case):
    # e^{i alpha} psi is the same physical state: the plan's count, its
    # predicted success and the Born probabilities after amplification agree
    state, good, (phi1, phi2), pre_rotation, alpha = case
    phased = StateVector(np.exp(1j * alpha) * state.amplitudes)
    plan = make_plan(state, good, phi1, phi2, pre_rotation=pre_rotation)
    moved = make_plan(phased, good, phi1, phi2, pre_rotation=pre_rotation)
    tol = 1e-12
    if moved.iterations != plan.iterations:
        # optimal_iterations' tie: both counts' weights lie within its 1e-12,
        # and the round-off of |e^{i alpha} c|^2 chose the other one
        g = plan.initial_good_weight
        first, other = (closed_form_weights(g, phi1, phi2, n)[0] for n in (plan.iterations, moved.iterations))
        assert abs(first - other) <= 1e-12 + 1e-14
        tol = 2e-12 + 1e-14
    assert abs(moved.predicted_success - plan.predicted_success) <= tol
    partition = MeasurementPartition.binary(good)
    probs = born_probabilities(amplified_state(plan), partition)
    moved_probs = born_probabilities(amplified_state(moved), partition)
    np.testing.assert_allclose(moved_probs, probs, rtol=0, atol=tol)


@st.composite
def coupled_graphs(draw, levels):
    """3-10 levels from ``levels``, random couplings in [0.1, 1] on a random
    edge set that always holds a spanning path with at most one link cut."""
    dim = draw(st.integers(3, 10))
    drift = [draw(levels) for _ in range(dim)]
    coupling = np.zeros((dim, dim))
    cut = draw(st.sets(st.integers(1, dim - 1), max_size=1))
    for i in range(1, dim):
        if i not in cut:
            coupling[i - 1, i] = coupling[i, i - 1] = draw(st.floats(0.1, 1.0))
    for i, j in draw(st.sets(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=4)):
        if i != j:
            coupling[i, j] = coupling[j, i] = draw(st.floats(0.1, 1.0))
    return drift, coupling


def verdicts_of(spec):
    report = assess(spec)
    return report.global_verdict, [(v.component, v.verdict) for v in report.subspace_verdicts]


DYADIC = st.builds(lambda k, m: Fraction(k, 2**m), st.integers(-64, 64), st.integers(0, 4))
SMALL_RATIONAL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@settings(max_examples=200)
@given(case=coupled_graphs(DYADIC), shift=st.integers(-1000, 1000))
def test_integer_shift_of_a_dyadic_spectrum_changes_no_verdict(case, shift):
    # a shift moves no transition frequency, and on dyadic levels the float
    # differences are exact, so nothing the verdicts read changes
    drift, coupling = case
    spec = SystemSpec(dim=len(drift), drift=[float(x) for x in drift], coupling=coupling)
    moved = SystemSpec(dim=len(drift), drift=[float(x + shift) for x in drift], coupling=coupling)
    assert verdicts_of(moved) == verdicts_of(spec)


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@settings(max_examples=200)
@given(case=coupled_graphs(SMALL_RATIONAL),
       shift=st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)))
def test_rational_shift_of_an_exact_spectrum_changes_no_verdict(case, shift):
    drift, coupling = case

    def exact_spec(levels):
        return SystemSpec(dim=len(levels), drift=[float(x) for x in levels], coupling=coupling,
                          exact_drift=levels)

    assert verdicts_of(exact_spec([x + shift for x in drift])) == verdicts_of(exact_spec(drift))


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@settings(max_examples=200)
@given(case=coupled_graphs(SMALL_RATIONAL))
def test_exact_and_float_drift_agree_on_small_denominators(case):
    # levels k/m with |k| <= 12 and m <= 4: every frequency ratio has a
    # denominator below 3,500, within the default max_denominator of 10^4,
    # and equal frequencies differ by round-off only, far below the
    # degeneracy tolerance, so the float heuristics decide as exact arithmetic
    drift, coupling = case
    floats = [float(x) for x in drift]
    exact = SystemSpec(dim=len(drift), drift=floats, coupling=coupling, exact_drift=drift)
    heuristic = SystemSpec(dim=len(drift), drift=floats, coupling=coupling)
    assert verdicts_of(heuristic) == verdicts_of(exact)
    assert assess(heuristic).irrational_witnesses == ()
