"""Metamorphic properties of the whole pipeline: transformations of the
input whose effect on the output is known without a reference
implementation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcontrol import (
    GoodSubspace,
    MeasurementPartition,
    StateVector,
    SystemSpec,
    amplified_state,
    assess,
    born_probabilities,
    make_plan,
)


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
