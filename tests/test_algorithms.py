import copy
import dataclasses
import gc
import json
import math
import pickle
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqcontrol import (
    ControlPulse,
    DimensionMismatchError,
    GoodSubspace,
    MeasurementPartition,
    NonFiniteError,
    RunReport,
    StateVector,
    SystemSpec,
    VERDICT_INCONCLUSIVE,
    ZeroOverlapError,
    assess,
    build_graph,
    case1_preset,
    case2_preset,
    connected_components,
    decompose,
    hydrogen_spec,
    prepare_run,
    prepare_unitary,
    run_algorithm1,
    run_algorithm2,
)
from iqcontrol import ControllabilityConfig, algorithms, amplification, cli, controllability, measurement
from iqcontrol.amplification import MAX_ITERATIONS, amplification_operator
from conftest import COUPLING_KINDS, coupling_of_kind, random_state
from oracles import rebuilt_paths, success_probability


class TestAlgorithm1:
    def test_case1_reproduction(self):
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=11)
        assert report.plan.iterations == 7
        assert abs(report.predicted_success - 0.9953) < 5e-4
        assert report.post_amplification[4] ** 2 >= 0.995
        assert abs(np.sum(report.post_amplification**2) - 1.0) < 1e-9

    def test_pipeline_equals_operator_powers(self):
        # integrity: the reported post-amplification amplitudes are the
        # explicit matrix power applied to the prepared state
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=11)
        u = prepare_unitary(p.initial)
        q = amplification_operator(u, p.good, math.pi, math.pi)
        c = np.linalg.matrix_power(q.matrix, report.plan.iterations) @ u.matrix[:, 0]
        assert np.max(np.abs(report.post_amplification - np.abs(c))) < 1e-9

    def test_already_good_eigenstate(self):
        spec = hydrogen_spec()
        report = run_algorithm1(spec, StateVector.basis_state(5, 5), 5, seed=1)
        assert report.plan.initial_good_weight == pytest.approx(1.0)
        assert report.plan.iterations == 0
        assert report.success is True
        assert report.measurement.probability == pytest.approx(1.0)

    def test_two_level_equal_superposition(self, rng):
        spec = SystemSpec(dim=2, drift=[0.0, 1.0], coupling=np.array([[0, 1.0], [1.0, 0]]))
        initial = StateVector([math.sqrt(0.5), math.sqrt(0.5)])
        report = run_algorithm1(spec, initial, 2, seed=5)
        # exhaustive scan over a small horizon confirms the choice is
        # maximizing (all candidates tie at 1/2 up to float noise)
        best = max(success_probability(0.5, L) for L in range(11))
        assert success_probability(0.5, report.plan.iterations) >= best - 1e-9
        assert report.plan.iterations == 0

    def test_measurement_deterministic_in_seed(self):
        p = case1_preset()
        spec = hydrogen_spec()
        a = run_algorithm1(spec, p.initial, 5, seed=42)
        b = run_algorithm1(spec, p.initial, 5, seed=42)
        assert a.measurement.block_index == b.measurement.block_index
        assert np.array_equal(
            a.measurement.collapsed.amplitudes, b.measurement.collapsed.amplitudes
        )

    def test_success_collapses_to_target_eigenstate(self):
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=11)
        assert report.success
        assert np.allclose(np.abs(report.measurement.collapsed.amplitudes), [0, 0, 0, 0, 1])

    def test_final_pulse_and_fidelity(self):
        spec = hydrogen_spec()
        p = case1_preset()
        pulse = ControlPulse(((0.9, 0.4),))
        target = StateVector.basis_state(5, 5)
        report = run_algorithm1(
            spec, p.initial, 5, seed=11, final_pulse=pulse, target=target
        )
        assert report.success
        assert report.final_state is not None
        # state 5 is uncoupled: any field leaves it alone up to phase
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_zero_overlap_needs_pre_rotation(self):
        spec = hydrogen_spec()
        initial = StateVector([1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ZeroOverlapError):
            run_algorithm1(spec, initial, 5, seed=3)
        report = run_algorithm1(spec, initial, 5, seed=3, pre_rotation=True)
        assert report.plan.pre_rotated
        assert report.plan.initial_good_weight > 0

    def test_histogram_mode(self):
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=9, shots=2000)
        assert report.measurement is None
        assert sum(report.histogram) == 2000
        assert report.empirical_success == report.histogram[0] / 2000
        assert abs(report.empirical_success - report.predicted_success) < 0.01

    def test_explicit_iterations(self):
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=1, iterations=2)
        assert report.plan.iterations == 2
        assert report.predicted_success == pytest.approx(success_probability(0.01, 2))

    def test_report_serializes(self):
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=11, shots=100)
        json.dumps(report.to_dict())

    def test_report_lists_equal_per_element_form(self):
        # the bulk lists encode as the per-element ones did, signed zeros kept
        p = case1_preset()
        report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=11)
        state = StateVector(np.array([complex(-0.0, 0.6), complex(0.8, -0.0), 0, 0, 0]))
        report = replace(
            report,
            pre_amplification=np.array([-0.0, 0.1, 0.2, 0.3, 1e-300]),
            final_state=state,
            measurement=replace(report.measurement, collapsed=state),
        )
        expected = report.to_dict()
        for name in ("pre_amplification", "post_amplification"):
            expected[name] = [float(x) for x in getattr(report, name)]
        expected["final_state"] = [[z.real, z.imag] for z in state.amplitudes]
        expected["measurement"]["collapsed"] = [[z.real, z.imag] for z in state.amplitudes]
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert text == json.dumps(expected, sort_keys=True)
        assert "[-0.0, 0.6]" in text and "[0.8, -0.0]" in text

    def test_report_omits_exactly_its_none_fields(self):
        # every field that is set is written, whatever else the run set
        spec, p = hydrogen_spec(), case1_preset()
        pulse = ControlPulse(((0.9, 0.4),))
        prepared = prepare_run(spec, p.initial, p.good, l_max=100)  # the CLI's amplify report
        reports = [
            RunReport(prepared.plan, prepared.pre_amplification, prepared.post_amplification,
                      prepared.plan.predicted_success),
            run_algorithm1(spec, p.initial, 5, seed=11),
            run_algorithm1(spec, p.initial, 5, seed=11, shots=100),
            run_algorithm1(spec, p.initial, 5, seed=11, max_attempts=5),
            run_algorithm1(spec, p.initial, 5, seed=11, final_pulse=pulse,
                           target=StateVector.basis_state(4, 5)),
            run_algorithm2(spec, case2_preset().initial, case2_preset().good, seed=17),
        ]
        for report in reports:
            fields = [f.name for f in dataclasses.fields(report) if getattr(report, f.name) is not None]
            assert list(report.to_dict()) == fields


class TestAlgorithm2:
    def test_case2_reproduction(self):
        p = case2_preset()
        report = run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=17)
        assert report.plan.iterations == 5
        assert abs(report.predicted_success - 0.9999) < 1e-4
        assert report.controllability_note["verdict"] == VERDICT_INCONCLUSIVE

    def test_collapsed_state_inside_subspace(self):
        p = case2_preset()
        report = run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=17)
        assert report.success
        collapsed = report.measurement.collapsed.amplitudes
        assert np.all(collapsed[3:] == 0)
        assert abs(np.linalg.norm(collapsed) - 1.0) < 1e-12

    def test_fully_inside_subspace(self):
        spec = hydrogen_spec()
        initial = StateVector([0.6, 0.0, 0.8, 0.0, 0.0])
        report = run_algorithm2(spec, initial, GoodSubspace.of([1, 2, 3], 5), seed=2)
        assert report.plan.initial_good_weight == pytest.approx(1.0)
        assert report.plan.iterations == 0
        assert report.predicted_success == pytest.approx(1.0)

    def test_random_subspace_weight_matches_formula(self, rng):
        spec = hydrogen_spec()
        for _ in range(10):
            initial = random_state(rng, 5)
            sub = GoodSubspace.of([1, 2], 5)
            with pytest.warns(UserWarning, match="not a connected component"):
                report = run_algorithm2(spec, initial, sub, seed=3)
            g = decompose(initial, sub).g
            weight = float(np.sum(report.post_amplification[:2] ** 2))
            assert abs(weight - success_probability(g, report.plan.iterations)) < 1e-9

    def test_component_mismatch_warns(self):
        spec = hydrogen_spec()
        initial = StateVector([0.5, 0.5, 0.5, 0.5, 0.0])
        with pytest.warns(UserWarning, match="not a connected component"):
            report = run_algorithm2(spec, initial, GoodSubspace.of([1, 2], 5), seed=1)
        assert report.controllability_note["verdict"] is None

    def test_report_dict_is_not_the_report_state(self):
        # a caller may edit the dict it was given; the frozen report and
        # every later dict keep the run's values
        p = case2_preset()
        report = run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=17)
        d = report.to_dict()
        d["controllability_note"]["verdict"] = "edited"
        d["controllability_note"]["notes"].append("edited")
        d["plan"]["good_indices"].append(4)
        assert report.controllability_note["verdict"] == VERDICT_INCONCLUSIVE
        assert report.to_dict() == run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=17).to_dict()

    def test_histogram_mode(self):
        p = case2_preset()
        report = run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=23, shots=3000)
        assert sum(report.histogram) == 3000
        assert abs(report.empirical_success - report.predicted_success) < 0.01

    def test_norm_consistency_of_amplitude_tables(self):
        p = case2_preset()
        report = run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=17)
        assert abs(np.sum(report.pre_amplification**2) - 1.0) < 1e-9
        assert abs(np.sum(report.post_amplification**2) - 1.0) < 1e-9

    def test_measurement_shot_varies_outcome_stream(self):
        # same seed, different shot indices: the sampling stream moves;
        # one iteration leaves success probability ~0.17, so both
        # outcomes appear over 100 re-measurements
        p = case2_preset()
        spec = hydrogen_spec()
        outcomes = {
            run_algorithm2(
                spec, p.initial, p.good, seed=4, iterations=1, measurement_shot=k
            ).success
            for k in range(100)
        }
        assert outcomes == {True, False}


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"shots": 500}, {"max_attempts": 1}, {"max_attempts": 300}],
    ids=["single-shot", "histogram", "one-attempt", "repeat"],
)
def test_one_partition_per_run(monkeypatch, kwargs):
    # without the shared partition, a repeat run whose first shot failed built
    # the binary partition three times
    built = []
    binary = MeasurementPartition.binary.__func__

    def counted(cls, good):
        built.append(good)
        return binary(cls, good)

    monkeypatch.setattr(MeasurementPartition, "binary", classmethod(counted))
    spec = hydrogen_spec()
    # no iterations: success 0.01 for algorithm 1 and 0.02 for algorithm 2,
    # so under seed 3 the first shot fails and the repeat draws again
    p1, p2 = case1_preset(), case2_preset()
    runs = [
        lambda: run_algorithm1(spec, p1.initial, 5, iterations=0, seed=3, **kwargs),
        lambda: run_algorithm2(spec, p2.initial, p2.good, iterations=0, seed=3, **kwargs),
    ]
    for run in runs:
        built.clear()
        report = run()
        assert len(built) == 1
        if kwargs.get("max_attempts") == 300:
            assert report.attempts > 1 and report.success


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


RUN_KINDS = [{}, {"shots": 500}, {"max_attempts": 300}]


def test_one_report_per_run(monkeypatch):
    # each run makes its RunReport once, with every field, instead of
    # copying a partial one with dataclasses.replace
    def forbidden(*args, **kwargs):
        raise AssertionError("dataclasses.replace called")

    monkeypatch.setattr(dataclasses, "replace", forbidden)
    monkeypatch.setattr(algorithms, "replace", forbidden, raising=False)
    made = []
    init = RunReport.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RunReport, "__init__", counted)
    spec, p1, p2 = hydrogen_spec(), case1_preset(), case2_preset()
    pulse = ControlPulse(((0.4, 0.7), (0.3, -0.2)))
    target = StateVector.basis_state(1, 5)
    for kwargs in RUN_KINDS:
        for run in (
            lambda: run_algorithm1(spec, p1.initial, 5, seed=3, **kwargs),
            lambda: run_algorithm1(spec, StateVector([0.6, 0, 0.8, 0, 0]), 3, seed=3,
                                   final_pulse=pulse, target=target, **kwargs),
            lambda: run_algorithm2(spec, p2.initial, p2.good, seed=3, **kwargs),
        ):
            made.clear()
            run()
            assert len(made) == 1


def _observed(run):
    """What a run shows, bit for bit: its report as JSON text and the bytes
    of its amplitude arrays, or the error it raised; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = run()
        except Exception as exc:  # both paths must raise the same error
            shown = (type(exc).__name__, str(exc))
        else:
            states = (report.measurement and report.measurement.collapsed, report.final_state)
            arrays = [report.pre_amplification, report.post_amplification]
            arrays += [state.amplitudes for state in states if state is not None]
            shown = (json.dumps(report.to_dict(), sort_keys=True), [a.tobytes() for a in arrays])
    return shown, [str(w.message) for w in caught]


def _pulse(rng) -> ControlPulse:
    return ControlPulse(tuple(
        (float(rng.uniform(0.05, 1.0)), float(rng.normal())) for _ in range(int(rng.integers(1, 9)))
    ))


@st.composite
def pipeline_runs(draw):
    """One run of either algorithm, over every input the run's reuse
    touches: N from 2 to 64, each coupling kind of ``coupling_of_kind``,
    random good sets, phases, counts, shot kinds and seeds, and states
    with no weight on some levels (the good ones, with or without the
    pre-rotation, or a coupled block); algorithm 1 steers with a pulse."""
    dim = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a diagonal coupling commutes with the drift
        spec = SystemSpec(dim=dim, drift=rng.normal(size=dim) * 2.0,
                          coupling=coupling_of_kind(rng, dim, draw(st.sampled_from(COUPLING_KINDS))))
    algorithm = draw(st.sampled_from([1, 2]))
    if algorithm == 1:
        good = {draw(st.integers(1, dim))}
    else:
        good = draw(st.sets(st.integers(1, dim), min_size=1, max_size=dim - 1))
    amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    zeroed = draw(st.sampled_from(["none", "none", "good", "random", "random"]))
    if zeroed == "good":
        amplitudes[[i - 1 for i in good]] = 0.0
    elif zeroed == "random":
        amplitudes[rng.random(dim) < 0.5] = 0.0
        if not amplitudes.any():
            amplitudes[0] = 1.0
    shots = draw(st.one_of(st.just(1), st.integers(2, 3000)))
    kwargs = dict(
        phi1=draw(st.floats(0.0, math.pi)),
        phi2=draw(st.floats(0.0, math.pi)),
        iterations=draw(st.sampled_from(["auto", "auto", 0, "explicit"])),
        seed=draw(st.integers(0, 2**130)),
        shots=shots,
        pre_rotation=draw(st.booleans()),
        measurement_shot=draw(st.integers(0, 7)),
        max_attempts=draw(st.none() | st.integers(1, 300)) if shots == 1 else None,
    )
    if kwargs["iterations"] == "explicit":
        kwargs["iterations"] = draw(st.integers(1, MAX_ITERATIONS + 1))
    initial = StateVector(amplitudes / np.linalg.norm(amplitudes))
    if algorithm == 2:
        return lambda: run_algorithm2(spec, initial, GoodSubspace.of(good, dim), **kwargs)
    kwargs.update(final_pulse=_pulse(rng), target=draw(st.none() | st.just(random_state(rng, dim))))
    return lambda: run_algorithm1(spec, initial, min(good), **kwargs)


@settings(max_examples=200)
@given(run=pipeline_runs())
def test_runs_equal_the_rebuilding_path(run):
    # the plan's carried split, the mask-built partition, the spec's block
    # arrays and the one report change no bit of a run, its errors or its
    # warnings; the second run reads the arrays the first one left
    first = _observed(run)
    with rebuilt_paths():
        assert _observed(run) == first
    assert _observed(run) == first


def test_repeat_run_draws_from_one_stream(monkeypatch):
    # a repeat run enters the shot stream and computes the Born
    # probabilities once: the search and the collapse are one pass
    calls = {"_shot_uniforms": 0, "born_probabilities": 0}

    def counted(name):
        original = getattr(measurement, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(measurement, name, wrapper)

    for name in calls:
        counted(name)
    p = case1_preset()
    report = run_algorithm1(hydrogen_spec(), p.initial, 5, iterations=0, seed=3, max_attempts=40)
    assert report.attempts > 1
    assert calls == {"_shot_uniforms": 1, "born_probabilities": 1}


@pytest.mark.parametrize("run", [1, 2], ids=["algorithm1", "algorithm2"])
def test_max_attempts_must_be_an_integer(run):
    # unchecked, 2.5 ended in a numpy TypeError that named no argument and
    # True ran as one attempt; a numpy integer is an integer
    spec, p = hydrogen_spec(), (case1_preset() if run == 1 else case2_preset())
    target = 5 if run == 1 else p.good
    algorithm = run_algorithm1 if run == 1 else run_algorithm2

    def attempts(max_attempts):
        return algorithm(spec, p.initial, target, iterations=0, seed=3, max_attempts=max_attempts)

    for bad in (2.5, True):
        with pytest.raises(TypeError, match="^max_attempts: must be an integer"):
            attempts(bad)
    report = attempts(np.int64(3))
    assert report.to_dict() == attempts(3).to_dict()
    assert type(report.attempts) is int


@pytest.mark.parametrize("run", ["make_plan", "run_algorithm1", "run_algorithm2"])
def test_array_iterations_name_their_argument(run):
    # comparing an array with "auto" raised numpy's "truth value of an
    # array ... is ambiguous", which names no argument
    p = case2_preset()
    calls = {
        "make_plan": lambda **kw: amplification.make_plan(p.initial, p.good, **kw),
        "run_algorithm1": lambda **kw: run_algorithm1(hydrogen_spec(), p.initial, 1, seed=1, **kw),
        "run_algorithm2": lambda **kw: run_algorithm2(hydrogen_spec(), p.initial, p.good, seed=1, **kw),
    }
    with pytest.raises(TypeError) as error:
        calls[run](iterations=np.array([1, 2]))
    assert str(error.value) == "iterations: must be an integer, got array([1, 2])"


@settings(max_examples=80)
@given(
    k=st.sampled_from([4, 5]),
    initial=st.sampled_from([case1_preset().initial, case2_preset().initial]),
    seed=st.integers(0, 2**64),
    shots=st.sampled_from([1, 500]),
    max_attempts=st.sampled_from([None, 1, 300]),
    iterations=st.sampled_from(["auto", 0, 3]),
    measurement_shot=st.integers(0, 10**6),
)
def test_algorithm1_is_algorithm2_on_a_singleton_component(k, initial, **kw):
    # one pipeline: on a label whose singleton is a component of the
    # coupling graph (hydrogen 4 or 5) both algorithms report the same run,
    # or raise the same error, and algorithm 2 only adds its note
    def outcome(algorithm, target):
        try:
            return algorithm(hydrogen_spec(), initial, target, **kw).to_dict()
        except ValueError as exc:
            return repr(exc)

    first = outcome(run_algorithm1, k)
    second = outcome(run_algorithm2, GoodSubspace.of(k, 5))
    if isinstance(second, dict):
        assert second.pop("controllability_note")["component"] == [k]
    assert first == second


@st.composite
def algorithm2_cases(draw):
    """A chain, a dense spec (each cut in two at a random level) or
    hydrogen, a controllability config, and a subspace: one of the graph's
    components or any other strict subset."""
    family = draw(st.sampled_from(["chain", "dense", "hydrogen"]))
    if family == "hydrogen":
        spec = hydrogen_spec()
    else:
        dim = draw(st.integers(3, 7))
        # rational levels, some shared; or half-integers, one offset by sqrt(2)
        drift = [draw(st.integers(0, 6)) / draw(st.sampled_from([1, 2, 3])) for _ in range(dim)]
        if draw(st.booleans()):
            drift[draw(st.integers(0, dim - 1))] += math.sqrt(2.0)
        pairs = [(i, i + 1) for i in range(dim - 1)] if family == "chain" else [
            (i, j) for i in range(dim) for j in range(i + 1, dim)
        ]
        cut = draw(st.integers(1, dim))  # no pair crosses the cut
        coupling = np.zeros((dim, dim))
        for i, j in (p for p in pairs if (p[0] < cut) == (p[1] < cut)):
            coupling[i, j] = coupling[j, i] = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "drift and coupling commute")
            spec = SystemSpec(dim=dim, drift=drift, coupling=coupling)
    config = ControllabilityConfig(edge_threshold=draw(st.sampled_from([1e-12, 0.75])))
    components = [
        c for c in connected_components(build_graph(spec, config.edge_threshold))
        if len(c) < spec.dim
    ]
    labels = st.sets(st.integers(1, spec.dim), min_size=1, max_size=spec.dim - 1)
    if components:
        labels = labels | st.sampled_from(components)
    subspace = GoodSubspace.of(draw(labels), spec.dim)
    return spec, config, subspace, random_state(np.random.default_rng(draw(st.integers(0, 99))), spec.dim)


def _hydrogen_target(labels):
    # hydrogen's components are {1, 2, 3}, {4} and {5}: {1, 2} has an edge
    # leaving it, {1, 2, 3, 4} and {4, 5} none but two components each
    initial = random_state(np.random.default_rng(0), 5)
    return hydrogen_spec(), ControllabilityConfig(), GoodSubspace.of(labels, 5), initial


@pytest.mark.soak  # the note must agree with the graph's components
@settings(max_examples=150)
@given(case=algorithm2_cases())
@example(case=_hydrogen_target([1, 2, 3]))
@example(case=_hydrogen_target([4]))
@example(case=_hydrogen_target([1, 2]))
@example(case=_hydrogen_target([1, 2, 3, 4]))
@example(case=_hydrogen_target([4, 5]))
def test_algorithm2_note_equals_the_assess_verdict(case):
    # the note is the matching component's verdict in a whole-system
    # assess, byte for byte, and a subspace that is no component warns
    spec, config, subspace, initial = case
    target = tuple(sorted(subspace.indices))
    verdicts = {v.component: v.to_dict() for v in assess(spec, config).subspace_verdicts}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_algorithm2(
            spec, initial, subspace, iterations=1, seed=1, controllability_config=config
        )
    expected = verdicts.get(target, {
        "component": list(target),
        "verdict": None,
        "notes": ["not a connected component of the coupling graph"],
    })
    assert json.dumps(report.controllability_note) == json.dumps(expected)
    warned = [] if target in verdicts else [
        f"subspace {list(target)} is not a connected component of the coupling graph; "
        "its controllability is not established"
    ]
    assert [str(w.message) for w in caught] == warned


@st.composite
def sparse_targets(draw):
    """A sparse random coupling whose entries may equal the edge threshold,
    or be Hermitian only within tolerance with the two entries of a pair on
    either side of it, that threshold, and a target: one of the graph's
    components or any other strict subset."""
    dim = draw(st.integers(2, 8))
    threshold = draw(st.sampled_from([0.0, 1e-12, 0.5]))
    straddle = (threshold + 5e-13, max(threshold - 4e-13, 0.0))
    coupling = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            kind = draw(st.integers(0, 3))
            if kind == 0:
                coupling[i, j] = coupling[j, i] = draw(st.sampled_from([threshold, 0.25, 0.5, 1.0]))
            elif kind == 1:
                coupling[i, j], coupling[j, i] = draw(st.sampled_from([straddle, straddle[::-1]]))
    drift = [draw(st.integers(0, 4)) / 2 for _ in range(dim)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "drift and coupling commute")
        spec = SystemSpec(dim=dim, drift=drift, coupling=coupling)
    components = [c for c in connected_components(build_graph(spec, threshold)) if len(c) < dim]
    labels = st.sets(st.integers(1, dim), min_size=1, max_size=dim - 1)
    if components:
        labels = labels | st.sampled_from(components)
    return spec, threshold, GoodSubspace.of(draw(labels), dim)


def _straddling_pair():
    # B_12 is an edge at the default threshold 1e-12, B_21 is not: the spec
    # stores B_21 as the conjugate of B_12, so [2] is no component
    coupling = [[0.0, 1.5e-12], [0.6e-12, 0.0]]
    return SystemSpec(dim=2, drift=[0.0, 1.0], coupling=coupling), 1e-12, GoodSubspace.of([2], 2)


@pytest.mark.soak  # the note must agree with the graph's components
@settings(max_examples=200)
@given(case=sparse_targets())
@example(case=_straddling_pair())
def test_algorithm2_note_has_a_verdict_exactly_for_a_component(case):
    # the note looks the target up among the whole graph's components, and
    # must agree with those of build_graph and connected_components
    spec, threshold, subspace = case
    target = tuple(sorted(subspace.indices))
    initial = StateVector(np.full(spec.dim, spec.dim**-0.5))
    config = ControllabilityConfig(edge_threshold=threshold)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "subspace .* is not a connected component")
        report = run_algorithm2(
            spec, initial, subspace, iterations=1, seed=1, controllability_config=config
        )
    components = connected_components(build_graph(spec, threshold))
    assert (report.controllability_note["verdict"] is not None) == (target in components)


def test_algorithm2_runs_no_assess(monkeypatch):
    # only the target's component is analysed, never the whole system
    calls = []
    monkeypatch.setattr(controllability, "assess", lambda *args: calls.append(args))
    for subspace in ([1, 2, 3], [4]):
        p = case2_preset()
        report = run_algorithm2(hydrogen_spec(), p.initial, GoodSubspace.of(subspace, 5), seed=7)
        assert report.controllability_note["component"] == subspace
    assert calls == []


BAD_ARGUMENTS = [
    # id, kwargs, exception type, message prefix: one argument out of range each
    ("initial-dim", {"initial": StateVector([0.6, 0.8, 0.0, 0.0])}, DimensionMismatchError,
     "initial: expected dim levels, dim = 5, got 4"),
    ("zero-overlap", {"initial": StateVector.basis_state(4, 5)}, ZeroOverlapError,
     "initial state has no weight on good indices"),
    ("phi1", {"phi1": 4.0}, ValueError, "phi1: must lie in [0, pi], got 4.0"),
    ("shots-0", {"shots": 0}, ValueError, "shots: must lie in [1, 9223372036854775807], got 0"),
    ("shots-negative", {"shots": -3}, ValueError, "shots: must lie in [1, 9223372036854775807], got -3"),
    # the histogram counts in int64
    ("shots-2**63", {"shots": 2**63}, ValueError,
     "shots: must lie in [1, 9223372036854775807], got 9223372036854775808"),
    ("shots-bool", {"shots": True}, TypeError, "shots: must be an integer"),
    ("shots-float", {"shots": 2.5}, TypeError, "shots: must be an integer"),
    ("seed-negative", {"seed": -1}, ValueError, "seed: must be >= 0, got -1"),
    ("seed-negative-histogram", {"seed": -1, "shots": 500}, ValueError,
     "seed: must be >= 0, got -1"),
    ("seed-float", {"seed": 1.5}, TypeError, "seed: must be an integer"),
    ("l_max-float", {"l_max": 6.5}, TypeError, "l_max: must be an integer"),
    # l_max is checked whether or not an explicit count makes it unused
    ("l_max-negative-explicit-iterations", {"iterations": 3, "l_max": -1}, ValueError,
     "l_max: must be >= 0, got -1"),
    ("iterations-float", {"iterations": 2.5}, TypeError, "iterations: must be an integer"),
    ("iterations-negative", {"iterations": -1}, ValueError, "iterations: must be >= 0, got -1"),
    ("iterations-cap+1", {"iterations": MAX_ITERATIONS + 1}, ValueError,
     "iterations: phase-error bound 1.00000008e-09 exceeds 1e-09; the largest count within it is "
     "1125899, got 1125900"),
    ("iterations-2**53+1", {"iterations": 2**53 + 1}, ValueError,
     "iterations: phase-error bound 8 exceeds 1e-09; the largest count within it is 1125899, "
     "got 9007199254740993"),
    ("max_attempts-0", {"max_attempts": 0}, ValueError, "max_attempts: must be >= 1, got 0"),
    ("max_attempts-histogram", {"max_attempts": 3, "shots": 500}, ValueError,
     "max_attempts needs shots == 1"),
    ("max_attempts-float", {"max_attempts": 2.5}, TypeError, "max_attempts: must be an integer"),
    ("measurement_shot-negative", {"measurement_shot": -1}, ValueError, "shot: must be >= 0, got -1"),
    # a histogram leaves measurement_shot unused but still bounds it
    ("measurement_shot-negative-histogram", {"measurement_shot": -1, "shots": 500}, ValueError,
     "shot: must be >= 0, got -1"),
    ("measurement_shot-bool", {"measurement_shot": True}, TypeError, "shot: must be an integer"),
    # the sampler takes seed and shot unchecked, so a repeat run reads both first
    ("measurement_shot-bool-repeat", {"measurement_shot": True, "max_attempts": 3}, TypeError,
     "shot: must be an integer, got True"),
    ("seed-string-repeat", {"seed": "1", "max_attempts": 3}, TypeError,
     "seed: must be an integer, got '1'"),
    # 'labels' is good_index for algorithm 1 and the subspace's labels for algorithm 2
    ("label-float", {"labels": 5.0}, TypeError, "good index: must be an integer, got 5.0"),
    ("label-bool", {"labels": True}, TypeError, "good index: must be an integer, got True"),
    ("labels-float", {"labels": [2.7]}, TypeError, "good index: must be an integer, got 2.7"),
    ("label-0d-float", {"labels": np.array(2.5)}, TypeError,
     "good index: must be an integer, got array(2.5)"),
    ("labels-mapping", {"labels": {3: 1}}, TypeError,
     "good index: must be an integer or an iterable of them, not a mapping"),
]


@pytest.mark.parametrize("run", [1, 2], ids=["algorithm1", "algorithm2"])
@pytest.mark.parametrize(
    "kwargs, error, prefix", [row[1:] for row in BAD_ARGUMENTS], ids=[row[0] for row in BAD_ARGUMENTS]
)
def test_invalid_argument_raises_named_error(run, kwargs, error, prefix):
    p = case1_preset() if run == 1 else case2_preset()
    kwargs = {"spec": hydrogen_spec(), "initial": p.initial, "seed": 3, **kwargs}
    labels = kwargs.pop("labels", None)
    if run == 1:
        call = lambda: run_algorithm1(good_index=5 if labels is None else labels, **kwargs)
    else:
        call = lambda: run_algorithm2(
            subspace=p.good if labels is None else GoodSubspace.of(labels, 5), **kwargs
        )
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(prefix), str(info.value)


def test_invalid_target_raises_named_error():
    spec, p1, p2 = hydrogen_spec(), case1_preset(), case2_preset()
    with pytest.raises(ValueError, match=r"^good index: must lie in \[1, 5\], got 9$"):
        run_algorithm1(spec, p1.initial, 9, seed=3)
    with pytest.raises(DimensionMismatchError, match="^subspace: expected dim levels, dim = 5, got 4$"):
        run_algorithm2(spec, p2.initial, GoodSubspace.of([1, 2, 3], 4), seed=3)


# ---------------------------------------------------------------------------
# a prepared run: the deterministic half made once and measured many times


def _case1_run(initial, seed=1, **kwargs):
    return run_algorithm1(hydrogen_spec(), initial, 5, seed=seed, **kwargs)


def _dumped(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)  # -0.0 apart from 0.0


@st.composite
def prepared_sweeps(draw):
    """A spec, an initial state, a target of either algorithm, the plan's
    arguments and 20 measurements: seeds, shot counts, shot indices and
    repeat caps."""
    dim = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a diagonal coupling commutes with the drift
        spec = SystemSpec(dim=dim, drift=rng.normal(size=dim) * 2.0,
                          coupling=coupling_of_kind(rng, dim, draw(st.sampled_from(COUPLING_KINDS))))
    algorithm = draw(st.sampled_from([1, 2]))
    good = draw(st.sets(st.integers(1, dim), min_size=1, max_size=1 if algorithm == 1 else dim - 1))
    plan = dict(phi1=draw(st.sampled_from([math.pi, 0.0, -0.0, 2.5])), phi2=draw(st.floats(0.0, math.pi)),
                iterations=draw(st.sampled_from(["auto", 0, 3])), pre_rotation=draw(st.booleans()))
    measurement = st.tuples(st.integers(0, 2**70), st.sampled_from([1, 1, 2, 700]), st.integers(0, 9),
                            st.sampled_from([None, 1, 40]))
    runs = [dict(seed=seed, shots=shots, measurement_shot=shot, max_attempts=cap if shots == 1 else None)
            for seed, shots, shot, cap in draw(st.lists(measurement, min_size=20, max_size=20))]
    return spec, random_state(rng, dim).amplitudes, algorithm, good, plan, runs


@settings(max_examples=25)
@given(sweep=prepared_sweeps())
def test_one_prepared_run_reports_as_fresh_runs(sweep):
    # one PreparedRun measured 20 times writes the reports of 20 runs of
    # its algorithm, each on a fresh state equal to the prepared one
    spec, amplitudes, algorithm, good, plan, runs = sweep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a target that is no component warns
        config = ControllabilityConfig() if algorithm == 2 else None
        prepared = prepare_run(spec, StateVector(amplitudes), sorted(good), controllability_config=config,
                               **plan)
        for kwargs in runs:
            if algorithm == 1:
                fresh = run_algorithm1(spec, StateVector(amplitudes), min(good), **plan, **kwargs)
            else:
                fresh = run_algorithm2(spec, StateVector(amplitudes), GoodSubspace.of(good, spec.dim),
                                       **plan, **kwargs)
            assert _dumped(prepared.run(**kwargs)) == _dumped(fresh)


def test_a_prepared_run_is_read_only_and_its_reports_share_nothing():
    spec, p = hydrogen_spec(), case2_preset()
    prepared = prepare_run(spec, p.initial, p.good, controllability_config=ControllabilityConfig())
    histogram = prepared.run(1, shots=500)
    single = prepared.run(1)
    # the runs share the prepared values, and each makes its own report
    assert single.post_amplification is histogram.post_amplification is prepared.post_amplification
    assert single.plan is histogram.plan is prepared.plan
    shared = [prepared.pre_amplification, prepared.post_amplification, prepared.plan.prepared.amplitudes,
              prepared.amplified.amplitudes]
    for array in shared:
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        single.pre_amplification[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        prepared.verdict = None
    # each report has its own fields: the histogram run's never reach the next run
    assert single.histogram is None and single.empirical_success is None
    assert histogram.measurement is None and single.measurement is not None
    expected = json.dumps(single.to_dict())
    written = single.to_dict()
    written["pre_amplification"][0] = -1.0
    written["plan"]["good_indices"].append(9)
    written["controllability_note"]["notes"] = ["edited"]
    written["measurement"]["collapsed"][0][0] = 9.0
    assert json.dumps(single.to_dict()) == expected
    assert json.dumps(prepared.run(1).to_dict()) == expected
    assert json.dumps(run_algorithm2(spec, p.initial, p.good, seed=1).to_dict()) == expected


def test_non_component_warns_on_every_run(monkeypatch):
    # hydrogen's {1, 2} has an edge to 3: no component.  Each run of the
    # algorithm prepares and warns; a prepared run warns once, when made
    plans = _count_calls(monkeypatch, algorithms, "make_plan")
    p, subspace = case2_preset(), GoodSubspace.of([1, 2], 5)
    for seed in (1, 2, 3):
        with pytest.warns(UserWarning, match=r"^subspace \[1, 2\] is not a connected component"):
            report = run_algorithm2(hydrogen_spec(), p.initial, subspace, seed=seed)
        assert report.controllability_note["verdict"] is None
    assert len(plans) == 3
    with pytest.warns(UserWarning, match=r"^subspace \[1, 2\] is not a connected component"):
        prepared = prepare_run(hydrogen_spec(), p.initial, subspace, controllability_config=ControllabilityConfig())
    notes = [prepared.run(seed).controllability_note for seed in (1, 2)]  # warnings are errors here
    assert notes[0] == notes[1] == report.controllability_note and len(plans) == 4


def test_verdict_is_found_once_per_prepared_run(monkeypatch):
    spec, p = hydrogen_spec(), case2_preset()
    analysed = _count_calls(monkeypatch, algorithms, "_edges")
    loose = ControllabilityConfig(degeneracy_tol=0.5)
    notes = {}
    for config in (ControllabilityConfig(), loose):
        prepared = prepare_run(spec, p.initial, p.good, controllability_config=config)
        notes[config] = [prepared.run(seed).controllability_note for seed in (1, 2, 3)]
        assert notes[config] == [notes[config][0]] * 3
    assert len(analysed) == 2
    for config in notes:
        expected = {v.component: v.to_dict() for v in assess(spec, config).subspace_verdicts}[(1, 2, 3)]
        assert notes[config][0] == expected
    # with no config a prepared run carries no verdict, and its reports no note
    plain = prepare_run(spec, p.initial, p.good)
    assert plain.verdict is None and plain.run(1).controllability_note is None
    assert len(analysed) == 2


# each bad plan argument raises from prepare_run what the algorithm raises
PLAN_ERRORS = [
    ("list-iterations", 1, {"iterations": [3]}, TypeError, "iterations: must be an integer, got [3]"),
    ("nan-phase", 2, {"phi2": float("nan")}, NonFiniteError, "phi2: must be finite, got nan"),
    # the zero overlap is still the error, as make_plan checks it first
    ("zero-overlap-list-iterations", 1, {"initial": StateVector.basis_state(1, 5), "iterations": [3]},
     ZeroOverlapError, "initial state has no weight on good indices [5]; apply a unitary"),
]


@pytest.mark.parametrize("prepared", [False, True], ids=["algorithm", "prepare_run"])
@pytest.mark.parametrize("run, kwargs, error, prefix", [row[1:] for row in PLAN_ERRORS],
                         ids=[row[0] for row in PLAN_ERRORS])
def test_bad_plan_arguments_raise_alike_from_prepare_run(prepared, run, kwargs, error, prefix):
    p = case1_preset() if run == 1 else case2_preset()
    target = 5 if run == 1 else p.good
    arguments = dict(kwargs)
    initial = arguments.pop("initial", p.initial)
    with pytest.raises(error) as info:
        if prepared:
            prepare_run(hydrogen_spec(), initial, target, **arguments)
        else:
            (run_algorithm1 if run == 1 else run_algorithm2)(hydrogen_spec(), initial, target, seed=1,
                                                             **arguments)
    assert type(info.value) is error
    assert str(info.value).startswith(prefix), str(info.value)


def test_pre_rotation_is_read_by_its_truth_value():
    # a list pre_rotation pre-rotates as True does
    initial = StateVector.basis_state(1, 5)
    reports = [_case1_run(initial, pre_rotation=[1]) for _ in range(2)]
    assert reports[0].plan.pre_rotated
    assert reports[0].to_dict() == reports[1].to_dict() == _case1_run(initial, pre_rotation=True).to_dict()


@pytest.mark.parametrize("pre_rotation", [False, True], ids=["as-given", "pre-rotated"])
def test_a_dropped_prepared_run_is_freed_at_once(pre_rotation):
    # a prepared run holds no reference cycle, so reference counting frees
    # it, its states and its arrays at once: with the cyclic collector off,
    # which would otherwise free them only on a later pass
    amplitudes = [1.0, 0, 0, 0, 0] if pre_rotation else case1_preset().initial.amplitudes
    initial = StateVector(amplitudes)
    prepared = prepare_run(hydrogen_spec(), initial, 5, pre_rotation=pre_rotation)
    report = prepared.run(1)
    assert (prepared.plan.prepared is initial) is not pre_rotation
    kept = [initial, prepared, prepared.plan.prepared, prepared.amplified, prepared.pre_amplification,
            prepared.partition, report]
    refs = [weakref.ref(value) for value in kept]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del initial, prepared, report, kept
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


# (config field, the value a first run takes, the value a second run changes it to)
PRESET_KEYS = [
    ("phases", [math.pi, math.pi], [3.0, math.pi]),
    ("phases", [math.pi, math.pi], [math.pi, 3.0]),
    # equal as floats, but reported apart
    ("phases", [0.0, math.pi], [-0.0, math.pi]),
    ("iterations", "auto", 3),
    ("iterations", 3, 4),
    ("l_max", 10**6, 2),
    ("pre_rotation", False, True),
    ("tolerances", {}, {"degeneracy_tol": 0.5}),
]


@pytest.mark.parametrize("name, first, changed", PRESET_KEYS,
                         ids=[f"{row[0]}={json.dumps(row[2])}" for row in PRESET_KEYS])
def test_a_preset_keeps_one_prepared_run_per_plan(monkeypatch, name, first, changed):
    # the CLI's presets run on states built once at import, and their
    # prepared runs are kept per plan: every run after a plan's first only
    # measures, and a changed argument prepares anew
    cli._prepared_preset.cache_clear()
    plans = _count_calls(monkeypatch, cli, "prepare_run")

    def run(value, seed):
        config = cli.validate_config({"mode": "hydrogen-case2", "seed": seed, name: value})
        code, report = cli.execute(config)
        assert code == 0
        return json.dumps(report["result"], sort_keys=True)

    run(first, 1)
    run(first, 2)
    assert len(plans) == 1
    report = run(changed, 1)
    run(changed, 2)
    assert len(plans) == 2
    # the report of a preparation made for this run, -0.0 as -0.0
    cli._prepared_preset.cache_clear()
    assert run(changed, 1) == report


def test_presets_keep_at_most_a_fixed_count_of_prepared_runs(monkeypatch):
    # the least recently used goes first: the last count is kept, the first is not
    cli._prepared_preset.cache_clear()
    plans = _count_calls(monkeypatch, cli, "prepare_run")
    counts = range(cli._prepared_preset.cache_info().maxsize + 6)
    for count in counts:
        cli.execute(cli.validate_config({"mode": "hydrogen-case1", "seed": 1, "iterations": count}))
    assert len(plans) == len(counts) and cli._prepared_preset.cache_info().currsize == 64
    cli.execute(cli.validate_config({"mode": "hydrogen-case1", "seed": 2, "iterations": counts[-1]}))
    assert len(plans) == len(counts)
    cli.execute(cli.validate_config({"mode": "hydrogen-case1", "seed": 2, "iterations": 0}))
    assert len(plans) == len(counts) + 1


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda state: pickle.loads(pickle.dumps(state))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_state_is_read_only_and_runs_alike(duplicate):
    p = case1_preset()
    twin = duplicate(p.initial)
    assert list(vars(twin)) == ["amplitudes"] and not twin.amplitudes.flags.writeable
    assert np.array_equal(twin.amplitudes, p.initial.amplitudes)
    report = _case1_run(twin)
    assert report.plan.prepared is twin
    assert report.to_dict() == _case1_run(p.initial).to_dict()


@pytest.mark.soak  # threads interleave differently on every run
@settings(max_examples=20)
@given(
    seeds=st.lists(st.integers(0, 2**64), min_size=4, max_size=4, unique=True),
    shots=st.sampled_from([1, 1, 300]),
    max_attempts=st.sampled_from([None, 40]),
    iterations=st.sampled_from(["auto", 0, 2]),
)
def test_threads_sharing_a_prepared_run_report_as_serial_runs(seeds, shots, max_attempts, iterations):
    # four threads measure one prepared run at once, each with its own
    # seed, and each also runs the algorithm on the state and spec they share
    spec, p = hydrogen_spec(), case2_preset()
    kwargs = dict(shots=shots, max_attempts=max_attempts if shots == 1 else None)
    prepared = prepare_run(spec, p.initial, p.good, iterations=iterations,
                           controllability_config=ControllabilityConfig())

    def run(seed):
        return run_algorithm2(spec, p.initial, p.good, seed=seed, iterations=iterations, **kwargs).to_dict()

    expected = {seed: (run(seed), run(seed)) for seed in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching often
    try:
        barrier, reports = threading.Barrier(len(seeds), timeout=30), {}

        def worker(seed):
            barrier.wait()
            reports[seed] = (prepared.run(seed, **kwargs).to_dict(), run(seed))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert reports == expected
    finally:
        sys.setswitchinterval(interval)
