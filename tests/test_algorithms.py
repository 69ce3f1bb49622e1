import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqcontrol import (
    ControlPulse,
    DimensionMismatchError,
    GoodSubspace,
    MeasurementPartition,
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
    prepare_unitary,
    run_algorithm1,
    run_algorithm2,
    success_probability,
)
from iqcontrol import ControllabilityConfig, controllability, measurement
from iqcontrol.amplification import amplification_operator
from conftest import random_state


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
        with pytest.raises(TypeError, match="^max_attempts must be an integer"):
            attempts(bad)
    report = attempts(np.int64(3))
    assert report.to_dict() == attempts(3).to_dict()
    assert type(report.attempts) is int


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


@settings(max_examples=150)
@given(case=algorithm2_cases())
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
     "initial state dimension 4 does not match system 5"),
    ("zero-overlap", {"initial": StateVector.basis_state(4, 5)}, ZeroOverlapError,
     "initial state has no weight on good indices"),
    ("phi1", {"phi1": 4.0}, ValueError, "phi1 must lie in [0, pi]"),
    ("shots-0", {"shots": 0}, ValueError, "shots must be >= 1, got 0"),
    ("shots-negative", {"shots": -3}, ValueError, "shots must be >= 1, got -3"),
    ("shots-bool", {"shots": True}, TypeError, "shots must be an integer"),
    ("shots-float", {"shots": 2.5}, TypeError, "shots must be an integer"),
    ("seed-negative", {"seed": -1}, ValueError, "seed must be >= 0, got -1"),
    ("seed-negative-histogram", {"seed": -1, "shots": 500}, ValueError,
     "seed must be >= 0, got -1"),
    ("seed-float", {"seed": 1.5}, TypeError, "seed must be an integer"),
    ("l_max-float", {"l_max": 6.5}, TypeError, "l_max must be an integer"),
    # l_max is checked whether or not an explicit count makes it unused
    ("l_max-negative-explicit-iterations", {"iterations": 3, "l_max": -1}, ValueError,
     "l_max must be nonnegative, got -1"),
    ("iterations-float", {"iterations": 2.5}, TypeError, "iterations must be an integer"),
    ("iterations-negative", {"iterations": -1}, ValueError, "iterations must be nonnegative"),
    ("iterations-2**53+1", {"iterations": 2**53 + 1}, ValueError,
     "iterations must not exceed 2**53"),
    ("max_attempts-0", {"max_attempts": 0}, ValueError,
     "max_attempts needs shots == 1 and a count >= 1"),
    ("max_attempts-histogram", {"max_attempts": 3, "shots": 500}, ValueError,
     "max_attempts needs shots == 1"),
    ("max_attempts-float", {"max_attempts": 2.5}, TypeError, "max_attempts must be an integer"),
    ("measurement_shot-negative", {"measurement_shot": -1}, ValueError,
     "shot index must be >= 0"),
    ("measurement_shot-bool", {"measurement_shot": True}, TypeError, "shot must be an integer"),
    # the sampler takes seed and shot unchecked, so a repeat run reads both first
    ("measurement_shot-bool-repeat", {"measurement_shot": True, "max_attempts": 3}, TypeError,
     "shot must be an integer, got True"),
    ("seed-string-repeat", {"seed": "1", "max_attempts": 3}, TypeError,
     "seed must be an integer, got '1'"),
    # 'labels' is good_index for algorithm 1 and the subspace's labels for algorithm 2
    ("label-float", {"labels": 5.0}, TypeError, "good index must be an integer, got 5.0"),
    ("label-bool", {"labels": True}, TypeError, "good index must be an integer, got True"),
    ("labels-float", {"labels": [2.7]}, TypeError, "good index must be an integer, got 2.7"),
    ("label-0d-float", {"labels": np.array(2.5)}, TypeError,
     "good index must be an integer, got array(2.5)"),
    ("labels-mapping", {"labels": {3: 1}}, TypeError,
     "good index must be an integer or an iterable of them, not a mapping"),
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
    with pytest.raises(ValueError, match=r"^good indices \[9\] outside 1\.\.5"):
        run_algorithm1(spec, p1.initial, 9, seed=3)
    with pytest.raises(DimensionMismatchError, match="^subspace dimension 4 does not match system 5"):
        run_algorithm2(spec, p2.initial, GoodSubspace.of([1, 2, 3], 4), seed=3)
