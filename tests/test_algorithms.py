import json
import math

import numpy as np
import pytest

from iqcontrol import (
    ControlPulse,
    GoodSubspace,
    StateVector,
    SystemSpec,
    VERDICT_INCONCLUSIVE,
    ZeroOverlapError,
    case1_preset,
    case2_preset,
    decompose,
    hydrogen_spec,
    prepare_unitary,
    run_algorithm1,
    run_algorithm2,
    success_probability,
)
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
