import math

import numpy as np
import pytest

from iqcontrol import (
    ControlPulse,
    HydrogenModel,
    NonFiniteError,
    StateVector,
    SystemSpec,
    build_graph,
    case1_preset,
    case2_preset,
    closed_form_weights,
    connected_components,
    decompose,
    propagate,
    propagate_interaction_picture,
    hydrogen_spec,
)
from iqcontrol import core, hydrogen
from iqcontrol.hydrogen import KAPPA_EXCITED, KAPPA_GROUND, _model_spec
from conftest import random_state
from oracles import rk4_interaction_picture, success_probability


def random_pulse(rng, max_amplitude=1.0, max_segments=4) -> ControlPulse:
    n = int(rng.integers(1, max_segments + 1))
    return ControlPulse(
        tuple(
            (float(rng.uniform(0.2, 1.5)), float(rng.uniform(-max_amplitude, max_amplitude)))
            for _ in range(n)
        )
    )


class TestHydrogenSpec:
    def test_dimension_and_drift(self):
        spec = hydrogen_spec()
        assert spec.dim == 5
        assert np.allclose(spec.drift, [0.0, 1.0, 1.0, 1.0, 1.0])

    def test_energy_gap_configurable(self):
        spec = hydrogen_spec(energy_gap=2.5)
        assert np.allclose(spec.drift, [0.0, 2.5, 2.5, 2.5, 2.5])

    def test_coupling_pattern_and_magnitudes(self):
        b = hydrogen_spec().coupling
        nonzero = {(i + 1, j + 1) for i in range(5) for j in range(5) if abs(b[i, j]) > 0}
        assert nonzero == {(1, 3), (3, 1), (2, 3), (3, 2)}
        assert abs(b[0, 2]) == pytest.approx(KAPPA_GROUND)
        assert abs(b[1, 2]) == pytest.approx(KAPPA_EXCITED)
        assert np.max(np.abs(b - b.conj().T)) < 1e-15

    def test_coupling_ratio(self):
        # 128*sqrt(2)/243 over 3
        assert KAPPA_GROUND / KAPPA_EXCITED == pytest.approx(0.2483, abs=5e-5)

    def test_graph_structure(self):
        graph = build_graph(hydrogen_spec())
        assert graph.edges == frozenset({(1, 3), (2, 3)})
        assert connected_components(graph) == [(1, 2, 3), (4,), (5,)]

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            hydrogen_spec(energy_gap=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("energy_gap", math.nan),
            ("energy_gap", math.inf),
            ("kappa_ground", math.nan),
            ("kappa_excited", -math.inf),
        ],
    )
    def test_model_rejects_non_finite(self, field, value):
        with pytest.raises(NonFiniteError, match=f"^{field}: must be finite"):
            HydrogenModel(**{field: value})

    def test_model_spec_built_once_and_read_only(self):
        first = _model_spec(HydrogenModel())
        for _ in range(3):
            again = _model_spec(HydrogenModel())
            assert np.array_equal(again.drift, first.drift)
            assert np.array_equal(again.coupling, first.coupling)
        assert hydrogen_spec() is first
        for array in (first.drift, first.coupling):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        assert np.array_equal(first.coupling, custom_model_spec(1.0, KAPPA_GROUND, KAPPA_EXCITED).coupling)

    def test_custom_model_gets_its_own_spec(self):
        custom = _model_spec(HydrogenModel(energy_gap=1.7, kappa_ground=0.4, kappa_excited=1.2))
        expected = custom_model_spec(1.7, 0.4, 1.2)
        assert custom is not _model_spec(HydrogenModel())
        assert np.array_equal(custom.drift, expected.drift)
        assert np.array_equal(custom.coupling, expected.coupling)


class TestPresets:
    def test_case1_values(self):
        p = case1_preset()
        assert np.allclose(p.initial.amplitudes, [0.7, 0.5, 0.3, 0.4, 0.1])
        assert abs(np.linalg.norm(p.initial.amplitudes) - 1.0) < 1e-15
        assert p.good.indices == frozenset({5})
        assert (p.phi1, p.phi2) == (math.pi, math.pi)
        assert p.expected_iterations == 7
        assert p.expected_success == pytest.approx(0.9953, abs=5e-4)
        assert decompose(p.initial, p.good).g == pytest.approx(0.01, abs=1e-15)

    def test_case2_values(self):
        p = case2_preset()
        assert np.allclose(p.initial.amplitudes, [0.1, 0.06, 0.08, 0.7, 0.7])
        assert p.good.indices == frozenset({1, 2, 3})
        assert p.expected_iterations == 5
        assert p.expected_success == pytest.approx(0.9999, abs=1e-4)
        assert decompose(p.initial, p.good).g == pytest.approx(0.02, abs=1e-15)

    def test_expected_success_internally_consistent(self):
        for p in (case1_preset(), case2_preset()):
            g = decompose(p.initial, p.good).g
            weight, _ = closed_form_weights(g, p.phi1, p.phi2, p.expected_iterations)
            assert p.expected_success == pytest.approx(weight, abs=1e-12)
            assert p.expected_success == pytest.approx(
                success_probability(g, p.expected_iterations), abs=1e-12
            )


class TestInteractionPicture:
    def test_uncoupled_states_invariant(self, rng):
        model = HydrogenModel()
        for _ in range(10):
            state = random_state(rng, 5)
            out = propagate_interaction_picture(model, random_pulse(rng), state)
            # amplitudes 4 and 5 are structurally untouched: bit-exact
            assert out.amplitudes[3] == state.amplitudes[3]
            assert out.amplitudes[4] == state.amplitudes[4]

    def test_second_call_reuses_the_blocks(self, rng, monkeypatch):
        # the model's spec finds its coupling's blocks once, not once per call
        calls = []
        edges = core._edges
        monkeypatch.setattr(core, "_edges", lambda *args: calls.append(args) or edges(*args))
        model, pulse, state = HydrogenModel(energy_gap=0.8125), random_pulse(rng), random_state(rng, 5)
        first = propagate_interaction_picture(model, pulse, state)
        calls.clear()
        second = propagate_interaction_picture(model, pulse, state)
        assert calls == []
        assert second.amplitudes.tobytes() == first.amplitudes.tobytes()

    def test_pure_uncoupled_state_unchanged(self, rng):
        model = HydrogenModel()
        for index in (4, 5):
            state = StateVector.basis_state(index, 5)
            out = propagate_interaction_picture(model, random_pulse(rng), state)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_zero_field_is_identity(self, rng):
        state = random_state(rng, 5)
        out = propagate_interaction_picture(
            HydrogenModel(), ControlPulse(((2.0, 0.0),)), state
        )
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_empty_pulse_returns_initial(self, rng):
        state = random_state(rng, 5)
        assert propagate_interaction_picture(HydrogenModel(), ControlPulse(()), state) is state

    def test_norm_preserved(self, rng):
        model = HydrogenModel()
        for _ in range(10):
            out = propagate_interaction_picture(model, random_pulse(rng), random_state(rng, 5))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_callable_field_needs_duration(self, rng):
        with pytest.raises(ValueError):
            propagate_interaction_picture(HydrogenModel(), lambda t: 0.1, random_state(rng, 5))

    def test_populations_match_schroedinger_picture(self, rng):
        # dual route: the interaction-picture integration and the exact
        # per-segment exponentials of the lab-frame propagator must give
        # the same populations
        model = HydrogenModel()
        spec = hydrogen_spec()
        for _ in range(5):
            pulse = random_pulse(rng, max_amplitude=0.8)
            state = random_state(rng, 5)
            lab = propagate(spec, pulse, state)
            rotating = propagate_interaction_picture(model, pulse, state, max_step=0.005)
            assert np.max(np.abs(lab.populations() - rotating.populations())) < 1e-6

    def test_resonant_drive_matches_rabi_solution(self):
        # weak resonant drive on the ground channel: populations follow
        # the rotating-frame two-level solution cos^2 / sin^2(Omega t / 2)
        # at stroboscopic times t = k * 2pi / gap, where the leading
        # counter-rotating correction vanishes
        model = HydrogenModel()
        omega = 5e-4
        amplitude = omega / KAPPA_GROUND
        state = StateVector.basis_state(1, 5)
        t = 0.0
        for j in range(1, 6):
            t_next = j * 400 * math.pi
            state = propagate_interaction_picture(
                model,
                lambda s: amplitude * math.cos(s),
                state,
                duration=t_next - t,
                t0=t,
                max_step=0.01,
            )
            t = t_next
            p_ground = abs(state.amplitudes[0]) ** 2
            p_excited = abs(state.amplitudes[2]) ** 2
            assert abs(p_ground - math.cos(omega * t / 2.0) ** 2) < 1e-6
            assert abs(p_excited - math.sin(omega * t / 2.0) ** 2) < 1e-6
        # everything else stays empty
        assert abs(state.amplitudes[1]) ** 2 < 1e-9
        assert abs(state.amplitudes[3]) ** 2 == 0.0

    def test_literal_unconjugated_phase_fails_norm(self):
        # keeping the same oscillating phase on both ground-channel
        # entries makes the generator non-skew-Hermitian: the RK4 oracle
        # loses norm with it and keeps norm with the conjugated phase
        model = HydrogenModel()
        pulse = ControlPulse(((40.0, 0.8),))
        state = StateVector([0.5, 0.5, 0.5, 0.5, 0.0])
        literal = rk4_interaction_picture(model, pulse, state, step=0.005, hermitian_phase=False)
        conjugated = rk4_interaction_picture(model, pulse, state, step=0.005)
        assert abs(np.linalg.norm(literal) - 1.0) > 1e-6
        assert abs(np.linalg.norm(conjugated) - 1.0) < 1e-9

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, rng, value):
        with pytest.raises(NonFiniteError, match="field"):
            propagate_interaction_picture(
                HydrogenModel(), lambda s: value if s > 0.5 else 0.1, random_state(rng, 5), 1.0
            )

    @pytest.mark.parametrize(
        "name, value, field",
        [
            ("duration", math.nan, ControlPulse(((1.0, 0.1),))),
            ("duration", math.inf, ControlPulse(((1.0, 0.1),))),
            ("duration", math.inf, lambda s: 0.1),
            ("t0", math.nan, ControlPulse(((1.0, 0.1),))),
            ("t0", math.inf, ControlPulse(((1.0, 0.1),))),
            ("t0", -math.inf, lambda s: 0.1),
        ],
        ids=["duration-nan", "duration-inf", "duration-inf-callable", "t0-nan", "t0-inf",
             "t0-inf-callable"],
    )
    def test_non_finite_times_rejected(self, rng, name, value, field):
        # unchecked, duration=nan returned the initial state, duration=inf on a
        # callable raised OverflowError, and t0 = +-inf or nan ended in a
        # RuntimeWarning and "state amplitudes must be finite"
        times = {"duration": 1.0, name: value}
        with pytest.raises(NonFiniteError, match=f"^{name}: must be finite"):
            propagate_interaction_picture(HydrogenModel(), field, random_state(rng, 5), **times)

    def test_max_step_checked_for_a_pulse(self, rng):
        # a pulse took no steps, so its max_step went unread and 0 ran
        with pytest.raises(ValueError, match="^max_step must be positive, got 0$"):
            propagate_interaction_picture(
                HydrogenModel(), ControlPulse(((1.0, 0.1),)), random_state(rng, 5), max_step=0
            )

    def test_mirrored_couplings_take_the_same_steps(self, rng):
        # flipping the sign of both couplings and of the field leaves u(t) B,
        # and so the dynamics, unchanged; the step rule read the signed
        # kappas and stepped the negative model by the gap alone
        state = random_state(rng, 5)
        mirrored = [
            propagate_interaction_picture(
                HydrogenModel(1.0, sign * 0.5, sign * 3.0),
                lambda t, sign=sign: -sign * 8.0 * math.sin(1.3 * t), state, 20.0,
            ).amplitudes
            for sign in (-1.0, 1.0)
        ]
        assert np.max(np.abs(mirrored[0] - mirrored[1])) < 1e-12

    @pytest.mark.parametrize(
        "gap, kappa_ground, kappa_excited, peak, max_step",
        [
            (1.0, KAPPA_GROUND, KAPPA_EXCITED, 0.1, None),   # the gap sets the step
            (1.0, KAPPA_GROUND, KAPPA_EXCITED, 2.0, None),   # the field sets it
            (0.25, -2.0, 0.5, 1.5, None),                    # a negative kappa sets it
            (2.0, -0.5, -3.0, 0.7, None),
            (1.0, 0.5, 3.0, 2.0, 0.001),                     # max_step sets it
            (1e-7, 1e-4, 0.0, 1e-3, None),                   # the 1e-6 floor sets it
        ],
    )
    def test_step_count_follows_the_rule(
        self, rng, monkeypatch, gap, kappa_ground, kappa_excited, peak, max_step
    ):
        # README: the step is min(max_step, 0.02 / max(gap, peak * max|kappa|, 1e-6))
        sizes = []
        evolve = hydrogen._evolve
        monkeypatch.setattr(
            hydrogen, "_evolve", lambda spec, d, *rest: sizes.append(d.size) or evolve(spec, d, *rest)
        )
        model = HydrogenModel(gap, kappa_ground, kappa_excited)
        duration = 3.0
        propagate_interaction_picture(
            model, lambda t: -peak, random_state(rng, 5), duration, 0.4, max_step
        )
        rate = max(gap, peak * max(abs(kappa_ground), abs(kappa_excited)), 1e-6)
        step = min(math.inf if max_step is None else max_step, 0.02 / rate)
        assert sizes == [2 * max(math.ceil(duration / step), 1)]

    def test_rejects_wrong_dimension(self, rng):
        with pytest.raises(Exception):
            propagate_interaction_picture(
                HydrogenModel(), ControlPulse(((1.0, 0.1),)), random_state(rng, 4)
            )


def cut(pulse: ControlPulse, duration: float) -> ControlPulse:
    """The pulse's first ``duration`` time units."""
    segments, acc = [], 0.0
    for d, u in pulse.segments:
        if acc >= duration:
            break
        segments.append((min(d, duration - acc), u))
        acc += d
    return ControlPulse(tuple(segments))


def lab_frame_route(spec, pulse, state, t0):
    """exp(iA(t0 + T)) U exp(-iA t0) D through the lab-frame propagator."""
    lab = StateVector(np.exp(-1j * spec.drift * t0) * state.amplitudes)
    return np.exp(1j * spec.drift * (t0 + pulse.duration)) * propagate(spec, pulse, lab).amplitudes


def custom_model_spec(gap, kappa_ground, kappa_excited):
    b = np.zeros((5, 5))
    b[0, 2] = b[2, 0] = -kappa_ground
    b[1, 2] = b[2, 1] = kappa_excited
    return SystemSpec(dim=5, drift=[0.0, gap, gap, gap, gap], coupling=b)


class TestOneExactPropagator:
    @pytest.mark.parametrize("t0", [0.0, 2.7])
    def test_frame_change_of_propagate(self, rng, t0):
        model, spec = HydrogenModel(), hydrogen_spec()
        for _ in range(10):
            pulse, state = random_pulse(rng), random_state(rng, 5)
            out = propagate_interaction_picture(model, pulse, state, t0=t0)
            assert np.max(np.abs(out.amplitudes - lab_frame_route(spec, pulse, state, t0))) < 1e-13

    def test_pulse_cut_by_duration(self, rng):
        model, spec = HydrogenModel(), hydrogen_spec()
        for _ in range(10):
            pulse, state = random_pulse(rng), random_state(rng, 5)
            duration = float(rng.uniform(0.1, 1.0)) * pulse.duration
            t0 = float(rng.uniform(-3.0, 3.0))
            out = propagate_interaction_picture(model, pulse, state, duration, t0)
            expected = lab_frame_route(spec, cut(pulse, duration), state, t0)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    def test_pulses_match_rk4_oracle(self, rng):
        model = HydrogenModel()
        for t0 in (0.0, 1.3):
            pulse, state = random_pulse(rng), random_state(rng, 5)
            duration = 0.8 * pulse.duration
            out = propagate_interaction_picture(model, pulse, state, duration, t0)
            oracle = rk4_interaction_picture(model, pulse, state, duration, t0, step=1e-3)
            assert np.max(np.abs(out.amplitudes - oracle)) < 1e-8

    def test_callable_matches_rk4_oracle(self, rng):
        model = HydrogenModel()
        state = random_state(rng, 5)
        field = lambda s: 0.6 * math.cos(1.1 * s + 0.1 * s * s)
        out = propagate_interaction_picture(model, field, state, duration=4.0, t0=0.5)
        oracle = rk4_interaction_picture(model, field, state, duration=4.0, t0=0.5, step=1e-3)
        assert np.max(np.abs(out.amplitudes - oracle)) < 1e-8

    def test_constant_callable_equals_one_segment_pulse(self, rng):
        model = HydrogenModel()
        for _ in range(5):
            state = random_state(rng, 5)
            u, duration = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 3.0))
            t0 = float(rng.uniform(0.0, 5.0))
            pulse = ControlPulse(((duration, u),))
            from_pulse = propagate_interaction_picture(model, pulse, state, t0=t0)
            from_callable = propagate_interaction_picture(model, lambda s: u, state, duration, t0)
            assert np.max(np.abs(from_pulse.amplitudes - from_callable.amplitudes)) < 1e-12

    def test_custom_kappas(self, rng):
        model = HydrogenModel(energy_gap=1.7, kappa_ground=0.4, kappa_excited=1.2)
        spec = custom_model_spec(1.7, 0.4, 1.2)
        for _ in range(5):
            pulse, state = random_pulse(rng), random_state(rng, 5)
            out = propagate_interaction_picture(model, pulse, state, t0=0.9)
            assert np.max(np.abs(out.amplitudes - lab_frame_route(spec, pulse, state, 0.9))) < 1e-13
            oracle = rk4_interaction_picture(model, pulse, state, t0=0.9, step=1e-3)
            assert np.max(np.abs(out.amplitudes - oracle)) < 1e-8
            assert out.amplitudes[3] == state.amplitudes[3]
            assert out.amplitudes[4] == state.amplitudes[4]
