import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqcontrol import (
    ControllabilityConfig,
    ControlPulse,
    DimensionMismatchError,
    GoodSubspace,
    HermiticityError,
    HydrogenModel,
    NonFiniteError,
    NormalizationError,
    StateVector,
    SystemSpec,
    UnitarityError,
    UnitaryOperator,
    closed_form_weights,
    hydrogen_spec,
    make_plan,
    optimal_iterations,
    prepare_unitary,
    propagate,
    propagate_interaction_picture,
)
from iqcontrol import core
from iqcontrol.core import COMMUTATOR_TOL, HERMITICITY_TOL
from conftest import random_hermitian, random_spec, random_state
from oracles import (
    full_matrix_propagate,
    rk4_lab_frame,
    success_probability,
    system_spec_checks,
    transition_frequency,
)


class TestStateVector:
    def test_rejects_non_normalized(self):
        with pytest.raises(NormalizationError):
            StateVector([1.0, 1.0])

    def test_rejects_single_level(self):
        with pytest.raises(DimensionMismatchError):
            StateVector([1.0])

    def test_accepts_round_off(self):
        amps = np.array([0.6, 0.8]) * (1.0 + 1e-12)
        StateVector(amps)

    @pytest.mark.parametrize(
        "amps",
        [[np.nan, 1.0], [1.0, np.inf], [complex(0.6, np.nan), 0.8], [-np.inf, np.inf]],
    )
    def test_rejects_non_finite(self, amps):
        # a NaN norm compares false against the tolerance, so only the
        # finite check stops these
        with pytest.raises(NonFiniteError, match="finite"):
            StateVector(amps)

    def test_basis_state(self):
        e2 = StateVector.basis_state(2, 3)
        assert np.allclose(e2.amplitudes, [0, 1, 0])
        with pytest.raises(DimensionMismatchError):
            StateVector.basis_state(4, 3)

    def test_basis_state_reads_integers(self):
        # unchecked, numpy raised IndexError for label 1.5, and True was label 1
        for bad in (1.5, True):
            with pytest.raises(TypeError, match=f"^index must be an integer, got {bad!r}$"):
                StateVector.basis_state(bad, 3)
        with pytest.raises(TypeError, match="^dim must be an integer, got 3.0$"):
            StateVector.basis_state(1, 3.0)
        assert StateVector.basis_state(np.int64(3), np.int64(3)).amplitudes.tolist() == [0, 0, 1]

    def test_stores_a_private_copy(self):
        amps = np.array([0.6, 0.8j])
        state = StateVector(amps)
        assert not np.shares_memory(amps, state.amplitudes)
        assert amps.flags.writeable and not state.amplitudes.flags.writeable
        amps[0] = 5.0
        assert state.amplitudes.tolist() == [0.6, 0.8j]

    def test_populations_sum_to_one(self, rng):
        for _ in range(20):
            s = random_state(rng, int(rng.integers(2, 9)))
            assert abs(s.populations().sum() - 1.0) < 1e-12


class TestSystemSpec:
    def test_rejects_non_hermitian(self):
        b = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(HermiticityError):
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=b)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SystemSpec(dim=3, drift=[0.0, 1.0], coupling=np.zeros((3, 3)))

    @pytest.mark.parametrize("drift", [[0.0, np.nan], [np.inf, 1.0], [0.0, -np.inf]])
    def test_rejects_non_finite_drift(self, drift):
        with pytest.raises(NonFiniteError, match="drift"):
            SystemSpec(dim=2, drift=drift, coupling=_sigma_x_block(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0)])
    def test_rejects_non_finite_coupling(self, entry):
        b = _sigma_x_block(2)
        b[0, 1] = entry
        b[1, 0] = np.conj(entry)
        with pytest.raises(NonFiniteError, match="coupling"):
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=b)

    def test_warns_when_commuting(self):
        # diagonal B commutes with diagonal A
        with pytest.warns(UserWarning, match="commute"):
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=np.diag([1.0, 2.0]))

    def test_commuting_warning_names_the_caller(self):
        # at stacklevel 2 it named the dataclass-generated __init__, "<string>"
        with pytest.warns(UserWarning, match="commute") as record:
            SystemSpec(dim=2, drift=[0.0, 1.0], coupling=np.diag([1.0, 2.0]))
        assert [w.filename for w in record] == [__file__]

    def test_hermiticity_message_pinned(self):
        # the offending values print as complex numbers, whatever dtype the
        # coupling arrives in
        message = (
            "coupling[0][1]: not Hermitian: value (1+0j) does not match the "
            "conjugate of coupling[1][0] = (2+0j)"
        )
        for coupling in ([[0, 1], [2, 0]], np.array([[0.0, 1.0], [2.0, 0.0]]),
                         np.array([[0, 1], [2, 0]], dtype=complex)):
            with pytest.raises(HermiticityError) as raised:
                SystemSpec(dim=2, drift=[0, 1], coupling=coupling)
            assert str(raised.value) == message

    def test_real_coupling_peak_memory(self):
        # a real coupling is checked in one float scratch and made complex
        # once; checked in complex arithmetic it peaked at 3.19 MiB
        dim = 256
        coupling = np.diag(np.linspace(0.5, 2.0, dim - 1), 1)
        coupling += coupling.T
        drift = np.arange(dim, dtype=float)
        tracemalloc.start()
        try:
            SystemSpec(dim=dim, drift=drift, coupling=coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stores_private_copies(self, dtype):
        # the caller's arrays stay writeable and writing to them afterwards
        # changes nothing in the spec
        drift = np.array([0.0, 1.0, 3.0])
        coupling = _sigma_x_block(3).real.astype(dtype)
        spec = SystemSpec(dim=3, drift=drift, coupling=coupling)
        stored = [spec.drift.copy(), spec.coupling.copy()]
        for caller, kept in ((drift, spec.drift), (coupling, spec.coupling)):
            assert not np.shares_memory(caller, kept)
            assert caller.flags.writeable and not kept.flags.writeable
        drift[1] = 5.0
        coupling[0, 1] = coupling[1, 0] = 7.0
        assert spec.drift.tobytes() == stored[0].tobytes()
        assert spec.coupling.tobytes() == stored[1].tobytes()

    def test_transition_frequency(self):
        spec = SystemSpec(dim=3, drift=[0.0, 1.0, 3.0], coupling=_sigma_x_block(3))
        assert transition_frequency(spec, 1, 2) == -1.0
        assert transition_frequency(spec, 3, 1) == 3.0


INTEGER_FIELDS = [
    # id, constructor from the field's value, field name, a valid value
    ("spec-dim", lambda v: SystemSpec(dim=v, drift=[0, 1], coupling=_sigma_x_block(2)), "dim", 2),
    ("good-dim", lambda v: GoodSubspace.of(1, v), "dim", 5),
    ("max_denominator", lambda v: ControllabilityConfig(max_denominator=v), "max_denominator", 3),
]


@pytest.mark.parametrize(
    "build, name, valid", [row[1:] for row in INTEGER_FIELDS], ids=[row[0] for row in INTEGER_FIELDS]
)
def test_integer_fields_are_read_as_integers(build, name, valid):
    # unchecked, a float dim failed later in numpy naming no field, and a
    # float or bool max_denominator was used as given
    for bad in (float(valid), np.float64(valid), True):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}"):
            build(bad)
    value = getattr(build(np.int64(valid)), name)
    assert value == valid and type(value) is int


E1 = StateVector.basis_state(1, 5)
PULSE = ControlPulse(((1.0, 0.1),))

REAL_ARGUMENTS = [
    # id, call with the argument's value, argument name, a valid value
    ("pulse-duration", lambda v: ControlPulse(((v, 0.5),)), "segments[0][0]", 1.0),
    ("pulse-amplitude", lambda v: ControlPulse(((1.0, 0.5), (1.0, v))), "segments[1][1]", -0.5),
    ("phi1", lambda v: make_plan(E1, GoodSubspace.of(1, 5), phi1=v), "phi1", 3.0),
    ("phi2", lambda v: make_plan(E1, GoodSubspace.of(1, 5), phi2=v), "phi2", 3.0),
    ("weights-g", lambda v: closed_form_weights(v, math.pi, math.pi, 1), "g", 0.5),
    ("success-g", lambda v: success_probability(v, 1), "g", 0.5),
    ("optimal-g", lambda v: optimal_iterations(v), "g", 0.5),
    ("optimal-phi1", lambda v: optimal_iterations(0.5, 10, v), "phi1", 3.0),
    ("optimal-phi2", lambda v: optimal_iterations(0.5, 10, phi2=v), "phi2", 3.0),
    ("energy_gap", lambda v: HydrogenModel(v), "energy_gap", 2.0),
    ("kappa_ground", lambda v: HydrogenModel(kappa_ground=v), "kappa_ground", 0.5),
    ("kappa_excited", lambda v: HydrogenModel(kappa_excited=v), "kappa_excited", 3.0),
    ("spec-gap", lambda v: hydrogen_spec(v), "energy_gap", 2.0),
    ("duration", lambda v: propagate_interaction_picture(HydrogenModel(), PULSE, E1, duration=v),
     "duration", 0.5),
    ("duration-callable",
     lambda v: propagate_interaction_picture(HydrogenModel(), lambda t: 0.1, E1, duration=v),
     "duration", 0.5),
    ("t0", lambda v: propagate_interaction_picture(HydrogenModel(), PULSE, E1, t0=v), "t0", 1.0),
    ("max_step",
     lambda v: propagate_interaction_picture(HydrogenModel(), lambda t: 0.1, E1, 0.5, max_step=v),
     "max_step", 0.25),
    # a pulse takes no steps, but its max_step is read all the same
    ("max_step-pulse", lambda v: propagate_interaction_picture(HydrogenModel(), PULSE, E1, max_step=v),
     "max_step", 0.25),
]


@pytest.mark.parametrize(
    "call, name, valid", [row[1:] for row in REAL_ARGUMENTS], ids=[row[0] for row in REAL_ARGUMENTS]
)
def test_real_arguments_are_read_as_real_numbers(call, name, valid):
    # unchecked, float() read True as 1 and "3.0" as 3.0, and a bare
    # comparison or math.isfinite failed on a string naming no argument
    for bad in (True, str(valid), complex(valid)):
        message = f"^{re.escape(name)}: must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            call(bad)
    for good in (np.float64(valid), np.float32(valid), Fraction(valid), max(int(valid), 1)):
        call(good)


def test_int_past_the_float_range_is_not_finite():
    # float() raised a raw OverflowError
    with pytest.raises(NonFiniteError, match=r"^segments\[0\]: .* got \(inf, -inf\)$"):
        ControlPulse(((10**400, -(10**400)),))
    with pytest.raises(NonFiniteError, match="^energy_gap: must be finite, got inf$"):
        HydrogenModel(10**400)
    with pytest.raises(ValueError, match="^phi1 must lie in \\[0, pi\\], got inf$"):
        make_plan(E1, GoodSubspace.of(1, 5), phi1=10**400)


# entries at and just past both tolerances: |x - y| = HERMITICITY_TOL passes
# the Hermiticity check, and |d_i b - b d_j| = COMMUTATOR_TOL still commutes
SPEC_ENTRIES = st.sampled_from([
    0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-300,
    HERMITICITY_TOL, -HERMITICITY_TOL, np.nextafter(HERMITICITY_TOL, 1.0),
    COMMUTATOR_TOL, -COMMUTATOR_TOL, np.nextafter(COMMUTATOR_TOL, 1.0),
])
SPEC_INPUTS = {
    "float": lambda re, im: re,
    "float32": lambda re, im: re.astype(np.float32),
    "int": lambda re, im: re.astype(int),
    "bool": lambda re, im: re != 0,
    # Python ints where the entry is integral, floats elsewhere
    "list": lambda re, im: [[int(x) if x == int(x) else x for x in row] for row in re.tolist()],
    "complex": lambda re, im: re + 1j * im,
    "complex-list": lambda re, im: (re + 1j * im).tolist(),
}


@st.composite
def spec_inputs(draw):
    """dim, drift and a coupling of one input kind, its entries mostly
    mirrored (conjugated) across the diagonal, where they are mostly real."""
    dim = draw(st.integers(2, 4))
    drift = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), min_size=dim, max_size=dim))
    re, im = (np.array([[draw(SPEC_ENTRIES) for _ in range(dim)] for _ in range(dim)])
              for _ in range(2))
    for i in range(dim):
        for j in range(i + 1):
            if draw(st.sampled_from([True, True, True, False])):
                re[i, j], im[i, j] = re[j, i], -im[j, i] if j < i else 0.0
    kind = draw(st.sampled_from(sorted(SPEC_INPUTS)))
    return dim, drift, SPEC_INPUTS[kind](re, im)


@settings(max_examples=300)
@given(case=spec_inputs())
@example(case=(2, [0.0, 1.0], np.array([[0.0, HERMITICITY_TOL], [0.0, 0.0]])))
@example(case=(2, [0.0, 1.0], np.array([[0.0, COMMUTATOR_TOL], [COMMUTATOR_TOL, 0.0]])))
@example(case=(2, [0.0, 1.0], [[0, np.nextafter(COMMUTATOR_TOL, 1.0)], [COMMUTATOR_TOL, 0]]))
@example(case=(2, [0.0, 1.0], [[0, 1], [2, 0]]))
def test_spec_checks_equal_complex_oracle(case):
    # every input kind stores the same read-only complex128 arrays, raises
    # the same error with the same text, and warns exactly when the checks
    # in complex arithmetic find that drift and coupling commute
    dim, drift, coupling = case
    try:
        expected_drift, expected_coupling, commutes = system_spec_checks(dim, drift, coupling)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            SystemSpec(dim=dim, drift=drift, coupling=coupling)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = SystemSpec(dim=dim, drift=drift, coupling=coupling)
    assert [str(w.message) for w in caught] == (
        ["drift and coupling commute; the control problem is trivial"] if commutes else []
    )
    for stored, expected in ((spec.drift, expected_drift), (spec.coupling, expected_coupling)):
        assert stored.dtype == expected.dtype and not stored.flags.writeable
        assert stored.tobytes() == expected.tobytes()  # signed zeros included


def test_second_propagate_reuses_the_blocks(rng, monkeypatch):
    # the coupling's blocks are found once per spec, not once per call
    calls = []
    edges = core._edges
    monkeypatch.setattr(core, "_edges", lambda *args: calls.append(args) or edges(*args))
    spec, pulse, state = random_spec(rng, 5), random_segments(rng), random_state(rng, 5)
    first = propagate(spec, pulse, state)
    assert len(calls) == 1
    second = propagate(spec, pulse, state)
    assert len(calls) == 1
    assert second.amplitudes.tobytes() == first.amplitudes.tobytes()


def _sigma_x_block(dim):
    b = np.zeros((dim, dim), dtype=complex)
    b[0, 1] = b[1, 0] = 1.0
    return b


class TestControlPulse:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ControlPulse(((0.0, 1.0),))
        with pytest.raises(ValueError):
            ControlPulse(((-1.0, 1.0),))

    @pytest.mark.parametrize(
        "segment",
        [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, -np.inf)],
        ids=["nan-duration", "inf-duration", "nan-amplitude", "inf-amplitude"],
    )
    def test_rejects_non_finite_segment(self, segment):
        # unchecked, these reached propagate, which failed with a
        # LinAlgError or a misleading normalization error
        with pytest.raises(NonFiniteError, match=r"^segments\[1\]: "):
            ControlPulse(((1.0, 0.2), segment))

    def test_duration_and_amplitude(self):
        p = ControlPulse(((1.0, 0.3), (2.0, -0.5)))
        assert p.duration == 3.0
        assert p.segments == ((1.0, 0.3), (2.0, -0.5))


class TestPrepareUnitary:
    def test_first_basis_state_gives_identity(self):
        u = prepare_unitary(StateVector.basis_state(1, 4))
        assert np.array_equal(u.matrix, np.eye(4))

    def test_second_basis_state(self):
        u = prepare_unitary(StateVector.basis_state(2, 2))
        e1 = np.array([1.0, 0.0])
        assert np.max(np.abs(u.matrix @ e1 - np.array([0.0, 1.0]))) < 1e-10

    def test_case1_initial_vector(self):
        target = StateVector([0.7, 0.5, 0.3, 0.4, 0.1])
        u = prepare_unitary(target)
        produced = u.matrix[:, 0]
        assert np.max(np.abs(produced - target.amplitudes)) < 1e-10

    def test_random_targets_unitary_and_correct(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            target = random_state(rng, dim)
            u = prepare_unitary(target)  # constructor enforces unitarity
            assert np.max(np.abs(u.matrix[:, 0] - target.amplitudes)) < 1e-10


class TestPropagate:
    def test_free_evolution_eigenstate_phase(self):
        spec = SystemSpec(dim=3, drift=[0.0, 1.5, 3.0], coupling=_sigma_x_block(3))
        initial = StateVector.basis_state(2, 3)
        pulse = ControlPulse(((2.0, 0.0),))
        out = propagate(spec, pulse, initial)
        expected = np.exp(-1j * 1.5 * 2.0) * initial.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12
        assert np.max(np.abs(out.populations() - initial.populations())) < 1e-12

    def test_two_level_rabi_populations(self):
        # constant coupling with zero drift: populations follow
        # (cos^2(u T), sin^2(u T)) exactly; zero drift trips the
        # commuting-Hamiltonian warning by construction
        with pytest.warns(UserWarning, match="commute"):
            spec = SystemSpec(dim=2, drift=[0.0, 0.0], coupling=_sigma_x_block(2))
        u, total = 0.37, 2.1
        out = propagate(spec, ControlPulse(((total, u),)), StateVector.basis_state(1, 2))
        expected = np.array([np.cos(u * total) ** 2, np.sin(u * total) ** 2])
        assert np.max(np.abs(out.populations() - expected)) < 1e-12

    def test_empty_pulse_returns_initial(self, rng):
        spec = random_spec(rng, 4)
        s = random_state(rng, 4)
        assert propagate(spec, ControlPulse(()), s) is s

    def test_norm_preserved_random(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            spec = random_spec(rng, dim)
            segs = tuple(
                (float(rng.uniform(0.1, 2.0)), float(rng.normal()))
                for _ in range(int(rng.integers(1, 5)))
            )
            out = propagate(spec, ControlPulse(segs), random_state(rng, dim))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    def test_segment_composition(self, rng):
        spec = random_spec(rng, 4)
        s = random_state(rng, 4)
        s1, s2 = (0.7, 0.4), (1.1, -0.8)
        combined = propagate(spec, ControlPulse((s1, s2)), s)
        chained = propagate(spec, ControlPulse((s2,)), propagate(spec, ControlPulse((s1,)), s))
        assert np.max(np.abs(combined.amplitudes - chained.amplitudes)) < 1e-9

    def test_free_evolution_keeps_populations(self, rng):
        spec = random_spec(rng, 5)
        s = random_state(rng, 5)
        out = propagate(spec, ControlPulse(((3.7, 0.0),)), s)
        assert np.max(np.abs(out.populations() - s.populations())) < 1e-10

    def test_dimension_mismatch(self, rng):
        spec = random_spec(rng, 4)
        with pytest.raises(DimensionMismatchError):
            propagate(spec, ControlPulse(((1.0, 0.1),)), random_state(rng, 3))

    def test_rejects_a_callable(self, rng):
        # propagate takes no duration, so a callable is a type error here
        with pytest.raises(TypeError, match="^pulse must be a ControlPulse"):
            propagate(random_spec(rng, 4), lambda t: 0.1, random_state(rng, 4))


class TestSegments:
    def test_callable_matches_lab_frame_oracle(self, rng):
        # the CF4 step rule reads any spec: on 8-level systems, once with the
        # drift's spread setting the step and once with the coupling's peak
        for scale in (1.0, 3.0, 1.0, 3.0):
            spec, state = random_spec(rng, 8), random_state(rng, 8)
            spec = SystemSpec(dim=8, drift=spec.drift, coupling=scale * spec.coupling)
            a, w, phase, offset = rng.uniform([0.5, 0.5, 0.0, -0.5], [2.0, 3.0, 6.0, 0.5])
            field = lambda t: a * math.cos(w * t + phase) + offset
            duration, t0 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-2.0, 2.0))
            durations, amplitudes = core._segments(spec, field, duration, t0, None)
            c = state.amplitudes
            out = c * np.exp(-1j * spec.drift * duration)
            for levels, part in core._evolve(spec, durations, amplitudes, c):
                out[levels] = part
            assert np.max(np.abs(out - rk4_lab_frame(spec, field, state, duration, t0))) < 1e-9


def random_segments(rng) -> ControlPulse:
    return ControlPulse(tuple(
        (float(rng.uniform(0.1, 2.0)), float(rng.normal()))
        for _ in range(int(rng.integers(1, 6)))
    ))


def block_diagonal_spec(rng, dim):
    """A spec whose coupling is block-diagonal over a random partition of
    the levels: the first block has two levels or more and is coupled,
    each other block is zero or dense, and a dense singleton is a
    diagonal entry.  Returns the spec and its blocks as 0-based levels."""
    cuts = rng.choice(np.arange(2, dim), size=int(rng.integers(0, dim - 1)), replace=False)
    blocks = np.split(rng.permutation(dim), np.sort(cuts))
    b = np.zeros((dim, dim), dtype=complex)
    for k, block in enumerate(blocks):
        if k == 0 or rng.uniform() < 0.6:
            b[np.ix_(block, block)] = random_hermitian(rng, block.size)
    return SystemSpec(dim=dim, drift=rng.normal(size=dim) * 2.0, coupling=b), blocks


class TestPropagateBlocks:
    def test_matches_full_matrix_oracle(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 8))
            spec, pulse, state = random_spec(rng, dim), random_segments(rng), random_state(rng, dim)
            out = propagate(spec, pulse, state)
            assert np.max(np.abs(out.amplitudes - full_matrix_propagate(spec, pulse, state))) < 1e-12

    def test_block_diagonal_coupling(self, rng):
        for _ in range(60):
            dim = int(rng.integers(3, 10))
            spec, blocks = block_diagonal_spec(rng, dim)
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for block in blocks:
                if rng.uniform() < 0.3:
                    amps[block] = 0.0  # a block the state does not occupy
            if not amps.any():
                amps[blocks[0]] = 1.0
            state = StateVector(amps / np.linalg.norm(amps))
            pulse = random_segments(rng)
            out = propagate(spec, pulse, state)
            assert np.max(np.abs(out.amplitudes - full_matrix_propagate(spec, pulse, state))) < 1e-12
            # a level in a block that is zero or unoccupied only picks up its drift phase
            c = state.amplitudes
            for block in blocks:
                untouched = not spec.coupling[np.ix_(block, block)].any() or not c[block].any()
                if untouched:
                    expected = c[block] * np.exp(-1j * spec.drift[block] * pulse.duration)
                    assert np.array_equal(out.amplitudes[block], expected)


class TestUnitaryOperator:
    def test_stores_a_private_copy(self):
        # the caller's matrix stays writeable, and writing to it afterwards
        # changes nothing in the operator
        m = np.eye(2, dtype=complex)
        u = UnitaryOperator(m)
        assert not np.shares_memory(m, u.matrix)
        assert m.flags.writeable and not u.matrix.flags.writeable
        m[0, 0] = 5.0
        assert u.matrix.tolist() == [[1, 0], [0, 1]]

    def test_rejects_non_unitary(self):
        with pytest.raises(UnitarityError):
            UnitaryOperator(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            UnitaryOperator(np.zeros((2, 3)))
