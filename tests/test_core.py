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
    ConnectivityGraph,
    ControllabilityConfig,
    ControlPulse,
    DimensionMismatchError,
    GoodSubspace,
    HermiticityError,
    HydrogenModel,
    MeasurementPartition,
    NonFiniteError,
    NormalizationError,
    StateVector,
    SystemSpec,
    UnitarityError,
    UnitaryOperator,
    build_graph,
    check_degenerate_transitions,
    check_rational_ratios,
    closed_form_weights,
    hydrogen_spec,
    make_plan,
    measurement_histogram,
    optimal_iterations,
    prepare_unitary,
    propagate,
    propagate_interaction_picture,
    run_algorithm1,
    sample_collapse,
)
from iqcontrol import core
from iqcontrol.core import COMMUTATOR_TOL, HERMITICITY_TOL
from conftest import COUPLING_KINDS, coupling_of_kind, random_hermitian, random_spec, random_state
from oracles import (
    full_matrix_propagate,
    phase_bounds,
    rebuilt_paths,
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
        message = "amplitudes: expected at least 2 levels, got 1"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            StateVector([1.0])

    @pytest.mark.parametrize(
        "amps, error, message",
        [
            ([[1, 0], [0, 0]], DimensionMismatchError, "amplitudes: expected a 1-D sequence, got shape (2, 2)"),
            (1.0, DimensionMismatchError, "amplitudes: expected a 1-D sequence, got shape ()"),
            (["1", "0"], TypeError, "amplitudes: must be numbers, got dtype <U1"),
            ([1, "0"], TypeError, "amplitudes: must be numbers, got dtype <U"),
            (np.array([b"1", b"0"]), TypeError, "amplitudes: must be numbers, got dtype |S1"),
        ],
        ids=["2-D", "scalar", "text", "number-and-text", "bytes"],
    )
    def test_rejects_text_and_other_shapes(self, amps, error, message):
        # a 2-D input was flattened into a 4-level state, and text read as numbers
        with pytest.raises(error) as caught:
            StateVector(amps)
        assert str(caught.value).startswith(message)

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
        with pytest.raises(ValueError, match=r"^index: must lie in \[1, 3\], got 4$"):
            StateVector.basis_state(4, 3)

    def test_basis_state_reads_integers(self):
        # unchecked, numpy raised IndexError for label 1.5, and True was label 1
        for bad in (1.5, True):
            with pytest.raises(TypeError, match=f"^index: must be an integer, got {bad!r}$"):
                StateVector.basis_state(bad, 3)
        with pytest.raises(TypeError, match="^dim: must be an integer, got 3.0$"):
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

    def test_coupling_shape_mismatch_message_pinned(self):
        message = "coupling: shape (2, 3) does not match dimension 2"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            SystemSpec(dim=2, drift=[0, 1], coupling=[[0, 1, 0], [1, 0, 0]])

    @pytest.mark.parametrize("exact, shown", [
        (3, "3"),
        # str refuses a term past 4,300 digits
        (Fraction(10**5000 + 1, 10**5000), "Fraction(a 16610-bit integer, a 16610-bit integer)"),
    ], ids=["int", "long-fraction"])
    def test_exact_drift_disagreement_message_pinned(self, exact, shown):
        message = f"exact_drift[1]: {shown} disagrees with drift[1] = 2.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SystemSpec(dim=2, drift=[0, 2], coupling=_sigma_x_block(2), exact_drift=[0, exact])

    @pytest.mark.parametrize("drift", [[0.0, np.nan], [np.inf, 1.0], [0.0, -np.inf]])
    def test_rejects_non_finite_drift(self, drift):
        with pytest.raises(NonFiniteError, match="drift"):
            SystemSpec(dim=2, drift=drift, coupling=_sigma_x_block(2))

    @pytest.mark.parametrize("drift", [[0, 1j], np.array([0, 1j])], ids=["list", "array"])
    def test_rejects_complex_drift(self, drift):
        # the array was stored as [0, 0] with numpy's ComplexWarning and a
        # false "commute" warning; the list raised float()'s unnamed TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="^drift: must be real, got dtype complex128$"):
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

    @pytest.mark.parametrize(
        "coupling, error",
        [
            ([[0, 1e308], [1e308, 0]], None),
            ([[0, 1e308j], [-1e308j, 0]], None),
            ([[0, 1e308], [-1e308, 0]], HermiticityError),
        ],
        ids=["real", "complex", "not-hermitian"],
    )
    def test_overflowing_checks_warn_nothing(self, coupling, error):
        # d_i b_ij past the float range, or b_ij - conj(b_ji), overflowed in
        # the checks, and numpy's RuntimeWarnings reached the caller, an
        # untyped error under -W error; the overflow fails its tolerance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is None:
                spec = SystemSpec(2, [0, 1e308], coupling)
                assert spec.coupling[0, 1] == complex(coupling[0][1])
            else:
                with pytest.raises(error, match=r"^coupling\[0\]\[1\]: not Hermitian"):
                    SystemSpec(2, [0, 1e308], coupling)

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

    @pytest.mark.parametrize("dtype, bound_mib", [(float, 2.0), (complex, 2.5)])
    def test_coupling_peak_memory(self, dtype, bound_mib):
        # the checks run in the coupling's dtype with no scratch array, each
        # temporary freed before the next, and the coupling is made complex
        # once: about 1.0 MiB real and 2.1 MiB complex.  A real coupling
        # checked in complex arithmetic peaked at 3.19 MiB; a complex one
        # checked beside a float scratch array at 3.63 MiB
        dim = 256
        coupling = np.diag(np.linspace(0.5, 2.0, dim - 1), 1)
        coupling = (coupling + coupling.T).astype(dtype)
        drift = np.arange(dim, dtype=float)
        tracemalloc.start()
        try:
            SystemSpec(dim=dim, drift=drift, coupling=coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

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
    # per_index(True) was a one-label partition; 2.5 raised numpy's TypeError naming no argument
    ("per_index-dim", lambda v: MeasurementPartition.per_index(v), "dim", 3),
    ("identity-dim", lambda v: UnitaryOperator.identity(v), "dim", 3),
]


@pytest.mark.parametrize(
    "build, name, valid", [row[1:] for row in INTEGER_FIELDS], ids=[row[0] for row in INTEGER_FIELDS]
)
def test_integer_fields_are_read_as_integers(build, name, valid):
    # unchecked, a float dim failed later in numpy naming no field, and a
    # float or bool max_denominator was used as given
    for bad in (float(valid), np.float64(valid), True, 2.5):
        with pytest.raises(TypeError, match=f"^{name}: must be an integer, got {re.escape(repr(bad))}"):
            build(bad)
    value = getattr(build(np.int64(valid)), name)
    assert value == valid and type(value) is int


E1 = StateVector.basis_state(1, 5)
PULSE = ControlPulse(((1.0, 0.1),))

HUGE = 10**5000  # str() refuses an int of more than 4,300 digits
HUGE_INTEGERS = [
    # id, call with the integer, error type, message up to the value
    ("seed", lambda v: measurement_histogram(E1, MeasurementPartition.per_index(5), v, 1), -HUGE,
     ValueError, "seed: must be >= 0, got "),
    ("shot", lambda v: sample_collapse(E1, MeasurementPartition.per_index(5), 0, v), -HUGE,
     ValueError, "shot: must be >= 0, got "),
    ("shots", lambda v: measurement_histogram(E1, MeasurementPartition.per_index(5), 0, v), -HUGE,
     ValueError, "shots: must lie in [1, 9223372036854775807], got "),
    ("l_max", lambda v: optimal_iterations(0.1, v), -HUGE, ValueError, "l_max: must be >= 0, got "),
    ("measurement_shot", lambda v: run_algorithm1(hydrogen_spec(), E1, 1, measurement_shot=v), -HUGE,
     ValueError, "shot: must be >= 0, got "),
    ("good-label", lambda v: GoodSubspace.of(v, 5), HUGE, ValueError, "good index: must lie in [1, 5], got "),
    ("good-label-negative", lambda v: GoodSubspace.of([1, v], 5), -HUGE, ValueError,
     "good index: must lie in [1, 5], got "),
    ("good-label-fraction", lambda v: GoodSubspace.of(Fraction(v, 3), 5), HUGE, TypeError,
     "good index: must be an integer, got Fraction("),
    ("basis-label", lambda v: StateVector.basis_state(v, 5), HUGE, ValueError,
     "index: must lie in [1, 5], got "),
    ("basis-label-negative", lambda v: StateVector.basis_state(v, 5), -HUGE, ValueError,
     "index: must lie in [1, 5], got "),
    ("partition-label", lambda v: MeasurementPartition(((1,), (v,))), HUGE, ValueError,
     "blocks must partition 1..N exactly, got labels [1, "),
    ("partition-label-negative", lambda v: MeasurementPartition(((1,), (v,))), -HUGE, ValueError,
     "blocks must partition 1..N exactly, got labels ["),
    ("vertex_set-label", lambda v: check_degenerate_transitions(hydrogen_spec(), [1, v]), HUGE, ValueError,
     "vertex_set label: must lie in [1, 5], got "),
    ("vertex_set-label-negative", lambda v: check_rational_ratios(hydrogen_spec(), [v, 2]), -HUGE, ValueError,
     "vertex_set label: must lie in [1, 5], got "),
    ("max_denominator", lambda v: check_rational_ratios(hydrogen_spec(), [1, 2, 3], v), -HUGE, ValueError,
     "max_denominator: must be >= 1, got "),
    ("config-max_denominator", lambda v: ControllabilityConfig(max_denominator=v), -HUGE, ValueError,
     "max_denominator: must be >= 1, got "),
    ("graph-edge", lambda v: ConnectivityGraph(3, frozenset({(1, v)})), HUGE, ValueError, "edge (1, "),
    ("graph-edge-negative", lambda v: ConnectivityGraph(3, frozenset({(v, 2)})), -HUGE, ValueError, "edge ("),
    # a dim past the longest axis numpy can index is refused by name before
    # any array of it is asked for
    ("spec-dim", lambda v: SystemSpec(v, [0.0, 1.0], [[0, 1], [1, 0]]), HUGE, ValueError,
     "dim: must be <= 9223372036854775807, got "),
    ("good-dim", lambda v: GoodSubspace.of([1], v), HUGE, ValueError,
     "dim: must be <= 9223372036854775807, got "),
    ("basis-dim", lambda v: StateVector.basis_state(1, v), HUGE, ValueError,
     "dim: must be <= 9223372036854775807, got "),
    ("identity-dim", lambda v: UnitaryOperator.identity(v), HUGE, ValueError,
     "dim: must be <= 9223372036854775807, got "),
    ("partition-dim", lambda v: MeasurementPartition.per_index(v), HUGE, ValueError,
     "dim: must be <= 9223372036854775807, got "),
    ("spec-dim-negative", lambda v: SystemSpec(v, [0.0, 1.0], [[0, 1], [1, 0]]), -HUGE, ValueError,
     "dim: must be >= 2, got "),
    ("shots-max_attempts", lambda v: run_algorithm1(hydrogen_spec(), E1, 1, shots=v, max_attempts=3), HUGE,
     ValueError, "shots: must lie in [1, 9223372036854775807], got "),
    ("iterations", lambda v: make_plan(E1, GoodSubspace.of(1, 5), iterations=v), HUGE, ValueError,
     "iterations: phase-error bound inf exceeds 1e-09; the largest count within it is 1125899, got "),
    ("iterations-negative", lambda v: closed_form_weights(0.5, math.pi, math.pi, v), -HUGE, ValueError,
     "iterations: must be >= 0, got "),
]


@pytest.mark.parametrize(
    "call, value, error, prefix", [row[1:] for row in HUGE_INTEGERS], ids=[row[0] for row in HUGE_INTEGERS]
)
def test_huge_integers_are_named_by_bit_length(call, value, error, prefix):
    # every row but "iterations" ended in "ValueError: Exceeds the limit
    # (4300 digits) for integer string conversion", which names no argument
    with pytest.raises(error) as info:
        call(value)
    message = str(info.value)
    shown = f"a {'negative ' if value < 0 else ''}16610-bit integer"
    assert type(info.value) is error and message.startswith(prefix + shown), message
    assert "Exceeds the limit" not in message


@pytest.mark.parametrize(
    "call",
    [lambda v: measurement_histogram(E1, MeasurementPartition.per_index(5), 0, v),
     lambda v: run_algorithm1(hydrogen_spec(), E1, 1, shots=v)],
    ids=["histogram", "algorithm1"],
)
@pytest.mark.parametrize(
    "value, shown", [(2**63, "9223372036854775808"), (2**64, "a 65-bit integer")], ids=["2**63", "2**64"]
)
def test_shot_counts_past_int64_are_named(call, value, shown):
    # the histogram's int64 bounds array raised numpy's unnamed
    # "OverflowError: Python int too large to convert to C long"
    message = f"shots: must lie in [1, 9223372036854775807], got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


DIM_READERS = {
    "spec": lambda v: SystemSpec(v, [0.0, 1.0], [[0, 1], [1, 0]]),
    "good": lambda v: GoodSubspace.of([1], v),
    "basis": lambda v: StateVector.basis_state(1, v),
    "identity": lambda v: UnitaryOperator.identity(v),
    "partition": lambda v: MeasurementPartition.per_index(v),
}


@pytest.mark.parametrize("call", DIM_READERS.values(), ids=DIM_READERS)
def test_dim_past_the_longest_numpy_axis_is_named(call):
    # a good set of such a dim was accepted, and its mask() raised numpy's
    # "Maximum allowed dimension exceeded", which names no argument
    message = "dim: must be <= 9223372036854775807, got 9223372036854775808"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(2**63)


def test_dim_at_the_longest_numpy_axis_is_read():
    # no array of a good set's dim is built until its mask is asked for
    assert GoodSubspace.of([1], 2**63 - 1).dim == 2**63 - 1


def test_integers_print_exactly():
    # a bound and a value below 2**64 print in full, never in float format
    message = ("iterations: phase-error bound 16384 exceeds 1e-09; the largest count within it is "
               f"1125899, got {2**64 - 1}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_plan(E1, GoodSubspace.of(1, 5), iterations=2**64 - 1)
    with pytest.raises(ValueError, match=r"^seed: must be >= 0, got a negative 65-bit integer$"):
        sample_collapse(E1, MeasurementPartition.per_index(5), -(2**64))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: sample_collapse(E1, MeasurementPartition.per_index(5), v),
         "seed: must be an integer, got a list too long to print"),
        (lambda v: make_plan(E1, GoodSubspace.of(1, 5), phi1=v),
         "phi1: must be a real number, got a list too long to print"),
    ],
)
def test_values_of_a_wrong_kind_too_long_to_print_are_named_by_type(call, message):
    # repr of a list holding a huge integer raised Python's unnamed
    # "Exceeds the limit (4300 digits)" ValueError
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call([HUGE])


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
    ("config-edge_threshold", lambda v: ControllabilityConfig(edge_threshold=v), "edge_threshold", 1e-12),
    ("config-degeneracy_tol", lambda v: ControllabilityConfig(degeneracy_tol=v), "degeneracy_tol", 1e-9),
    ("config-ratio_tol", lambda v: ControllabilityConfig(ratio_tol=v), "ratio_tol", 1e-9),
    ("graph-edge_threshold", lambda v: build_graph(hydrogen_spec(), v), "edge_threshold", 1e-12),
    ("degenerate-tol", lambda v: check_degenerate_transitions(hydrogen_spec(), [1, 2, 3], v), "tol", 1e-9),
    ("degenerate-edge_threshold",
     lambda v: check_degenerate_transitions(hydrogen_spec(), [1, 2, 3], edge_threshold=v),
     "edge_threshold", 1e-12),
    ("ratios-tol", lambda v: check_rational_ratios(hydrogen_spec(), [1, 2, 3], tol=v), "tol", 1e-9),
]
REAL_BY_ID = {row[0]: row[1:] for row in REAL_ARGUMENTS}


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


@pytest.mark.parametrize(
    "call, name", [row[1:3] for row in REAL_ARGUMENTS], ids=[row[0] for row in REAL_ARGUMENTS]
)
def test_real_arguments_are_finite(call, name):
    # a NaN phase, g or tolerance was called out of range, and a NaN
    # max_step not positive, each by a plain ValueError
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(NonFiniteError, match=f"^{re.escape(name)}: must be finite, got "):
            call(bad)


# the id of a REAL_ARGUMENTS row and a value just outside its interval
BOUNDED_ARGUMENTS = [
    ("phi1", -0.1),
    ("phi2", 3.2),
    ("weights-g", 1.1),
    ("optimal-g", 0),
    ("success-g", 0),
    ("config-edge_threshold", -1e-300),
    ("config-degeneracy_tol", -1e-300),
    ("config-ratio_tol", -1e-300),
    ("graph-edge_threshold", -1e-300),
    ("degenerate-tol", -1e-300),
    ("degenerate-edge_threshold", -1e-300),
    ("ratios-tol", -1e-300),
    ("duration", -1),
    ("pulse-duration", 0),
    ("max_step", 0),
    ("energy_gap", 0),
]


@pytest.mark.parametrize("row, value", BOUNDED_ARGUMENTS, ids=[row for row, _ in BOUNDED_ARGUMENTS])
def test_bounded_arguments_name_their_interval(row, value):
    call, name, _ = REAL_BY_ID[row]
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: must (be|lie)") as info:
        call(value)
    assert not isinstance(info.value, NonFiniteError)


def test_bound_texts():
    with pytest.raises(ValueError, match=r"^phi1: must lie in \[0, pi\], got 3\.2$"):
        make_plan(E1, GoodSubspace.of(1, 5), phi1=3.2)
    with pytest.raises(ValueError, match=r"^g: must lie in \[0, 1\], got 1\.1$"):
        closed_form_weights(1.1, math.pi, math.pi, 1)
    with pytest.raises(ValueError, match=r"^g: must lie in \(0, 1\], got 0\.0$"):
        optimal_iterations(0)
    with pytest.raises(ValueError, match=r"^ratio_tol: must be >= 0, got -1e-300$"):
        ControllabilityConfig(ratio_tol=-1e-300)
    with pytest.raises(ValueError, match=r"^segments\[0\]\[0\]: must be > 0, got 0\.0$"):
        ControlPulse(((0, 0.5),))


def test_int_past_the_float_range_is_not_finite():
    # float() raised a raw OverflowError
    with pytest.raises(NonFiniteError, match=r"^segments\[0\]\[0\]: must be finite, got inf$"):
        ControlPulse(((10**400, -(10**400)),))
    with pytest.raises(NonFiniteError, match="^energy_gap: must be finite, got inf$"):
        HydrogenModel(10**400)
    with pytest.raises(NonFiniteError, match="^phi1: must be finite, got inf$"):
        make_plan(E1, GoodSubspace.of(1, 5), phi1=10**400)


# each array argument: its call with a value, the stored array of the
# result, a valid value with one entry set to x, a value of another ndim,
# and whether it must be real.  The field's value is what it returns.
ARRAY_ARGUMENTS = {
    "amplitudes": (StateVector, lambda r: r.amplitudes, lambda x: [x, 0.0], [[1.0, 0.0]], False),
    "drift": (lambda v: SystemSpec(2, v, [[0, 1], [1, 0]]), lambda r: r.drift, lambda x: [0.0, x],
              [[0.0, 1.0]], True),
    "coupling": (lambda v: SystemSpec(2, [0.0, 1.0], v), lambda r: r.coupling, lambda x: [[0, x], [x, 0]],
                 [0.0, 1.0], False),
    "matrix": (UnitaryOperator, lambda r: r.matrix, lambda x: [[x, 0], [0, 1]], [1.0, 0.0], False),
    "field": (lambda v: propagate_interaction_picture(HydrogenModel(), lambda t: v, E1, duration=0.5),
              lambda r: r.amplitudes, lambda x: x, [0.1, 0.2], True),
}
# id, the hostile value from (fill, other ndim), the error it raises
HOSTILE_KINDS = [
    ("text", lambda fill, other: fill("1"), TypeError),
    ("bytes", lambda fill, other: fill(b"1"), TypeError),
    ("none", lambda fill, other: fill(None), TypeError),
    ("object-text", lambda fill, other: np.array(fill("1"), dtype=object), TypeError),
    ("dict", lambda fill, other: fill({}), TypeError),
    ("ragged", lambda fill, other: fill([1.0, [1.0]]), DimensionMismatchError),
    ("ndim", lambda fill, other: other, DimensionMismatchError),
    ("nan", lambda fill, other: fill(math.nan), NonFiniteError),
    ("inf", lambda fill, other: fill(math.inf), NonFiniteError),
    ("-inf", lambda fill, other: fill(-math.inf), NonFiniteError),
    ("2**1100", lambda fill, other: fill(2**1100), NonFiniteError),
    ("complex", lambda fill, other: fill(1j), TypeError),  # real arguments only
]
HOSTILE_ARRAYS = [
    pytest.param(call, name, make(fill, other), error, id=f"{name}-{kind}")
    for name, (call, _, fill, other, real) in ARRAY_ARGUMENTS.items()
    for kind, make, error in HOSTILE_KINDS
    if real or kind != "complex"
]


@pytest.mark.parametrize("call, name, value, error", HOSTILE_ARRAYS)
def test_hostile_arrays_raise_named_errors(call, name, value, error):
    # one reader for every array argument: a NaN matrix was unitary, text
    # drift and matrices read as numbers, a 2-D drift flattened, None read
    # as NaN, and ragged nesting, 2**1100 or a complex field value raised
    # numpy's, float()'s or a bare OverflowError's text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call(value)
    assert type(info.value) is error and str(info.value).startswith(f"{name}: "), str(info.value)


# a Fraction object array and a bool array of each argument
NUMBER_ARRAYS = {
    "amplitudes": ([Fraction(3, 5), Fraction(4, 5)], [True, False]),
    "drift": ([Fraction(0), Fraction(1, 2)], [False, True]),
    "coupling": ([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], [[False, True], [True, False]]),
    "matrix": ([[Fraction(1), 0], [0, Fraction(1)]], [[True, False], [False, True]]),
    "field": (Fraction(1, 10), True),
}


@pytest.mark.parametrize("name", sorted(NUMBER_ARRAYS))
def test_fraction_and_bool_arrays_are_numbers(name):
    # each is stored as its float equivalent, with no warning
    call, stored = ARRAY_ARGUMENTS[name][:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in NUMBER_ARRAYS[name]:
            expected = stored(call(np.asarray(value, dtype=float)))
            assert stored(call(value)).tobytes() == expected.tobytes()


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
    # hostile kinds, each refused by the reader before any check
    "text": lambda re, im: re.astype(str),
    "none": lambda re, im: _last_entry(re.tolist(), None),
    "huge": lambda re, im: _last_entry(re.tolist(), 2**1100),
    "ragged": lambda re, im: re.tolist()[:-1] + [re.tolist()[-1][:-1]],
}
# a plain list mostly, else a hostile kind
DRIFT_INPUTS = {
    "list": lambda drift: drift,
    "2-D": lambda drift: [drift],
    "text": lambda drift: [str(x) for x in drift],
    "none": lambda drift: drift[:-1] + [None],
    "huge": lambda drift: drift[:-1] + [-(2**1100)],
    "ragged": lambda drift: drift[:-1] + [drift[-1:]],
}


def _last_entry(rows: list, value) -> list:
    """``rows`` with the last entry of its first row set to ``value``."""
    rows[0][-1] = value
    return rows


@st.composite
def spec_inputs(draw):
    """dim, drift and a coupling of one input kind each, the coupling's
    entries mostly mirrored (conjugated) across the diagonal, where they are
    mostly real."""
    dim = draw(st.integers(2, 4))
    drift = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), min_size=dim, max_size=dim))
    drift = DRIFT_INPUTS[draw(st.sampled_from(["list"] * 5 + sorted(DRIFT_INPUTS)))](drift)
    re, im = (np.array([[draw(SPEC_ENTRIES) for _ in range(dim)] for _ in range(dim)])
              for _ in range(2))
    for i in range(dim):
        for j in range(i + 1):
            if draw(st.sampled_from([True, True, True, False])):
                re[i, j], im[i, j] = re[j, i], -im[j, i] if j < i else 0.0
    kind = draw(st.sampled_from(sorted(SPEC_INPUTS)))
    return dim, drift, SPEC_INPUTS[kind](re, im)


@pytest.mark.soak  # the checks must agree with the oracle on every input kind
@settings(max_examples=300)
@given(case=spec_inputs())
@example(case=(2, [0.0, 1.0], np.array([[0.0, HERMITICITY_TOL], [0.0, 0.0]])))
@example(case=(2, [0.0, 1.0], np.array([[0.0, COMMUTATOR_TOL], [COMMUTATOR_TOL, 0.0]])))
@example(case=(2, [0.0, 1.0], [[0, np.nextafter(COMMUTATOR_TOL, 1.0)], [COMMUTATOR_TOL, 0]]))
@example(case=(2, [0.0, 1.0], [[0, 1], [2, 0]]))
# [A, B] at the edge of the float range: (d_i - d_j) B_ij is 0 for a
# degenerate drift and NaN as inf * 0 where B_ij = 0, both commuting (the
# first two), and inf or huge elsewhere, which does not commute
@example(case=(2, [1e308, 1e308], [[0, 10], [10, 0]]))
@example(case=(2, [1e308, -1e308], [[1, 0], [0, 2]]))
@example(case=(2, [1e308, -1e308], [[0, 1], [1, 0]]))
@example(case=(2, [0, 1], [[0, 1e308], [1e308, 0]]))
# the hostile kinds: each was stored, or raised numpy's or float()'s text
@example(case=(2, ["0", "1"], [[0, 1], [1, 0]]))
@example(case=(4, [[0, 1], [2, 3]], np.eye(4)))
@example(case=(2, [0, 2**1100], [[0, 1], [1, 0]]))
@example(case=(2, [0, 1], [[0, 2**1100], [2**1100, 0]]))
@example(case=(2, [0, 1], [[0, None], [1, 0]]))
@example(case=(2, [0, 1], [[0, 1], [1]]))
def test_spec_checks_equal_complex_oracle(case):
    # every input kind stores the same read-only complex128 arrays, raises
    # the same error with the same text, and warns exactly when the checks
    # in complex arithmetic find that drift and coupling commute
    dim, drift, coupling = case
    try:
        expected_drift, expected_coupling, commutes = system_spec_checks(dim, drift, coupling)
    except (TypeError, ValueError) as exc:
        with pytest.raises((TypeError, ValueError)) as raised:
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


# deviations a spec accepts: |B_ij - conj(B_ji)| <= HERMITICITY_TOL off the
# diagonal, and 2 |Im B_ii| <= HERMITICITY_TOL on it
SMALL_DEVIATIONS = st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-13, -5e-13, HERMITICITY_TOL / 2, HERMITICITY_TOL]
)


@st.composite
def near_hermitian_couplings(draw):
    """dim and a Hermitian coupling with entries within the tolerance added
    to one side of some pairs and to some diagonals' imaginary parts, as a
    float array, a complex array or a nested list of complex entries."""
    dim = draw(st.integers(2, 5))
    entries = st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0])
    coupling = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        coupling[i, i] = draw(entries)
        for j in range(i + 1, dim):
            coupling[i, j] = complex(draw(entries), draw(entries))
            coupling[j, i] = coupling[i, j].conjugate()
    for i in range(dim):
        for j in range(i, dim):
            if draw(st.sampled_from([True, False, False])):
                if i == j:
                    coupling[i, i] += 0.5j * draw(SMALL_DEVIATIONS)
                else:
                    side = (i, j) if draw(st.booleans()) else (j, i)
                    coupling[side] += complex(draw(SMALL_DEVIATIONS), draw(SMALL_DEVIATIONS)) / 2
    kind = draw(st.sampled_from(["float", "complex", "complex-list"]))
    if kind == "float":
        return dim, coupling.real
    return dim, coupling if kind == "complex" else coupling.tolist()


@pytest.mark.soak  # the stored coupling must be Hermitian for every input kind
@settings(max_examples=300)
@given(case=near_hermitian_couplings())
def test_coupling_is_stored_exactly_hermitian(case):
    # == treats the two zeros alike, so this is exact equality with the
    # conjugate transpose; an exactly Hermitian input keeps its bytes, and
    # any other keeps its upper triangle and the real part of its diagonal
    dim, coupling = case
    entered = np.array(coupling, dtype=complex)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "drift and coupling commute")
        stored = SystemSpec(dim=dim, drift=np.arange(dim, dtype=float), coupling=coupling).coupling
    assert (stored == stored.conj().T).all()
    if (entered == entered.conj().T).all():
        assert stored.tobytes() == entered.tobytes()
    upper = np.triu_indices(dim, 1)
    assert stored[upper].tobytes() == entered[upper].tobytes()
    assert stored.diagonal().real.tobytes() == entered.diagonal().real.tobytes()


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


def test_second_propagation_builds_no_block_arrays(rng, monkeypatch):
    # a spec keeps its coupled blocks' levels, coupling and drift, read-only,
    # so no later propagation, in either frame, builds them again
    built = []
    diag = np.diag
    monkeypatch.setattr(np, "diag", lambda *args: built.append(args) or diag(*args))
    spec = SystemSpec(dim=9, drift=rng.normal(size=9), coupling=coupling_of_kind(rng, 9, "blocks"))
    pulse, state = random_segments(rng), random_state(rng, 9)
    first = propagate(spec, pulse, state)
    assert len(built) == len(spec._block_arrays) > 1
    for array in (a for block in spec._block_arrays for a in block):
        assert not array.flags.writeable
    built.clear()
    assert propagate(spec, pulse, state).amplitudes.tobytes() == first.amplitudes.tobytes()
    model = HydrogenModel(energy_gap=0.6875)
    propagate_interaction_picture(model, pulse, random_state(rng, 5))
    built.clear()
    propagate_interaction_picture(model, pulse, random_state(rng, 5))
    assert built == []


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24), kind=st.sampled_from(COUPLING_KINDS + ("none",)))
def test_cached_phase_bounds_equal_a_fresh_computation(seed, dim, kind):
    # a spec keeps max|B_ij|, max|lambda| and its largest block's size; a
    # zero coupling has no coupled block, so the size is 0
    rng = np.random.default_rng(seed)
    coupling = np.zeros((dim, dim)) if kind == "none" else coupling_of_kind(rng, dim, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a zero coupling commutes with the drift
        spec = SystemSpec(dim=dim, drift=rng.normal(size=dim) * 3.0, coupling=coupling)
    assert spec._phase_bounds == phase_bounds(spec)
    assert spec._phase_bounds is spec._phase_bounds
    if kind == "none":
        assert spec._phase_bounds[2] == 0


def test_pulse_arrays_are_built_once(monkeypatch):
    # a pulse is converted to arrays on its first propagation and keeps them
    # read-only, so propagating it again, in either frame, converts nothing
    pulse = ControlPulse(((0.3, 0.5), (0.2, -0.4), (0.25, 0.0)))
    converted = []
    array = np.array
    monkeypatch.setattr(np, "array", lambda *args, **kwargs: (
        converted.append(args) if args and args[0] is pulse.segments else None) or array(*args, **kwargs))
    state = StateVector([0.6, 0.0, 0.8, 0.0, 0.0])
    first = propagate(hydrogen_spec(), pulse, state)
    propagate_interaction_picture(HydrogenModel(), pulse, state)
    assert propagate(hydrogen_spec(), pulse, state).amplitudes.tobytes() == first.amplitudes.tobytes()
    assert len(converted) == 1
    for row, expected in zip(pulse._arrays, array(pulse.segments, dtype=float).T):
        assert not row.flags.writeable
        assert row.dtype == float and row.tobytes() == expected.tobytes()
    assert [a.shape for a in ControlPulse(())._arrays] == [(0,), (0,)]


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 300), scale=st.sampled_from([1e-160, 1.0, 1e150]))
def test_norm_is_numpys_bit_for_bit(seed, dim, scale):
    rng = np.random.default_rng(seed)
    arr = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * scale
    assert core._norm(arr) == float(np.linalg.norm(arr))


def _observed(evolve):
    try:
        return evolve().amplitudes.tobytes()
    except Exception as exc:  # both paths must raise the same error
        return type(exc).__name__, str(exc)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 64), kind=st.sampled_from(COUPLING_KINDS),
       zeroed=st.sampled_from(["none", "levels", "one"]))
def test_propagate_equals_the_rebuilding_path(seed, dim, kind, zeroed):
    # the spec's kept block arrays change no bit of a propagation; the state
    # may hold no weight on some coupled blocks, or sit on one level
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a diagonal coupling commutes with the drift
        spec = SystemSpec(dim=dim, drift=rng.normal(size=dim) * 2.0,
                          coupling=coupling_of_kind(rng, dim, kind))
    amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if zeroed == "levels":
        amplitudes[rng.random(dim) < 0.5] = 0.0
    elif zeroed == "one":
        amplitudes[np.arange(dim) != rng.integers(dim)] = 0.0
    if not amplitudes.any():
        amplitudes[0] = 1.0
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    pulse = ControlPulse(tuple(
        (float(rng.uniform(0.05, 1.0)), float(rng.normal() * 2.0)) for _ in range(int(rng.integers(1, 9)))
    ))
    first = _observed(lambda: propagate(spec, pulse, state))
    with rebuilt_paths():
        assert _observed(lambda: propagate(spec, pulse, state)) == first
    assert _observed(lambda: propagate(spec, pulse, state)) == first


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), callable_field=st.booleans())
def test_interaction_picture_equals_the_rebuilding_path(seed, callable_field):
    rng = np.random.default_rng(seed)
    gap, kappa_ground, kappa_excited = rng.uniform([0.1, -3.0, -3.0], [2.0, 3.0, 3.0])
    if rng.random() < 0.25:
        kappa_excited = 0.0  # labels 1 and 3 form the one coupled block
    model = HydrogenModel(float(gap), float(kappa_ground), float(kappa_excited))
    state = random_state(rng, 5)
    t0 = float(rng.uniform(-5.0, 5.0))
    if callable_field:
        a, w, duration = rng.uniform([0.0, 0.2, 0.1], [2.0, 3.0, 3.0])
        field = lambda t: a * math.cos(w * t)  # noqa: E731
    else:
        field, duration = random_segments(rng), None
    run = lambda: propagate_interaction_picture(model, field, state, duration, t0)  # noqa: E731
    first = _observed(run)
    with rebuilt_paths():
        assert _observed(run) == first
    assert _observed(run) == first


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
        field = 0 if not np.isfinite(segment[0]) else 1
        with pytest.raises(NonFiniteError, match=rf"^segments\[1\]\[{field}\]: must be finite, got "):
            ControlPulse(((1.0, 0.2), segment))

    @pytest.mark.parametrize(
        "segment, shown",
        [((1.0,), "(1.0,)"), ((1.0, 0.5, 2.0), "(1.0, 0.5, 2.0)"), (1.0, "1.0")],
        ids=["one", "three", "scalar"],
    )
    def test_segment_that_is_not_a_pair_is_named(self, segment, shown):
        # unpacking raised "not enough values to unpack (expected 2, got 1)"
        # or "cannot unpack non-iterable float object"
        message = f"segments[1]: expected a (duration, amplitude) pair, got {shown}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ControlPulse(((1.0, 0.5), segment))

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
        with pytest.raises(TypeError, match="^pulse: must be a ControlPulse, got function$"):
            propagate(random_spec(rng, 4), lambda t: 0.1, random_state(rng, 4))

    def test_only_the_combined_phase_bound_overflowing_passes(self):
        # (max|lambda| + |u| k max|B_ij|) (|t0| + T) overflows, yet each
        # segment's phase and the drift phase are finite: the segments pass
        spec = SystemSpec(dim=2, drift=[0, 1], coupling=[[0, 1], [1, 0]])
        pulse = ControlPulse(((1e-300, 1e300), (1e300, 1.0)))
        out = propagate(spec, pulse, StateVector.basis_state(1, 2))
        assert abs(core._norm(out.amplitudes) - 1.0) <= 1e-12

    def test_lost_normalization_is_named(self, rng, monkeypatch):
        # any norm drift exceeds a tolerance below zero
        monkeypatch.setattr(core, "PROPAGATION_NORM_TOL", -1.0)
        with pytest.raises(NormalizationError, match="^propagation lost normalization: the norm moved by "):
            propagate(random_spec(rng, 3), ControlPulse(((1.0, 0.5),)), random_state(rng, 3))


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
            durations, amplitudes, total = core._segments(spec, field, duration, t0, None)
            assert total == duration
            c = state.amplitudes
            out = c * np.exp(-1j * spec.drift * total)
            for levels, part in core._evolve(spec, durations, amplitudes, c):
                out[levels] = part
            assert np.max(np.abs(out - rk4_lab_frame(spec, field, state, duration, t0))) < 1e-9

    def test_field_of_another_kind_is_named(self):
        message = "field must be a ControlPulse or a callable, got <class 'int'>"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            propagate_interaction_picture(HydrogenModel(), 5, StateVector.basis_state(1, 5))

    def test_callable_over_zero_duration_returns_the_initial_state(self):
        state = StateVector([0.6, 0.0, 0.8, 0.0, 0.0])
        assert propagate_interaction_picture(HydrogenModel(), lambda t: 0.3, state, duration=0) is state


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

    def test_one_sided_entry_joins_no_block(self):
        # B_21 = 5e-13 is within HERMITICITY_TOL of B_12 = 0, so the spec
        # stores B_21 = 0 too: level 1 lies outside every block on which B
        # is nonzero and only picks up its drift phase
        coupling = np.zeros((3, 3))
        coupling[1, 2] = coupling[2, 1] = 1.0
        coupling[1, 0] = 5e-13
        spec = SystemSpec(dim=3, drift=[0.3, 1.1, 2.7], coupling=coupling)
        pulse = ControlPulse(((0.4, 0.7), (0.9, -1.3), (0.5, 2.1)))
        state = StateVector([0.6, 0.8, 0.0])
        expected = state.amplitudes * np.exp(-1j * spec.drift * pulse.duration)
        assert propagate(spec, pulse, state).amplitudes[0] == expected[0]


with pytest.warns(UserWarning, match="commute"):
    EQUAL_LEVELS = SystemSpec(2, [1e308, 1e308], [[0, 1], [1, 0]])


class TestBatches:
    def test_batches_are_sized_from_the_block(self, rng, monkeypatch):
        # a budget of 2**16 entries takes a dense 64-level block 16 segments
        # at a time; the batched path must agree with one eigh per segment
        spec = SystemSpec(dim=64, drift=np.sort(rng.normal(size=64)),
                          coupling=random_hermitian(rng, 64).real)
        pulse = ControlPulse(tuple((0.05, float(rng.normal())) for _ in range(400)))
        state = random_state(rng, 64)
        monkeypatch.setattr(core, "BATCH_ENTRIES", 1 << 16)
        batches = []
        product = core._ordered_product
        monkeypatch.setattr(
            core, "_ordered_product", lambda steps: batches.append(len(steps)) or product(steps)
        )
        out = propagate(spec, pulse, state)
        assert batches == [16] * 25
        assert np.max(np.abs(out.amplitudes - full_matrix_propagate(spec, pulse, state))) < 1e-12
        # at 0.10.6 the 400 segments made one batch, which peaked at 88 MiB
        tracemalloc.start()
        try:
            propagate(spec, pulse, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "segments, k, value, dt",
        [(((1.0, 1e308),), 0, "1e+308", "1.0"),
         (((1.0, 0.5), (2.0, -1e308), (1.0, 1e300)), 1, "-1e+308", "2.0")],
    )
    def test_overflowing_amplitude_is_named(self, segments, k, value, dt):
        # u_k B overflowed in the batched product, warned, and the NaN state
        # it left raised "state amplitudes must be finite"
        message = (f"segments[{k}]: the phase (max|lambda| + |u| * 3 * max|B_ij|) * dt overflows, "
                   f"with u = {value} and dt = {dt}")
        with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
            propagate(hydrogen_spec(), ControlPulse(segments), StateVector.basis_state(1, 5))

    @pytest.mark.parametrize(
        "call, message",
        [
            # the drift's phase lambda * dt of one segment
            (lambda: propagate(SystemSpec(2, [0.0, 1e308], [[0, 1], [1, 0]]), ControlPulse(((2.0, 0.1),)),
                               StateVector.basis_state(1, 2)),
             "segments[0]: the phase (max|lambda| + |u| * 2 * max|B_ij|) * dt overflows, "
             "with u = 0.1 and dt = 2.0"),
            # u * max|B_ij| is finite, its product with dt is not
            (lambda: propagate(hydrogen_spec(), ControlPulse(((100.0, 3e307),)),
                               StateVector.basis_state(1, 5)),
             "segments[0]: the phase (max|lambda| + |u| * 3 * max|B_ij|) * dt overflows, "
             "with u = 3e+307 and dt = 100.0"),
            # the frame's phase lambda * t0
            (lambda: propagate_interaction_picture(HydrogenModel(10.0), ControlPulse(((1.0, 0.1),)),
                                                   StateVector.basis_state(1, 5), t0=1e308),
             "t0: the drift phase max|lambda| * (|t0| + T) overflows, "
             "with max|lambda| = 10.0, t0 = 1e+308 and T = 1.0"),
            # every segment's phase is finite, their sum's is not
            (lambda: propagate(hydrogen_spec(), ControlPulse(((1e308, 0.0), (1e308, 0.0))),
                               StateVector.basis_state(1, 5)),
             "segments: the drift phase max|lambda| * (|t0| + T) overflows, "
             "with max|lambda| = 1.0, t0 = 0.0 and T = inf"),
            # a pulse cut by duration names it; the segments' starts overflowed
            # in np.cumsum, which warned before the cut read them
            (lambda: propagate_interaction_picture(HydrogenModel(1.5),
                                                   ControlPulse(((1e308, 0.0), (1e308, 0.0))),
                                                   StateVector.basis_state(1, 5), duration=1.5e308),
             "duration: the drift phase max|lambda| * (|t0| + T) overflows, "
             "with max|lambda| = 1.5, t0 = 0.0 and T = 1.5e+308"),
            # a callable's half-steps are named by their index; only equal
            # levels, whose spread asks for no fine step, get this far
            (lambda: core._segments(EQUAL_LEVELS, lambda t: 0.0, 1e4, 0.0, None),
             "field: CF4 half-step 0: the phase (max|lambda| + |u| * 2 * max|B_ij|) * dt overflows, "
             "with u = 0.0 and dt = 5000.0"),
        ],
        ids=["drift", "coupling", "t0", "total", "cut", "callable"],
    )
    def test_overflowing_phase_is_named(self, call, message):
        # each warned about overflow and then blamed the state:
        # "state amplitudes must be finite"
        with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("k", [2, 128])
    @pytest.mark.parametrize("u", [0.0, 1e-300])
    def test_small_amplitude_on_huge_coupling_runs(self, k, u):
        # k * max|B_ij| overflows, |u| * max|B_ij| * k does not: the phase
        # bound multiplied in the first order read 0 * inf = nan and raised
        coupling = np.diag(np.ones(k - 1), 1) + np.diag(np.ones(k - 1), -1)
        coupling[0, 1] = coupling[1, 0] = 1e308
        spec = SystemSpec(k, np.arange(k, dtype=float), coupling)
        out = propagate(spec, ControlPulse(((1.0, u),)), StateVector.basis_state(1, k))
        assert (abs(out.amplitudes[0]) == 1.0) == (u == 0.0)

    def test_amplitude_within_range_runs(self):
        # 1e307 * 3 stays finite, and a segment cut off by duration is never applied
        state = StateVector.basis_state(1, 5)
        assert propagate(hydrogen_spec(), ControlPulse(((1.0, 1e307),)), state).dim == 5
        pulse = ControlPulse(((1.0, 0.5), (1.0, 1e308)))
        out = propagate_interaction_picture(HydrogenModel(), pulse, state, duration=1.0)
        expected = propagate_interaction_picture(HydrogenModel(), ControlPulse(((1.0, 0.5),)), state)
        assert np.array_equal(out.amplitudes, expected.amplitudes)


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
