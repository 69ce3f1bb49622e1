"""Every operand that meets another is matched by one rule, and every
collection argument is read by one: a hostile call ends in a typed error
whose message starts with the argument's name."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from iqcontrol import (
    ControlPulse,
    DimensionMismatchError,
    GoodSubspace,
    HydrogenModel,
    MeasurementPartition,
    NonFiniteError,
    StateVector,
    SystemSpec,
    UnitaryOperator,
    assess,
    born_probabilities,
    case1_preset,
    decompose,
    hydrogen_spec,
    make_plan,
    measurement_histogram,
    prepare_run,
    propagate,
    propagate_interaction_picture,
    run_algorithm1,
    run_algorithm2,
    sample_collapse,
)
from iqcontrol.amplification import amplification_operator

SPEC = hydrogen_spec()
INIT5 = case1_preset().initial
THREE = StateVector([0.6, 0.8, 0.0])
PULSE = ControlPulse(((0.3, 0.5), (0.2, -0.4)))
GOOD4 = GoodSubspace.of(1, 4)
PARTITION4 = MeasurementPartition.per_index(4)
SIGMA_X = [[0, 1], [1, 0]]
LIST5 = list(INIT5.amplitudes)


def _spec2(exact_drift):
    return SystemSpec(2, [0, 1], SIGMA_X, exact_drift=exact_drift)


# id, call, error type, message prefix: the first words name the argument
HOSTILE_CALLS = [
    # operands of another size than the one they meet
    ("propagate-initial", lambda: propagate(SPEC, PULSE, THREE), DimensionMismatchError,
     "initial: expected dim levels, dim = 5, got 3"),
    ("interaction-picture-initial", lambda: propagate_interaction_picture(HydrogenModel(), PULSE, THREE),
     DimensionMismatchError, "initial: expected dim levels, dim = 5, got 3"),
    ("algorithm1-initial", lambda: run_algorithm1(SPEC, THREE, 1), DimensionMismatchError,
     "initial: expected dim levels, dim = 5, got 3"),
    ("algorithm1-target", lambda: run_algorithm1(SPEC, INIT5, 5, final_pulse=PULSE, target=THREE,
                                                 max_attempts=300),
     DimensionMismatchError, "target: expected dim levels, dim = 5, got 3"),
    ("algorithm2-initial", lambda: run_algorithm2(SPEC, THREE, GoodSubspace.of([1, 2, 3], 5)),
     DimensionMismatchError, "initial: expected dim levels, dim = 5, got 3"),
    ("algorithm2-subspace", lambda: run_algorithm2(SPEC, INIT5, GOOD4), DimensionMismatchError,
     "subspace: expected dim levels, dim = 5, got 4"),
    ("decompose-good", lambda: decompose(INIT5, GOOD4), DimensionMismatchError,
     "good: expected dim levels, dim = 5, got 4"),
    ("make_plan-good", lambda: make_plan(INIT5, GOOD4), DimensionMismatchError,
     "good: expected dim levels, dim = 5, got 4"),
    ("amplification_operator-good", lambda: amplification_operator(UnitaryOperator.identity(5), GOOD4, 1, 1),
     DimensionMismatchError, "good: expected dim levels, dim = 5, got 4"),
    ("born_probabilities-partition", lambda: born_probabilities(INIT5, PARTITION4), DimensionMismatchError,
     "partition: expected dim levels, dim = 5, got 4"),
    ("sample_collapse-partition", lambda: sample_collapse(INIT5, PARTITION4, 0), DimensionMismatchError,
     "partition: expected dim levels, dim = 5, got 4"),
    ("histogram-partition", lambda: measurement_histogram(INIT5, PARTITION4, 0, 10), DimensionMismatchError,
     "partition: expected dim levels, dim = 5, got 4"),
    ("spec-drift", lambda: SystemSpec(3, [0, 1], np.eye(3)), DimensionMismatchError,
     "drift: expected dim levels, dim = 3, got 2"),
    ("spec-exact_drift", lambda: _spec2([0, 1, 2]), DimensionMismatchError,
     "exact_drift: expected dim levels, dim = 2, got 3"),
    ("overlap-other", lambda: INIT5.overlap(THREE), DimensionMismatchError, "other: expected dim levels, dim = 5, got 3"),
    # an empty unitary, refused before its unitarity product
    ("matrix-empty", lambda: UnitaryOperator(np.zeros((0, 0))), DimensionMismatchError,
     "matrix: must have at least 1 level, got shape (0, 0)"),
    ("identity-0", lambda: UnitaryOperator.identity(0), ValueError, "dim: must be >= 1, got 0"),
    ("identity-negative", lambda: UnitaryOperator.identity(-1), ValueError, "dim: must be >= 1, got -1"),
    # arguments of another kind than the library's class, which is never built from them
    ("make_plan-initial-list", lambda: make_plan(LIST5, GoodSubspace.of(5, 5)), TypeError,
     "initial: must be a StateVector, got list"),
    ("propagate-initial-list", lambda: propagate(SPEC, PULSE, LIST5), TypeError,
     "initial: must be a StateVector, got list"),
    ("propagate-spec-dict", lambda: propagate({"dim": 5}, PULSE, INIT5), TypeError,
     "spec: must be a SystemSpec, got dict"),
    ("propagate-pulse-callable", lambda: propagate(SPEC, lambda t: 0.1, INIT5), TypeError,
     "pulse: must be a ControlPulse, got function"),
    ("assess-spec-dict", lambda: assess({"dim": 2, "drift": [0, 1], "coupling": SIGMA_X}), TypeError,
     "spec: must be a SystemSpec, got dict"),
    ("prepare_run-initial-list", lambda: prepare_run(SPEC, LIST5, 5), TypeError,
     "initial: must be a StateVector, got list"),
    ("prepare_run-spec-dict", lambda: prepare_run({"dim": 5}, INIT5, 5), TypeError,
     "spec: must be a SystemSpec, got dict"),
    ("algorithm1-initial-list", lambda: run_algorithm1(SPEC, LIST5, 5), TypeError,
     "initial: must be a StateVector, got list"),
    ("algorithm2-spec-dict", lambda: run_algorithm2({"dim": 5}, INIT5, GoodSubspace.of([1, 2, 3], 5)),
     TypeError, "spec: must be a SystemSpec, got dict"),
    # dims that numpy refuses to allocate at once, before any memory is touched
    ("basis_state-2**62", lambda: StateVector.basis_state(1, 2**62), ValueError,
     "dim: too many levels to allocate, got 4611686018427387904"),
    ("basis_state-2**50", lambda: StateVector.basis_state(1, 2**50), ValueError,
     "dim: too many levels to allocate, got 1125899906842624"),
    ("identity-2**62", lambda: UnitaryOperator.identity(2**62), ValueError,
     "dim: too many levels to allocate, got 4611686018427387904"),
    ("identity-2**50", lambda: UnitaryOperator.identity(2**50), ValueError,
     "dim: too many levels to allocate, got 1125899906842624"),
    # collections that are not one
    ("segments-int", lambda: ControlPulse(5), TypeError, "segments: must be a collection, got 5"),
    ("segments-None", lambda: ControlPulse(None), TypeError, "segments: must be a collection, got None"),
    ("blocks-int", lambda: MeasurementPartition(5), TypeError, "blocks: must be a collection, got 5"),
    ("block-int", lambda: MeasurementPartition((5,)), TypeError, "blocks[0]: must be a collection, got 5"),
    ("indices-int", lambda: GoodSubspace(5, 3), TypeError, "indices: must be a collection, got 5"),
    ("exact_drift-int", lambda: _spec2(5), TypeError, "exact_drift: must be a collection, got 5"),
    # exact_drift entries, read by the scalar rule
    ("exact_drift-nan", lambda: _spec2([0, math.nan]), NonFiniteError, "exact_drift[1]: must be finite, got nan"),
    ("exact_drift-inf", lambda: _spec2([0, math.inf]), NonFiniteError, "exact_drift[1]: must be finite, got inf"),
    ("exact_drift-huge", lambda: _spec2([0, 2**2000]), NonFiniteError, "exact_drift[1]: must be finite, got inf"),
    ("exact_drift-text", lambda: _spec2([0, "a"]), TypeError, "exact_drift[1]: must be a real number, got 'a'"),
    ("exact_drift-digit", lambda: _spec2(["0", 1]), TypeError, "exact_drift[0]: must be a real number, got '0'"),
    ("exact_drift-None", lambda: _spec2([0, None]), TypeError, "exact_drift[1]: must be a real number, got None"),
    ("exact_drift-complex", lambda: _spec2([0, 1j]), TypeError, "exact_drift[1]: must be a real number, got 1j"),
    ("exact_drift-bool", lambda: _spec2([0, True]), TypeError, "exact_drift[1]: must be a real number, got True"),
]


@pytest.mark.parametrize("call, error, prefix", [row[1:] for row in HOSTILE_CALLS],
                         ids=[row[0] for row in HOSTILE_CALLS])
def test_hostile_call_names_its_argument(call, error, prefix):
    # the target and the overlap's other state failed inside numpy's vdot,
    # each collection in Python's "object is not iterable", an empty
    # unitary in numpy's reduction, each exact_drift entry in Fraction's
    # text, a list state or a dict spec in an AttributeError and a dim
    # numpy cannot allocate in numpy's own error; the other operands
    # raised seven message forms of their own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    message = str(info.value)
    assert type(info.value) is error and message.startswith(prefix), message
    if error is DimensionMismatchError:
        assert message == prefix


def test_target_is_checked_when_the_measurement_misses():
    # the wrong target raises before anything is sampled, even on a run
    # that would never have steered or read it
    kwargs = dict(iterations=0, seed=0, final_pulse=PULSE)
    assert run_algorithm1(SPEC, INIT5, 5, target=StateVector.basis_state(1, 5), **kwargs).success is False
    with pytest.raises(DimensionMismatchError, match=r"^target: expected dim levels, dim = 5, got 3$"):
        run_algorithm1(SPEC, INIT5, 5, target=THREE, **kwargs)


def test_one_level_unitary_is_accepted():
    assert UnitaryOperator([[1j]]).dim == 1
    assert UnitaryOperator.identity(1).dim == 1


def test_exact_drift_keeps_every_real_exact():
    # a float as its binary value, an int, a Fraction and numpy's scalars
    exact = SystemSpec(4, [0, 0.1, 1 / 3, 2], np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1),
                       exact_drift=(0, 0.1, Fraction(1, 3), np.float32(2))).exact_drift
    assert exact == (Fraction(0), Fraction(0.1), Fraction(1, 3), Fraction(2))
    assert all(type(x) is Fraction for x in exact)
