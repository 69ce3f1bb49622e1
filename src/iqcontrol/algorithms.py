"""End-to-end control runs: amplify, measure, then act on the collapsed state.

The paper's two algorithms are one pipeline, ``_run``: plan the
amplification of the initial state toward a good index set and apply it
in closed form, then measure against the binary good-vs-rest partition,
as one shot, a histogram, or single shots repeated until one lands on
the good block.  They differ in the target and in the last step.
``run_algorithm1`` targets one eigenstate and may steer the collapsed
state onward with a caller-supplied pulse, recording the reached
fidelity; the coherent transfer into an arbitrary target is outside the
simulated scheme.  ``run_algorithm2`` targets a subspace and attaches
the controllability verdict of the matching connected component, which
is found once per spec, subspace and ``ControllabilityConfig`` and kept
on the spec.

Only the measurement is random.  The plan, the amplified state and the
partition are kept on the initial ``StateVector``, up to ``_STAGES`` of
them per state keyed by the other arguments' values, oldest dropped
first, so a run that repeats a state, target and phases only measures,
and a state's stages are freed with it.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .amplification import (
    DEFAULT_L_MAX,
    AmplificationPlan,
    GoodSubspace,
    _check_phase,
    _iterations,
    amplified_state,
    make_plan,
)
from .controllability import ControllabilityConfig, SubspaceVerdict, _component_verdict
from .core import (
    ControlPulse, StateVector, SystemSpec, _components, _edges, _integer, _json, _record, _same_dim, propagate,
)
from .measurement import MeasurementOutcome, MeasurementPartition, _sample, _shots, measurement_histogram

__all__ = ["RunReport", "run_algorithm1", "run_algorithm2"]

# the deterministic stages that ``_run`` keeps on one state: a fixed
# count, as hydrogen._model_spec keeps 64 specs, so a state holds O(N) per
# stage kept
_STAGES = 64
# a stage's phases by their bits: -0.0 equals 0.0, but a report writes it as -0.0
_PHASE_BITS = struct.Struct("<2d")
_PLAN_FIELDS = tuple(field.name for field in dataclasses.fields(AmplificationPlan))


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything one run produced, in serialization-friendly form."""

    plan: AmplificationPlan
    pre_amplification: np.ndarray   # |c_i| per index before amplification
    post_amplification: np.ndarray  # |c_i| per index after amplification
    predicted_success: float
    measurement: Optional[MeasurementOutcome] = None
    histogram: Optional[list[int]] = None
    empirical_success: Optional[float] = None
    success: Optional[bool] = None
    final_state: Optional[StateVector] = None
    fidelity: Optional[float] = None
    controllability_note: Optional[dict] = None
    attempts: Optional[int] = None

    def to_dict(self) -> dict:
        """The report as JSON, without the fields that are None; the plan
        is written by name, its good set as ``good_indices``."""
        plan = self.plan
        out = {name: value for name, value in _record(self).items() if value is not None}
        out["plan"] = {
            "good_indices": _json(plan.good.indices),
            "phi1": plan.phi1,
            "phi2": plan.phi2,
            "iterations": plan.iterations,
            "initial_good_weight": plan.initial_good_weight,
            "predicted_success": plan.predicted_success,
            "pre_rotated": plan.pre_rotated,
        }
        return out


def _amplify(
    initial: StateVector, good: GoodSubspace, phi1: float, phi2: float,
    iterations: Union[int, str], pre_rotation: bool, l_max: int,
) -> tuple[StateVector, dict]:
    """Plan and amplify: the amplified state and the fields of a
    ``RunReport`` with no measurement yet, which a caller completes
    before making the report once."""
    plan = make_plan(initial, good, phi1, phi2, iterations, l_max, pre_rotation)
    amplified = amplified_state(plan)
    return amplified, dict(
        plan=plan,
        pre_amplification=np.abs(plan.prepared.amplitudes),
        post_amplification=np.abs(amplified.amplitudes),
        predicted_success=plan.predicted_success,
    )


def _stage(
    initial: StateVector, good: GoodSubspace, phi1: float, phi2: float,
    iterations: Union[int, str], pre_rotation: bool, l_max: int,
) -> tuple[tuple[StateVector, dict, dict, MeasurementPartition], AmplificationPlan]:
    """A run's deterministic stage and its plan.  The stage is what
    ``_amplify`` returns, with the plan's fields in place of the plan, and
    the good-vs-rest partition.  Runs that share it share the result: the
    amplified state holds read-only amplitudes, the |c| arrays are made
    read-only here, and each later run copies the fields dict and makes its
    own plan.  The plan's fields leave out a prepared state that is
    ``initial`` itself: a stage kept on ``initial`` that held it would
    make a cycle, which only the cyclic collector frees, so a dropped
    state's stages would outlive it."""
    amplified, fields = _amplify(initial, good, phi1, phi2, iterations, pre_rotation, l_max)
    plan = fields.pop("plan")
    plan_fields = {name: getattr(plan, name) for name in _PLAN_FIELDS
                   if name != "prepared" or plan.prepared is not initial}
    fields["pre_amplification"].setflags(write=False)
    fields["post_amplification"].setflags(write=False)
    return (amplified, fields, plan_fields, MeasurementPartition.binary(good)), plan


def _run(
    spec: SystemSpec, initial: StateVector, good: GoodSubspace, phi1: float, phi2: float,
    iterations: Union[int, str], seed: int, shots: int, pre_rotation: bool, l_max: int,
    measurement_shot: int, max_attempts: Optional[int],
) -> dict:
    """The pipeline both algorithms share: amplify, then measure against
    the good-vs-rest partition.  Returns the fields of the run's
    ``RunReport``, which each algorithm completes and makes once.

    ``shots > 1`` gives the outcome histogram; otherwise one pass of the
    single-shot sampler draws shot ``measurement_shot`` (with
    ``max_attempts``, the shots from it on until one lands on the good
    block or ``max_attempts`` are drawn) and collapses the state on the
    last shot drawn.  The plan, the amplified state and the partition
    are made once per state and arguments, by ``_stage``, and kept on the
    state, so only the measurement repeats, and the report (with
    ``attempts`` set to the shots drawn) is the one that re-running the
    whole pipeline per shot would give.
    """
    _same_dim(initial.dim, "initial", spec.dim)
    _same_dim(good.dim, "subspace", spec.dim)
    # read up front: a histogram leaves measurement_shot unused but still
    # rejects it out of range, and the sampler trusts what it is given
    seed, measurement_shot = _integer(seed, "seed", 0), _integer(measurement_shot, "shot", 0)
    shots = _shots(shots)
    if max_attempts is not None:
        max_attempts = _integer(max_attempts, "max_attempts", 1)
        if shots != 1:
            raise ValueError(f"max_attempts needs shots == 1, got shots={shots}")
    # read as make_plan reads them first, so each raises what it raised there
    phi1, phi2 = _check_phase("phi1", phi1), _check_phase("phi2", phi2)
    l_max = _integer(l_max, "l_max", 0)
    try:
        # the state's dim is the good set's, so its labels stand for it
        key = (good.indices, _PHASE_BITS.pack(phi1, phi2), _iterations(iterations), pre_rotation, l_max)
        stages = initial._stages
        stage = stages.get(key)
    except (AttributeError, TypeError, ValueError):
        # an argument the state cannot key (an iterations its reader
        # refuses, an unhashable pre_rotation, a state that keeps no
        # stages) runs uncached, so it raises what make_plan raises, after
        # the zero-overlap check as there
        stages = stage = None
    plan = None
    if stage is None:
        stage, plan = _stage(initial, good, phi1, phi2, iterations, pre_rotation, l_max)
        if stages is not None:
            stages[key] = stage
            # trimmed after the insert, so that threads sharing the state
            # leave at most _STAGES whichever order their steps interleave in
            while len(stages) > _STAGES:
                stages.popitem(last=False)
    amplified, fields, plan_fields, partition = stage
    if plan is None:  # a kept stage: the run makes its own plan
        plan = AmplificationPlan(**{"prepared": initial, **plan_fields})
    fields = dict(fields, plan=plan)  # the run's own, which its algorithm completes
    if shots > 1:
        histogram = measurement_histogram(amplified, partition, seed, shots)
        fields.update(histogram=histogram, empirical_success=histogram[0] / shots)
        return fields
    # a repeated run stops at the first shot on block 0, the good block
    measurement, drawn = _sample(amplified, partition, seed, measurement_shot, max_attempts or 1)
    fields.update(
        measurement=measurement, success=measurement.block_index == 0,
        attempts=None if max_attempts is None else drawn,
    )
    return fields


def run_algorithm1(
    spec: SystemSpec,
    initial: StateVector,
    good_index: int,
    phi1: float = math.pi,
    phi2: float = math.pi,
    iterations: Union[int, str] = "auto",
    seed: int = 0,
    final_pulse: Optional[ControlPulse] = None,
    target: Optional[StateVector] = None,
    shots: int = 1,
    pre_rotation: bool = False,
    l_max: int = DEFAULT_L_MAX,
    measurement_shot: int = 0,
    max_attempts: Optional[int] = None,
) -> RunReport:
    """Amplify one target eigenstate, measure, optionally steer onward.

    With ``shots == 1`` the measurement collapses the state; when it
    lands on the target block and ``final_pulse`` is given, the pulse is
    propagated from the collapsed eigenstate and, if ``target`` is
    supplied, the reached fidelity |<target|final>|^2 is recorded.  With
    ``shots > 1`` the run reports the outcome histogram instead.
    ``measurement_shot`` picks the shot index of the single measurement,
    which lets a caller re-run the probabilistic part under one seed:
    runs on the same ``initial`` object and arguments share one plan and
    amplified state, so such a re-run only measures.
    With ``max_attempts`` (single-shot runs only) one pass of the
    sampler draws shots ``measurement_shot``, ``measurement_shot + 1``,
    ... until one succeeds or ``max_attempts`` are drawn, and collapses
    on the last; the plan is made once and the report records the
    ``attempts``.
    """
    if target is not None:  # checked before anything is sampled
        _same_dim(target.dim, "target", spec.dim)
    fields = _run(
        spec, initial, GoodSubspace.of(good_index, spec.dim), phi1, phi2, iterations,
        seed, shots, pre_rotation, l_max, measurement_shot, max_attempts,
    )
    if fields.get("success") and final_pulse is not None:
        final = propagate(spec, final_pulse, fields["measurement"].collapsed)
        fields["final_state"] = final
        if target is not None:
            fields["fidelity"] = float(abs(target.overlap(final)) ** 2)
    return RunReport(**fields)


def run_algorithm2(
    spec: SystemSpec,
    initial: StateVector,
    subspace: GoodSubspace,
    phi1: float = math.pi,
    phi2: float = math.pi,
    iterations: Union[int, str] = "auto",
    seed: int = 0,
    shots: int = 1,
    pre_rotation: bool = False,
    l_max: int = DEFAULT_L_MAX,
    controllability_config: Optional[ControllabilityConfig] = None,
    measurement_shot: int = 0,
    max_attempts: Optional[int] = None,
) -> RunReport:
    """Amplify a whole subspace, measure, and report the in-subspace state.

    The subspace should be a connected component of the coupling graph;
    the matching component's controllability verdict is attached to the
    report, and a warning is emitted when no component matches.  On a
    successful measurement the collapsed state lies entirely inside the
    subspace and is recorded as the post-measurement starting point for
    any further in-subspace control.  ``measurement_shot`` and
    ``max_attempts`` work as in ``run_algorithm1``.  The controllability
    analysis finds the coupling graph's components as ``assess`` does and
    analyses only the target's, once per spec, subspace and config: the
    verdict is kept on the spec.  The warning is emitted on every call.
    """
    fields = _run(
        spec, initial, subspace, phi1, phi2, iterations,
        seed, shots, pre_rotation, l_max, measurement_shot, max_attempts,
    )
    config = controllability_config or ControllabilityConfig()
    target_set = tuple(sorted(subspace.indices))
    verdict = _subspace_verdict(spec, target_set, config)
    if verdict is None:
        warnings.warn(
            f"subspace {list(target_set)} is not a connected component of the "
            "coupling graph; its controllability is not established",
            stacklevel=2,
        )
        verdict = SubspaceVerdict(target_set, None, ("not a connected component of the coupling graph",))
    return RunReport(**fields, controllability_note=verdict.to_dict())


def _subspace_verdict(
    spec: SystemSpec, labels: tuple[int, ...], config: ControllabilityConfig
) -> Optional[SubspaceVerdict]:
    """The verdict of the sorted ``labels`` as a connected component of
    the coupling graph under ``config``, found as ``assess`` finds it; None
    when they are not one.  A component's verdict is kept on the spec,
    keyed by its labels and the config, so each is found once per spec; a
    config that cannot be a key is analysed on every call."""
    key = (labels, config)
    try:
        return spec._verdicts[key]
    except KeyError:
        pass
    except TypeError:  # unhashable
        key = None
    vertices = range(1, spec.dim + 1)
    edges = _components(vertices, _edges(spec, vertices, config.edge_threshold)).get(labels)
    if edges is None:
        return None
    verdict = _component_verdict(spec, labels, edges, config)[0]
    if key is not None:
        spec._verdicts[key] = verdict
    return verdict
