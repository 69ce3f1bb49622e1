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
the controllability verdict of the matching connected component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .amplification import (
    DEFAULT_L_MAX,
    AmplificationPlan,
    GoodSubspace,
    amplified_state,
    make_plan,
)
from .controllability import ControllabilityConfig, SubspaceVerdict, _component_verdict
from .core import ControlPulse, StateVector, SystemSpec, _components, _edges, _integer, _same_dim, propagate
from .measurement import _MAX_SHOTS, MeasurementOutcome, MeasurementPartition, _sample, measurement_histogram

__all__ = ["RunReport", "run_algorithm1", "run_algorithm2"]


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
        out = {
            "plan": {
                "good_indices": sorted(self.plan.good.indices),
                "phi1": self.plan.phi1,
                "phi2": self.plan.phi2,
                "iterations": self.plan.iterations,
                "initial_good_weight": self.plan.initial_good_weight,
                "predicted_success": self.plan.predicted_success,
                "pre_rotated": self.plan.pre_rotated,
            },
            "pre_amplification": self.pre_amplification.tolist(),
            "post_amplification": self.post_amplification.tolist(),
            "predicted_success": self.predicted_success,
        }
        if self.measurement is not None:
            out["measurement"] = self.measurement.to_dict()
        if self.histogram is not None:
            out["histogram"] = list(self.histogram)
            out["empirical_success"] = self.empirical_success
        if self.success is not None:
            out["success"] = self.success
        if self.final_state is not None:
            out["final_state"] = self.final_state.amplitudes.view(float).reshape(-1, 2).tolist()
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.controllability_note is not None:
            out["controllability_note"] = self.controllability_note
        if self.attempts is not None:
            out["attempts"] = self.attempts
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
    are made once, so only the measurement repeats, and the report (with
    ``attempts`` set to the shots drawn) is the one that re-running the
    whole pipeline per shot would give.
    """
    _same_dim(initial.dim, "initial", spec.dim)
    _same_dim(good.dim, "subspace", spec.dim)
    # read up front: a histogram leaves measurement_shot unused but still
    # rejects it out of range, and the sampler trusts what it is given
    seed, measurement_shot = _integer(seed, "seed", 0), _integer(measurement_shot, "shot", 0)
    shots = _integer(shots, "shots", 1, _MAX_SHOTS)
    if max_attempts is not None:
        max_attempts = _integer(max_attempts, "max_attempts", 1)
        if shots != 1:
            raise ValueError(f"max_attempts needs shots == 1, got shots={shots}")
    amplified, fields = _amplify(initial, good, phi1, phi2, iterations, pre_rotation, l_max)
    partition = MeasurementPartition.binary(good)
    if shots > 1:
        histogram = measurement_histogram(amplified, partition, seed, shots)
        fields.update(histogram=histogram, empirical_success=histogram[0] / shots)
        return fields
    # block 0 is the good block: a repeated run stops at the first shot on it
    measurement, drawn = _sample(amplified, partition, seed, measurement_shot, max_attempts or 1, 0)
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
    which lets a caller re-run the probabilistic part under one seed.
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
    ``max_attempts`` work as in ``run_algorithm1``; the controllability
    analysis, like the plan, runs once: it finds the coupling graph's
    components as ``assess`` does and analyses only the target's.
    """
    fields = _run(
        spec, initial, subspace, phi1, phi2, iterations,
        seed, shots, pre_rotation, l_max, measurement_shot, max_attempts,
    )
    config = controllability_config or ControllabilityConfig()
    target_set = tuple(sorted(subspace.indices))
    labels = range(1, spec.dim + 1)
    edges = _components(labels, _edges(spec, labels, config.edge_threshold)).get(target_set)
    if edges is not None:
        verdict = _component_verdict(spec, target_set, edges, config)[0]
    else:
        warnings.warn(
            f"subspace {list(target_set)} is not a connected component of the "
            "coupling graph; its controllability is not established",
            stacklevel=2,
        )
        verdict = SubspaceVerdict(target_set, None, ("not a connected component of the coupling graph",))
    return RunReport(**fields, controllability_note=verdict.to_dict())
