"""End-to-end control runs: prepare once, then measure.

A run has a deterministic half and a random half.  ``prepare_run`` makes
the deterministic half once: it plans the amplification of the initial
state toward a good index set, applies it in closed form, and builds the
binary good-vs-rest partition the amplified state is measured against;
given a ``ControllabilityConfig`` it also finds the verdict of the
matching connected component of the coupling graph, as ``assess`` finds
it, analysing only that component.  The frozen ``PreparedRun`` it
returns holds read-only values only, so runs and threads share one, and
its ``run`` is the random half: one shot, a histogram, or single shots
repeated until one lands on the good block.  A caller that sweeps seeds,
shot counts or shot indices prepares once and runs many times.

The paper's two algorithms are "prepare, then run".  They differ in the
target and in the last step.  ``run_algorithm1`` targets one eigenstate
and may steer the collapsed state onward with a caller-supplied pulse,
recording the reached fidelity; the coherent transfer into an arbitrary
target is outside the simulated scheme.  ``run_algorithm2`` targets a
subspace and attaches the verdict of its component.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .amplification import DEFAULT_L_MAX, AmplificationPlan, GoodSubspace, amplified_state, make_plan
from .controllability import ControllabilityConfig, SubspaceVerdict, _component_verdict
from .core import (
    ControlPulse, StateVector, SystemSpec, _components, _edges, _instance, _integer, _json, _record, _same_dim,
    propagate,
)
from .measurement import MeasurementOutcome, MeasurementPartition, _sample, _shots, measurement_histogram

__all__ = ["RunReport", "PreparedRun", "prepare_run", "run_algorithm1", "run_algorithm2"]


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


@dataclass(frozen=True, eq=False)
class PreparedRun:
    """The deterministic half of a run, made once by ``prepare_run``: the
    plan, the amplified state, the read-only |c_i| arrays before and after
    amplification, the good-vs-rest partition and, for a run prepared with
    a ``ControllabilityConfig``, the verdict of the target's component.
    ``run`` measures; the runs of one prepared run share its values and
    each makes its own ``RunReport``."""

    plan: AmplificationPlan
    amplified: StateVector
    pre_amplification: np.ndarray
    post_amplification: np.ndarray
    partition: MeasurementPartition
    verdict: Optional[SubspaceVerdict] = None

    def run(
        self, seed: int, shots: int = 1, measurement_shot: int = 0, max_attempts: Optional[int] = None,
    ) -> RunReport:
        """Measure the amplified state against the good-vs-rest partition.

        ``shots > 1`` gives the outcome histogram; otherwise one pass of
        the single-shot sampler draws shot ``measurement_shot`` (with
        ``max_attempts``, the shots from it on until one lands on the good
        block or ``max_attempts`` are drawn) and collapses the state on
        the last shot drawn, and the report records those ``attempts``.
        The report is the one that re-running the whole pipeline per shot
        would give.  ``measurement_shot`` is read even when a histogram
        leaves it unused.
        """
        return RunReport(**self._fields(seed, shots, measurement_shot, max_attempts))

    def _fields(self, seed, shots, measurement_shot, max_attempts) -> dict:
        """The fields of ``run``'s report, which ``run_algorithm1``
        completes with its steering before it makes the report once."""
        # read up front: the sampler trusts what it is given
        seed, measurement_shot = _integer(seed, "seed", 0), _integer(measurement_shot, "shot", 0)
        shots = _shots(shots)
        if max_attempts is not None:
            max_attempts = _integer(max_attempts, "max_attempts", 1)
            if shots != 1:
                raise ValueError(f"max_attempts needs shots == 1, got shots={shots}")
        fields = dict(plan=self.plan, pre_amplification=self.pre_amplification,
                      post_amplification=self.post_amplification,
                      predicted_success=self.plan.predicted_success)
        if shots > 1:
            histogram = measurement_histogram(self.amplified, self.partition, seed, shots)
            fields.update(histogram=histogram, empirical_success=histogram[0] / shots)
        else:
            # a repeated run stops at the first shot on block 0, the good block
            measurement, drawn = _sample(self.amplified, self.partition, seed, measurement_shot,
                                         max_attempts or 1)
            fields.update(measurement=measurement, success=measurement.block_index == 0,
                          attempts=None if max_attempts is None else drawn)
        if self.verdict is not None:
            fields["controllability_note"] = self.verdict.to_dict()
        return fields


def prepare_run(
    spec: SystemSpec,
    initial: StateVector,
    good: Union[GoodSubspace, int, Iterable[int]],
    phi1: float = math.pi,
    phi2: float = math.pi,
    iterations: Union[int, str] = "auto",
    pre_rotation: bool = False,
    l_max: int = DEFAULT_L_MAX,
    controllability_config: Optional[ControllabilityConfig] = None,
) -> PreparedRun:
    """Plan and amplify ``initial`` toward ``good`` and build the partition
    it is measured against, once for every ``PreparedRun.run``.

    ``good`` is a ``GoodSubspace`` of the spec's levels, or a label or
    labels as ``GoodSubspace.of`` reads them; the plan's arguments are
    ``make_plan``'s.  With a ``controllability_config`` the prepared run
    carries the verdict of the connected component whose labels are the
    good set's, found as ``assess`` finds it; when no component matches,
    that verdict reads None and a warning is emitted.
    """
    _instance(spec, "spec", SystemSpec)
    if not isinstance(good, GoodSubspace):
        good = GoodSubspace.of(good, spec.dim)
    _same_dim(_instance(initial, "initial", StateVector).dim, "initial", spec.dim)
    _same_dim(good.dim, "subspace", spec.dim)
    plan = make_plan(initial, good, phi1, phi2, iterations, l_max, pre_rotation)
    amplified = amplified_state(plan)
    pre, post = np.abs(plan.prepared.amplitudes), np.abs(amplified.amplitudes)
    pre.setflags(write=False)
    post.setflags(write=False)
    verdict = None
    if controllability_config is not None:
        labels = tuple(sorted(good.indices))
        vertices = range(1, spec.dim + 1)
        edges = _components(vertices, _edges(spec, vertices, controllability_config.edge_threshold)).get(labels)
        if edges is None:
            warnings.warn(f"subspace {list(labels)} is not a connected component of the coupling graph; "
                          "its controllability is not established", stacklevel=2)
            verdict = SubspaceVerdict(labels, None, ("not a connected component of the coupling graph",))
        else:
            verdict = _component_verdict(spec, labels, edges, controllability_config)[0]
    return PreparedRun(plan, amplified, pre, post, MeasurementPartition.binary(good), verdict)


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
    ``measurement_shot`` and ``max_attempts`` are those of
    ``PreparedRun.run``: the run is ``prepare_run`` and then one
    ``PreparedRun.run``, so a caller that re-runs the probabilistic part
    under other seeds or shots prepares once and calls ``run`` instead.
    """
    prepared = prepare_run(spec, initial, good_index, phi1, phi2, iterations, pre_rotation, l_max)
    if target is not None:  # checked before anything is sampled
        _same_dim(target.dim, "target", spec.dim)
    fields = prepared._fields(seed, shots, measurement_shot, max_attempts)
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
    ``max_attempts`` work as in ``run_algorithm1``.  The run is
    ``prepare_run`` with ``controllability_config`` (the default config
    when None), which analyses only the target's component, and then one
    ``PreparedRun.run``; the warning is emitted on every call.
    """
    prepared = prepare_run(spec, initial, subspace, phi1, phi2, iterations, pre_rotation, l_max,
                           controllability_config or ControllabilityConfig())
    return prepared.run(seed, shots, measurement_shot, max_attempts)
