"""End-to-end control runs: amplify, measure, optionally steer.

Two entry points mirror the two target classes the package handles:
``run_algorithm1`` amplifies toward a single target eigenstate and
``run_algorithm2`` toward a controllable subspace.  Both build the
preparation unitary from the initial state, apply the amplification
operator the planned number of times, and measure against the binary
good-vs-rest partition.  The final coherent transfer into an arbitrary
target is outside the simulated scheme; a caller-supplied pulse hook
propagates the collapsed state and records the reached fidelity instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .amplification import (
    DEFAULT_L_MAX,
    AmplificationPlan,
    GoodSubspace,
    amplified_state,
    make_plan,
)
from .controllability import ControllabilityConfig, assess
from .core import ControlPulse, StateVector, SystemSpec, propagate
from .errors import DimensionMismatchError
from .measurement import (
    MeasurementOutcome,
    MeasurementPartition,
    _first_shot_on,
    _integer,
    measurement_histogram,
    sample_collapse,
)

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
            "pre_amplification": [float(x) for x in self.pre_amplification],
            "post_amplification": [float(x) for x in self.post_amplification],
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
            out["final_state"] = [[z.real, z.imag] for z in self.final_state.amplitudes]
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.controllability_note is not None:
            out["controllability_note"] = self.controllability_note
        if self.attempts is not None:
            out["attempts"] = self.attempts
        return out


def _amplify(
    initial: StateVector,
    good: GoodSubspace,
    phi1: float,
    phi2: float,
    iterations: Union[int, str],
    pre_rotation: bool,
    l_max: int,
) -> tuple[StateVector, RunReport]:
    """Plan and amplify; the report carries no measurement yet."""
    plan = make_plan(
        initial,
        good,
        phi1=phi1,
        phi2=phi2,
        iterations=iterations,
        l_max=l_max,
        pre_rotation=pre_rotation,
    )
    amplified = amplified_state(plan)
    report = RunReport(
        plan=plan,
        pre_amplification=np.abs(plan.prepared_state().amplitudes),
        post_amplification=np.abs(amplified.amplitudes),
        predicted_success=plan.predicted_success,
    )
    return amplified, report


def _measure(
    amplified: StateVector,
    report: RunReport,
    partition: MeasurementPartition,
    seed: int,
    shots: int,
    measurement_shot: int,
) -> RunReport:
    """Measure against ``partition``, the plan's good-vs-rest partition built
    once per run; add the measurement to the report."""
    if shots > 1:
        histogram = measurement_histogram(amplified, partition, seed, shots)
        return replace(report, histogram=histogram, empirical_success=histogram[0] / shots)
    measurement = sample_collapse(amplified, partition, seed, shot=measurement_shot)
    # block 0 is the good block
    return replace(report, measurement=measurement, success=measurement.block_index == 0)


def _check_attempts(shots: int, max_attempts: Optional[int]) -> Optional[int]:
    """``max_attempts`` as a Python int, or None; a TypeError names a
    non-integer and a ValueError a count the run cannot use."""
    if max_attempts is None:
        return None
    max_attempts = _integer(max_attempts, "max_attempts")
    if shots != 1 or max_attempts < 1:
        raise ValueError(
            f"max_attempts needs shots == 1 and a count >= 1, got shots={shots}, "
            f"max_attempts={max_attempts}"
        )
    return max_attempts


def _repeat_until_success(
    amplified: StateVector,
    report: RunReport,
    partition: MeasurementPartition,
    seed: int,
    first_shot: int,
    max_attempts: int,
) -> RunReport:
    """Re-measure on the shots after ``first_shot`` until one succeeds.

    ``report`` holds the measurement of ``first_shot``; at most
    ``max_attempts`` shots are drawn in all.  The plan and the amplified
    state are reused, so only the measurement repeats.  The result is
    the last attempt's report with ``attempts`` set, exactly what
    re-running the whole algorithm per shot would give.
    """
    last = first_shot
    if not report.success and max_attempts > 1:
        last = _first_shot_on(amplified, partition, seed, 0, first_shot + 1, max_attempts - 1)
        report = _measure(amplified, report, partition, seed, 1, last)
    return replace(report, attempts=last - first_shot + 1)


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
    With ``max_attempts`` (single-shot runs only) the measurement repeats
    on shots ``measurement_shot``, ``measurement_shot + 1``, ... until
    it succeeds or ``max_attempts`` shots are drawn; the plan is made
    once and the report records the ``attempts``.
    """
    if initial.dim != spec.dim:
        raise DimensionMismatchError(
            f"initial state dimension {initial.dim} does not match system {spec.dim}"
        )
    max_attempts = _check_attempts(shots, max_attempts)
    good = GoodSubspace.of(good_index, spec.dim)
    amplified, report = _amplify(initial, good, phi1, phi2, iterations, pre_rotation, l_max)
    partition = MeasurementPartition.binary(good)
    report = _measure(amplified, report, partition, seed, shots, measurement_shot)
    if max_attempts is not None:
        report = _repeat_until_success(
            amplified, report, partition, seed, measurement_shot, max_attempts
        )
    if report.success and final_pulse is not None:
        final = propagate(spec, final_pulse, report.measurement.collapsed)
        fidelity = None
        if target is not None:
            fidelity = float(abs(target.overlap(final)) ** 2)
        report = replace(report, final_state=final, fidelity=fidelity)
    return report


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
    analysis, like the plan, runs once.
    """
    if initial.dim != spec.dim:
        raise DimensionMismatchError(
            f"initial state dimension {initial.dim} does not match system {spec.dim}"
        )
    if subspace.dim != spec.dim:
        raise DimensionMismatchError(
            f"subspace dimension {subspace.dim} does not match system {spec.dim}"
        )
    max_attempts = _check_attempts(shots, max_attempts)
    amplified, report = _amplify(
        initial, subspace, phi1, phi2, iterations, pre_rotation, l_max
    )
    partition = MeasurementPartition.binary(subspace)
    report = _measure(amplified, report, partition, seed, shots, measurement_shot)

    analysis = assess(spec, controllability_config or ControllabilityConfig())
    target_set = tuple(sorted(subspace.indices))
    note = None
    for verdict in analysis.subspace_verdicts:
        if verdict.component == target_set:
            note = verdict.to_dict()
            break
    if note is None:
        warnings.warn(
            f"subspace {list(target_set)} is not a connected component of the "
            "coupling graph; its controllability is not established",
            stacklevel=2,
        )
        note = {
            "component": list(target_set),
            "verdict": None,
            "notes": ["not a connected component of the coupling graph"],
        }
    # repeated after the analysis, so errors come in the order of whole runs per attempt
    if max_attempts is not None:
        report = _repeat_until_success(
            amplified, report, partition, seed, measurement_shot, max_attempts
        )
    return replace(report, controllability_note=note)
