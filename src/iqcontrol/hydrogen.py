"""Built-in 5-level hydrogen model and its interaction-picture dynamics.

Basis order (1-based labels): ground state, then the four degenerate
first-excited states; a z-polarized field couples only ground <-> excited
state 3 and excited state 2 <-> excited state 3.  Excited states 4 and 5
(labels 4, 5) never couple, so their amplitudes are constants of motion.

The two coupling magnitudes are the classic z-dipole matrix elements in
units of (Bohr radius x elementary charge): 128*sqrt(2)/243 for the
ground channel and 3 for the excited channel.  Internally everything is
dimensionless with hbar = 1; the field amplitude absorbs the a*e/hbar
factor and only the excitation gap enters the dynamics (default 1.0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Union

import numpy as np

from .amplification import GoodSubspace, closed_form_weights
from .core import ControlPulse, StateVector, SystemSpec, _evolve, _real
from .errors import DimensionMismatchError, NonFiniteError

KAPPA_GROUND = 128.0 * math.sqrt(2.0) / 243.0   # ground <-> excited-3 channel
KAPPA_EXCITED = 3.0                              # excited-2 <-> excited-3 channel

# Fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math.
# 56, 1519 (2006)): the field at the Gauss points t_mid -+ GAUSS_OFFSET * h
# sets the amplitudes CF4_HEAVY * u1 + CF4_LIGHT * u2 and
# CF4_LIGHT * u1 + CF4_HEAVY * u2 of two constant half-steps.
GAUSS_OFFSET = math.sqrt(3.0) / 6.0
CF4_HEAVY = (3.0 + 2.0 * math.sqrt(3.0)) / 6.0
CF4_LIGHT = (3.0 - 2.0 * math.sqrt(3.0)) / 6.0

FieldLike = Union[ControlPulse, Callable[[float], float]]

__all__ = [
    "HydrogenModel",
    "CasePreset",
    "hydrogen_spec",
    "propagate_interaction_picture",
    "case1_preset",
    "case2_preset",
]


@dataclass(frozen=True)
class HydrogenModel:
    """Energies and coupling constants of the truncated 5-level atom, each
    a finite real number (no bool), stored as a float."""

    energy_gap: float = 1.0
    kappa_ground: float = KAPPA_GROUND
    kappa_excited: float = KAPPA_EXCITED

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f.name)
            if not math.isfinite(value):
                raise NonFiniteError(f"{f.name}: must be finite, got {value!r}")
            object.__setattr__(self, f.name, value)
        if self.energy_gap <= 0:
            raise ValueError(f"energy gap must be positive, got {self.energy_gap}")


@functools.lru_cache(maxsize=64)
def _model_spec(model: HydrogenModel) -> SystemSpec:
    """The model's 5-level SystemSpec, built and validated once per model;
    the spec is frozen and its arrays read-only, so callers share it."""
    gap = model.energy_gap
    b = np.zeros((5, 5), dtype=complex)
    b[0, 2] = b[2, 0] = -model.kappa_ground
    b[1, 2] = b[2, 1] = model.kappa_excited
    return SystemSpec(dim=5, drift=np.array([0.0, gap, gap, gap, gap]), coupling=b)


def hydrogen_spec(energy_gap: float = 1.0) -> SystemSpec:
    """SystemSpec for the 5-level model: diagonal drift plus dipole coupling.

    Drift eigenvalues are (0, gap, gap, gap, gap).  The coupling matrix
    carries the signed z-dipole elements: -kappa_ground on the (1, 3)
    channel and +kappa_excited on the (2, 3) channel; all other
    off-diagonals vanish, so states 4 and 5 are uncoupled.  The spec is
    built once per gap and shared: it is frozen and its arrays read-only.
    """
    return _model_spec(HydrogenModel(energy_gap))


def _pulse_segments(pulse: ControlPulse, duration: Optional[float]):
    """The pulse's (durations, amplitudes), cut at ``duration``."""
    durations, amplitudes = np.array(pulse.segments, dtype=float).reshape(-1, 2).T
    if duration is None:
        return durations, amplitudes
    starts = np.concatenate(([0.0], np.cumsum(durations)[:-1]))
    kept = starts < duration
    return np.minimum(durations, duration - starts)[kept], amplitudes[kept]


def _field_segments(model, field, duration: float, t0: float, max_step: float):
    """(durations, amplitudes) of the CF4 half-steps that stand for ``field``.

    The step is min(max_step, 0.02 / max(gap, peak * kappa, 1e-6)); the
    peak is read from the field's values at the Gauss points of the steps
    the gap alone asks for, and the field is sampled again on a finer grid
    only when that peak asks for shorter steps.
    """

    def steps(rate: float) -> int:
        return max(math.ceil(duration / min(max_step, 0.02 / rate)), 1)

    def gauss_values(n: int):
        h = duration / n
        mid = t0 + h * (np.arange(n) + 0.5)
        u1 = np.fromiter(map(field, (mid - GAUSS_OFFSET * h).tolist()), float, n)
        u2 = np.fromiter(map(field, (mid + GAUSS_OFFSET * h).tolist()), float, n)
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
            raise NonFiniteError("field: values must be finite, got NaN or an infinity")
        return u1, u2

    kappa = max(model.kappa_ground, model.kappa_excited)
    n = steps(max(model.energy_gap, 1e-6))
    u1, u2 = gauss_values(n)
    peak = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
    finer = steps(max(model.energy_gap, peak * kappa, 1e-6))
    if finer > n:
        n = finer
        u1, u2 = gauss_values(n)
    amplitudes = np.column_stack((CF4_HEAVY * u1 + CF4_LIGHT * u2, CF4_LIGHT * u1 + CF4_HEAVY * u2))
    return np.full(2 * n, duration / (2 * n)), amplitudes.ravel()


def propagate_interaction_picture(
    model: HydrogenModel,
    field: FieldLike,
    initial: StateVector,
    duration: Optional[float] = None,
    t0: float = 0.0,
    max_step: Optional[float] = None,
) -> StateVector:
    """Evolve the interaction-picture coefficients D = exp(iAt) C from t0
    to t0 + T, where the lab-frame C obeys i dC/dt = (A + u(t) B) C.

    ``field`` is either a piecewise-constant pulse (duration taken from
    the pulse, or cut at ``duration``) or a callable u(t) with an explicit
    ``duration``; ``t0`` sets the absolute start time so long runs can be
    chained.  The result is exp(iA(t0 + T)) U exp(-iA t0) D, with U the
    lab-frame propagator of ``iqcontrol.core``: exact segment exponentials
    for a pulse, and for a callable the fourth-order commutator-free
    Magnus step, two constant half-steps per step of at most
    ``max_step``, which is checked whichever field is given.  Only the coupled levels the state occupies are
    evolved; every other amplitude (labels 4 and 5 always) comes back
    bit-exact.
    """
    if initial.dim != 5:
        raise DimensionMismatchError(f"hydrogen model is 5-level, state has {initial.dim}")
    duration = None if duration is None else _real(duration, "duration")
    t0 = _real(t0, "t0")
    limit = math.inf if max_step is None else _real(max_step, "max_step")
    if not limit > 0:
        raise ValueError(f"max_step must be positive, got {max_step}")
    for name, value in (("duration", duration), ("t0", t0)):
        if value is not None and not math.isfinite(value):
            raise NonFiniteError(f"{name}: must be finite, got {value!r}")
    if duration is not None and duration < 0:
        raise ValueError(f"duration must be nonnegative, got {duration}")
    if isinstance(field, ControlPulse):
        durations, amplitudes = _pulse_segments(field, duration)
    elif not callable(field):
        raise TypeError(f"field must be a ControlPulse or a callable, got {type(field)!r}")
    elif duration is None:
        raise ValueError("a callable field needs an explicit duration")
    elif duration == 0:
        return initial
    else:
        durations, amplitudes = _field_segments(model, field, duration, t0, limit)
    if not durations.size:
        return initial
    spec = _model_spec(model)
    lab = initial.amplitudes * np.exp(-1j * spec.drift * t0)
    frame = np.exp(1j * spec.drift * (t0 + durations.sum()))
    out = initial.amplitudes.copy()
    for levels, part in _evolve(spec, durations, amplitudes, lab):
        out[levels] = frame[levels] * part
    return StateVector(out)


@dataclass(frozen=True, eq=False)
class CasePreset:
    """A named worked example: initial state, target subspace, phases,
    and the iteration count / success probability the run should hit."""

    name: str
    initial: StateVector
    good: GoodSubspace
    phi1: float
    phi2: float
    expected_iterations: int
    expected_success: float
    algorithm: int  # 1 = single eigenstate target, 2 = subspace target


def case1_preset() -> CasePreset:
    """Amplify a 1% population on the uncoupled state 5 before measuring."""
    initial = StateVector([0.7, 0.5, 0.3, 0.4, 0.1])
    good = GoodSubspace.of(5, 5)
    return CasePreset(
        name="hydrogen-case1",
        initial=initial,
        good=good,
        phi1=math.pi,
        phi2=math.pi,
        expected_iterations=7,
        expected_success=closed_form_weights(0.01, math.pi, math.pi, 7)[0],
        algorithm=1,
    )


def case2_preset() -> CasePreset:
    """Amplify a 2% weight on the coupled subspace {1, 2, 3} before measuring."""
    initial = StateVector([0.1, 0.06, 0.08, 0.7, 0.7])
    good = GoodSubspace.of([1, 2, 3], 5)
    return CasePreset(
        name="hydrogen-case2",
        initial=initial,
        good=good,
        phi1=math.pi,
        phi2=math.pi,
        expected_iterations=5,
        expected_success=closed_form_weights(0.02, math.pi, math.pi, 5)[0],
        algorithm=2,
    )
