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
``iqcontrol.core`` samples and propagates the field; this module adds
the model's spec and the interaction-picture frame change.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Union

import numpy as np

from .amplification import GoodSubspace, closed_form_weights
from .core import ControlPulse, StateVector, SystemSpec, _evolve, _real, _same_dim, _segments

KAPPA_GROUND = 128.0 * math.sqrt(2.0) / 243.0   # ground <-> excited-3 channel
KAPPA_EXCITED = 3.0                              # excited-2 <-> excited-3 channel

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
    a finite real number (no bool), stored as a float; the gap is > 0."""

    energy_gap: float = 1.0
    kappa_ground: float = KAPPA_GROUND
    kappa_excited: float = KAPPA_EXCITED

    def __post_init__(self):
        for f in fields(self):
            minimum = 0.0 if f.name == "energy_gap" else None
            value = _real(getattr(self, f.name), f.name, minimum, exclusive=True)
            object.__setattr__(self, f.name, value)


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
    ``max_step``, which is checked whichever field is given.  T is the
    length ``propagate`` reads too: a pulse's durations summed in order,
    or a callable's ``duration``.  Only the
    coupled levels the state occupies are evolved; every other amplitude
    (labels 4 and 5 always) comes back bit-exact.
    """
    spec = _model_spec(model)
    _same_dim(initial.dim, "initial", spec.dim)
    durations, amplitudes, total = _segments(spec, field, duration, t0, max_step)
    if not durations.size:
        return initial
    t0 = float(t0)  # a finite real, as _segments has checked
    lab = initial.amplitudes * np.exp(-1j * spec.drift * t0)
    frame = np.exp(1j * spec.drift * (t0 + total))
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


def _case(name: str, amplitudes: list, good, weight: float, iterations: int, algorithm: int) -> CasePreset:
    """A hydrogen case amplified at phi1 = phi2 = pi.  ``weight`` is the
    good weight as written: 0.1**2 would move case 1's last bit."""
    return CasePreset(
        name=name,
        initial=StateVector(amplitudes),
        good=GoodSubspace.of(good, 5),
        phi1=math.pi,
        phi2=math.pi,
        expected_iterations=iterations,
        expected_success=closed_form_weights(weight, math.pi, math.pi, iterations)[0],
        algorithm=algorithm,
    )


def case1_preset() -> CasePreset:
    """Amplify a 1% population on the uncoupled state 5 before measuring."""
    return _case("hydrogen-case1", [0.7, 0.5, 0.3, 0.4, 0.1], 5, 0.01, 7, 1)


def case2_preset() -> CasePreset:
    """Amplify a 2% weight on the coupled subspace {1, 2, 3} before measuring."""
    return _case("hydrogen-case2", [0.1, 0.06, 0.08, 0.7, 0.7], [1, 2, 3], 0.02, 5, 2)
