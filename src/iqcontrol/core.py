"""State vectors, operators, and propagation under a control field.

``_segments`` turns a pulse, or a callable u(t) sampled in CF4 steps sized
from the spec, into constant segments that ``_evolve`` applies exactly.
Internal units set hbar = 1: energies and times are reciprocal to each
other.  Basis labels in the public API are 1-based (state 1 is the first
entry of the amplitude vector); numpy arrays are indexed 0-based as usual.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    HermiticityError,
    NonFiniteError,
    NormalizationError,
    UnitarityError,
)

NORM_TOL = 1e-10          # unit norm, inputs
PROPAGATION_NORM_TOL = 1e-9   # unit norm, propagated outputs
UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
COMMUTATOR_TOL = 1e-12
SEGMENT_BATCH = 1 << 16   # segments per batched eigendecomposition

# Fourth-order commutator-free Magnus step (Blanes & Moan, Appl. Numer. Math.
# 56, 1519 (2006)): the field at the Gauss points t_mid -+ GAUSS_OFFSET * h
# sets the amplitudes CF4_HEAVY * u1 + CF4_LIGHT * u2 and
# CF4_LIGHT * u1 + CF4_HEAVY * u2 of two constant half-steps.
GAUSS_OFFSET = math.sqrt(3.0) / 6.0
CF4_HEAVY = (3.0 + 2.0 * math.sqrt(3.0)) / 6.0
CF4_LIGHT = (3.0 - 2.0 * math.sqrt(3.0)) / 6.0

__all__ = [
    "StateVector",
    "SystemSpec",
    "UnitaryOperator",
    "ControlPulse",
    "prepare_unitary",
    "propagate",
]


def _real_or_complex(values) -> np.ndarray:
    """``values`` as float64 when every entry is real (float, int or bool),
    as complex128 when they are complex; anything else (strings, Python
    ints past int64) as ``np.asarray(values, dtype=complex)`` reads it."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biufc":
        return arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    return np.asarray(values, dtype=complex)


def _as_complex_vector(values: Sequence) -> np.ndarray:
    # a private copy, never a view of the caller's array
    arr = np.array(values, dtype=complex).reshape(-1)
    arr.setflags(write=False)
    return arr


def _integer(value, name: str) -> int:
    """``value`` as a Python int: any integer type, numpy's included, but no
    bool and nothing that would be truncated; a TypeError names ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float: any real number, numpy's included, but no bool;
    a TypeError names ``name``.  An int beyond the float range reads as an
    infinity, so the caller's finiteness check names it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}: must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the drift eigenbasis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amplitudes)
        object.__setattr__(self, "amplitudes", arr)
        if arr.size < 2:
            raise DimensionMismatchError(
                f"state needs at least 2 levels, got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteError("state amplitudes must be finite, got NaN or an infinity")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"state norm is {norm!r}, expected 1 within {NORM_TOL:g}"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def populations(self) -> np.ndarray:
        """|c_i|^2 per basis state."""
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    @classmethod
    def basis_state(cls, index: int, dim: int) -> "StateVector":
        """Basis state with 1-based label ``index``."""
        index, dim = _integer(index, "index"), _integer(dim, "dim")
        if not 1 <= index <= dim:
            raise DimensionMismatchError(f"basis label {index} outside 1..{dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[index - 1] = 1.0
        return cls(amps)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Drift eigenvalues plus a Hermitian coupling matrix.

    ``drift`` holds the eigenvalues in basis order; the order is the basis
    labeling and is never sorted.  ``exact_drift`` optionally carries the
    same eigenvalues as exact rationals, which makes the frequency-ratio
    controllability condition decidable instead of heuristic.  Every
    error message starts with the name of the field at fault, with entry
    indices 0-based as in nested lists, e.g. ``coupling[0][1]: ...``.
    """

    dim: int
    drift: np.ndarray
    coupling: np.ndarray
    exact_drift: Optional[tuple[Fraction, ...]] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim"))
        if self.dim < 2:
            raise DimensionMismatchError(f"dim: must be >= 2, got {self.dim}")
        drift = np.array(self.drift, dtype=float).reshape(-1)
        coupling = _real_or_complex(self.coupling)
        if drift.size != self.dim:
            raise DimensionMismatchError(
                f"drift: {drift.size} eigenvalues for dimension {self.dim}"
            )
        if coupling.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"coupling: shape {coupling.shape} does not match dimension {self.dim}"
            )
        if not np.isfinite(drift).all():
            raise NonFiniteError("drift: eigenvalues must be finite, got NaN or an infinity")
        if not np.isfinite(coupling).all():
            raise NonFiniteError("coupling: entries must be finite, got NaN or an infinity")
        # the checks run in the coupling's own dtype, a real one in one
        # float scratch: for real entries |x - y| and |d_i b - b d_j| equal
        # their complex-arithmetic values exactly
        real = coupling.dtype == float
        scratch = np.empty(coupling.shape)
        deviation = np.subtract(coupling, coupling.conj().T, out=scratch if real else None)
        np.abs(deviation, out=scratch)
        if scratch.max() > HERMITICITY_TOL:
            # first offending entry in row-major order, 0-based as in nested lists
            i, j = divmod(int(np.argmax(scratch > HERMITICITY_TOL)), self.dim)
            raise HermiticityError(
                f"coupling[{i}][{j}]: not Hermitian: value {np.complex128(coupling[i, j])} "
                f"does not match the conjugate of coupling[{j}][{i}] = "
                f"{np.complex128(coupling[j, i])}"
            )
        if self.exact_drift is not None:
            exact = tuple(Fraction(x) for x in self.exact_drift)
            if len(exact) != self.dim:
                raise DimensionMismatchError(
                    f"exact_drift: {len(exact)} entries for dimension {self.dim}"
                )
            for i, (num, approx) in enumerate(zip(exact, drift)):
                if abs(float(num) - approx) > 1e-9:
                    raise ValueError(
                        f"exact_drift[{i}]: {num} disagrees with drift[{i}] = {approx}"
                    )
            object.__setattr__(self, "exact_drift", exact)
        # [A, B] = 0 means the control cannot move populations at all.
        commutator = np.multiply(drift[:, None], coupling, out=scratch if real else None)
        commutator -= coupling * drift
        commutes = np.abs(commutator, out=scratch).max() <= COMMUTATOR_TOL
        del scratch, deviation, commutator  # before the complex copy, which sets the peak
        # the stored arrays are private copies, so no caller's array is
        # frozen or can change the spec afterwards
        coupling = coupling.astype(complex)
        drift.setflags(write=False)
        coupling.setflags(write=False)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "coupling", coupling)
        if commutes:
            warnings.warn(
                "drift and coupling commute; the control problem is trivial",
                stacklevel=3,  # past the dataclass __init__, to the caller
            )

    @cached_property
    def _blocks(self) -> list[tuple[int, ...]]:
        """The labels of each block of the coupling's exact nonzeros, sorted,
        in order of smallest label: the components of ``_edges(self, labels, 0.0)``."""
        labels = range(1, self.dim + 1)
        return list(_components(labels, _edges(self, labels, 0.0)))


def _edges(spec: SystemSpec, labels: Sequence[int], threshold: float) -> list[tuple[int, int]]:
    """The pairs i < j among the sorted distinct ``labels`` with
    |B_ij| > ``threshold``, sorted.  The full label set reads the coupling
    in place; a subset reads only its own rows and columns."""
    labels = np.asarray(labels, dtype=int)
    coupling = spec.coupling
    if labels.size != spec.dim:
        levels = labels - 1
        coupling = coupling[levels[:, None], levels]
    rows, cols = np.nonzero(np.abs(coupling) > threshold)
    upper = rows < cols
    return list(zip(labels[rows[upper]].tolist(), labels[cols[upper]].tolist()))


def _components(
    labels: Sequence[int], edges: Sequence[tuple[int, int]]
) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Each connected component's sorted labels, in order of smallest label,
    mapped to its own ``edges`` in their order: union-find with path
    halving over ``edges``, which join the sorted distinct ``labels``."""
    root = {v: v for v in labels}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in edges:
        root[find(i)] = find(j)
    members: dict[int, list[int]] = {}
    for v in labels:
        members.setdefault(find(v), []).append(v)
    own: dict[int, list[tuple[int, int]]] = {r: [] for r in members}
    for edge in edges:
        own[find(edge[0])].append(edge)
    return {tuple(m): own[r] for r, m in members.items()}


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """N x N matrix with U^H U = I within tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        # a private copy, so no caller's array is frozen or can change the operator
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {mat.shape}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if dev > UNITARITY_TOL:
            raise UnitarityError(f"matrix is not unitary: max |U^H U - I| = {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "UnitaryOperator":
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ControlPulse:
    """Piecewise-constant control: ordered (duration, amplitude) segments."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        segs = tuple(
            (_real(d, f"segments[{k}][0]"), _real(u, f"segments[{k}][1]"))
            for k, (d, u) in enumerate(self.segments)
        )
        for k, (d, u) in enumerate(segs):
            if not (math.isfinite(d) and math.isfinite(u)):
                raise NonFiniteError(
                    f"segments[{k}]: duration and amplitude must be finite, got ({d}, {u})"
                )
            if d <= 0.0:
                raise ValueError(f"segment {k} duration must be positive, got {d}")
        object.__setattr__(self, "segments", segs)

    @property
    def duration(self) -> float:
        return sum(d for d, _ in self.segments)


def prepare_unitary(target: StateVector) -> UnitaryOperator:
    """Unitary sending the first basis state to ``target``.

    Built from a single Householder reflection with the reflector chosen
    on the side that avoids cancellation, then phased so that the first
    column is exactly the target.  A target equal to the first basis state
    returns the identity.
    """
    t = target.amplitudes
    dim = t.size
    e1 = np.zeros(dim, dtype=complex)
    e1[0] = 1.0
    if abs(t[0] - 1.0) < 1e-14 and (dim == 1 or np.max(np.abs(t[1:])) < 1e-14):
        return UnitaryOperator.identity(dim)
    t0 = t[0]
    phase = t0 / abs(t0) if abs(t0) > 0.0 else 1.0
    # reflector v = t + phase*e1 has |v|^2 = 2(1+|t0|), never small
    v = t + phase * e1
    h = np.eye(dim, dtype=complex) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v)
    u = -phase * h
    return UnitaryOperator(u)


def _segments(spec: SystemSpec, field, duration, t0, max_step):
    """(durations, amplitudes) of the constant segments standing for ``field``
    from ``t0`` to ``t0 + duration``, after checking all three.  A pulse is
    cut at ``duration``; a callable takes two CF4 half-steps per step of
    min(max_step, 0.02 / max(lambda_max - lambda_min, peak * max|B_ij|, 1e-6)),
    the peak read at the Gauss points of the steps the drift alone asks for.
    """
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
        durations, amplitudes = np.array(field.segments, dtype=float).reshape(-1, 2).T
        if duration is None:
            return durations, amplitudes
        starts = np.concatenate(([0.0], np.cumsum(durations)[:-1]))
        kept = starts < duration
        return np.minimum(durations, duration - starts)[kept], amplitudes[kept]
    if not callable(field):
        raise TypeError(f"field must be a ControlPulse or a callable, got {type(field)!r}")
    if duration is None:
        raise ValueError("a callable field needs an explicit duration")
    if duration == 0:
        return np.empty((2, 0))

    def steps(rate: float) -> int:
        return max(math.ceil(duration / min(limit, 0.02 / rate)), 1)

    def gauss_values(n: int):
        h = duration / n
        mid = t0 + h * (np.arange(n) + 0.5)
        u1 = np.fromiter(map(field, (mid - GAUSS_OFFSET * h).tolist()), float, n)
        u2 = np.fromiter(map(field, (mid + GAUSS_OFFSET * h).tolist()), float, n)
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
            raise NonFiniteError("field: values must be finite, got NaN or an infinity")
        return u1, u2

    spread = float(spec.drift.max() - spec.drift.min())
    n = steps(max(spread, 1e-6))
    u1, u2 = gauss_values(n)
    peak = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
    finer = steps(max(spread, peak * float(np.abs(spec.coupling).max()), 1e-6))
    if finer > n:
        n = finer
        u1, u2 = gauss_values(n)
    amplitudes = np.column_stack((CF4_HEAVY * u1 + CF4_LIGHT * u2, CF4_LIGHT * u1 + CF4_HEAVY * u2))
    return np.full(2 * n, duration / (2 * n)), amplitudes.ravel()


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0], multiplied pairwise in log2(len) rounds."""
    while len(steps) > 1:
        paired = steps[1::2] @ steps[0 : len(steps) - 1 : 2]
        steps = np.concatenate((paired, steps[-1:])) if len(steps) % 2 else paired
    return steps[0]


def _evolve(
    spec: SystemSpec, durations: np.ndarray, amplitudes: np.ndarray, c: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Apply the segments exp(-i (A + u_k B) dt_k) in order to ``c``.

    Returns (levels, amplitudes) for each block of B's exact nonzeros that
    holds part of ``c``; every other level evolves under A alone, so the
    caller applies its drift phase, or nothing.
    Each block's segments are diagonalised SEGMENT_BATCH at a time by one
    batched Hermitian ``eigh``, so every segment is exactly unitary.
    """
    # labels that hold amplitude and that B touches; a block holds part of
    # c exactly when it contains one of them
    held = set((np.flatnonzero(spec.coupling.any(axis=0) & (c != 0)) + 1).tolist())
    evolved = []
    for component in spec._blocks:
        if held.isdisjoint(component):
            continue
        levels = np.array(component) - 1
        coupling = spec.coupling[levels[:, None], levels]
        part = c[levels]
        if not coupling.imag.any():  # a real symmetric block diagonalises faster
            coupling = coupling.real
        drift = np.diag(spec.drift[levels])
        for start in range(0, durations.size, SEGMENT_BATCH):
            batch = slice(start, start + SEGMENT_BATCH)
            w, v = np.linalg.eigh(amplitudes[batch, None, None] * coupling + drift)
            phases = np.exp(-1j * w * durations[batch, None])
            part = _ordered_product((v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)) @ part
        weight, reached = float(np.linalg.norm(c[levels])), float(np.linalg.norm(part))
        moved = abs(reached - weight)
        if moved > PROPAGATION_NORM_TOL:
            raise NormalizationError(f"propagation lost normalization: the norm moved by {moved:.3e}")
        if moved > 1e-12:  # long pulses accumulate round-off past the type tolerance
            part = part * (weight / reached)
        evolved.append((levels, part))
    return evolved


def propagate(spec: SystemSpec, pulse: ControlPulse, initial: StateVector) -> StateVector:
    """Evolve ``initial`` under i dC/dt = (A + u(t) B) C for the pulse.

    Each piecewise-constant segment is applied as an exact matrix
    exponential, so unitarity holds to round-off with no step-size
    tuning.  Only the blocks of the coupling that hold the state are
    diagonalised; every other amplitude c_i comes back as exactly
    c_i exp(-i lambda_i T).  An empty pulse returns the initial state
    unchanged.
    """
    if initial.dim != spec.dim:
        raise DimensionMismatchError(
            f"state dimension {initial.dim} does not match system dimension {spec.dim}"
        )
    if not isinstance(pulse, ControlPulse):
        raise TypeError(f"pulse must be a ControlPulse, got {type(pulse)!r}")
    durations, amplitudes = _segments(spec, pulse, None, 0.0, None)
    if not durations.size:
        return initial
    c = initial.amplitudes
    out = c * np.exp(-1j * spec.drift * pulse.duration)
    for levels, part in _evolve(spec, durations, amplitudes, c):
        out[levels] = part
    return StateVector(out)
