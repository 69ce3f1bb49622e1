"""State vectors, operators, and propagation under a control field.

``_array`` is the one reader of an array argument: a state's amplitudes, a
spec's drift and coupling, a unitary's matrix and a callable field's values.
``_items`` reads every other collection argument, and ``_same_dim`` is the
one check that an operand has the levels of the system, state or operator
it meets.  ``_json`` is the one rule by which every result record writes
its values into a report, and ``_record`` applies it to a record's fields.
``_segments`` turns a pulse, or a callable u(t) sampled in CF4 steps sized
from the spec, at most MAX_CF4_STEPS, into constant segments that ``_evolve``
applies exactly, BATCH_ENTRIES matrix entries of a block at a time.
``_instance`` is the one check that an argument is of the library's
class it must be.  A spec stores its coupling exactly Hermitian, so the
graph's upper triangle and every reader of B agree on which levels it
joins.  It finds the blocks of that graph, and builds the read-only
levels, coupling and drift arrays of each coupled one, on its first
propagation and keeps them beside the phase bounds max|B_ij|,
max|lambda| and the largest block's size, so every later one starts at
the batched ``eigh``.  A pulse builds its read-only (durations,
amplitudes) arrays once, on first use.  ``_dim`` reads every count of
levels, up to the longest axis numpy can index, and ``_zeros`` names a
count that numpy cannot allocate.
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
BATCH_ENTRIES = 1 << 22   # matrix entries per batched eigendecomposition: 64 MiB complex
MAX_CF4_STEPS = 1 << 22   # CF4 steps a callable field may ask for
_MAX_DIM = int(np.iinfo(np.intp).max)  # the longest axis numpy can index

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


def _array(values, name: str, ndim: int, dtype=None) -> np.ndarray:
    """``values`` as an ``ndim``-D array of finite numbers, bools and object
    entries such as a ``Fraction`` included: float64 for ``dtype=float``,
    complex128 for ``complex``, and for None float64 unless it is complex.
    Each error starts with ``name``: ragged nesting or another ndim is a
    DimensionMismatchError, text, any other entry or complex input to a real
    array a TypeError, and NaN or an infinity a NonFiniteError.  With a
    ``dtype`` it is a read-only private copy; with None, maybe the caller's."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DimensionMismatchError(f"{name}: expected a {ndim}-D sequence, got ragged nesting") from None
    if arr.dtype.kind == "O":
        arr = np.array([_number(x, name) for x in arr.flat]).reshape(arr.shape)
    elif arr.dtype.kind not in "biufc":
        raise TypeError(f"{name}: must be numbers, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name}: expected a {ndim}-D sequence, got shape {arr.shape}")
    if dtype is float and arr.dtype.kind == "c":
        raise TypeError(f"{name}: must be real, got dtype {arr.dtype}")
    arr = arr.astype(dtype or (complex if arr.dtype.kind == "c" else float), copy=dtype is not None)
    finite = np.isfinite(arr)
    if not finite.all():
        raise NonFiniteError(f"{name}: must be finite, got {arr.flat[np.argmin(finite)].item()!r}")
    if dtype is not None:
        arr.setflags(write=False)
    return arr


def _number(value, name: str):
    """A number as a float, or a complex when it is not real, an int past the
    float range as an infinity; anything else is a TypeError naming ``name``."""
    if not isinstance(value, numbers.Number):
        raise TypeError(f"{name}: must be numbers, got {_quoted(value)}")
    try:
        return float(value) if isinstance(value, numbers.Real) else complex(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _norm(arr: np.ndarray) -> float:
    """The 2-norm of a contiguous 1-D complex array, bit for bit as
    ``np.linalg.norm`` computes it, without its argument handling."""
    real, imag = arr.real, arr.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


def _shown(value) -> str:
    """``value`` as a message quotes it, by ``str``, but an int of magnitude
    2**64 or more by its bit length: ``str`` refuses one of more than 4,300
    digits."""
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 1 << 64:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
    return str(value)


def _quoted(value) -> str:
    """``value`` as a TypeError quotes it, by ``repr``, but a fraction with
    its terms as ``_shown`` prints them, and any other value whose ``repr``
    would print an int of more than 4,300 digits by its type."""
    if isinstance(value, Fraction):
        return f"{type(value).__name__}({_shown(value.numerator)}, {_shown(value.denominator)})"
    try:
        return repr(value)
    except ValueError:
        name = type(value).__name__
        return f"{'an' if name[0] in 'aeiouAEIOU' else 'a'} {name} too long to print"


def _bounded(number, name: str, minimum, maximum, exclusive: bool = False):
    """``number`` unless it lies below ``minimum`` (at it too, if
    ``exclusive``) or above ``maximum``, None being no bound; else a
    ValueError, ``<name>: must be >= m, got v``, ``<name>: must be <= M,
    got v`` or ``<name>: must lie in [a, b], got v``.  An int prints
    exactly, pi by name and any other float bound in ``g`` format."""
    below = minimum is not None and (number <= minimum if exclusive else number < minimum)
    if not below and (maximum is None or number <= maximum):
        return number
    low, high = ("pi" if b == math.pi else f"{b:g}" if isinstance(b, float) else _shown(b)
                 for b in (minimum, maximum))
    if maximum is None:
        bound = f"be {'>' if exclusive else '>='} {low}"
    elif minimum is None:
        bound = f"be <= {high}"
    else:
        bound = f"lie in {'(' if exclusive else '['}{low}, {high}]"
    raise ValueError(f"{name}: must {bound}, got {_shown(number)}")


def _integer(value, name: str, minimum: Optional[int] = None, maximum: Optional[int] = None) -> int:
    """``value`` as a Python int: any integer type, numpy's included, but no
    bool and nothing that would be truncated; a TypeError names ``name``,
    and so does the ValueError of a value outside [minimum, maximum]."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            return _bounded(value, name, minimum, maximum)
    raise TypeError(f"{name}: must be an integer, got {_quoted(value)}")


def _dim(value, name: str, minimum: Optional[int] = None) -> int:
    """A count of levels read by ``_integer``, at least ``minimum`` and at
    most _MAX_DIM, the longest axis numpy can index; either error names
    ``name``, before any array of that length is asked for."""
    return _bounded(_integer(value, name, minimum), name, None, _MAX_DIM)


def _real(
    value,
    name: str,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    *,
    exclusive: bool = False,
) -> float:
    """``value`` as a finite float: any real number, numpy's included, but no
    bool; a TypeError names ``name``, and so does the NonFiniteError a NaN or
    an infinity raises, an int beyond the float range included.  A value
    below ``minimum`` (at it too, if ``exclusive``) or above ``maximum`` is a
    ValueError naming ``name``; ``maximum`` comes with a ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}: must be a real number, got {_quoted(value)}")
    number = _number(value, name)
    if not math.isfinite(number):
        raise NonFiniteError(f"{name}: must be finite, got {number!r}")
    return _bounded(number, name, minimum, maximum, exclusive)


def _items(values, name: str) -> list:
    """The entries of the collection ``values``, or a TypeError naming ``name``."""
    try:
        entries = iter(values)
    except TypeError:  # not iterable; an error while iterating is the caller's own
        raise TypeError(f"{name}: must be a collection, got {_quoted(values)}") from None
    return list(entries)


def _instance(value, name: str, cls: type):
    """``value`` when it is a ``cls``; else a TypeError, ``<name>: must be
    a <cls>, got <type>``.  Nothing is converted: a list is no state."""
    if not isinstance(value, cls):
        raise TypeError(f"{name}: must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _zeros(dim: int, ndim: int) -> np.ndarray:
    """A complex zero array of ``ndim`` axes of ``dim`` levels each; a dim
    that numpy cannot allocate is a ValueError naming ``dim``."""
    try:
        return np.zeros((dim,) * ndim, dtype=complex)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
        raise ValueError(f"dim: too many levels to allocate, got {_shown(dim)}") from None


def _same_dim(count: int, name: str, dim: int) -> None:
    """Nothing when operand ``name`` has ``dim`` levels; else a
    DimensionMismatchError, ``<name>: expected dim levels, dim = <dim>, got
    <count>``, in the words of the CLI's shape messages."""
    if count != dim:
        raise DimensionMismatchError(f"{name}: expected dim levels, dim = {_shown(dim)}, got {count}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the drift eigenbasis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _array(self.amplitudes, "amplitudes", 1, complex)
        object.__setattr__(self, "amplitudes", arr)
        if arr.size < 2:
            raise DimensionMismatchError(f"amplitudes: expected at least 2 levels, got {arr.size}")
        norm = _norm(arr)
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"state norm is {norm!r}, expected 1 within {NORM_TOL:g}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __setstate__(self, state: dict) -> None:
        # a deep copy's or an unpickled state's amplitudes are its own, and
        # read-only as every state's are
        vars(self).update(state)
        self.amplitudes.setflags(write=False)

    def populations(self) -> np.ndarray:
        """|c_i|^2 per basis state."""
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        _same_dim(other.dim, "other", self.dim)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    @classmethod
    def basis_state(cls, index: int, dim: int) -> "StateVector":
        """Basis state with 1-based label ``index``."""
        dim = _dim(dim, "dim")
        index = _integer(index, "index", 1, dim)
        amps = _zeros(dim, 1)
        amps[index - 1] = 1.0
        return cls(amps)


def _json(value):
    """``value`` as a report writes it, a new container at every level: a
    dict entry by entry, a tuple or list as a list, a frozenset as a sorted
    list, a state's amplitudes as [re, im] pairs, an array by ``tolist``, a
    record by its ``to_dict``; a scalar or anything else as it is."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {name: _json(entry) for name, entry in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(entry) for entry in value]
    if isinstance(value, frozenset):
        return [_json(entry) for entry in sorted(value)]
    if isinstance(value, StateVector):
        return value.amplitudes.view(float).reshape(-1, 2).tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _record(record) -> dict:
    """A result record as a report writes it: each field by ``_json``, in
    field order."""
    return {name: _json(value) for name, value in vars(record).items()}


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Drift eigenvalues plus a Hermitian coupling matrix.

    ``drift`` holds the eigenvalues in basis order; the order is the basis
    labeling and is never sorted.  ``exact_drift`` optionally carries the
    same eigenvalues as exact rationals, which makes the frequency-ratio
    controllability condition decidable instead of heuristic.  A coupling
    accepted within ``HERMITICITY_TOL`` of Hermitian but not exactly so is
    stored built from its upper triangle: that triangle as given, its
    conjugate below the diagonal and a real diagonal; an exactly Hermitian
    one is stored as given.  Every error message starts with the name of
    the field at fault, with entry indices 0-based as in nested lists,
    e.g. ``coupling[0][1]: ...``.
    """

    dim: int
    drift: np.ndarray
    coupling: np.ndarray
    exact_drift: Optional[tuple[Fraction, ...]] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "dim", _dim(self.dim, "dim", 2))
        drift = _array(self.drift, "drift", 1, float)
        coupling = _array(self.coupling, "coupling", 2)
        _same_dim(drift.size, "drift", self.dim)
        if coupling.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"coupling: shape {coupling.shape} does not match dimension {_shown(self.dim)}"
            )
        # the checks run in the coupling's own dtype, which reads |B - B^H|
        # and [A, B]_ij = (d_i - d_j) B_ij as complex arithmetic does.  An
        # overflow is inf, which fails its tolerance; NaN comes only from
        # inf * 0 where B_ij = 0, which commutes and is not above the
        # tolerance, so numpy's warnings about them are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = np.abs(coupling - coupling.conj().T)
            worst = deviation.max()
            if worst > HERMITICITY_TOL:
                # first offending entry in row-major order, 0-based as in nested lists
                i, j = divmod(int(np.argmax(deviation > HERMITICITY_TOL)), self.dim)
                raise HermiticityError(
                    f"coupling[{i}][{j}]: not Hermitian: value {np.complex128(coupling[i, j])} "
                    f"does not match the conjugate of coupling[{j}][{i}] = "
                    f"{np.complex128(coupling[j, i])}"
                )
            del deviation  # freed before the commutator's arrays, which set the peak
            # [A, B] = 0 means the control cannot move populations at all.
            commutes = not (
                np.abs(np.subtract.outer(drift, drift) * coupling) > COMMUTATOR_TOL
            ).any()
        if self.exact_drift is not None:
            exact = _items(self.exact_drift, "exact_drift")
            _same_dim(len(exact), "exact_drift", self.dim)
            for i, (x, approx) in enumerate(zip(exact, drift)):
                # read by the scalar rule, then kept exact: a float as its binary value
                number = _real(x, f"exact_drift[{i}]")
                exact[i] = Fraction(x if isinstance(x, numbers.Rational) else number)
                if abs(number - approx) > 1e-9:
                    try:
                        shown = str(exact[i])
                    except ValueError:  # a term past str's 4,300 digits
                        shown = _quoted(exact[i])
                    raise ValueError(f"exact_drift[{i}]: {shown} disagrees with drift[{i}] = {approx}")
            object.__setattr__(self, "exact_drift", tuple(exact))
        # a private copy, so no caller's array is frozen or can change the spec
        coupling = coupling.astype(complex)
        if worst:  # Hermitian within the tolerance only: mirror the upper triangle
            lower = np.tril_indices(self.dim, -1)
            coupling[lower] = coupling.T[lower].conj()
            coupling.imag[np.diag_indices(self.dim)] = 0.0
        coupling.setflags(write=False)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "coupling", coupling)
        if commutes:
            warnings.warn(
                "drift and coupling commute; the control problem is trivial",
                stacklevel=3,  # past the dataclass __init__, to the caller
            )

    @cached_property
    def _block_arrays(self) -> list[tuple[np.ndarray, ...]]:
        """(levels, coupling, drift) for each component of
        ``_edges(self, labels, 0.0)`` on which B's sub-block is nonzero, in
        order of smallest label: its 0-based levels, the sub-block (real
        when it has no imaginary part) and diag(A) on them.  Every array is
        read-only; ``_evolve`` reads them per call."""
        labels = range(1, self.dim + 1)
        arrays = []
        for component in _components(labels, _edges(self, labels, 0.0)):
            levels = np.array(component) - 1
            coupling = self.coupling[levels[:, None], levels]
            if not coupling.any():
                continue
            if not coupling.imag.any():  # a real symmetric block diagonalises faster
                coupling = coupling.real
            block = (levels, coupling, np.diag(self.drift[levels]))
            for array in block:
                array.setflags(write=False)
            arrays.append(block)
        return arrays

    @cached_property
    def _phase_bounds(self) -> tuple[float, float, int]:
        """(max|B_ij|, max|lambda|, the size of the largest block of
        ``_block_arrays``, 0 when there is none): the constants of every
        phase bound, which ``_segments`` and ``_phases_checked`` read per call."""
        size = max((levels.size for levels, _, _ in self._block_arrays), default=0)
        return float(np.abs(self.coupling).max()), float(np.abs(self.drift).max()), size


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
        mat = _array(self.matrix, "matrix", 2, complex)
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"matrix: must be square, got shape {mat.shape}")
        if not mat.size:
            raise DimensionMismatchError(f"matrix: must have at least 1 level, got shape {mat.shape}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if dev > UNITARITY_TOL:
            raise UnitarityError(f"matrix is not unitary: max |U^H U - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "UnitaryOperator":
        matrix = _zeros(_dim(dim, "dim", 1), 2)
        np.fill_diagonal(matrix, 1.0)
        return cls(matrix)


@dataclass(frozen=True)
class ControlPulse:
    """Piecewise-constant control: ordered (duration, amplitude) segments."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        segs = []
        for k, segment in enumerate(_items(self.segments, "segments")):
            try:
                d, u = segment
            except (TypeError, ValueError):
                raise TypeError(f"segments[{k}]: expected a (duration, amplitude) pair, "
                                f"got {_quoted(segment)}") from None
            segs.append((_real(d, f"segments[{k}][0]", 0.0, exclusive=True), _real(u, f"segments[{k}][1]")))
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def duration(self) -> float:
        return sum(d for d, _ in self.segments)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The segments as (durations, amplitudes) float arrays, built on
        first use and kept read-only; ``_segments`` reads them per call."""
        segments = np.array(self.segments, dtype=float).reshape(-1, 2)
        segments.setflags(write=False)
        durations, amplitudes = segments.T
        return durations, amplitudes


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
    if abs(t[0] - 1.0) < 1e-14 and np.max(np.abs(t[1:])) < 1e-14:
        return UnitaryOperator.identity(dim)
    t0 = t[0]
    phase = t0 / abs(t0) if abs(t0) > 0.0 else 1.0
    # reflector v = t + phase*e1 has |v|^2 = 2(1+|t0|), never small
    v = t + phase * e1
    h = np.eye(dim, dtype=complex) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v)
    u = -phase * h
    return UnitaryOperator(u)


def _segments(spec: SystemSpec, field, duration, t0, max_step):
    """(durations, amplitudes, T) of the constant segments standing for ``field``
    from ``t0`` to ``t0 + duration``, after checking all three, with T the length
    both frames read: the durations summed in order, or a callable's ``duration``.
    A pulse is cut at ``duration``; a callable takes two CF4 half-steps per step of
    min(max_step, 0.02 / max(lambda_max - lambda_min, peak * max|B_ij|, 1e-6)),
    the peak read at the Gauss points of the steps the drift alone asks for.
    Over MAX_CF4_STEPS steps, or a phase overflowing (``_phases_checked``), raises.
    """
    duration = None if duration is None else _real(duration, "duration", 0.0)
    t0 = _real(t0, "t0")
    max_step = None if max_step is None else _real(max_step, "max_step", 0.0, exclusive=True)
    if not isinstance(field, ControlPulse) and not callable(field):
        raise TypeError(f"field must be a ControlPulse or a callable, got {type(field)!r}")
    if isinstance(field, ControlPulse):
        durations, amplitudes = field._arrays
        if duration is not None:
            with np.errstate(over="ignore"):  # a start past the float range is past duration too
                starts = np.concatenate(([0.0], np.cumsum(durations)[:-1]))
            kept = starts < duration
            durations, amplitudes = np.minimum(durations, duration - starts)[kept], amplitudes[kept]
        return _phases_checked(spec, durations, amplitudes, t0, sum(durations.tolist()),
                               "segments[{}]", "segments" if duration is None else "duration")
    if duration is None:
        raise ValueError("a callable field needs an explicit duration")
    if duration == 0:
        return np.empty(0), np.empty(0), duration

    def steps(rate: float) -> int:
        step = min(math.inf if max_step is None else max_step, 0.02 / rate)
        count = duration / step if step else math.inf
        if not count <= MAX_CF4_STEPS:
            raise ValueError(f"duration: {duration!r} with max_step={max_step!r} needs "
                             f"{count:.3g} CF4 steps, more than the cap of {MAX_CF4_STEPS}")
        return max(math.ceil(count), 1)

    def gauss_values(n: int):
        h = duration / n
        mid = t0 + h * (np.arange(n) + 0.5)
        return (_array(list(map(field, (mid - GAUSS_OFFSET * h).tolist())), "field", 1, float),
                _array(list(map(field, (mid + GAUSS_OFFSET * h).tolist())), "field", 1, float))

    spread = float(spec.drift.max() - spec.drift.min())
    n = steps(max(spread, 1e-6))
    u1, u2 = gauss_values(n)
    peak = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
    finer = steps(max(spread, peak * spec._phase_bounds[0], 1e-6))
    if finer > n:
        n = finer
        u1, u2 = gauss_values(n)
    amplitudes = np.column_stack((CF4_HEAVY * u1 + CF4_LIGHT * u2, CF4_LIGHT * u1 + CF4_HEAVY * u2))
    durations = np.full(2 * n, duration / (2 * n))
    return _phases_checked(spec, durations, amplitudes.ravel(), t0, duration,
                           "field: CF4 half-step {}", "duration")


def _phases_checked(spec: SystemSpec, durations, amplitudes, t0: float, total: float, where: str,
                    length: str):
    """``(durations, amplitudes, total)`` once every phase is finite: (A + u_k B) dt_k
    has eigenvalues within (max|lambda| + |u_k| max|B_ij| k) dt_k, k the largest
    block's size, and the drift phase lies within max|lambda| (|t0| + T), T being
    ``total``.  Only an overflowing bound is searched: a NonFiniteError names the
    first segment, by ``where``, else ``t0`` or ``length`` (the argument that set
    T), whichever is larger."""
    if not durations.size:
        return durations, amplitudes, total
    coupling_max, drift_max, size = spec._phase_bounds
    peak = max(-float(amplitudes.min()), float(amplitudes.max()))
    if math.isfinite((drift_max + peak * coupling_max * size) * (abs(t0) + total)):
        return durations, amplitudes, total  # the largest bound of all is finite
    with np.errstate(over="ignore", invalid="ignore"):  # a bound may overflow, or be inf * 0
        finite = np.isfinite((drift_max + np.abs(amplitudes) * coupling_max * size) * durations)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteError(f"{where.format(k)}: the phase (max|lambda| + |u| * {size} * max|B_ij|) * dt "
                             f"overflows, with u = {float(amplitudes[k])!r} and dt = {float(durations[k])!r}")
    if not math.isfinite(drift_max * (abs(t0) + total)):
        raise NonFiniteError(f"{'t0' if abs(t0) > total else length}: the drift phase max|lambda| * (|t0| + T) "
                             f"overflows, with max|lambda| = {drift_max!r}, t0 = {t0!r} and T = {total!r}")
    return durations, amplitudes, total


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0], multiplied pairwise in log2(len) rounds."""
    while len(steps) > 1:
        paired = steps[1::2] @ steps[0 : len(steps) - 1 : 2]
        steps = np.concatenate((paired, steps[-1:])) if len(steps) % 2 else paired
    return steps[0]


def _apply_segments(coupling, drift, durations, amplitudes, part: np.ndarray) -> np.ndarray:
    """``part`` after exp(-i (drift + u_k coupling) dt_k) per segment, in order, by one
    exactly unitary batched ``eigh`` per BATCH_ENTRIES entries (65,536 segments at most)."""
    batch = min(1 << 16, max(1, BATCH_ENTRIES // coupling.size))
    for start in range(0, durations.size, batch):
        chunk = slice(start, start + batch)
        w, v = np.linalg.eigh(amplitudes[chunk, None, None] * coupling + drift)
        phases = np.exp(-1j * w * durations[chunk, None])
        part = _ordered_product((v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)) @ part
    return part


def _evolve(
    spec: SystemSpec, durations: np.ndarray, amplitudes: np.ndarray, c: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Apply the segments exp(-i (A + u_k B) dt_k) in order to ``c``.

    Returns (levels, amplitudes) for each block of B's exact nonzeros that
    holds part of ``c`` on any of its levels; every other level evolves
    under A alone, so the caller applies its drift phase, or nothing.
    The blocks' arrays come from the spec, built on its first propagation;
    ``_apply_segments`` evolves each block's part in batches sized from it.
    """
    held = c != 0
    evolved = []
    for levels, coupling, drift in spec._block_arrays:
        if not held[levels].any():
            continue
        part = c[levels]
        weight = _norm(part)
        part = _apply_segments(coupling, drift, durations, amplitudes, part)
        reached = _norm(part)
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
    _instance(spec, "spec", SystemSpec)
    _same_dim(_instance(initial, "initial", StateVector).dim, "initial", spec.dim)
    _instance(pulse, "pulse", ControlPulse)
    durations, amplitudes, total = _segments(spec, pulse, None, 0.0, None)
    if not durations.size:
        return initial
    c = initial.amplitudes
    out = c * np.exp(-1j * spec.drift * total)
    for levels, part in _evolve(spec, durations, amplitudes, c):
        out[levels] = part
    return StateVector(out)
