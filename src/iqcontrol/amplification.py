"""Amplitude amplification: closed-form weight tracking, iteration-count
selection, and the plan that amplifies a state toward a good index set.

The amplification operator for a preparation unitary U, a good index set
chi, and phase angles (phi1, phi2) is

    Q = -U P0(phi1) U^{-1} Pchi(phi2)

where P0 multiplies the first basis state by e^{i phi1} and Pchi
multiplies every good basis state by e^{i phi2}.  With phi1 = phi2 = pi
and initial good weight g = sin^2(theta), L applications of Q to the
prepared state U e1 leave good weight sin^2((2L+1) theta).  Q never
leaves the span of the prepared state's good and bad parts, so no N x N
matrix is built: Q^L acts as a 2x2 power on that span.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import StateVector, UnitaryOperator, _integer, _real, prepare_unitary
from .errors import DimensionMismatchError, ZeroOverlapError

DEFAULT_L_MAX = 10**6
MIN_GOOD_WEIGHT = 1e-15
PRE_ROTATION_ANGLE = 0.1  # radians; mixes basis state 1 with the first good state
MAX_ITERATIONS = 2**53  # the closed form takes L as a float, exact up to here

__all__ = [
    "GoodSubspace",
    "Decomposition",
    "AmplificationPlan",
    "decompose",
    "closed_form_weights",
    "success_probability",
    "optimal_iterations",
    "make_plan",
    "amplified_state",
    "DEFAULT_L_MAX",
]


@dataclass(frozen=True)
class GoodSubspace:
    """Nonempty strict subset of basis labels 1..dim marked as targets."""

    indices: frozenset[int]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim"))
        idx = frozenset(_integer(i, "good index") for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("good subspace must be nonempty")
        if not all(1 <= i <= self.dim for i in idx):
            raise ValueError(f"good indices {sorted(idx)} outside 1..{self.dim}")
        if len(idx) >= self.dim:
            raise ValueError("good subspace must be a strict subset of the basis")

    @classmethod
    def of(cls, indices: Union[int, Iterable[int]], dim: int) -> "GoodSubspace":
        """The subspace of one label (a 0-d integer array among them) or of
        an iterable of labels that is not a mapping; every label is an
        integer (no bool), or a TypeError names it."""
        if isinstance(indices, Mapping):
            raise TypeError(f"good index must be an integer or an iterable of them, "
                            f"not a mapping, got {indices!r}")
        if not isinstance(indices, Iterable) or getattr(indices, "ndim", None) == 0:
            indices = [_integer(indices, "good index")]
        return cls(frozenset(indices), dim)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.dim, dtype=bool)
        for i in self.indices:
            m[i - 1] = True
        return m


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of a state into its good-support and bad-support parts.

    good_part + bad_part reconstructs the state; g and b are the weights
    of the good and bad parts (g + b = 1 up to round-off), and theta =
    arcsin(sqrt(g)).  b is summed from the bad part rather than taken as
    1 - g, which would lose its relative precision as g approaches 1.
    """

    good_part: np.ndarray
    bad_part: np.ndarray
    g: float
    b: float
    theta: float


def decompose(state: StateVector, good: GoodSubspace) -> Decomposition:
    """Project ``state`` onto the good index set and its complement."""
    if good.dim != state.dim:
        raise DimensionMismatchError(
            f"good subspace dimension {good.dim} does not match state dimension {state.dim}"
        )
    mask = good.mask()
    return _split(
        np.where(mask, state.amplitudes, 0.0), np.where(mask, 0.0, state.amplitudes)
    )


def _split(good_part: np.ndarray, bad_part: np.ndarray) -> Decomposition:
    """Decomposition of good_part + bad_part, weights summed per part."""
    g = min(max(float(np.vdot(good_part, good_part).real), 0.0), 1.0)
    b = min(max(float(np.vdot(bad_part, bad_part).real), 0.0), 1.0)
    return Decomposition(
        good_part=good_part,
        bad_part=bad_part,
        g=g,
        b=b,
        theta=math.asin(math.sqrt(g)),
    )


def _count(value, name: str) -> int:
    """``value`` as a nonnegative int, or a TypeError or ValueError naming ``name``."""
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _iterations(value) -> int:
    """An explicit iteration count: an integer (not a bool) in 0..2**53,
    or a TypeError or ValueError naming ``iterations``."""
    count = _count(value, "iterations")
    if count > MAX_ITERATIONS:
        raise ValueError(
            f"iterations must not exceed 2**53, got a {count.bit_length()}-bit integer"
        )
    return count


def _check_phase(name: str, value: float) -> float:
    value = _real(value, name)
    if not 0.0 <= value <= math.pi:
        raise ValueError(f"{name} must lie in [0, pi], got {value}")
    return value


def amplification_operator(
    prep: UnitaryOperator, good: GoodSubspace, phi1: float, phi2: float
) -> UnitaryOperator:
    """Explicit N x N matrix Q = -U P0(phi1) U^H Pchi(phi2).

    The O(N^3) reference the tests compare the closed-form kernel with;
    nothing in the package calls it.  It stays in this module, outside
    ``__all__``, because the benchmark times a span under its name.
    P0 and Pchi are diagonal, so they scale columns.
    """
    if good.dim != prep.dim:
        raise DimensionMismatchError(
            f"good subspace dimension {good.dim} does not match operator dimension {prep.dim}"
        )
    p0 = np.ones(prep.dim, dtype=complex)
    p0[0] = cmath.exp(1j * _check_phase("phi1", phi1))
    pchi = np.where(good.mask(), cmath.exp(1j * _check_phase("phi2", phi2)), 1.0 + 0j)
    u = prep.matrix
    return UnitaryOperator(-((u * p0) @ u.conj().T) * pchi)


def _coefficients(
    g: float, b: float, phi1: float, phi2: float, iterations: int
) -> tuple[complex, complex]:
    """Scalars (c_good, c_bad) with Q^L psi = c_good * good_part + c_bad * bad_part.

    psi is the state Q was built from, g and b the weights of its good and
    bad parts, and L = ``iterations``.  Q never leaves span{good_part,
    bad_part}; in the orthonormal basis (good_part / sqrt(g),
    bad_part / sqrt(b)) it is the unitary 2x2 matrix W below, whose
    determinant is e^{i(phi1 + phi2)}.  Dividing out the square root
    e^{i alpha} of the determinant leaves an SU(2) matrix cos(w) I + S
    with S traceless and det S = sin^2(w), so

        W^L = e^{i L alpha} (cos(L w) I + sin(L w) / sin(w) S)

    at O(1) cost in L.  The square-root branch is chosen so that
    cos(w) >= 0: w then stays small when W is near a multiple of I, where
    atan2 resolves it to full relative precision.
    """
    e1 = cmath.exp(1j * phi1)
    e2 = cmath.exp(1j * phi2)
    root_g, root_b = math.sqrt(g), math.sqrt(b)
    w00 = e2 * ((1.0 - e1) * g - 1.0)
    w01 = (1.0 - e1) * root_g * root_b
    w10 = e2 * w01
    w11 = -((1.0 - e1) * g + e1)
    alpha = 0.5 * (phi1 + phi2)
    root = cmath.exp(1j * alpha)
    if ((w00 + w11) / root).real < 0.0:
        alpha += math.pi
        root = -root
    n00, n01, n10, n11 = w00 / root, w01 / root, w10 / root, w11 / root
    cos_w = 0.5 * (n00 + n11).real
    s00, s11 = n00 - cos_w, n11 - cos_w
    sin_w = math.sqrt(abs(s00 * s11 - n01 * n10))
    omega = math.atan2(sin_w, cos_w)
    # S = 0 (e.g. phi1 = phi2 = 0) makes the ratio's value irrelevant
    ratio = math.sin(iterations * omega) / sin_w if sin_w > 0.0 else 0.0
    cos_l = math.cos(iterations * omega)
    phase = cmath.exp(1j * (iterations * alpha))
    x = phase * ((cos_l + ratio * s00) * root_g + ratio * n01 * root_b)
    y = phase * (ratio * n10 * root_g + (cos_l + ratio * s11) * root_b)
    # an empty part (g = 0 or b = 0) stays empty whatever its scalar
    return (x / root_g if g > 0.0 else 0j), (y / root_b if b > 0.0 else 0j)


def closed_form_weights(
    g: float, phi1: float, phi2: float, iterations: int
) -> tuple[float, float]:
    """(good, bad) weights after ``iterations`` applications of one fixed
    amplification operator to the state it was built from.

    Takes the closed-form power of the 2x2 action on the span of the
    initial good and bad parts; equivalent to applying the explicit
    operator matrix ``iterations`` times, at a cost independent of it.
    """
    phi1 = _check_phase("phi1", phi1)
    phi2 = _check_phase("phi2", phi2)
    iterations = _iterations(iterations)
    g = _real(g, "g")
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"good weight must lie in [0, 1], got {g}")
    c_good, c_bad = _coefficients(g, 1.0 - g, phi1, phi2, iterations)
    # round-off may not lift a probability above 1
    return min(abs(c_good) ** 2 * g, 1.0), min(abs(c_bad) ** 2 * (1.0 - g), 1.0)


def success_probability(g: float, iterations: int) -> float:
    """sin^2((2L+1) theta) with sin^2(theta) = g, for L = iterations."""
    iterations = _iterations(iterations)
    g = _real(g, "g")
    if not 0.0 < g <= 1.0:
        raise ValueError(
            f"initial good weight must lie in (0, 1], got {g}; "
            "amplification from zero weight is undefined"
        )
    theta = math.asin(math.sqrt(g))
    return math.sin((2 * iterations + 1) * theta) ** 2


def optimal_iterations(g: float, l_max: int = DEFAULT_L_MAX) -> int:
    """Argmax of sin^2((2L+1) theta) over the first arch (2L+1) theta <= pi,
    clamped to [0, l_max].

    This is the first peak; later peaks, which may lie closer to 1, are
    never chosen.  Uses the standard amplitude-amplification optimum
    (2L+1) theta ~ pi/2, i.e. L = round(pi/(4 theta) - 1/2), then
    verifies against both neighbors.  Ties within float noise resolve
    toward the smaller count.
    """
    l_max = _count(l_max, "l_max")
    g = _real(g, "g")
    if not 0.0 < g <= 1.0:
        raise ValueError(f"initial good weight must lie in (0, 1], got {g}")
    theta = math.asin(math.sqrt(g))
    guess = int(round(math.pi / (4.0 * theta) - 0.5))
    guess = min(max(guess, 0), l_max)
    candidates = sorted(
        {min(max(guess + delta, 0), l_max) for delta in (-1, 0, 1)}
    )
    best = candidates[0]
    best_value = success_probability(g, best)
    for cand in candidates[1:]:
        value = success_probability(g, cand)
        if value > best_value + 1e-12:
            best, best_value = cand, value
    return best


@dataclass(frozen=True, eq=False)
class AmplificationPlan:
    """Prepared state, phases, iteration count and predicted outcome.

    ``prepared`` is the state the plan amplifies: the initial state
    itself, or the pre-rotated one.  The preparation unitary U with
    U e1 = ``prepared`` is never needed to amplify it, and is built only
    when :attr:`preparation` is read.
    """

    prepared: StateVector
    good: GoodSubspace
    phi1: float
    phi2: float
    iterations: int
    predicted_success: float
    initial_good_weight: float
    pre_rotated: bool = False

    @property
    def preparation(self) -> UnitaryOperator:
        """The N x N Householder unitary sending e1 to the prepared state,
        built (with its O(N^3) unitarity check) on every access."""
        return prepare_unitary(self.prepared)


def _pre_rotated(state: StateVector, good: GoodSubspace) -> StateVector:
    """``state`` under a small real rotation mixing basis state 1 with the
    first good state.

    Applied to an initial state with zero good weight before planning; it
    moves sin^2(PRE_ROTATION_ANGLE) of any weight on basis state 1 into
    the good subspace.  Only those two amplitudes change; when state 1 is
    itself good the rotation is the identity.
    """
    target = min(good.indices) - 1
    if target == 0:
        return state
    c, s = math.cos(PRE_ROTATION_ANGLE), math.sin(PRE_ROTATION_ANGLE)
    amps = state.amplitudes.copy()
    first, other = amps[0], amps[target]
    amps[0] = c * first - s * other
    amps[target] = s * first + c * other
    return StateVector(amps)


def make_plan(
    initial: StateVector,
    good: GoodSubspace,
    phi1: float = math.pi,
    phi2: float = math.pi,
    iterations: Union[int, str] = "auto",
    l_max: int = DEFAULT_L_MAX,
    pre_rotation: bool = False,
) -> AmplificationPlan:
    """Plan the amplification of ``initial`` toward the good subspace.

    Fails when the initial good weight is numerically zero; enabling
    ``pre_rotation`` first mixes a small amplitude from basis state 1
    into the good subspace, which fixes the common case where the weight
    sits on state 1.  ``iterations="auto"`` selects
    :func:`optimal_iterations`; an explicit count is an integer (not a
    bool) in 0..2**53, or a TypeError or ValueError names it.  ``l_max``
    is a nonnegative integer whichever ``iterations`` is given.
    """
    phi1 = _check_phase("phi1", phi1)
    phi2 = _check_phase("phi2", phi2)
    l_max = _count(l_max, "l_max")
    pre_rotated = False
    d = decompose(initial, good)
    if d.g < MIN_GOOD_WEIGHT and pre_rotation:
        initial = _pre_rotated(initial, good)
        d = decompose(initial, good)
        pre_rotated = True
    if d.g < MIN_GOOD_WEIGHT:
        hint = (
            "the pre-rotation also left no good weight"
            if pre_rotated
            else "apply a unitary mixing some amplitude into the good subspace "
            "first, e.g. enable pre_rotation"
        )
        raise ZeroOverlapError(
            f"initial state has no weight on good indices {sorted(good.indices)}; {hint}"
        )
    if iterations == "auto":
        count = optimal_iterations(d.g, l_max)
    else:
        count = _iterations(iterations)
    predicted, _ = closed_form_weights(d.g, phi1, phi2, count)
    return AmplificationPlan(
        prepared=initial,
        good=good,
        phi1=phi1,
        phi2=phi2,
        iterations=count,
        predicted_success=predicted,
        initial_good_weight=d.g,
        pre_rotated=pre_rotated,
    )


def amplified_state(plan: AmplificationPlan) -> StateVector:
    """Apply the plan's operator ``iterations`` times to its prepared state.

    Scales the good and bad parts of the prepared state by the closed-form
    coefficients of Q^L: O(N) work, independent of L, and no N x N matrix.
    """
    d = decompose(plan.prepared, plan.good)
    c_good, c_bad = _coefficients(d.g, d.b, plan.phi1, plan.phi2, plan.iterations)
    return StateVector(c_good * d.good_part + c_bad * d.bad_part)
