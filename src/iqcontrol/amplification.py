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
matrix is built: Q^L acts as a 2x2 power on that span.  ``make_plan``
splits the prepared state into those parts once and the plan carries the
split, so ``amplified_state`` scales them without splitting it again;
a ``GoodSubspace`` builds its mask on first use and keeps it.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .core import (NORM_TOL, StateVector, UnitaryOperator, _integer, _items, _real, _same_dim, _shown,
                   prepare_unitary)
from .errors import ZeroOverlapError

DEFAULT_L_MAX = 10**6
MIN_GOOD_WEIGHT = 1e-15
PRE_ROTATION_ANGLE = 0.1  # radians; mixes basis state 1 with the first good state
# the closed form's error after L applications is at most PHASE_ERROR_ULPS
# * L * ulp(1.0) (see _coefficients); an explicit count's bound may not
# exceed PHASE_TOLERANCE, which caps it at MAX_ITERATIONS = 1125899, past
# DEFAULT_L_MAX
PHASE_ERROR_ULPS = 4
PHASE_TOLERANCE = 1e-9
MAX_ITERATIONS = int(PHASE_TOLERANCE / (PHASE_ERROR_ULPS * math.ulp(1.0)))
_TIE = 1e-12  # good weights this close count as equal when choosing a count

__all__ = [
    "GoodSubspace",
    "Decomposition",
    "AmplificationPlan",
    "decompose",
    "closed_form_weights",
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
        idx = frozenset(_integer(i, "good index", 1, self.dim) for i in _items(self.indices, "indices"))
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("good subspace must be nonempty")
        if len(idx) >= self.dim:
            raise ValueError("good subspace must be a strict subset of the basis")

    @classmethod
    def of(cls, indices: Union[int, Iterable[int]], dim: int) -> "GoodSubspace":
        """The subspace of one label (a 0-d integer array among them) or of
        an iterable of labels that is not a mapping; every label is an
        integer (no bool), or a TypeError names it."""
        if isinstance(indices, Mapping):
            raise TypeError(f"good index: must be an integer or an iterable of them, "
                            f"not a mapping, got {indices!r}")
        if not isinstance(indices, Iterable) or getattr(indices, "ndim", None) == 0:
            indices = [_integer(indices, "good index")]
        return cls(frozenset(indices), dim)

    def mask(self) -> np.ndarray:
        """A new boolean array over the 0-based levels, True on the good ones."""
        return self._mask.copy()

    @cached_property
    def _mask(self) -> np.ndarray:
        """:meth:`mask`, built on first use and kept read-only."""
        m = np.zeros(self.dim, dtype=bool)
        for i in self.indices:
            m[i - 1] = True
        m.setflags(write=False)
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
    _same_dim(good.dim, "good", state.dim)
    mask = good._mask
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


def _check_phase(name: str, value: float) -> float:
    return _real(value, name, 0.0, math.pi)


def _explicit_count(value) -> int:
    """An explicit ``iterations``: an integer (no bool) >= 0 whose
    phase-error bound meets PHASE_TOLERANCE, so at most MAX_ITERATIONS."""
    count = _integer(value, "iterations", 0)
    if count > MAX_ITERATIONS:
        # past the float range the bound is no float; it exceeds any tolerance
        bound = PHASE_ERROR_ULPS * count * math.ulp(1.0) if count.bit_length() < 1000 else math.inf
        raise ValueError(
            f"iterations: phase-error bound {bound:.9g} exceeds {PHASE_TOLERANCE:g}; the "
            f"largest count within it is {MAX_ITERATIONS}, got {_shown(count)}"
        )
    return count


def amplification_operator(
    prep: UnitaryOperator, good: GoodSubspace, phi1: float, phi2: float
) -> UnitaryOperator:
    """Explicit N x N matrix Q = -U P0(phi1) U^H Pchi(phi2).

    The O(N^3) reference the tests compare the closed-form kernel with;
    nothing in the package calls it.  It stays in this module, outside
    ``__all__``, because the benchmark times a span under its name.
    P0 and Pchi are diagonal, so they scale columns.
    """
    _same_dim(good.dim, "good", prep.dim)
    p0 = np.ones(prep.dim, dtype=complex)
    p0[0] = cmath.exp(1j * _check_phase("phi1", phi1))
    pchi = np.where(good._mask, cmath.exp(1j * _check_phase("phi2", phi2)), 1.0 + 0j)
    u = prep.matrix
    return UnitaryOperator(-((u * p0) @ u.conj().T) * pchi)


def _rotation(g: float, b: float, phi1: float, phi2: float) -> tuple:
    """Q as (alpha, w, sin(w), (s00, n01, n10, s11)), S's entries row by row.

    g and b are the weights of the good and bad parts of the state Q was
    built from.  Q never leaves span{good_part, bad_part}; in the
    orthonormal basis (good_part / sqrt(g), bad_part / sqrt(b)) it is the
    unitary 2x2 matrix W below, whose determinant is e^{i(phi1 + phi2)}.
    Dividing out the square root e^{i alpha} of the determinant leaves an
    SU(2) matrix cos(w) I + S with S traceless and det S = sin^2(w), so

        W^L = e^{i L alpha} (cos(L w) I + sin(L w) / sin(w) S)

    at O(1) cost in L.  The square-root branch makes cos(w) >= 0, so w
    lies in [0, pi/2] and stays small when W is near a multiple of I,
    where atan2 resolves it to full relative precision.
    """
    e1, e2 = cmath.exp(1j * phi1), cmath.exp(1j * phi2)
    w00 = e2 * ((1.0 - e1) * g - 1.0)
    w01 = (1.0 - e1) * math.sqrt(g) * math.sqrt(b)
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
    return alpha, math.atan2(sin_w, cos_w), sin_w, (s00, n01, n10, s11)


def _coefficients(
    g: float, b: float, phi1: float, phi2: float, iterations: int
) -> tuple[complex, complex]:
    """Scalars (c_good, c_bad) with Q^L psi = c_good * good_part + c_bad * bad_part,
    for L = ``iterations``, from the SU(2) form of :func:`_rotation`.

    The phase-error bound: the weights |c_good|^2 g and |c_bad|^2 b, and
    the amplitudes up to the phase e^{i L alpha} they share, lie within
    PHASE_ERROR_ULPS * L * ulp(1.0) + 1e-15 of their exact values at the
    same float g and phases.  A 60-digit mpmath sweep (g in [1e-15, 1),
    phases in [0, pi], L up to 10**12) read at most 1.12 L ulp(1.0).  The
    bound takes ulp(1.0), not ulp(w): at small or unequal phases S's
    entries carry an absolute error of about ulp(1.0), which sin(Lw) /
    sin(w) <= L scales (1.1 L ulp(1.0) at phi1 = phi2 = 1e-8, g = 0.5, where
    ulp(w) is 3e8 times smaller).  The shared phase, which no weight sees,
    rounds L alpha with alpha up to 2 pi and adds up to 5.4 L ulp(1.0).
    """
    alpha, omega, sin_w, (s00, n01, n10, s11) = _rotation(g, b, phi1, phi2)
    root_g, root_b = math.sqrt(g), math.sqrt(b)
    # S = 0 (e.g. phi1 = phi2 = 0) makes the ratio's value irrelevant
    ratio = math.sin(iterations * omega) / sin_w if sin_w > 0.0 else 0.0
    cos_l = math.cos(iterations * omega)
    phase = cmath.exp(1j * (iterations * alpha))
    x = phase * ((cos_l + ratio * s00) * root_g + ratio * n01 * root_b)
    y = phase * (ratio * n10 * root_g + (cos_l + ratio * s11) * root_b)
    # an empty part (g = 0 or b = 0) stays empty whatever its scalar
    return (x / root_g if g > 0.0 else 0j), (y / root_b if b > 0.0 else 0j)


def closed_form_weights(g: float, phi1: float, phi2: float, iterations: int) -> tuple[float, float]:
    """(good, bad) weights after ``iterations`` applications of one fixed
    amplification operator to the state it was built from.

    Takes the closed-form power of the 2x2 action on the span of the
    initial good and bad parts; equivalent to applying the explicit
    operator matrix ``iterations`` times, at a cost independent of it.
    ``iterations`` is read as :func:`make_plan` reads an explicit count.
    """
    phi1 = _check_phase("phi1", phi1)
    phi2 = _check_phase("phi2", phi2)
    iterations = _explicit_count(iterations)
    g = _real(g, "g", 0.0, 1.0)
    return _weights(g, phi1, phi2, iterations)


def _weights(g: float, phi1: float, phi2: float, iterations: int) -> tuple[float, float]:
    """:func:`closed_form_weights` of arguments it has already checked."""
    c_good, c_bad = _coefficients(g, 1.0 - g, phi1, phi2, iterations)
    # round-off may not lift a probability above 1
    return min(abs(c_good) ** 2 * g, 1.0), min(abs(c_bad) ** 2 * (1.0 - g), 1.0)


def optimal_iterations(
    g: float, l_max: int = DEFAULT_L_MAX, phi1: float = math.pi, phi2: float = math.pi
) -> int:
    """The first local maximum of the good weight P(L) after L applications
    of Q(phi1, phi2), clamped to [0, l_max]; later peaks are never chosen.

    With :func:`_rotation`'s good amplitude cos(L w) sqrt(g) + sin(L w) v,
    P(L) = A + B cos 2Lw + C sin 2Lw exactly, so for x = atan2(C, B),
    P(L+1) <= P(L) just when sin((2L+1) w - x) >= 0.  As w <= pi/2, that
    first holds at 0 if y = (w - x) mod 2 pi <= pi, else at ceil((2 pi - y)
    / (2 w)); steps all within 1e-12 (w = 0, or B = C = 0) give 0.  Both
    neighbors are checked by P, ties within 1e-12 going to the smaller.
    """
    phi1 = _check_phase("phi1", phi1)
    phi2 = _check_phase("phi2", phi2)
    l_max = _integer(l_max, "l_max", 0)
    g = _real(g, "g", 0.0, 1.0, exclusive=True)
    return _first_peak(g, l_max, phi1, phi2)


def _first_peak(g: float, l_max: int, phi1: float, phi2: float) -> int:
    """:func:`optimal_iterations` of arguments it has already checked."""
    _, omega, sin_w, (s00, n01, _, _) = _rotation(g, 1.0 - g, phi1, phi2)
    # sin(w) = 0 leaves P constant, whatever v is taken to be
    v = (s00 * math.sqrt(g) + n01 * math.sqrt(1.0 - g)) / sin_w if sin_w > 0.0 else 0j
    a_term = 0.5 * (g + abs(v) ** 2)
    b_term, c_term = g - a_term, math.sqrt(g) * v.real
    y = (omega - math.atan2(c_term, b_term)) % (2.0 * math.pi)
    # the largest step |P(L+1) - P(L)| is 2 sqrt(B^2 + C^2) sin(w)
    if y <= math.pi or 2.0 * math.hypot(b_term, c_term) * sin_w <= _TIE:
        guess = 0
    else:
        guess = min(math.ceil((2.0 * math.pi - y) / (2.0 * omega)), l_max)
    best, best_value = 0, -1.0
    for cand in sorted({min(max(guess + delta, 0), l_max) for delta in (-1, 0, 1)}):
        angle = 2.0 * cand * omega
        value = a_term + b_term * math.cos(angle) + c_term * math.sin(angle)
        if value > best_value + _TIE:
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
    sits on state 1.  ``iterations="auto"`` takes :func:`optimal_iterations`
    at the plan's phases; an explicit count is an integer (not a bool) in
    0..MAX_ITERATIONS, whose phase-error bound (see :func:`_coefficients`)
    meets PHASE_TOLERANCE, or a TypeError or ValueError names it.  ``l_max``
    is a nonnegative integer whichever ``iterations`` is given.
    """
    phi1 = _check_phase("phi1", phi1)
    phi2 = _check_phase("phi2", phi2)
    l_max = _integer(l_max, "l_max", 0)
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
    # the phases and l_max are checked above, and d.g lies in [MIN_GOOD_WEIGHT, 1]
    if iterations == "auto":
        count = _first_peak(d.g, l_max, phi1, phi2)
    else:
        count = _explicit_count(iterations)
    predicted, _ = _weights(d.g, phi1, phi2, count)
    plan = AmplificationPlan(
        prepared=initial,
        good=good,
        phi1=phi1,
        phi2=phi2,
        iterations=count,
        predicted_success=predicted,
        initial_good_weight=d.g,
        pre_rotated=pre_rotated,
    )
    # the prepared state's split, which amplified_state reads instead of
    # splitting it again; a plan made any other way has none
    object.__setattr__(plan, "_decomposition", d)
    return plan


def amplified_state(plan: AmplificationPlan) -> StateVector:
    """Apply the plan's operator ``iterations`` times to its prepared state.

    Scales the good and bad parts of the prepared state by the closed-form
    coefficients of Q^L: O(N) work, independent of L, and no N x N matrix.
    A plan from :func:`make_plan` carries that split; any other plan, one
    copied with ``dataclasses.replace`` among them, is split here.
    """
    d = vars(plan).get("_decomposition") or decompose(plan.prepared, plan.good)
    c_good, c_bad = _coefficients(d.g, d.b, plan.phi1, plan.phi2, plan.iterations)
    # Q^L keeps the norm, but the closed form's drifts by up to its
    # phase-error bound, past NORM_TOL for long runs at small or unequal
    # phases; a result off by more than half of it takes the prepared norm
    after = abs(c_good) ** 2 * d.g + abs(c_bad) ** 2 * d.b
    if abs(math.sqrt(after) - 1.0) > 0.5 * NORM_TOL:
        scale = math.sqrt((d.g + d.b) / after)
        c_good, c_bad = scale * c_good, scale * c_bad
    return StateVector(c_good * d.good_part + c_bad * d.bad_part)
