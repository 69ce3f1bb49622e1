"""Explicit reference operators and integrators.

The library amplifies with a closed-form 2x2 kernel and builds none of
the amplification operators below; the tests compare its amplitudes and
weights against them.  The explicit Q itself is
``iqcontrol.amplification.amplification_operator``; the tests check it
against the product of the phase oracles below.

The library propagates through exact segment exponentials restricted to
the coupled blocks a state occupies; ``full_matrix_propagate`` and the
RK4 integrator ``rk4_interaction_picture`` are the references it is
checked against.

The library plans and predicts with ``closed_form_weights`` for any
phases; ``success_probability`` is its phi1 = phi2 = pi case written as
sin^2((2L+1) theta), read with the library's argument rules, and
``pi_phase_count`` picks the first peak of that curve from the textbook
optimum (2L+1) theta ~ pi/2.

``SystemSpec`` checks a real coupling in real arithmetic;
``system_spec_checks`` runs its checks on the coupling read as complex,
as the library did before 0.8.1.
"""

import cmath
import math

import numpy as np

from iqcontrol import (
    ControlPulse,
    Decomposition,
    DimensionMismatchError,
    GoodSubspace,
    HermiticityError,
    NonFiniteError,
    UnitaryOperator,
)
from iqcontrol.core import COMMUTATOR_TOL, HERMITICITY_TOL, _real
from iqcontrol.amplification import (
    PRE_ROTATION_ANGLE,
    _check_phase,
    _coefficients,
    _iterations,
    _split,
)


def phase_oracle_zero(dim: int, phi1: float) -> UnitaryOperator:
    """Diagonal operator putting phase e^{i phi1} on the first basis state."""
    phi1 = _check_phase("phi1", phi1)
    diag = np.ones(dim, dtype=complex)
    diag[0] = cmath.exp(1j * phi1)
    return UnitaryOperator(np.diag(diag))


def phase_oracle_chi(dim: int, good: GoodSubspace, phi2: float) -> UnitaryOperator:
    """Diagonal operator putting phase e^{i phi2} on every good basis state."""
    phi2 = _check_phase("phi2", phi2)
    if good.dim != dim:
        raise DimensionMismatchError(
            f"good subspace dimension {good.dim} does not match {dim}"
        )
    diag = np.where(good.mask(), cmath.exp(1j * phi2), 1.0 + 0j)
    return UnitaryOperator(np.diag(diag))


def closed_form_step(d: Decomposition, phi1: float, phi2: float) -> Decomposition:
    """One application of the amplification operator built for d's state,
    through the library's 2x2 kernel: the good and bad parts are each
    scaled in place and the supports never mix."""
    phi1 = _check_phase("phi1", phi1)
    phi2 = _check_phase("phi2", phi2)
    c_good, c_bad = _coefficients(d.g, d.b, phi1, phi2, 1)
    return _split(c_good * d.good_part, c_bad * d.bad_part)


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


def pi_phase_count(g: float, l_max: int) -> int:
    """The first peak of sin^2((2L+1) theta), sin^2(theta) = g, in [0, l_max]:
    L = round(pi/(4 theta) - 1/2) clamped, then checked against both
    neighbors, ties within 1e-12 going to the smaller count."""
    theta = math.asin(math.sqrt(g))
    guess = min(max(int(round(math.pi / (4.0 * theta) - 0.5)), 0), l_max)
    candidates = sorted({min(max(guess + delta, 0), l_max) for delta in (-1, 0, 1)})
    best = candidates[0]
    best_value = success_probability(g, best)
    for cand in candidates[1:]:
        value = success_probability(g, cand)
        if value > best_value + 1e-12:
            best, best_value = cand, value
    return best


def pre_rotation_operator(good: GoodSubspace) -> UnitaryOperator:
    """The N x N rotation by PRE_ROTATION_ANGLE mixing basis state 1 with
    the first good state; the identity when state 1 is good."""
    target = min(good.indices)
    mat = np.eye(good.dim, dtype=complex)
    if target == 1:
        return UnitaryOperator(mat)
    c, s = math.cos(PRE_ROTATION_ANGLE), math.sin(PRE_ROTATION_ANGLE)
    mat[0, 0] = c
    mat[target - 1, target - 1] = c
    mat[target - 1, 0] = s
    mat[0, target - 1] = -s
    return UnitaryOperator(mat)


def transition_frequency(spec, i: int, j: int) -> float:
    """nu_ij = lambda_i - lambda_j for 1-based labels i, j."""
    return float(spec.drift[i - 1] - spec.drift[j - 1])


def system_spec_checks(dim: int, drift, coupling):
    """The drift and coupling a ``SystemSpec`` stores, and whether it warns
    that they commute, from its checks in complex arithmetic; or the error
    it raises.  ``exact_drift`` is not covered."""
    drift = np.asarray(drift, dtype=float).reshape(-1)
    coupling = np.array(coupling, dtype=complex)
    if drift.size != dim:
        raise DimensionMismatchError(f"drift: {drift.size} eigenvalues for dimension {dim}")
    if coupling.shape != (dim, dim):
        raise DimensionMismatchError(
            f"coupling: shape {coupling.shape} does not match dimension {dim}"
        )
    if not np.isfinite(drift).all():
        raise NonFiniteError("drift: eigenvalues must be finite, got NaN or an infinity")
    if not np.isfinite(coupling).all():
        raise NonFiniteError("coupling: entries must be finite, got NaN or an infinity")
    off = np.abs(coupling - coupling.conj().T) > HERMITICITY_TOL
    if off.any():
        i, j = divmod(int(np.argmax(off)), dim)
        raise HermiticityError(
            f"coupling[{i}][{j}]: not Hermitian: value {coupling[i, j]} does not "
            f"match the conjugate of coupling[{j}][{i}] = {coupling[j, i]}"
        )
    commutator = drift[:, None] * coupling - coupling * drift[None, :]
    return drift, coupling, bool(np.max(np.abs(commutator)) <= COMMUTATOR_TOL)


def full_matrix_propagate(spec, pulse: ControlPulse, initial) -> np.ndarray:
    """Amplitudes after the pulse, one N x N eigendecomposition per segment."""
    c = initial.amplitudes
    drift = np.diag(spec.drift).astype(complex)
    for dt, u in pulse.segments:
        w, v = np.linalg.eigh(drift + u * spec.coupling)
        c = (v * np.exp(-1j * w * dt)) @ v.conj().T @ c
    return c


def rk4_interaction_picture(
    model, field, initial, duration=None, t0=0.0, step=1e-3, hermitian_phase=True
) -> np.ndarray:
    """Fixed-step RK4 on the hydrogen interaction-picture equation dD/dt = T(t) D.

    Only the coupled block (labels 1-3) evolves, with scalar complex
    arithmetic; steps never straddle a pulse segment boundary.  The
    ground channel carries the phase exp(-i gap t) and its transpose
    entry the conjugate, which makes T skew-Hermitian;
    ``hermitian_phase=False`` puts the same un-conjugated phase on both,
    and the norm is then not conserved.  Returns the raw amplitudes.
    """
    if isinstance(field, ControlPulse):
        total = field.duration if duration is None else duration
        intervals, t, acc = [], t0, 0.0
        for d, u in field.segments:
            end = min(d, total - acc)
            if end <= 0:
                break
            intervals.append((t, t + end, lambda s, u=u: u))
            t, acc = t + end, acc + end
    else:
        intervals = [(t0, t0 + duration, field)]
    gap, k1, k2 = model.energy_gap, model.kappa_ground, model.kappa_excited

    def deriv(t, a0, a1, a2, fn):
        f = fn(t)
        p = cmath.exp(-1j * gap * t)
        t02 = 1j * k1 * f * p
        t20 = 1j * k1 * f * (p.conjugate() if hermitian_phase else p)
        t12 = -1j * k2 * f
        return t02 * a2, t12 * a2, t20 * a0 + t12 * a1

    y0, y1, y2 = (complex(z) for z in initial.amplitudes[:3])
    for start, end, fn in intervals:
        n = max(math.ceil((end - start) / step), 2)
        dt = (end - start) / n
        for k in range(n):
            t = start + k * dt
            h = dt / 2.0
            k1a, k1b, k1c = deriv(t, y0, y1, y2, fn)
            k2a, k2b, k2c = deriv(t + h, y0 + h * k1a, y1 + h * k1b, y2 + h * k1c, fn)
            k3a, k3b, k3c = deriv(t + h, y0 + h * k2a, y1 + h * k2b, y2 + h * k2c, fn)
            k4a, k4b, k4c = deriv(t + dt, y0 + dt * k3a, y1 + dt * k3b, y2 + dt * k3c, fn)
            y0 += dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
            y1 += dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)
            y2 += dt / 6.0 * (k1c + 2 * k2c + 2 * k3c + k4c)
    out = np.array(initial.amplitudes, dtype=complex)
    out[:3] = y0, y1, y2
    return out
