"""Explicit reference operators and integrators.

The library amplifies with a closed-form 2x2 kernel and builds none of
the amplification operators below; the tests compare its amplitudes and
weights against them.  The explicit Q itself is
``iqcontrol.amplification.amplification_operator``; the tests check it
against the product of the phase oracles below.

The library propagates through exact segment exponentials restricted to
the coupled blocks a state occupies, and samples a callable field into
CF4 half-steps; ``full_matrix_propagate`` and the RK4 integrators
``rk4_interaction_picture`` (hydrogen) and ``rk4_lab_frame`` (any spec)
are the references it is checked against.

The library plans and predicts with ``closed_form_weights`` for any
phases; ``success_probability`` is its phi1 = phi2 = pi case written as
sin^2((2L+1) theta), read with the library's argument rules, and
``pi_phase_count`` picks the first peak of that curve from the textbook
optimum (2L+1) theta ~ pi/2.

``SystemSpec`` checks a real coupling in real arithmetic;
``system_spec_checks`` runs its checks on the coupling read as complex,
as the library did before 0.8.1.  Its ``read_array`` reads the drift and
coupling by the rules of ``core._array``, entry by entry in Python numbers.

Since 0.10.3 a run carries what an earlier stage computed: a plan from
``make_plan`` keeps the split of its prepared state, the binary partition
is built from the good mask, and a spec keeps the arrays of its coupled
blocks.  ``rebuilt_paths`` puts back the path that recomputed them, from
``resplit_amplified_state``, ``checked_binary_partition`` and
``rebuilding_evolve``, so a run can be compared with it bit for bit.

Since 0.10.9 a histogram counts its shots from sorted draws;
``per_shot_histogram`` is the path it replaced, which places every shot
with the library's single-shot rule ``_select_block``.
"""

import cmath
import contextlib
import math
import numbers

import numpy as np
import pytest

from iqcontrol import (
    ControlPulse,
    Decomposition,
    DimensionMismatchError,
    GoodSubspace,
    HermiticityError,
    MeasurementPartition,
    NonFiniteError,
    NormalizationError,
    StateVector,
    UnitaryOperator,
    decompose,
)
from iqcontrol import algorithms, core, hydrogen, measurement
from iqcontrol.core import (
    COMMUTATOR_TOL,
    HERMITICITY_TOL,
    PROPAGATION_NORM_TOL,
    _apply_segments,
    _integer,
    _real,
)
from iqcontrol.amplification import (
    PRE_ROTATION_ANGLE,
    _check_phase,
    _coefficients,
    _explicit_count,
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
        raise DimensionMismatchError(f"good: expected {dim} levels, got {good.dim}")
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
    iterations = _explicit_count(iterations)
    g = _real(g, "g", 0.0, 1.0, exclusive=True)
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


def read_array(values, name: str, ndim: int, real: bool) -> np.ndarray:
    """``values`` as an ``ndim``-D complex array, or the error
    ``core._array`` raises: numpy sets the shape and the dtype, and each
    entry is read as a Python complex, an int past the float range as an
    infinity.  A non-finite entry prints as the array ``core._array``
    checks holds it: real unless the input is complex."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise DimensionMismatchError(f"{name}: expected a {ndim}-D sequence, got ragged nesting") from None
    if arr.dtype.kind not in "biufcO":
        raise TypeError(f"{name}: must be numbers, got dtype {arr.dtype}")
    entries = arr.ravel().tolist()
    for x in entries:
        if not isinstance(x, numbers.Number):
            raise TypeError(f"{name}: must be numbers, got {x!r}")
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name}: expected a {ndim}-D sequence, got shape {arr.shape}")
    is_complex = arr.dtype.kind == "c" or any(not isinstance(x, numbers.Real) for x in entries)
    if real and is_complex:
        shown = arr.dtype if arr.dtype.kind == "c" else np.dtype(complex)
        raise TypeError(f"{name}: must be real, got dtype {shown}")
    read = []
    for x in entries:
        try:
            z = complex(x)
        except OverflowError:
            z = complex(math.inf if x > 0 else -math.inf)
        if not cmath.isfinite(z):
            raise NonFiniteError(f"{name}: must be finite, got {z if is_complex else z.real!r}")
        read.append(z)
    return np.array(read, dtype=complex).reshape(arr.shape)


def system_spec_checks(dim: int, drift, coupling):
    """The drift and coupling a ``SystemSpec`` stores, and whether it warns
    that they commute, from its checks in complex arithmetic; or the error
    it raises.  A coupling that passes but is not exactly Hermitian is
    stored with its upper triangle, that triangle's conjugate below the
    diagonal and a real diagonal.  ``exact_drift`` is not covered."""
    drift = read_array(drift, "drift", 1, real=True).real
    coupling = read_array(coupling, "coupling", 2, real=False)
    if drift.size != dim:
        raise DimensionMismatchError(f"drift: expected {dim} levels, got {drift.size}")
    if coupling.shape != (dim, dim):
        raise DimensionMismatchError(
            f"coupling: shape {coupling.shape} does not match dimension {dim}"
        )
    off = np.abs(coupling - coupling.conj().T) > HERMITICITY_TOL
    if off.any():
        i, j = divmod(int(np.argmax(off)), dim)
        raise HermiticityError(
            f"coupling[{i}][{j}]: not Hermitian: value {coupling[i, j]} does not "
            f"match the conjugate of coupling[{j}][{i}] = {coupling[j, i]}"
        )
    # [A, B]_ij = (d_i - d_j) B_ij; a NaN magnitude, which only inf * 0
    # where B_ij = 0 gives, commutes
    with np.errstate(over="ignore", invalid="ignore"):
        commutator = np.abs(np.subtract.outer(drift, drift) * coupling)
    commutes = not (commutator > COMMUTATOR_TOL).any()
    if (coupling != coupling.conj().T).any():
        mirrored = coupling.copy()
        for i in range(dim):
            mirrored[i, i] = complex(coupling[i, i].real, 0.0)
            for j in range(i):
                mirrored[i, j] = coupling[j, i].conjugate()
        coupling = mirrored
    return drift, coupling, commutes


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


def rk4_lab_frame(spec, field, initial, duration, t0=0.0, step=2.5e-4) -> np.ndarray:
    """Fixed-step RK4 on the lab-frame equation i dC/dt = (A + u(t) B) C
    from t0 to t0 + duration, with the full N x N generator and a
    callable u.  Returns the raw amplitudes."""
    drift = np.diag(spec.drift).astype(complex)
    n = max(math.ceil(duration / step), 2)
    dt = duration / n

    def deriv(t, c):
        return -1j * ((drift + field(t) * spec.coupling) @ c)

    c = np.array(initial.amplitudes, dtype=complex)
    for k in range(n):
        t = t0 + k * dt
        k1 = deriv(t, c)
        k2 = deriv(t + dt / 2.0, c + dt / 2.0 * k1)
        k3 = deriv(t + dt / 2.0, c + dt / 2.0 * k2)
        k4 = deriv(t + dt, c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


def resplit_amplified_state(plan) -> StateVector:
    """``amplified_state`` that splits the prepared state again, as every
    plan was amplified before plans carried their split."""
    d = decompose(plan.prepared, plan.good)
    c_good, c_bad = _coefficients(d.g, d.b, plan.phi1, plan.phi2, plan.iterations)
    return StateVector(c_good * d.good_part + c_bad * d.bad_part)


def checked_binary_partition(good: GoodSubspace) -> MeasurementPartition:
    """The good-vs-rest partition through the generic constructor and its
    cover checks."""
    rest = tuple(sorted(set(range(1, good.dim + 1)) - good.indices))
    return MeasurementPartition((tuple(sorted(good.indices)), rest))


def per_shot_histogram(state, partition, seed, shots) -> list[int]:
    """``measurement_histogram`` as a ``bincount`` of every shot's block,
    placed by ``_select_block`` chunk by chunk, its guard included."""
    seed, shots = _integer(seed, "seed", 0), _integer(shots, "shots", 1)
    probs = measurement.born_probabilities(state, partition)
    counts = np.zeros(probs.size, dtype=np.int64)
    for u in measurement._shot_uniforms(seed, 0, shots, measurement._MAX_CHUNK):
        counts += np.bincount(measurement._select_block(probs, u), minlength=probs.size)
    return counts.tolist()


def rebuilding_evolve(spec, durations, amplitudes, c):
    """``core._evolve`` that builds each block's levels, coupling and drift
    on every call, from the components of the coupling's exact nonzeros,
    and evolves a block that holds ``c`` on a level whose column of B has
    a nonzero; each block's segments go through the library's one batch
    kernel, ``core._apply_segments``."""
    held = set((np.flatnonzero(spec.coupling.any(axis=0) & (c != 0)) + 1).tolist())
    labels = range(1, spec.dim + 1)
    evolved = []
    for component in core._components(labels, core._edges(spec, labels, 0.0)):
        if held.isdisjoint(component):
            continue
        levels = np.array(component) - 1
        coupling = spec.coupling[levels[:, None], levels]
        part = c[levels]
        if not coupling.imag.any():
            coupling = coupling.real
        part = _apply_segments(coupling, np.diag(spec.drift[levels]), durations, amplitudes, part)
        weight, reached = float(np.linalg.norm(c[levels])), float(np.linalg.norm(part))
        moved = abs(reached - weight)
        if moved > PROPAGATION_NORM_TOL:
            raise NormalizationError(f"propagation lost normalization: the norm moved by {moved:.3e}")
        if moved > 1e-12:
            part = part * (weight / reached)
        evolved.append((levels, part))
    return evolved


@contextlib.contextmanager
def rebuilt_paths():
    """Run the library on the paths above instead of the ones that reuse
    a plan's split, the good mask and a spec's block arrays, and count a
    histogram shot by shot."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "amplified_state", resplit_amplified_state)
        patch.setattr(algorithms, "measurement_histogram", per_shot_histogram)
        patch.setattr(MeasurementPartition, "binary", staticmethod(checked_binary_partition))
        patch.setattr(core, "_evolve", rebuilding_evolve)
        patch.setattr(hydrogen, "_evolve", rebuilding_evolve)
        yield
