"""Explicit reference operators for amplitude amplification.

The library amplifies with a closed-form 2x2 kernel and builds none of
these; the tests compare its amplitudes and weights against them.  The
explicit Q itself is ``iqcontrol.amplification.amplification_operator``;
the tests check it against the product of the phase oracles below.
"""

import cmath
import math

import numpy as np

from iqcontrol import Decomposition, DimensionMismatchError, GoodSubspace, UnitaryOperator
from iqcontrol.amplification import PRE_ROTATION_ANGLE, _check_phase, _coefficients, _split


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
