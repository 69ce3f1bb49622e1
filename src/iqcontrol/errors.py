"""Exception types shared across the package."""

__all__ = [
    "NormalizationError", "NonFiniteError", "HermiticityError", "UnitarityError",
    "DimensionMismatchError", "ZeroOverlapError", "MeasurementGuardError", "ConfigError",
]


class NormalizationError(ValueError):
    """A state vector does not have unit norm within tolerance."""


class NonFiniteError(ValueError):
    """An input array holds NaN or an infinity."""


class HermiticityError(ValueError):
    """A matrix that must be Hermitian is not, within tolerance."""


class UnitarityError(ValueError):
    """A matrix that must be unitary is not, within tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class ZeroOverlapError(ValueError):
    """The initial state has no weight on the target subspace.

    Amplification needs a nonzero starting success probability.  The
    standard remedy is to mix a little amplitude into the target subspace
    with a small rotation first; plan construction exposes this via the
    ``pre_rotation`` flag.
    """


class MeasurementGuardError(RuntimeError):
    """A sampled outcome landed on a numerically impossible branch."""


class ConfigError(ValueError):
    """A run configuration document is malformed.

    The message carries the JSON path of the offending field.
    """
