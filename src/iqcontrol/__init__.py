"""iqcontrol: measurement-assisted control of finite-level quantum systems.

The package simulates a three-stage control scheme: amplify the weight of
a target eigenstate or subspace with amplitude-amplification operators,
collapse onto it with a projective measurement, and hand the collapsed
state to a caller-supplied coherent pulse.  A connectivity-graph analysis
of the coupling matrix decides which subspaces are worth targeting, and a
built-in 5-level hydrogen model provides two worked cases.

Basis labels are 1-based throughout the public API; internal units set
hbar = 1.
"""

__version__ = "0.8.1"

from .algorithms import RunReport, run_algorithm1, run_algorithm2
from .amplification import (
    DEFAULT_L_MAX,
    AmplificationPlan,
    Decomposition,
    GoodSubspace,
    amplified_state,
    closed_form_weights,
    decompose,
    make_plan,
    optimal_iterations,
    success_probability,
)
from .controllability import (
    VERDICT_CONTROLLABLE,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    ConnectivityGraph,
    ControllabilityConfig,
    ControllabilityReport,
    DegeneratePair,
    IrrationalWitness,
    SubspaceVerdict,
    assess,
    build_graph,
    check_degenerate_transitions,
    check_rational_ratios,
    connected_components,
)
from .core import (
    ControlPulse,
    StateVector,
    SystemSpec,
    UnitaryOperator,
    prepare_unitary,
    propagate,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    HermiticityError,
    MeasurementGuardError,
    NonFiniteError,
    NormalizationError,
    UnitarityError,
    ZeroOverlapError,
)
from .hydrogen import (
    CasePreset,
    HydrogenModel,
    case1_preset,
    case2_preset,
    hydrogen_spec,
    propagate_interaction_picture,
)
from .measurement import (
    MeasurementOutcome,
    MeasurementPartition,
    born_probabilities,
    measurement_histogram,
    sample_collapse,
)

__all__ = [
    "__version__",
    # core
    "StateVector", "SystemSpec", "UnitaryOperator", "ControlPulse",
    "prepare_unitary", "propagate",
    # controllability
    "ConnectivityGraph", "ControllabilityConfig", "ControllabilityReport",
    "DegeneratePair", "IrrationalWitness", "SubspaceVerdict",
    "build_graph", "connected_components", "check_degenerate_transitions",
    "check_rational_ratios", "assess",
    "VERDICT_CONTROLLABLE", "VERDICT_VIOLATED", "VERDICT_INCONCLUSIVE",
    # amplification
    "GoodSubspace", "Decomposition", "AmplificationPlan",
    "decompose", "closed_form_weights",
    "success_probability", "optimal_iterations", "make_plan",
    "amplified_state", "DEFAULT_L_MAX",
    # measurement
    "MeasurementPartition", "MeasurementOutcome",
    "born_probabilities", "sample_collapse", "measurement_histogram",
    # algorithms
    "RunReport", "run_algorithm1", "run_algorithm2",
    # hydrogen
    "HydrogenModel", "CasePreset", "hydrogen_spec",
    "propagate_interaction_picture", "case1_preset", "case2_preset",
    # errors
    "NormalizationError", "HermiticityError", "UnitarityError",
    "DimensionMismatchError", "ZeroOverlapError", "MeasurementGuardError",
    "ConfigError", "NonFiniteError",
]
