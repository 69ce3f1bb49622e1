"""Connectivity-graph controllability analysis.

The coupling matrix defines a non-oriented graph on the basis states:
vertices are the drift eigenstates (1-based labels) and edges join pairs
directly coupled by an off-diagonal entry.  A system passes the
sufficient controllability criteria when the graph is connected, no two
coupled transitions share a frequency, and all transition-frequency
ratios are rational.  The same conditions restricted to one connected
component decide whether that component spans a controllable subspace.
One scan of the coupling and one union-find give each component its edges.

Verdict vocabulary:

* ``controllable``     -- every criterion holds.
* ``violated``         -- a criterion fails in a way the analysis cannot excuse.
* ``inconclusive-relaxed-controllable`` -- the only failures are
  zero-frequency transitions (degenerate levels coupled inside one
  component).  The sufficient criteria do not cover this case, but such
  subspaces are routinely controllable in practice, so the verdict is
  downgraded rather than declared violated.

Each component is analysed once.  Rationality of a float ratio is
undecidable; the check compares every level's offset from the lowest
level with the smallest and the largest offset by a continued-fraction
heuristic (best rational approximation with bounded denominator) unless
the system carries exact rational eigenvalues, in which case the
condition is decided exactly.  Levels are chosen by eigenvalue, so the
outcome does not depend on how the levels are labelled.  Two coupled
transitions share a frequency in some orientation exactly when their
|nu| lie within the tolerance, so collisions are reported as the runs of
the sorted |nu| that lie within it of each other.  The public checks read
their vertex labels as integers in 1..dim and their tolerances by the
rule of ``ControllabilityConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import SystemSpec, _components, _edges, _integer, _real, _shown

VERDICT_CONTROLLABLE = "controllable"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive-relaxed-controllable"

DEFAULT_EDGE_THRESHOLD = 1e-12
DEFAULT_DEGENERACY_TOL = 1e-9
DEFAULT_MAX_DENOMINATOR = 10**4
DEFAULT_RATIO_TOL = 1e-9

__all__ = [
    "ConnectivityGraph",
    "FrequencyCollision",
    "IrrationalWitness",
    "SubspaceVerdict",
    "ControllabilityReport",
    "ControllabilityConfig",
    "build_graph",
    "connected_components",
    "check_degenerate_transitions",
    "check_rational_ratios",
    "assess",
    "VERDICT_CONTROLLABLE",
    "VERDICT_VIOLATED",
    "VERDICT_INCONCLUSIVE",
]


@dataclass(frozen=True)
class ConnectivityGraph:
    """Vertices 1..N and unordered coupled pairs (i, j) with i < j."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (1 <= i < j <= self.num_vertices):
                raise ValueError(
                    f"edge ({_shown(i)}, {_shown(j)}) outside vertex range 1..{_shown(self.num_vertices)}"
                )


@dataclass(frozen=True)
class FrequencyCollision:
    """A class of coupled transitions (i, j), each with nu_ij >= 0, in
    order of nu and each within the tolerance of the one before, so the
    span ``nu_max - nu_min`` can exceed it; or one transition with |2 nu|
    within it, which matches its own reverse.  ``zero_frequency``: every
    nu is within the tolerance of 0 (degenerate levels), the one failure
    the subspace verdict treats as inconclusive rather than violated."""

    transitions: tuple[tuple[int, int], ...]
    nu_min: float
    nu_max: float
    zero_frequency: bool

    def to_dict(self) -> dict:
        return {
            "transitions": [list(t) for t in self.transitions],
            "nu_min": self.nu_min,
            "nu_max": self.nu_max,
            "zero_frequency": self.zero_frequency,
        }


@dataclass(frozen=True)
class IrrationalWitness:
    """A frequency ratio with no close bounded-denominator rational."""

    numerator_pair: tuple[int, int]
    denominator_pair: tuple[int, int]
    ratio: float
    best_numerator: int
    best_denominator: int
    error: float

    def to_dict(self) -> dict:
        return {
            "numerator_pair": list(self.numerator_pair),
            "denominator_pair": list(self.denominator_pair),
            "ratio": self.ratio,
            "best_numerator": self.best_numerator,
            "best_denominator": self.best_denominator,
            "error": self.error,
        }


@dataclass(frozen=True)
class SubspaceVerdict:
    """A component's verdict; ``None`` means the labels are not a connected
    component of the coupling graph."""

    component: tuple[int, ...]
    verdict: Optional[str]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "component": list(self.component),
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ControllabilityConfig:
    """Tolerances of the analysis: finite real numbers >= 0, stored as
    floats, and an integer ``max_denominator`` >= 1.  Each error message
    starts with its field's name."""

    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
    max_denominator: int = DEFAULT_MAX_DENOMINATOR
    ratio_tol: float = DEFAULT_RATIO_TOL

    def __post_init__(self):
        for name in ("edge_threshold", "degeneracy_tol", "ratio_tol"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0))
        object.__setattr__(self, "max_denominator", _integer(self.max_denominator, "max_denominator", 1))


def _labels(spec: SystemSpec, vertex_set: Iterable[int]) -> list[int]:
    """The distinct labels of ``vertex_set``, sorted: integers in 1..dim."""
    return sorted({_integer(v, "vertex_set label", 1, spec.dim) for v in vertex_set})


@dataclass(frozen=True)
class ControllabilityReport:
    graph: ConnectivityGraph
    components: tuple[tuple[int, ...], ...]
    frequency_collisions: tuple[FrequencyCollision, ...]
    irrational_witnesses: tuple[IrrationalWitness, ...]
    global_verdict: str
    subspace_verdicts: tuple[SubspaceVerdict, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "num_vertices": self.graph.num_vertices,
            "edges": [list(e) for e in sorted(self.graph.edges)],
            "components": [list(c) for c in self.components],
            "frequency_collisions": [c.to_dict() for c in self.frequency_collisions],
            "irrational_witnesses": [w.to_dict() for w in self.irrational_witnesses],
            "global_verdict": self.global_verdict,
            "subspace_verdicts": [v.to_dict() for v in self.subspace_verdicts],
            "notes": list(self.notes),
        }


def build_graph(spec: SystemSpec, edge_threshold: float = DEFAULT_EDGE_THRESHOLD) -> ConnectivityGraph:
    """Edges are exactly the pairs i < j with |B_ij| > edge_threshold."""
    edge_threshold = _real(edge_threshold, "edge_threshold", 0.0)
    return ConnectivityGraph(spec.dim, frozenset(_edges(spec, range(1, spec.dim + 1), edge_threshold)))


def connected_components(graph: ConnectivityGraph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    return list(_components(range(1, graph.num_vertices + 1), graph.edges))


def _frequencies(spec: SystemSpec, pairs: list[tuple[int, int]]) -> list:
    """nu_ij = lambda_i - lambda_j per pair: Fractions when the drift is exact."""
    if spec.exact_drift is not None:
        exact = spec.exact_drift
        return [exact[i - 1] - exact[j - 1] for i, j in pairs]
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T - 1
    return (spec.drift[i] - spec.drift[j]).tolist()


def check_degenerate_transitions(
    spec: SystemSpec,
    vertex_set: Iterable[int],
    tol: float = DEFAULT_DEGENERACY_TOL,
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD,
) -> list[FrequencyCollision]:
    """Classes of coupled transitions inside ``vertex_set`` sharing a frequency.

    Transitions (i, j) and (a, b) with |B| > ``edge_threshold`` collide
    when |nu_ij - nu_ab| <= tol in some orientation, and the collisions
    chain into classes, in order of |nu|.  A transition with
    |2 nu_ij| <= tol, between degenerate levels, is a class of its own
    when nothing else collides with it.  With exact rational
    eigenvalues the comparison is exact and ``tol`` is ignored.  The
    labels must be integers in 1..dim and the tolerances finite and >= 0.
    """
    tol = _real(tol, "tol", 0.0)
    edge_threshold = _real(edge_threshold, "edge_threshold", 0.0)
    return _collisions(spec, _edges(spec, _labels(spec, vertex_set), edge_threshold), tol)


def _collisions(spec: SystemSpec, edges: list[tuple[int, int]], tol: float) -> list[FrequencyCollision]:
    """The collision classes among the coupled ``edges``.

    Two edges match in some orientation exactly when
    ||nu_k| - |nu_l|| <= tol, in floating point too, as negation and
    ``abs`` are exact; an edge matches its own reverse when |2 nu| <= tol.
    So the matches chain into the maximal runs of the sorted |nu| whose
    neighbours lie within ``tol``, and no two runs match: O(E log E), with
    O(E) output.  Exact eigenvalues compare with tolerance 0, equality.
    """
    if spec.exact_drift is not None:
        tol = 0
    nus = _frequencies(spec, edges)
    mags = [abs(nu) for nu in nus]
    order = sorted(range(len(nus)), key=mags.__getitem__)
    out: list[FrequencyCollision] = []
    start = 0
    for end in range(1, len(order) + 1):
        if end < len(order) and mags[order[end]] - mags[order[end - 1]] <= tol:
            continue
        run, start = order[start:end], end
        hi = mags[run[-1]]
        if len(run) > 1 or 2 * hi <= tol:
            transitions = tuple(edges[k] if nus[k] >= 0 else edges[k][::-1] for k in run)
            out.append(FrequencyCollision(transitions, float(mags[run[0]]), float(hi), hi <= tol))
    return out


def check_rational_ratios(
    spec: SystemSpec,
    vertex_set: Iterable[int],
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    tol: float = DEFAULT_RATIO_TOL,
) -> list[IrrationalWitness]:
    """Level offsets inside ``vertex_set`` with no rational ratio to a reference.

    The reference level ``ref`` has the lowest eigenvalue in the set (ties
    go to the smaller label), the denominator nu_ref,j is the smallest
    offset with |nu| > ``tol`` and nu_ref,t the largest (ties by label).
    Every transition-frequency ratio in the set is rational exactly when
    each nu_ref,i is a rational multiple of nu_ref,j.  Each other level
    with |nu_ref,i| > ``tol`` is checked by the best fraction with
    denominator <= max_denominator to nu_ref,i / nu_ref,j, and once more
    to nu_ref,i / nu_ref,t when that passes; a miss by more than ``tol``
    is reported, at most once per level.  That is at most 2(|set| - 2)
    checks and |set| - 2 witnesses, chosen by eigenvalue, so relabeling
    the levels only renames them.  Exact rational eigenvalues make every
    ratio rational, so the result is empty by construction.  The labels
    must be integers in 1..dim, ``max_denominator`` an integer >= 1 and
    ``tol`` finite and >= 0.
    """
    max_denominator = _integer(max_denominator, "max_denominator", 1)
    tol = _real(tol, "tol", 0.0)
    return _irrational_witnesses(spec, _labels(spec, vertex_set), max_denominator, tol)


def _irrational_witnesses(
    spec: SystemSpec, labels: list[int], max_denominator: int, tol: float
) -> list[IrrationalWitness]:
    """``check_rational_ratios`` on sorted distinct ``labels``."""
    if spec.exact_drift is not None or len(labels) < 3:
        return []
    ref = min(labels, key=lambda v: (spec.drift[v - 1], v))
    pairs = [(ref, i) for i in labels if i != ref]
    # levels within tol of the reference level have ratio 0, which is rational
    offsets = sorted(
        (abs(nu), p[1], p, nu) for p, nu in zip(pairs, _frequencies(spec, pairs)) if abs(nu) > tol
    )
    if not offsets:
        return []
    _, _, den_pair, nu_den = offsets[0]
    _, _, top_pair, nu_top = offsets[-1]
    out: list[IrrationalWitness] = []
    for _, _, num_pair, nu_num in offsets[1:]:
        for base_pair, nu_base in ((den_pair, nu_den), (top_pair, nu_top)):
            if base_pair == num_pair:  # the largest offset is not checked against itself
                break
            ratio = nu_num / nu_base
            p, q = _best_fraction(ratio, max_denominator)
            err = abs(ratio - p / q)
            if err > tol:
                out.append(IrrationalWitness(num_pair, base_pair, ratio, p, q, err))
                break
    return out


def _best_fraction(ratio: float, max_denominator: int) -> tuple[int, int]:
    """The numerator and denominator of
    ``Fraction(ratio).limit_denominator(max_denominator)``, in ints.

    The same continued-fraction convergents, then the closer of the last
    convergent p1/q1 and the semiconvergent pb/qb to ratio = n/d, compared
    by exact cross-multiplication; a tie goes to the convergent.  A NaN or
    an infinity raises in ``float.as_integer_ratio`` as in ``Fraction``.
    """
    n, d = ratio.as_integer_ratio()
    if d <= max_denominator:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (max_denominator - q0) // q1
    pb, qb = p0 + k * p1, q0 + k * q1
    if abs(p1 * d - n * q1) * qb <= abs(pb * d - n * qb) * q1:
        return p1, q1
    return pb, qb


def _verdict_for(
    collisions: list[FrequencyCollision],
    irrational: list[IrrationalWitness],
    connected: bool,
) -> tuple[str, list[str]]:
    if not connected:
        return VERDICT_VIOLATED, ["coupling graph is not connected"]
    if irrational:
        return VERDICT_VIOLATED, [f"{len(irrational)} frequency ratio(s) failed the rationality check"]
    if collisions:
        if all(c.zero_frequency for c in collisions):
            return VERDICT_INCONCLUSIVE, [
                "all frequency collisions are zero-frequency transitions between "
                "degenerate levels; the sufficient criteria do not decide this case"
            ]
        return VERDICT_VIOLATED, [f"{len(collisions)} frequency collision(s)"]
    return VERDICT_CONTROLLABLE, []


def _component_verdict(
    spec: SystemSpec,
    component: tuple[int, ...],
    edges: list[tuple[int, int]],
    config: ControllabilityConfig,
) -> tuple[SubspaceVerdict, list[FrequencyCollision], list[IrrationalWitness]]:
    """One connected component's verdict and the failures behind it.

    A single-vertex component is trivially controllable within its
    one-dimensional span; any other is checked for shared frequencies
    among its coupled ``edges`` and for rational frequency ratios.
    ``component`` holds sorted distinct labels and ``config`` is checked
    on construction, so nothing is validated again per component.
    """
    if len(component) == 1:
        trivial = SubspaceVerdict(component, VERDICT_CONTROLLABLE, ("trivial single-state subspace",))
        return trivial, [], []
    collisions = _collisions(spec, edges, config.degeneracy_tol)
    irrational = _irrational_witnesses(spec, component, config.max_denominator, config.ratio_tol)
    verdict, notes = _verdict_for(collisions, irrational, True)
    return SubspaceVerdict(component, verdict, tuple(notes)), collisions, irrational


def assess(spec: SystemSpec, config: ControllabilityConfig = ControllabilityConfig()) -> ControllabilityReport:
    """Full controllability report: graph, components, and verdicts.

    Each connected component is analysed once, on its own edges: no
    shared transition frequencies and rational frequency ratios.
    Single-vertex components are trivially controllable within their
    one-dimensional span and are marked as such.  The report's
    ``frequency_collisions`` and ``irrational_witnesses`` are the
    components' lists concatenated in component order, and the global
    verdict is the sufficient criteria for the whole system: a connected
    graph and the verdict of its one component.
    """
    labels = range(1, spec.dim + 1)
    edges = _edges(spec, labels, config.edge_threshold)
    components = _components(labels, edges)
    collisions: list[FrequencyCollision] = []
    irrational: list[IrrationalWitness] = []
    subspace_verdicts = []
    for comp, comp_edges in components.items():
        verdict, comp_collisions, comp_irrational = _component_verdict(spec, comp, comp_edges, config)
        subspace_verdicts.append(verdict)
        collisions += comp_collisions
        irrational += comp_irrational
    global_verdict, notes = _verdict_for(collisions, irrational, len(components) == 1)

    return ControllabilityReport(
        graph=ConnectivityGraph(spec.dim, frozenset(edges)),
        components=tuple(components),
        frequency_collisions=tuple(collisions),
        irrational_witnesses=tuple(irrational),
        global_verdict=global_verdict,
        subspace_verdicts=tuple(subspace_verdicts),
        notes=tuple(notes),
    )
