"""Connectivity-graph controllability analysis.

The coupling matrix defines a non-oriented graph on the basis states:
vertices are the drift eigenstates (1-based labels) and edges join pairs
directly coupled by an off-diagonal entry.  A system passes the
sufficient controllability criteria when the graph is connected, no two
coupled transitions share a frequency, and all transition-frequency
ratios are rational.  The same conditions restricted to one connected
component decide whether that component spans a controllable subspace.

Verdict vocabulary:

* ``controllable``     -- every criterion holds.
* ``violated``         -- a criterion fails in a way the analysis cannot excuse.
* ``inconclusive-relaxed-controllable`` -- the only failures are
  zero-frequency transitions (degenerate levels coupled inside one
  component).  The sufficient criteria do not cover this case, but such
  subspaces are routinely controllable in practice, so the verdict is
  downgraded rather than declared violated.

Rationality of a float ratio is undecidable; the check is a continued-
fraction heuristic (best rational approximation with bounded
denominator) unless the system carries exact rational eigenvalues, in
which case the condition is decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import SystemSpec

VERDICT_CONTROLLABLE = "controllable"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive-relaxed-controllable"

DEFAULT_EDGE_THRESHOLD = 1e-12
DEFAULT_DEGENERACY_TOL = 1e-9
DEFAULT_MAX_DENOMINATOR = 10**4
DEFAULT_RATIO_TOL = 1e-9

__all__ = [
    "ConnectivityGraph",
    "DegeneratePair",
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
                raise ValueError(f"edge ({i}, {j}) outside vertex range 1..{self.num_vertices}")


@dataclass(frozen=True)
class DegeneratePair:
    """Two coupled ordered transitions with (numerically) equal frequency.

    ``first`` and ``second`` are ordered index pairs (i, j) such that
    nu_first = lambda_i - lambda_j matches nu_second within the tolerance
    used for the check.  A pair of the form ((i, j), (j, i)) marks a
    single coupled transition between degenerate levels.
    ``zero_frequency`` records whether both matched frequencies vanish
    (transitions between degenerate levels), the one failure mode the
    subspace verdict treats as inconclusive rather than violated.
    """

    first: tuple[int, int]
    second: tuple[int, int]
    nu_first: float
    nu_second: float
    zero_frequency: bool

    def to_dict(self) -> dict:
        return {
            "first": list(self.first),
            "second": list(self.second),
            "nu_first": self.nu_first,
            "nu_second": self.nu_second,
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
    component: tuple[int, ...]
    verdict: str
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "component": list(self.component),
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ControllabilityConfig:
    """Tolerances of the analysis; each error message starts with its field's name."""

    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
    max_denominator: int = DEFAULT_MAX_DENOMINATOR
    ratio_tol: float = DEFAULT_RATIO_TOL

    def __post_init__(self):
        for name in ("edge_threshold", "degeneracy_tol", "ratio_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name}: must be finite and >= 0, got {value!r}")
        if not self.max_denominator >= 1:
            raise ValueError(f"max_denominator: must be >= 1, got {self.max_denominator!r}")


@dataclass(frozen=True)
class ControllabilityReport:
    graph: ConnectivityGraph
    components: tuple[tuple[int, ...], ...]
    degenerate_pairs: tuple[DegeneratePair, ...]
    irrational_witnesses: tuple[IrrationalWitness, ...]
    global_verdict: str
    subspace_verdicts: tuple[SubspaceVerdict, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "num_vertices": self.graph.num_vertices,
            "edges": [list(e) for e in sorted(self.graph.edges)],
            "components": [list(c) for c in self.components],
            "degenerate_pairs": [p.to_dict() for p in self.degenerate_pairs],
            "irrational_witnesses": [w.to_dict() for w in self.irrational_witnesses],
            "global_verdict": self.global_verdict,
            "subspace_verdicts": [v.to_dict() for v in self.subspace_verdicts],
            "notes": list(self.notes),
        }


def build_graph(spec: SystemSpec, edge_threshold: float = DEFAULT_EDGE_THRESHOLD) -> ConnectivityGraph:
    """Edges are exactly the pairs i < j with |B_ij| > edge_threshold."""
    if edge_threshold < 0:
        raise ValueError(f"edge threshold must be nonnegative, got {edge_threshold}")
    edges = set()
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            if abs(spec.coupling[i, j]) > edge_threshold:
                edges.add((i + 1, j + 1))
    return ConnectivityGraph(spec.dim, frozenset(edges))


def connected_components(graph: ConnectivityGraph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, graph.num_vertices + 1)}
    for i, j in graph.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen: set[int] = set()
    components = []
    for start in range(1, graph.num_vertices + 1):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        components.append(tuple(sorted(comp)))
    return sorted(components, key=lambda c: c[0])


def _coupled_edges(
    spec: SystemSpec, vertex_set: Iterable[int], edge_threshold: float
) -> list[tuple[int, int]]:
    vs = sorted(set(vertex_set))
    edges = []
    for a, i in enumerate(vs):
        for j in vs[a + 1:]:
            if abs(spec.coupling[i - 1, j - 1]) > edge_threshold:
                edges.append((i, j))
    return edges


def _nu(spec: SystemSpec, pair: tuple[int, int]):
    if spec.exact_drift is not None:
        return spec.exact_drift[pair[0] - 1] - spec.exact_drift[pair[1] - 1]
    return spec.transition_frequency(*pair)


def check_degenerate_transitions(
    spec: SystemSpec,
    vertex_set: Iterable[int],
    tol: float = DEFAULT_DEGENERACY_TOL,
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD,
) -> list[DegeneratePair]:
    """Ordered transition pairs inside ``vertex_set`` sharing a frequency.

    Coupled ordered pairs (i, j) and (a, b) violate the criterion when
    |nu_ij - nu_ab| <= tol.  Each violation is reported once, with the
    second pair oriented so the reported frequencies actually match; the
    orientation (j, i) of a single edge flags a coupled transition
    between degenerate levels.  With exact rational eigenvalues the
    comparison is exact and ``tol`` is ignored.
    """
    edges = _coupled_edges(spec, vertex_set, edge_threshold)
    exact = spec.exact_drift is not None

    def matches(x, y) -> bool:
        if exact:
            return x == y
        return abs(x - y) <= tol

    def pair(p1, p2, nu1, nu2) -> DegeneratePair:
        zero = (nu1 == 0 and nu2 == 0) if exact else (abs(nu1) <= tol and abs(nu2) <= tol)
        return DegeneratePair(p1, p2, float(nu1), float(nu2), zero)

    out: list[DegeneratePair] = []
    for k, e1 in enumerate(edges):
        nu1 = _nu(spec, e1)
        # a transition between degenerate levels matches its own reverse
        if matches(nu1, -nu1):
            out.append(pair(e1, (e1[1], e1[0]), nu1, -nu1))
        for e2 in edges[k + 1:]:
            nu2 = _nu(spec, e2)
            if matches(nu1, nu2):
                out.append(pair(e1, e2, nu1, nu2))
            elif matches(nu1, -nu2):
                out.append(pair(e1, (e2[1], e2[0]), nu1, -nu2))
    return out


def check_rational_ratios(
    spec: SystemSpec,
    vertex_set: Iterable[int],
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    tol: float = DEFAULT_RATIO_TOL,
) -> list[IrrationalWitness]:
    """Frequency ratios with no rational approximation within tolerance.

    For every pair of level pairs inside ``vertex_set`` with a nonzero
    denominator frequency, the ratio nu_ab / nu_ij is approximated by the
    best fraction with denominator <= max_denominator; ratios missing it
    by more than ``tol`` are returned.  Exact rational eigenvalues make
    every ratio rational, so the result is empty by construction.
    """
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    if spec.exact_drift is not None:
        return []
    vs = sorted(set(vertex_set))
    pairs = [(i, j) for a, i in enumerate(vs) for j in vs[a + 1:]]
    out: list[IrrationalWitness] = []
    for num_pair in pairs:
        nu_num = spec.transition_frequency(*num_pair)
        if abs(nu_num) <= tol:
            continue  # ratio 0 is rational
        for den_pair in pairs:
            if den_pair == num_pair:
                continue
            nu_den = spec.transition_frequency(*den_pair)
            if abs(nu_den) <= tol:
                continue
            ratio = nu_num / nu_den
            best = Fraction(ratio).limit_denominator(max_denominator)
            err = abs(ratio - float(best))
            if err > tol:
                out.append(
                    IrrationalWitness(
                        num_pair, den_pair, ratio, best.numerator, best.denominator, err
                    )
                )
    return out


def _verdict_for(
    degenerate: list[DegeneratePair],
    irrational: list[IrrationalWitness],
    connected: bool,
) -> tuple[str, list[str]]:
    notes: list[str] = []
    if not connected:
        return VERDICT_VIOLATED, ["coupling graph is not connected"]
    if irrational:
        return VERDICT_VIOLATED, [f"{len(irrational)} frequency ratio(s) failed the rationality check"]
    if degenerate:
        if all(p.zero_frequency for p in degenerate):
            notes.append(
                "all frequency collisions are zero-frequency transitions between "
                "degenerate levels; the sufficient criteria do not decide this case"
            )
            return VERDICT_INCONCLUSIVE, notes
        return VERDICT_VIOLATED, [f"{len(degenerate)} degenerate transition pair(s)"]
    return VERDICT_CONTROLLABLE, notes


def assess(spec: SystemSpec, config: ControllabilityConfig = ControllabilityConfig()) -> ControllabilityReport:
    """Full controllability report: graph, components, and verdicts.

    The global verdict applies the sufficient criteria to the whole
    system (connected graph, no shared transition frequencies, rational
    frequency ratios).  Each connected component additionally receives
    its own verdict with the frequency conditions restricted to the
    component.  Single-vertex components are trivially controllable
    within their one-dimensional span and are marked as such.
    """
    graph = build_graph(spec, config.edge_threshold)
    components = connected_components(graph)
    all_vertices = range(1, spec.dim + 1)
    degenerate = check_degenerate_transitions(
        spec, all_vertices, config.degeneracy_tol, config.edge_threshold
    )
    irrational = check_rational_ratios(
        spec, all_vertices, config.max_denominator, config.ratio_tol
    )
    global_verdict, notes = _verdict_for(degenerate, irrational, len(components) == 1)

    subspace_verdicts = []
    for comp in components:
        if len(comp) == 1:
            subspace_verdicts.append(
                SubspaceVerdict(
                    comp, VERDICT_CONTROLLABLE, ("trivial single-state subspace",)
                )
            )
            continue
        comp_degenerate = check_degenerate_transitions(
            spec, comp, config.degeneracy_tol, config.edge_threshold
        )
        comp_irrational = check_rational_ratios(
            spec, comp, config.max_denominator, config.ratio_tol
        )
        verdict, comp_notes = _verdict_for(comp_degenerate, comp_irrational, True)
        subspace_verdicts.append(SubspaceVerdict(comp, verdict, tuple(comp_notes)))

    return ControllabilityReport(
        graph=graph,
        components=tuple(components),
        degenerate_pairs=tuple(degenerate),
        irrational_witnesses=tuple(irrational),
        global_verdict=global_verdict,
        subspace_verdicts=tuple(subspace_verdicts),
        notes=tuple(notes),
    )
