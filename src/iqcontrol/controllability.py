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

Each component is analysed once.  Rationality of a float ratio is
undecidable; the check compares every level's offset from one reference
level with one reference frequency by a continued-fraction heuristic
(best rational approximation with bounded denominator) unless the system
carries exact rational eigenvalues, in which case the condition is
decided exactly.  Two coupled transitions share a frequency in some
orientation exactly when their |nu| lie within the tolerance, so
collisions are found by one sweep over the sorted |nu|.  The public
checks read their vertex labels as integers in 1..dim and their
tolerances by the rule of ``ControllabilityConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import SystemSpec, _integer, _real

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
    """Tolerances of the analysis: finite real numbers >= 0, and an integer
    ``max_denominator`` >= 1.  Each error message starts with its field's name."""

    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
    max_denominator: int = DEFAULT_MAX_DENOMINATOR
    ratio_tol: float = DEFAULT_RATIO_TOL

    def __post_init__(self):
        for name in ("edge_threshold", "degeneracy_tol", "ratio_tol"):
            _check_tolerance(getattr(self, name), name)
        object.__setattr__(self, "max_denominator", _max_denominator(self.max_denominator))


def _check_tolerance(value, name: str) -> None:
    """Raise unless ``value`` is a real number (no bool), finite and >= 0;
    the error names ``name``.  A NaN would fail every comparison, so a
    check would pass vacuously."""
    if not (math.isfinite(_real(value, name)) and value >= 0):
        raise ValueError(f"{name}: must be finite and >= 0, got {value!r}")


def _max_denominator(value) -> int:
    """``value`` as an int >= 1; the error names ``max_denominator``."""
    value = _integer(value, "max_denominator")
    if value < 1:
        raise ValueError(f"max_denominator: must be >= 1, got {value!r}")
    return value


def _labels(spec: SystemSpec, vertex_set: Iterable[int]) -> list[int]:
    """The distinct labels of ``vertex_set``, sorted: integers in 1..dim."""
    labels = sorted({_integer(v, "vertex_set label") for v in vertex_set})
    for v in labels[:1] + labels[-1:]:
        if not 1 <= v <= spec.dim:
            raise ValueError(f"vertex_set: label {v} outside 1..{spec.dim}")
    return labels


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
    _check_tolerance(edge_threshold, "edge_threshold")
    rows, cols = np.nonzero(np.abs(spec.coupling) > edge_threshold)
    upper = rows < cols
    return ConnectivityGraph(
        spec.dim, frozenset(zip((rows[upper] + 1).tolist(), (cols[upper] + 1).tolist()))
    )


def connected_components(graph: ConnectivityGraph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member.

    Union-find with path halving over the edges, then one pass over the
    labels in order, which lists each component sorted and the components
    by smallest member.
    """
    root = list(range(graph.num_vertices + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in graph.edges:
        root[find(i)] = find(j)
    members: dict[int, list[int]] = {}
    for v in range(1, graph.num_vertices + 1):
        members.setdefault(find(v), []).append(v)
    return [tuple(c) for c in members.values()]


def _coupled_edges(graph: ConnectivityGraph, vertex_set: Iterable[int]) -> list[tuple[int, int]]:
    """The graph's edges with both ends in ``vertex_set``, sorted."""
    vs = set(vertex_set)
    return sorted(e for e in graph.edges if e[0] in vs and e[1] in vs)


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
) -> list[DegeneratePair]:
    """Ordered transition pairs inside ``vertex_set`` sharing a frequency.

    Coupled ordered pairs (i, j) and (a, b) violate the criterion when
    |nu_ij - nu_ab| <= tol, the edges being those of
    ``build_graph(spec, edge_threshold)``.  Each violation is reported
    once, with the second pair oriented so the reported frequencies
    actually match; the orientation (j, i) of a single edge flags a
    coupled transition between degenerate levels.  With exact rational
    eigenvalues the comparison is exact and ``tol`` is ignored.  The
    labels must be integers in 1..dim and the tolerances finite and >= 0.
    """
    _check_tolerance(tol, "tol")
    edges = _coupled_edges(build_graph(spec, edge_threshold), _labels(spec, vertex_set))
    return _degenerate_pairs(spec, edges, tol)


def _degenerate_pairs(spec: SystemSpec, edges: list[tuple[int, int]], tol: float) -> list[DegeneratePair]:
    """The collisions among the sorted coupled ``edges``.

    Two edges match in some orientation exactly when
    ||nu_k| - |nu_l|| <= tol, in floating point too, as negation and
    ``abs`` are exact; an edge matches its own reverse when |2 nu| <= tol.
    So one sort of the E values |nu| and one walk of each window of
    values within ``tol`` of its first find every hit in
    O(E log E + output).  The hits are listed by edge pair (k, l),
    k <= l in sorted edge order, with k = l for a self-reverse match.
    Exact eigenvalues compare with tolerance 0, which is equality.
    """
    if spec.exact_drift is not None:
        tol = 0
    nus = _frequencies(spec, edges)
    mags = [abs(nu) for nu in nus]
    order = sorted(range(len(nus)), key=mags.__getitem__)
    hits = [(k, k, -1) for k, nu in enumerate(nus) if abs(2 * nu) <= tol]
    for a, k in enumerate(order):
        # the gap only grows along the sorted order, so a window stops at its first miss
        b = a + 1
        while b < len(order) and mags[order[b]] - mags[k] <= tol:
            l = order[b]
            sign = 1 if abs(nus[k] - nus[l]) <= tol else -1
            hits.append((k, l, sign) if k < l else (l, k, sign))
            b += 1
    out: list[DegeneratePair] = []
    for k, l, sign in sorted(hits):
        (i, j), nu1, nu2 = edges[l], nus[k], sign * nus[l]
        zero = abs(nu1) <= tol and abs(nu2) <= tol
        out.append(DegeneratePair(edges[k], (i, j) if sign > 0 else (j, i), float(nu1), float(nu2), zero))
    return out


def check_rational_ratios(
    spec: SystemSpec,
    vertex_set: Iterable[int],
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    tol: float = DEFAULT_RATIO_TOL,
) -> list[IrrationalWitness]:
    """Level offsets inside ``vertex_set`` with no rational ratio to a reference.

    The reference level ``ref`` is the smallest label in the set and the
    reference frequency nu_ref,j the first nu_ref,i in label order with
    |nu| > ``tol``.  Every transition-frequency ratio in the set is
    rational exactly when each nu_ref,i is a rational multiple of nu_ref,j,
    so each other level with |nu_ref,i| > ``tol`` gets one check: the best
    fraction with denominator <= max_denominator to nu_ref,i / nu_ref,j,
    reported when it misses by more than ``tol``.  That is at most
    |set| - 2 checks and witnesses.  Exact rational eigenvalues make
    every ratio rational, so the result is empty by construction.  The
    labels must be integers in 1..dim, ``max_denominator`` an integer
    >= 1 and ``tol`` finite and >= 0.
    """
    max_denominator = _max_denominator(max_denominator)
    _check_tolerance(tol, "tol")
    return _irrational_witnesses(spec, _labels(spec, vertex_set), max_denominator, tol)


def _irrational_witnesses(
    spec: SystemSpec, labels: list[int], max_denominator: int, tol: float
) -> list[IrrationalWitness]:
    """``check_rational_ratios`` on sorted distinct ``labels``."""
    if spec.exact_drift is not None:
        return []
    pairs = [(labels[0], i) for i in labels[1:]]
    # levels within tol of the reference level have ratio 0, which is rational
    offsets = [(p, nu) for p, nu in zip(pairs, _frequencies(spec, pairs)) if abs(nu) > tol]
    if not offsets:
        return []
    den_pair, nu_den = offsets[0]
    out: list[IrrationalWitness] = []
    for num_pair, nu_num in offsets[1:]:
        ratio = nu_num / nu_den
        p, q = _best_fraction(ratio, max_denominator)
        err = abs(ratio - p / q)
        if err > tol:
            out.append(IrrationalWitness(num_pair, den_pair, ratio, p, q, err))
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


def _component_verdict(
    spec: SystemSpec,
    graph: ConnectivityGraph,
    component: tuple[int, ...],
    config: ControllabilityConfig,
) -> tuple[SubspaceVerdict, list[DegeneratePair], list[IrrationalWitness]]:
    """One connected component's verdict and the failures behind it.

    A single-vertex component is trivially controllable within its
    one-dimensional span; any other is checked for shared transition
    frequencies and rational frequency ratios, restricted to it.
    ``component`` holds sorted distinct labels and ``config`` is checked
    on construction, so nothing is validated again per component.
    """
    if len(component) == 1:
        trivial = SubspaceVerdict(component, VERDICT_CONTROLLABLE, ("trivial single-state subspace",))
        return trivial, [], []
    degenerate = _degenerate_pairs(spec, _coupled_edges(graph, component), config.degeneracy_tol)
    irrational = _irrational_witnesses(spec, component, config.max_denominator, config.ratio_tol)
    verdict, notes = _verdict_for(degenerate, irrational, True)
    return SubspaceVerdict(component, verdict, tuple(notes)), degenerate, irrational


def assess(spec: SystemSpec, config: ControllabilityConfig = ControllabilityConfig()) -> ControllabilityReport:
    """Full controllability report: graph, components, and verdicts.

    Each connected component is analysed once: no shared transition
    frequencies and rational frequency ratios, restricted to the
    component.  Single-vertex components are trivially controllable
    within their one-dimensional span and are marked as such.  The
    report's ``degenerate_pairs`` and ``irrational_witnesses`` are the
    components' lists concatenated in component order, and the global
    verdict is the sufficient criteria for the whole system: a connected
    graph and the verdict of its one component.
    """
    graph = build_graph(spec, config.edge_threshold)
    components = connected_components(graph)
    degenerate: list[DegeneratePair] = []
    irrational: list[IrrationalWitness] = []
    subspace_verdicts = []
    for comp in components:
        verdict, comp_degenerate, comp_irrational = _component_verdict(spec, graph, comp, config)
        subspace_verdicts.append(verdict)
        degenerate += comp_degenerate
        irrational += comp_irrational
    global_verdict, notes = _verdict_for(degenerate, irrational, len(components) == 1)

    return ControllabilityReport(
        graph=graph,
        components=tuple(components),
        degenerate_pairs=tuple(degenerate),
        irrational_witnesses=tuple(irrational),
        global_verdict=global_verdict,
        subspace_verdicts=tuple(subspace_verdicts),
        notes=tuple(notes),
    )
