import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqcontrol import (
    VERDICT_CONTROLLABLE,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    ConnectivityGraph,
    ControllabilityConfig,
    DegeneratePair,
    IrrationalWitness,
    SystemSpec,
    assess,
    build_graph,
    check_degenerate_transitions,
    check_rational_ratios,
    connected_components,
    hydrogen_spec,
)
from iqcontrol import controllability
from iqcontrol.controllability import DEFAULT_DEGENERACY_TOL, _best_fraction
from oracles import transition_frequency


def spec_from_edges(drift, edges, dim=None):
    """System with unit coupling on the given 1-based edges."""
    dim = dim or len(drift)
    b = np.zeros((dim, dim), dtype=complex)
    for i, j in edges:
        b[i - 1, j - 1] = b[j - 1, i - 1] = 1.0
    return SystemSpec(dim=dim, drift=drift, coupling=b)


# ---------------------------------------------------------------------------
# independent brute-force oracle: enumerate the criteria from their
# definitions over ordered index pairs, with label-propagation components


def brute_components(dim, coupling, threshold=1e-12):
    labels = list(range(dim))
    changed = True
    while changed:
        changed = False
        for i in range(dim):
            for j in range(dim):
                if i != j and abs(coupling[i, j]) > threshold:
                    m = min(labels[i], labels[j])
                    if labels[i] != m or labels[j] != m:
                        labels[i] = labels[j] = m
                        changed = True
    comps = {}
    for v, lab in enumerate(labels):
        comps.setdefault(lab, []).append(v + 1)
    return sorted((tuple(sorted(c)) for c in comps.values()), key=lambda c: c[0])


def brute_degeneracy_kinds(drift, coupling, vertices, tol=1e-9, threshold=1e-12):
    """(any nonzero-frequency collision, any zero-frequency collision)."""
    ordered = [
        (i, j)
        for i in vertices
        for j in vertices
        if i != j and abs(coupling[i - 1, j - 1]) > threshold
    ]
    nonzero = zero = False
    for a, p in enumerate(ordered):
        for q in ordered[a + 1:]:
            nu1 = drift[p[0] - 1] - drift[p[1] - 1]
            nu2 = drift[q[0] - 1] - drift[q[1] - 1]
            if abs(nu1 - nu2) <= tol:
                if abs(nu1) <= tol and abs(nu2) <= tol:
                    zero = True
                else:
                    nonzero = True
    return nonzero, zero


def brute_irrational_exists(drift, vertices, max_den=10**4, tol=1e-9):
    pairs = [(i, j) for i in vertices for j in vertices if i != j]
    from fractions import Fraction

    for a, b in pairs:
        for i, j in pairs:
            nu_den = drift[i - 1] - drift[j - 1]
            nu_num = drift[a - 1] - drift[b - 1]
            if abs(nu_den) <= tol:
                continue
            ratio = nu_num / nu_den
            best = Fraction(ratio).limit_denominator(max_den)
            if abs(ratio - float(best)) > tol:
                return True
    return False


def brute_verdict(drift, coupling, vertices, connected):
    nonzero, zero = brute_degeneracy_kinds(drift, coupling, vertices)
    irrational = brute_irrational_exists(drift, vertices)
    if not connected or nonzero or irrational:
        return VERDICT_VIOLATED
    if zero:
        return VERDICT_INCONCLUSIVE
    return VERDICT_CONTROLLABLE


def brute_assess(spec):
    comps = brute_components(spec.dim, spec.coupling)
    all_vertices = list(range(1, spec.dim + 1))
    global_verdict = brute_verdict(spec.drift, spec.coupling, all_vertices, len(comps) == 1)
    sub = []
    for comp in comps:
        if len(comp) == 1:
            sub.append((comp, VERDICT_CONTROLLABLE))
        else:
            sub.append((comp, brute_verdict(spec.drift, spec.coupling, list(comp), True)))
    return comps, global_verdict, sub


# ---------------------------------------------------------------------------
# pairwise oracles: the O(E^2) collision scan and the O(N^4) all-pairs ratio
# check that the sorted sweep and the reference-frequency check replaced,
# plus the analysis they fed, run on all vertices and on each component


def pairwise_degenerate_transitions(spec, vertex_set, tol=1e-9, edge_threshold=1e-12):
    vs = sorted(set(vertex_set))
    edges = [
        (i, j)
        for a, i in enumerate(vs)
        for j in vs[a + 1:]
        if abs(spec.coupling[i - 1, j - 1]) > edge_threshold
    ]
    exact = spec.exact_drift is not None

    def nu(p):
        if exact:
            return spec.exact_drift[p[0] - 1] - spec.exact_drift[p[1] - 1]
        return transition_frequency(spec, *p)

    def matches(x, y):
        return x == y if exact else abs(x - y) <= tol

    def pair(p1, p2, nu1, nu2):
        zero = (nu1 == 0 and nu2 == 0) if exact else (abs(nu1) <= tol and abs(nu2) <= tol)
        return DegeneratePair(p1, p2, float(nu1), float(nu2), zero)

    out = []
    for k, e1 in enumerate(edges):
        nu1 = nu(e1)
        if matches(nu1, -nu1):
            out.append(pair(e1, (e1[1], e1[0]), nu1, -nu1))
        for e2 in edges[k + 1:]:
            nu2 = nu(e2)
            if matches(nu1, nu2):
                out.append(pair(e1, e2, nu1, nu2))
            elif matches(nu1, -nu2):
                out.append(pair(e1, (e2[1], e2[0]), nu1, -nu2))
    return out


def pairwise_rational_ratios(spec, vertex_set, max_denominator=10**4, tol=1e-9):
    if spec.exact_drift is not None:
        return []
    vs = sorted(set(vertex_set))
    pairs = [(i, j) for a, i in enumerate(vs) for j in vs[a + 1:]]
    out = []
    for num_pair in pairs:
        nu_num = transition_frequency(spec, *num_pair)
        if abs(nu_num) <= tol:
            continue
        for den_pair in pairs:
            if den_pair == num_pair:
                continue
            nu_den = transition_frequency(spec, *den_pair)
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


def pairwise_verdict(spec, vertices, connected):
    degenerate = pairwise_degenerate_transitions(spec, vertices)
    if not connected or pairwise_rational_ratios(spec, vertices):
        return VERDICT_VIOLATED
    if degenerate:
        zero_only = all(p.zero_frequency for p in degenerate)
        return VERDICT_INCONCLUSIVE if zero_only else VERDICT_VIOLATED
    return VERDICT_CONTROLLABLE


def pairwise_assess(spec):
    """Global verdict and (component, verdict) list of the all-pairs analysis."""
    comps = brute_components(spec.dim, spec.coupling)
    global_verdict = pairwise_verdict(spec, range(1, spec.dim + 1), len(comps) == 1)
    sub = [
        (comp, VERDICT_CONTROLLABLE if len(comp) == 1 else pairwise_verdict(spec, comp, True))
        for comp in comps
    ]
    return global_verdict, sub


# ---------------------------------------------------------------------------


class TestBuildGraph:
    def test_diagonal_coupling_has_no_edges(self):
        with pytest.warns(UserWarning, match="commute"):
            spec = SystemSpec(dim=3, drift=[0.0, 1.0, 2.0], coupling=np.diag([1.0, 2.0, 3.0]))
        assert build_graph(spec).edges == frozenset()

    def test_hydrogen_edges(self):
        assert build_graph(hydrogen_spec()).edges == frozenset({(1, 3), (2, 3)})

    def test_dense_coupling_gives_complete_graph(self, rng):
        n = 4
        b = np.ones((n, n), dtype=complex)
        spec = SystemSpec(dim=n, drift=[0.0, 1.0, 2.0, 4.0], coupling=b)
        expected = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        assert build_graph(spec).edges == frozenset(expected)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_graph(hydrogen_spec(), edge_threshold=-1.0)

    def test_threshold_filters_small_entries(self):
        spec = spec_from_edges([0.0, 1.0, 2.0], [(1, 2)])
        b = np.array(spec.coupling)
        b[1, 2] = b[2, 1] = 1e-13
        spec2 = SystemSpec(dim=3, drift=[0.0, 1.0, 2.0], coupling=b)
        assert build_graph(spec2).edges == frozenset({(1, 2)})


class TestConnectedComponents:
    def test_hydrogen_components(self):
        comps = connected_components(build_graph(hydrogen_spec()))
        assert comps == [(1, 2, 3), (4,), (5,)]

    def test_no_edges_gives_singletons(self):
        g = ConnectivityGraph(3, frozenset())
        assert connected_components(g) == [(1,), (2,), (3,)]

    def test_complete_graph_one_component(self):
        edges = frozenset((i, j) for i in range(1, 5) for j in range(i + 1, 5))
        assert connected_components(ConnectivityGraph(4, edges)) == [(1, 2, 3, 4)]

    def test_components_partition_vertices(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            edges = frozenset(
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.3
            )
            comps = connected_components(ConnectivityGraph(n, edges))
            flat = sorted(v for c in comps for v in c)
            assert flat == list(range(1, n + 1))

    def test_adding_edges_never_splits(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 8))
            all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            base = frozenset(p for p in all_pairs if rng.random() < 0.25)
            extra = all_pairs[int(rng.integers(len(all_pairs)))]
            before = len(connected_components(ConnectivityGraph(n, base)))
            after = len(connected_components(ConnectivityGraph(n, base | {extra})))
            assert after <= before


class TestDegenerateTransitions:
    def test_distinct_frequencies_pass(self):
        spec = spec_from_edges([0.0, 1.0, 3.0], [(1, 2), (2, 3)])
        assert check_degenerate_transitions(spec, [1, 2, 3]) == []

    def test_equal_spacing_flagged(self):
        spec = spec_from_edges([0.0, 1.0, 2.0], [(1, 2), (2, 3)])
        pairs = check_degenerate_transitions(spec, [1, 2, 3])
        assert len(pairs) == 1
        assert pairs[0].first == (1, 2) and pairs[0].second == (2, 3)
        assert not pairs[0].zero_frequency

    def test_hydrogen_zero_frequency_pair(self):
        pairs = check_degenerate_transitions(hydrogen_spec(), [1, 2, 3])
        assert len(pairs) == 1
        assert pairs[0].first == (2, 3) and pairs[0].second == (3, 2)
        assert pairs[0].zero_frequency

    def test_opposite_sign_collision(self):
        # nu_12 = -1 and nu_34 = +1 collide as (1,2) vs (4,3)
        spec = spec_from_edges([0.0, 1.0, 1.0, 0.0], [(1, 2), (3, 4)])
        pairs = check_degenerate_transitions(spec, [1, 2, 3, 4])
        assert len(pairs) == 1
        assert pairs[0].first == (1, 2) and pairs[0].second == (4, 3)
        assert not pairs[0].zero_frequency

    @pytest.mark.filterwarnings("ignore:drift and coupling commute")
    def test_witness_soundness(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            drift = rng.integers(0, 4, size=n).astype(float)
            edges = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.5
            ]
            spec = spec_from_edges(drift, edges, dim=n)
            for p in check_degenerate_transitions(spec, range(1, n + 1)):
                nu1 = drift[p.first[0] - 1] - drift[p.first[1] - 1]
                nu2 = drift[p.second[0] - 1] - drift[p.second[1] - 1]
                assert abs(nu1 - nu2) <= 1e-9
                assert p.nu_first == nu1 and p.nu_second == nu2

    def test_exact_mode_distinguishes_near_degenerate(self):
        from fractions import Fraction

        drift = [0.0, 1.0, 2.0 + 1e-11]
        spec = spec_from_edges(drift, [(1, 2), (2, 3)])
        # float tolerance 1e-9 sees a collision
        assert len(check_degenerate_transitions(spec, [1, 2, 3])) == 1
        exact = SystemSpec(
            dim=3,
            drift=drift,
            coupling=spec.coupling,
            exact_drift=(Fraction(0), Fraction(1), Fraction(2) + Fraction(1, 10**11)),
        )
        assert check_degenerate_transitions(exact, [1, 2, 3]) == []


class TestRationalRatios:
    def test_integer_spectrum_passes(self):
        spec = spec_from_edges([0.0, 1.0, 2.0, 3.0], [(1, 2), (3, 4)])
        assert check_rational_ratios(spec, [1, 2, 3, 4]) == []

    def test_sqrt2_flagged(self):
        spec = spec_from_edges([0.0, 1.0, np.sqrt(2.0)], [(1, 2), (2, 3)])
        witnesses = check_rational_ratios(spec, [1, 2, 3], max_denominator=10**4, tol=1e-9)
        assert witnesses
        ratios = {round(abs(w.ratio), 6) for w in witnesses}
        # sqrt(2) (and its reciprocal / complements) appear among the ratios
        assert round(np.sqrt(2.0), 6) in ratios
        for w in witnesses:
            # soundness: the reported best approximation really misses
            assert abs(w.ratio - w.best_numerator / w.best_denominator) > 1e-9
            assert w.best_denominator <= 10**4

    def test_rational_spectrum_passes(self):
        spec = spec_from_edges([0.0, 2.0, 5.0], [(1, 2), (2, 3)])
        assert check_rational_ratios(spec, [1, 2, 3]) == []

    def test_exact_mode_never_flags(self):
        from fractions import Fraction

        # float drift that LOOKS irrational is decided rational when exact
        value = 14142135623730951 / 10**16
        spec = spec_from_edges([0.0, 1.0, value], [(1, 2), (2, 3)])
        assert check_rational_ratios(spec, [1, 2, 3]) != []
        exact = SystemSpec(
            dim=3,
            drift=[0.0, 1.0, value],
            coupling=spec.coupling,
            exact_drift=(Fraction(0), Fraction(1), Fraction(14142135623730951, 10**16)),
        )
        assert check_rational_ratios(exact, [1, 2, 3]) == []

    def test_invalid_max_denominator(self):
        with pytest.raises(ValueError):
            check_rational_ratios(hydrogen_spec(), [1, 2, 3], max_denominator=0)


class TestControllabilityConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("edge_threshold", -1e-12),
            ("degeneracy_tol", -1e-9),
            ("ratio_tol", -1e-9),
            ("ratio_tol", float("nan")),
            ("degeneracy_tol", float("inf")),
            ("max_denominator", 0),
        ],
    )
    def test_rejects_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: "):
            ControllabilityConfig(**{name: value})

    def test_zero_tolerances_accepted(self):
        config = ControllabilityConfig(
            edge_threshold=0.0, degeneracy_tol=0.0, ratio_tol=0.0, max_denominator=1
        )
        assert config.ratio_tol == 0.0

    @pytest.mark.parametrize("name", ["edge_threshold", "degeneracy_tol", "ratio_tol"])
    @pytest.mark.parametrize("value", [True, "x", None, 1j])
    def test_rejects_a_tolerance_of_the_wrong_kind(self, name, value):
        # a bool passed as 1 or 0, and a string failed naming no field
        with pytest.raises(TypeError, match=f"^{name}: must be a real number"):
            ControllabilityConfig(**{name: value})


CHAIN = spec_from_edges([0.0, 1.0, 2.0], [(1, 2), (2, 3)])
SQRT2 = spec_from_edges([0.0, 1.0, np.sqrt(2.0)], [(1, 2), (2, 3)])
NAN = float("nan")


class TestArgumentRule:
    """The public checks apply ``ControllabilityConfig``'s rule and read
    their labels as integers in 1..dim; unchecked, a NaN tolerance made
    each check pass vacuously and a bad label read the wrong level."""

    @pytest.mark.parametrize(
        "call, error, name",
        [
            (lambda: check_degenerate_transitions(CHAIN, [1, 2, 3], NAN), ValueError, "tol"),
            (lambda: check_degenerate_transitions(CHAIN, [1, 2, 3], -1e-9), ValueError, "tol"),
            (lambda: check_degenerate_transitions(CHAIN, [1, 2, 3], True), TypeError, "tol"),
            (lambda: check_degenerate_transitions(CHAIN, [1, 2, 3], edge_threshold=NAN),
             ValueError, "edge_threshold"),
            (lambda: check_rational_ratios(SQRT2, [1, 2, 3], tol=NAN), ValueError, "tol"),
            (lambda: check_rational_ratios(SQRT2, [1, 2, 3], tol=float("inf")), ValueError, "tol"),
            (lambda: check_rational_ratios(SQRT2, [1, 2, 3], tol=True), TypeError, "tol"),
            (lambda: check_rational_ratios(SQRT2, [1, 2, 3], tol="1e-9"), TypeError, "tol"),
            (lambda: check_rational_ratios(SQRT2, [1, 2, 3], max_denominator=2.5),
             TypeError, "max_denominator"),
            (lambda: check_rational_ratios(SQRT2, [1, 2, 3], max_denominator=True),
             TypeError, "max_denominator"),
            (lambda: build_graph(CHAIN, NAN), ValueError, "edge_threshold"),
            (lambda: build_graph(CHAIN, "0"), TypeError, "edge_threshold"),
        ],
    )
    def test_bad_tolerance_raises_naming_the_argument(self, call, error, name):
        with pytest.raises(error, match=f"^{name}[: ]"):
            call()

    def test_valid_arguments_of_other_numeric_types(self):
        assert len(check_degenerate_transitions(CHAIN, [1, 2, 3], np.float64(1e-9))) == 1
        assert len(check_degenerate_transitions(CHAIN, np.array([1, 2, 3]), 0)) == 1
        assert len(check_rational_ratios(SQRT2, (1, 2, 3), np.int64(10**4), Fraction(1, 10**9))) == 1
        assert len(build_graph(CHAIN, np.float32(0.5)).edges) == 2

    @pytest.mark.parametrize("check", [check_degenerate_transitions, check_rational_ratios])
    @pytest.mark.parametrize(
        "labels, error, message",
        [
            ([0, 1, 2], ValueError, "vertex_set: label 0 outside 1..3"),
            ([1, 99], ValueError, "vertex_set: label 99 outside 1..3"),
            ([-1, 2], ValueError, "vertex_set: label -1 outside 1..3"),
            ([1, 2, 2.5], TypeError, "vertex_set label must be an integer, got 2.5"),
            ([1, True], TypeError, "vertex_set label must be an integer, got True"),
        ],
    )
    def test_bad_labels_raise_naming_vertex_set(self, check, labels, error, message):
        # label 0 read drift[-1], 2.5 was truncated to 2, and 99 raised a raw
        # IndexError in one check and was ignored by the other
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check(SQRT2, labels)

    def test_labels_may_repeat_and_come_in_any_order(self):
        assert check_rational_ratios(SQRT2, [3, 1, 2, 1]) == check_rational_ratios(SQRT2, [1, 2, 3])
        assert check_degenerate_transitions(CHAIN, (3, np.int64(2), 1, 3)) == (
            check_degenerate_transitions(CHAIN, [1, 2, 3])
        )

    def test_empty_and_single_label_sets_have_no_failures(self):
        for labels in ([], [2]):
            assert check_degenerate_transitions(CHAIN, labels) == []
            assert check_rational_ratios(SQRT2, labels) == []

    def test_assess_validates_once_per_call(self, monkeypatch):
        # the config is checked on construction and the components are the
        # graph's own, so no component's check reads its arguments again
        config = ControllabilityConfig(degeneracy_tol=1e-6)
        calls = []
        check = controllability._check_tolerance
        monkeypatch.setattr(
            controllability, "_check_tolerance", lambda *args: calls.append(args) or check(*args)
        )
        monkeypatch.setattr(controllability, "_labels", lambda *args: pytest.fail("labels read"))
        spec = spec_from_edges([0.0, 1.0, 2.0, 5.0, 6.0, 7.0], [(1, 2), (2, 3), (4, 5), (5, 6)])
        report = assess(spec, config)
        assert len(report.degenerate_pairs) == 2
        assert calls == [(1e-12, "edge_threshold")]


class TestAssess:
    def test_hydrogen_report(self):
        report = assess(hydrogen_spec())
        assert report.global_verdict == VERDICT_VIOLATED
        assert report.components == ((1, 2, 3), (4,), (5,))
        by_comp = {v.component: v.verdict for v in report.subspace_verdicts}
        assert by_comp[(1, 2, 3)] == VERDICT_INCONCLUSIVE
        assert by_comp[(4,)] == VERDICT_CONTROLLABLE
        assert by_comp[(5,)] == VERDICT_CONTROLLABLE

    def test_two_level_controllable(self):
        spec = spec_from_edges([0.0, 1.0], [(1, 2)])
        report = assess(spec)
        assert report.global_verdict == VERDICT_CONTROLLABLE
        assert report.subspace_verdicts[0].verdict == VERDICT_CONTROLLABLE

    def test_diagonal_coupling_violated(self):
        with pytest.warns(UserWarning, match="commute"):
            spec = SystemSpec(dim=3, drift=[0.0, 1.0, 2.0], coupling=np.diag([1.0, 1.0, 1.0]))
        report = assess(spec)
        assert report.global_verdict == VERDICT_VIOLATED
        assert len(report.components) == 3

    def test_irrational_ratio_violates(self):
        spec = spec_from_edges([0.0, 1.0, np.sqrt(2.0)], [(1, 2), (2, 3)])
        report = assess(spec)
        assert report.global_verdict == VERDICT_VIOLATED
        assert report.irrational_witnesses

    @pytest.mark.filterwarnings("ignore:drift and coupling commute")
    def test_two_zero_frequency_edges_stay_inconclusive(self):
        # two separate degenerate-level transitions are still only the
        # relaxed failure mode, not a hard violation
        spec = spec_from_edges([0.0, 0.0, 0.0], [(1, 2), (2, 3)])
        report = assess(spec)
        assert report.global_verdict == VERDICT_INCONCLUSIVE
        assert all(p.zero_frequency for p in report.degenerate_pairs)

    def test_report_serializes(self):
        d = assess(hydrogen_spec()).to_dict()
        import json

        json.dumps(d)
        assert d["global_verdict"] == VERDICT_VIOLATED

    @pytest.mark.filterwarnings("ignore:drift and coupling commute")
    def test_matches_brute_force_small(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            drift = rng.integers(0, 4, size=n).astype(float)
            edges = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.5
            ]
            spec = spec_from_edges(drift, edges, dim=n)
            comps, global_verdict, sub = brute_assess(spec)
            report = assess(spec)
            assert list(report.components) == comps
            assert report.global_verdict == global_verdict
            assert [(v.component, v.verdict) for v in report.subspace_verdicts] == sub


# ---------------------------------------------------------------------------
# the sorted collision sweep and the one-pass analysis against the pairwise
# oracles

TOL = DEFAULT_DEGENERACY_TOL


def _edge_subset(draw, dim):
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [p for p, k in zip(pairs, keep) if k]


@st.composite
def collision_specs(draw):
    """Small specs whose frequencies lie within 2 tol of each other and of
    zero, as floats or as exact rationals that floats cannot tell apart;
    returns the spec and the vertex set to check."""
    dim = draw(st.integers(2, 7))
    levels = st.integers(0, 2)
    if draw(st.booleans()):
        # 1e-11 apart: equal within tol as floats, distinct as Fractions
        nudge = st.sampled_from([Fraction(0), Fraction(1, 10**11), Fraction(-1, 10**11)])
        exact = [Fraction(draw(levels), draw(st.integers(1, 2))) + draw(nudge) for _ in range(dim)]
        drift = [float(x) for x in exact]
    else:
        exact = None
        offsets = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -0.5, -1.0, -1.5, -2.0]),
            st.floats(-2.0, 2.0),
        )
        drift = [draw(levels) + draw(offsets) * TOL for _ in range(dim)]
    spec = spec_from_edges(drift, _edge_subset(draw, dim), dim=dim)
    if exact is not None:
        spec = SystemSpec(dim=dim, drift=drift, coupling=spec.coupling, exact_drift=tuple(exact))
    vertices = draw(st.one_of(
        st.just(range(1, dim + 1)),
        st.sets(st.integers(1, dim), min_size=1, max_size=dim),
    ))
    return spec, vertices


def _exact_spec(levels, edges):
    drift = [float(x) for x in levels]
    coupling = spec_from_edges(drift, edges).coupling
    return SystemSpec(dim=len(levels), drift=drift, coupling=coupling, exact_drift=tuple(levels))


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@settings(max_examples=200)
@given(case=collision_specs())
# frequencies equal as floats, a gap of exactly 0
@example(case=(spec_from_edges([0.0, 1.0, 2.0, 1.0], [(1, 2), (2, 3), (3, 4)]), range(1, 5)))
# one self-reverse zero-frequency edge beside a nonzero one
@example(case=(spec_from_edges([0.0, 0.0, 1.0], [(1, 2), (2, 3)]), range(1, 4)))
# nu = -tol and -2 tol: differ by exactly tol in the same orientation
@example(case=(spec_from_edges([0.0, TOL, 2 * TOL], [(1, 2), (1, 3)]), range(1, 4)))
# nu = -tol and +2 tol: differ by exactly tol in the opposite orientation
@example(case=(spec_from_edges([0.0, TOL, 2 * TOL, 0.0], [(1, 2), (3, 4)]), range(1, 5)))
# exact levels nudged by 1e-11: float frequencies all within tol, exact ones
# apart but for nu_23 = nu_45
@example(case=(
    _exact_spec(
        [Fraction(0), Fraction(1), 2 + Fraction(1, 10**11), 1 - Fraction(1, 10**11), Fraction(2)],
        [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)],
    ),
    range(1, 6),
))
def test_sweep_equals_pairwise_oracle(case):
    # list-identical: same pairs, same (k, l) order, same orientation
    spec, vertices = case
    assert check_degenerate_transitions(spec, vertices, TOL) == pairwise_degenerate_transitions(
        spec, vertices, TOL
    )


@st.composite
def verdict_specs(draw):
    """Rational spectra k/m with m <= 10 in [0, 2], or half-integer spectra
    in [0, 4] with one level offset by sqrt(2).

    Every ratio the reference check can take in the second family misses
    all fractions with denominator <= 1e4 by more than 1e-9
    (``test_half_integer_sqrt2_ratios_fail_the_check``), so both families
    are decided the same way by one ratio per level and by all pairs.  A
    base k/m with m up to 10 under the offset is not: 6.5% of its single
    ratios fall within 1e-9 of such a fraction.
    """
    dim = draw(st.integers(2, 6))
    if draw(st.booleans()):
        drift = []
        for _ in range(dim):
            m = draw(st.integers(1, 10))
            drift.append(draw(st.integers(0, 2 * m)) / m)
    else:
        drift = [draw(st.integers(0, 8)) / 2 for _ in range(dim)]
        drift[draw(st.integers(0, dim - 1))] += np.sqrt(2.0)
    return spec_from_edges(drift, _edge_subset(draw, dim), dim=dim)


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@given(spec=verdict_specs())
def test_verdicts_equal_pairwise_oracle(spec):
    report = assess(spec)
    global_verdict, sub = pairwise_assess(spec)
    assert report.global_verdict == global_verdict
    assert [(v.component, v.verdict) for v in report.subspace_verdicts] == sub


def test_half_integer_sqrt2_ratios_fail_the_check():
    # every nu_ref,i / nu_ref,j with half-integer levels in [0, 4] and the
    # sqrt(2) offset on the numerator level i, the reference-frequency level
    # j or the reference level itself
    levels = [k / 2 for k in range(9)]
    s2 = np.sqrt(2.0)
    ratios = []
    for a in levels:
        for b in levels:
            for c in levels:
                ratios += [(a - (b + s2)) / (a - c)] if a != c else []
                ratios += [(a - b) / (a - (c + s2))] if a != b else []
                ratios += [(a + s2 - b) / (a + s2 - c)] if b != c else []
    for ratio in ratios:
        best = Fraction(ratio).limit_denominator(10**4)
        assert abs(ratio - float(best)) > 1e-9, ratio


RATIOS = (
    st.floats(allow_nan=False, allow_infinity=False)  # negative, tiny and huge among them
    | st.builds(lambda k, e: k / 2**e, st.integers(-(2**53), 2**53), st.integers(0, 1074))
    | st.integers(-(10**15), 10**15).map(float)
    | st.builds(lambda k, m: k / m, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
)


@settings(max_examples=1000)
@given(ratio=RATIOS, max_denominator=st.integers(1, 10**6))
# ties between the convergent and the semiconvergent go to the convergent
@example(ratio=0.5, max_denominator=1)
@example(ratio=-2.5, max_denominator=1)
@example(ratio=1.25, max_denominator=2)
@example(ratio=1.75, max_denominator=2)
@example(ratio=5e-324, max_denominator=10**6)
@example(ratio=-1.7976931348623157e308, max_denominator=10**4)
@example(ratio=2**0.5, max_denominator=10**4)
def test_best_fraction_is_limit_denominator(ratio, max_denominator):
    best = Fraction(ratio).limit_denominator(max_denominator)
    p, q = _best_fraction(ratio, max_denominator)
    assert (p, q) == (best.numerator, best.denominator)
    assert abs(ratio - p / q).hex() == abs(ratio - float(best)).hex()


@pytest.mark.parametrize("ratio", [float("inf"), float("-inf"), float("nan")])
def test_best_fraction_of_a_non_finite_ratio_raises_as_fraction_does(ratio):
    with pytest.raises((OverflowError, ValueError)) as expected:
        Fraction(ratio).limit_denominator(10**4)
    with pytest.raises(expected.type, match=f"^{expected.value}$"):
        _best_fraction(ratio, 10**4)


def test_harmonic_ladder_all_pairs():
    # 63 equal-spacing chain edges at N=64: every one of C(63, 2) pairs collides
    n = 64
    spec = spec_from_edges(np.arange(n, dtype=float), [(i, i + 1) for i in range(1, n)])
    pairs = check_degenerate_transitions(spec, range(1, n + 1))
    assert len(pairs) == 63 * 62 // 2 == 1953
    assert pairs == pairwise_degenerate_transitions(spec, range(1, n + 1))


@pytest.mark.parametrize("tol", [TOL, 0.0])
@pytest.mark.parametrize(
    "drift",
    [
        range(20),
        # folded at level 10: levels k and 20 - k are degenerate, and the
        # frequencies change sign along the labels
        [abs(k - 10) for k in range(20)],
    ],
    ids=["ladder", "folded-ladder"],
)
def test_complete_harmonic_ladder_equals_pairwise_oracle(drift, tol):
    # all 190 pairs of 20 levels coupled: the hits pile up in long windows
    n = 20
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    spec = spec_from_edges([float(x) for x in drift], edges)
    pairs = check_degenerate_transitions(spec, range(1, n + 1), tol)
    assert pairs == pairwise_degenerate_transitions(spec, range(1, n + 1), tol)
    kinds = {
        "self-reverse" if p.second == p.first[::-1] else "same" if p.second[0] < p.second[1] else "opposite"
        for p in pairs
    }
    assert kinds == ({"same"} if drift == range(20) else {"self-reverse", "same", "opposite"})


def test_reference_witnesses_are_a_subset_of_all_pairs():
    drift = [0.0, 1.0, np.sqrt(2.0), np.sqrt(3.0), 2.5]
    spec = spec_from_edges(drift, [(1, 2), (2, 3), (3, 4), (4, 5)])
    witnesses = check_rational_ratios(spec, range(1, 6))
    assert [(w.numerator_pair, w.denominator_pair) for w in witnesses] == [
        ((1, 3), (1, 2)), ((1, 4), (1, 2)),
    ]
    assert set(witnesses) <= set(pairwise_rational_ratios(spec, range(1, 6)))


def test_reference_skips_levels_degenerate_with_reference():
    # level 2 sits on the reference level, so the reference frequency is nu_13
    spec = spec_from_edges([1.0, 1.0, 2.0, 1.0 + np.sqrt(2.0)], [(1, 2), (2, 3), (3, 4)])
    witnesses = check_rational_ratios(spec, range(1, 5))
    assert [(w.numerator_pair, w.denominator_pair) for w in witnesses] == [((1, 4), (1, 3))]


def test_disconnected_lists_are_component_concatenation():
    # two equal-spacing components: no cross-component pairs are listed
    spec = spec_from_edges([0.0, 1.0, 2.0, 5.0, 6.0, 7.0], [(1, 2), (2, 3), (4, 5), (5, 6)])
    report = assess(spec)
    assert report.global_verdict == VERDICT_VIOLATED
    assert [(p.first, p.second) for p in report.degenerate_pairs] == [
        ((1, 2), (2, 3)), ((4, 5), (5, 6)),
    ]
    assert list(report.degenerate_pairs) == (
        check_degenerate_transitions(spec, (1, 2, 3))
        + check_degenerate_transitions(spec, (4, 5, 6))
    )


def test_dense_n256_scales_with_levels_and_edges():
    # counts, not wall time: at most N - 2 witnesses and a report of size O(N + E)
    n = 256
    rng = np.random.default_rng(256)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    spec = SystemSpec(dim=n, drift=rng.uniform(0.0, 10.0, size=n), coupling=(z + z.conj().T) / 2)
    report = assess(spec)
    num_edges = len(report.graph.edges)
    assert num_edges == n * (n - 1) // 2
    assert report.global_verdict == VERDICT_VIOLATED
    assert 0 < len(report.irrational_witnesses) <= n - 2
    size = len(json.dumps(report.to_dict()))
    assert size <= 32 * (n + num_edges), size
