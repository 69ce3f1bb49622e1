"""Acceptance suite: one test per headline guarantee, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from iqcontrol import (
    GoodSubspace,
    MeasurementPartition,
    StateVector,
    amplified_state,
    assess,
    build_graph,
    case2_preset,
    connected_components,
    decompose,
    hydrogen_spec,
    make_plan,
    measurement_histogram,
    optimal_iterations,
    prepare_unitary,
    propagate,
    propagate_interaction_picture,
    ControlPulse,
    HydrogenModel,
)
from iqcontrol.amplification import MIN_GOOD_WEIGHT, amplification_operator
from conftest import haar_unitary, random_spec, random_state, state_with_good_weight
from oracles import closed_form_step, success_probability
from test_controllability import brute_assess, spec_from_edges


def check(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def _case_reproduction(initial, good, expected_l, expected_success, tol):
    start = time.perf_counter()
    d = decompose(initial, good)
    plan = make_plan(initial, good)  # auto iterations, pi/pi phases
    closed_form = success_probability(d.g, plan.iterations)
    q = amplification_operator(plan.preparation, good, math.pi, math.pi)
    c = plan.preparation.matrix[:, 0].copy()
    for _ in range(plan.iterations):
        c = q.matrix @ c
    matrix_weight = float(np.sum(np.abs(c[list(i - 1 for i in good.indices)]) ** 2))
    elapsed = time.perf_counter() - start
    ok = (
        plan.iterations == expected_l
        and abs(closed_form - expected_success) < tol
        and abs(matrix_weight - closed_form) < 1e-9
        and elapsed < 1.0
    )
    detail = (
        f"L={plan.iterations}, closed={closed_form:.6f}, matrix={matrix_weight:.6f}, "
        f"{elapsed*1e3:.0f} ms"
    )
    return ok, detail


def test_case1_reproduction():
    initial = StateVector([0.7, 0.5, 0.3, 0.4, 0.1])
    good = GoodSubspace.of(5, 5)
    assert abs(decompose(initial, good).g - 0.01) < 1e-15
    ok, detail = _case_reproduction(initial, good, 7, 0.9953, 5e-4)
    check("case1-reproduction", ok, detail)


def test_case2_reproduction():
    initial = StateVector([0.1, 0.06, 0.08, 0.7, 0.7])
    good = GoodSubspace.of([1, 2, 3], 5)
    assert abs(decompose(initial, good).g - 0.02) < 1e-15
    ok, detail = _case_reproduction(initial, good, 5, 0.9999, 1e-4)
    check("case2-reproduction", ok, detail)


def _arch_end(g: float) -> int:
    """Last L of the first arch (2L+1) theta <= pi, with sin^2(theta) = g."""
    return int((math.pi / math.asin(math.sqrt(g)) - 1.0) / 2.0)


def _first_arch_argmax(g: float, l_max: int) -> int:
    """Exhaustive argmax of sin^2((2L+1) theta) over the first arch, L <= l_max."""
    theta = math.asin(math.sqrt(g))
    grid = np.arange(min(l_max, _arch_end(g)) + 1)
    return int(np.argmax(np.sin((2 * grid + 1) * theta) ** 2))


def test_optimal_iterations_exhaustive_argmax():
    """``optimal_iterations`` equals an exhaustive scan of the first arch.

    The promised count is the first peak of sin^2((2L+1) theta), clamped
    to [0, l_max]; it reproduces the hydrogen cases (7 and 5).  Over the
    first arch (2L+1) theta <= pi the curve is unimodal, so its argmax
    there, with the scan cut at l_max, is exactly that count.  Later
    peaks land closer to 1 (for g = 0.01, L = 23 gives 0.99998 against
    0.99534 at L = 7), so the scan stops at the arch's end.

    Three sets of 1000 draws: g ~ U[1e-4, 0.99] with l_max = 10^4; the
    same g with l_max drawn from [0, arch end]; and g log-uniform on
    [MIN_GOOD_WEIGHT, 1e-4] with l_max = 10^4, where the arch often runs
    past l_max.
    """
    rng = np.random.default_rng(77)
    horizon = 10**4
    uniform = [float(rng.uniform(1e-4, 0.99)) for _ in range(1000)]
    cases = {
        "uniform": [(g, horizon) for g in uniform],
        "l_max": [(g, int(rng.integers(0, _arch_end(g) + 1))) for g in uniform],
        "small-g": [
            (float(10.0 ** rng.uniform(math.log10(MIN_GOOD_WEIGHT), -4.0)), horizon)
            for _ in range(1000)
        ],
    }
    start = time.perf_counter()
    mismatches = []
    for name, draws in cases.items():
        for g, l_max in draws:
            chosen = optimal_iterations(g, l_max=l_max)
            exhaustive = _first_arch_argmax(g, l_max)
            if chosen != exhaustive:
                mismatches.append((name, g, l_max, chosen, exhaustive))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    counts = ", ".join(
        f"{name} {sum(m[0] == name for m in mismatches)}/1000" for name in cases
    )
    detail = f"mismatches {counts}, {elapsed:.2f} s"
    if mismatches:
        name, g, l_max, chosen, exhaustive = mismatches[0]
        detail += (
            f"; e.g. {name} g={g:.4g}, l_max={l_max}: "
            f"chosen {chosen} vs first-arch argmax {exhaustive}"
        )
    check("optimal-iterations-exhaustive-argmax", ok, detail)


def test_closed_form_operator_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        u = haar_unitary(rng, dim)
        size = int(rng.integers(1, dim))
        indices = [int(i) for i in rng.choice(np.arange(1, dim + 1), size=size, replace=False)]
        good = GoodSubspace.of(indices, dim)
        phi1 = float(rng.uniform(0.0, math.pi))
        phi2 = float(rng.uniform(0.0, math.pi))
        state = StateVector(u.matrix[:, 0])
        d = decompose(state, good)
        stepped = closed_form_step(d, phi1, phi2)
        q = amplification_operator(u, good, phi1, phi2)
        moved = q.matrix @ state.amplitudes
        mask = good.mask()
        err = max(
            float(np.max(np.abs(stepped.good_part - np.where(mask, moved, 0.0)))),
            float(np.max(np.abs(stepped.bad_part - np.where(mask, 0.0, moved)))),
        )
        worst = max(worst, err)
    check("closed-form-operator-equivalence", worst < 1e-9, f"worst dev {worst:.2e}")


def test_success_formula_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        size = int(rng.integers(1, dim))
        indices = [int(i) for i in rng.choice(np.arange(1, dim + 1), size=size, replace=False)]
        g = float(rng.uniform(1e-3, 0.999))
        state = state_with_good_weight(rng, dim, indices, g)
        good = GoodSubspace.of(indices, dim)
        iterations = int(rng.integers(0, 51))
        u = prepare_unitary(state)
        q = amplification_operator(u, good, math.pi, math.pi)
        c = np.linalg.matrix_power(q.matrix, iterations) @ state.amplitudes
        weight = float(np.sum(np.abs(c[good.mask()]) ** 2))
        err = abs(weight - success_probability(g, iterations))
        worst = max(worst, err)
    check("success-formula-equivalence", worst < 1e-9, f"worst dev {worst:.2e}")


def test_hydrogen_structure():
    spec = hydrogen_spec()
    graph = build_graph(spec)
    components = connected_components(graph)
    report = assess(spec)
    verdicts = {v.component: v.verdict for v in report.subspace_verdicts}
    ok = (
        graph.edges == frozenset({(1, 3), (2, 3)})
        and components == [(1, 2, 3), (4,), (5,)]
        and report.global_verdict == "violated"
        and verdicts[(1, 2, 3)] == "inconclusive-relaxed-controllable"
    )
    check(
        "hydrogen-structure",
        ok,
        f"edges={sorted(graph.edges)}, global={report.global_verdict}, "
        f"subspace={verdicts[(1, 2, 3)]}",
    )


def test_uncoupled_state_invariance():
    rng = np.random.default_rng(303)
    model = HydrogenModel()
    worst = 0.0
    for _ in range(50):
        segments = tuple(
            (float(rng.uniform(0.2, 1.2)), float(rng.uniform(-1.0, 1.0)))
            for _ in range(int(rng.integers(1, 4)))
        )
        state = random_state(rng, 5)
        out = propagate_interaction_picture(model, ControlPulse(segments), state)
        drift = max(
            abs(abs(out.amplitudes[3]) - abs(state.amplitudes[3])),
            abs(abs(out.amplitudes[4]) - abs(state.amplitudes[4])),
        )
        worst = max(worst, drift)
    check("uncoupled-state-invariance", worst < 1e-10, f"worst |c| drift {worst:.2e}")


def test_born_statistics():
    start = time.perf_counter()
    preset = case2_preset()
    plan = make_plan(preset.initial, preset.good)
    amplified = amplified_state(plan)
    partition = MeasurementPartition.binary(preset.good)
    shots = 10**5
    counts = measurement_histogram(amplified, partition, seed=7, shots=shots)
    predicted = plan.predicted_success
    frequency = counts[0] / shots
    bound = 4.0 * math.sqrt(predicted * (1.0 - predicted) / shots)
    elapsed = time.perf_counter() - start
    ok = abs(frequency - predicted) <= bound and elapsed < 30.0
    check(
        "born-statistics",
        ok,
        f"freq {frequency:.5f} vs predicted {predicted:.5f} "
        f"(4-sigma bound {bound:.1e}), {elapsed:.1f} s",
    )


def test_unitarity_norm_suite():
    rng = np.random.default_rng(404)
    failures = 0
    # 200 preparation unitaries
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        target = random_state(rng, dim)
        u = prepare_unitary(target)  # constructor enforces unitarity at 1e-10
        if np.max(np.abs(u.matrix[:, 0] - target.amplitudes)) > 1e-10:
            failures += 1
    # 150 amplification operators
    for _ in range(150):
        dim = int(rng.integers(2, 9))
        size = int(rng.integers(1, dim))
        indices = [int(i) for i in rng.choice(np.arange(1, dim + 1), size=size, replace=False)]
        q = amplification_operator(
            haar_unitary(rng, dim),
            GoodSubspace.of(indices, dim),
            float(rng.uniform(0, math.pi)),
            float(rng.uniform(0, math.pi)),
        )
        if np.max(np.abs(q.matrix.conj().T @ q.matrix - np.eye(dim))) > 1e-10:
            failures += 1
    # 150 propagations
    for _ in range(150):
        dim = int(rng.integers(2, 7))
        spec = random_spec(rng, dim)
        segments = tuple(
            (float(rng.uniform(0.1, 1.5)), float(rng.normal()))
            for _ in range(int(rng.integers(1, 4)))
        )
        out = propagate(spec, ControlPulse(segments), random_state(rng, dim))
        if abs(np.linalg.norm(out.amplitudes) - 1.0) > 1e-9:
            failures += 1
    check("unitarity-norm-suite", failures == 0, f"{failures}/500 failures")


@pytest.mark.filterwarnings("ignore:drift and coupling commute")
def test_controllability_brute_force():
    rng = np.random.default_rng(505)
    densities = [0.2, 0.5, 1.0]
    mismatches = 0
    for k in range(100):
        density = densities[k % 3]
        n = int(rng.integers(2, 6))
        drift = rng.integers(0, 4, size=n).astype(float)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < density
        ]
        spec = spec_from_edges(drift, edges, dim=n)
        comps, global_verdict, sub = brute_assess(spec)
        report = assess(spec)
        same = (
            list(report.components) == comps
            and report.global_verdict == global_verdict
            and [(v.component, v.verdict) for v in report.subspace_verdicts] == sub
        )
        if not same:
            mismatches += 1
    check("controllability-brute-force", mismatches == 0, f"{mismatches}/100 mismatches")
