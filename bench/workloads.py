"""Seeded workloads and output checks for the iqcontrol benchmark.

Each workload is an endless list of runs.  Run ``i`` is built from
``(seed, workload, stream, i)`` alone, so one seed always gives the same
inputs and no run repeats an earlier input.  The parameters that set a
run's cost (dimension, good weight, shots, kind of run) follow one fixed
schedule that repeats every CYCLE runs: the Kronecker sequence
``frac(START + (i mod CYCLE) * alpha)``, which covers their ranges evenly.
The program seed of a repeat-until-success run, which sets its number of
attempts, is fixed by ``(stream, i)``.  The seed draws everything else
(states, couplings, drifts, pulses, the other program seeds).  Two seeds
therefore give a timed loop different inputs with the same mix of cheap and
expensive runs.

The program only ever sees the generated CLI arguments or library values.
Every check here takes the program's output and the generator's own
expectations and returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

import iqcontrol.algorithms as algorithms
import iqcontrol.cli as cli
import iqcontrol.hydrogen as hydrogen
from iqcontrol.core import ControlPulse, StateVector
from iqcontrol.measurement import MeasurementPartition, sample_collapse

# The ids key the seeded streams, so the inputs of a seed never change.
WORKLOAD_IDS = {"amplify-deep": 0, "shots-bulk": 1, "analyze-dense": 2, "steer-small": 3}

# streams: untraced timed runs, warm-up runs and traced runs never share inputs
TIMED, WARMUP, TRACED = 0, 1, 2
ALPHA = (0.6180339887498949, 0.7548776662466927, 0.5698402909980532)
START = 0.999  # run 0 sits at the top of every range, so each cycle holds the largest input
# Runs per design cycle.  The cost-setting schedule repeats every cycle, and a
# timed loop runs a fixed number of whole cycles, so every benchmark run of a
# workload measures the same mix of inputs.  Each length is a multiple of the
# kind rotation (3 or 6).
CYCLE = {"amplify-deep": 24, "shots-bulk": 24, "analyze-dense": 27, "steer-small": 228}
EDGE_THRESHOLD = 1e-12         # the program's default edge threshold
REPEAT_CAP = 300               # shot cap of repeat-until-success runs
REPEAT_SEED_STRIDE = 10**6     # repeat-run program seeds of stream s start at s * stride
PRESET_GOOD_WEIGHT = {"hydrogen-case1": 0.01, "hydrogen-case2": 0.02}  # from the preset states
FIVE_SIGMA_TAIL = 2.866515718791939e-07  # one-sided normal tail beyond 5 sigma


@dataclass
class Item:
    """One run: a CLI argument list or a library call, plus what to check."""

    kind: str
    argv: Optional[list] = None
    call: Optional[Callable[[], Any]] = None
    expect: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.argv is not None


@dataclass
class Outcome:
    code: Optional[int] = None     # CLI exit status
    text: str = ""                 # CLI report (its stdout)
    value: Any = None              # library return value
    error: Optional[str] = None    # exception raised by the run


# ---------------------------------------------------------------------------
# running


def execute(item: Item) -> tuple[float, Outcome]:
    """Run one item; return (latency in seconds, outcome).

    Only the call into the program is timed.  Module attributes are looked
    up at call time, so a traced run goes through the installed wrappers.
    """
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            if item.is_cli:
                outcome.code = cli.main(item.argv)
            else:
                outcome.value = item.call()
        except SystemExit as exc:  # argparse rejects bad flags this way
            outcome.code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising run is a failed run, not a crash
            outcome.error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    outcome.text = out.getvalue()
    return t1 - t0, outcome


def check(item: Item, outcome: Outcome) -> list[str]:
    """Problems with one run's output; empty when the output is correct."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    if not item.is_cli:
        report, ip_state = outcome.value
        return check_steer(report, ip_state, **item.expect)
    if outcome.code != 0:
        return [f"exit code {outcome.code}"]
    try:
        report = json.loads(outcome.text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON ({exc})"]
    result = report.get("result")
    if result is None:
        return ["report has no result"]
    try:
        return CHECKS[item.kind](result, **item.expect)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # a report of the wrong shape
        return [f"malformed result ({type(exc).__name__}: {exc})"]


def make_item(workload: str, seed: int, i: int, stream: int = TIMED) -> Item:
    """Run ``i`` of ``workload`` for ``seed``; deterministic in its arguments."""
    k = i % CYCLE[workload]
    u = [(START + k * alpha) % 1.0 for alpha in ALPHA]
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], stream, i])
    return GENERATORS[workload](i, stream, u, rng)


# ---------------------------------------------------------------------------
# input generation


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _split_weight(rng, labels, weight, dim) -> np.ndarray:
    """Amplitudes on ``labels`` (1-based) carrying total weight ``weight``."""
    amps = np.zeros(dim, dtype=complex)
    idx = np.array(labels) - 1
    mags = rng.uniform(0.5, 1.5, size=idx.size)
    mags *= math.sqrt(weight) / np.linalg.norm(mags)
    amps[idx] = mags * np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=idx.size))
    return amps


def _state_with_good_weight(rng, dim, good, g) -> np.ndarray:
    bad = sorted(set(range(1, dim + 1)) - set(good))
    amps = _split_weight(rng, good, g, dim) + _split_weight(rng, bad, 1.0 - g, dim)
    return amps / np.linalg.norm(amps)


def _chain_coupling(rng, dim) -> list:
    rows = [[0] * dim for _ in range(dim)]
    for k in range(dim - 1):
        rows[k][k + 1] = rows[k + 1][k] = float(rng.uniform(0.5, 2.0))
    return rows


def _program_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _normalized(pairs) -> np.ndarray:
    """The state the CLI builds from an ``initial`` list of [re, im] pairs."""
    amps = np.array([complex(re, im) for re, im in pairs])
    return amps / np.linalg.norm(amps)


def _amplify_deep(i, stream, u, rng) -> Item:
    dim = (64, 128, 256)[i % 3]
    mode = ("algo1", "amplify")[(i // 3) % 2]
    g_target = 10.0 ** (-8.0 + 3.0 * u[0])
    size = 1 if mode == "algo1" else int(rng.integers(1, 4))
    good = sorted(int(x) for x in rng.choice(np.arange(1, dim + 1), size=size, replace=False))
    amps = _state_with_good_weight(rng, dim, good, g_target)
    initial = [_pair(z) for z in amps]
    g = float(np.sum(np.abs(_normalized(initial)[np.array(good) - 1]) ** 2))
    system = {
        "dim": dim,
        "drift": sorted(float(x) for x in rng.uniform(0.0, 10.0, size=dim)),
        "coupling": _chain_coupling(rng, dim),
    }
    argv = ["--mode", mode, "--system", json.dumps(system), "--initial", json.dumps(initial),
            "--seed", str(_program_seed(rng))]
    argv += ["--good", str(good[0])] if mode == "algo1" else ["--subspace", json.dumps(good)]
    return Item(mode, argv=argv, expect={"g": g, "good": good})


def _shots_bulk(i, stream, u, rng) -> Item:
    kind = ("per-index", "binary", "hydrogen-case1", "per-index", "binary", "hydrogen-case2")[i % 6]
    shots = int(round(2e3 * 5.0 ** u[0]))  # log-uniform in [2e3, 1e4]
    seed = _program_seed(rng)
    if kind.startswith("hydrogen"):
        argv = ["--mode", kind, "--seed", str(seed), "--shots", str(shots)]
        g = PRESET_GOOD_WEIGHT[kind]
        return Item(kind, argv=argv, expect={"g": g, "seed": seed, "shots": shots})
    dim = 5 + int(28 * u[1])  # 5..32
    amps = _split_weight(rng, list(range(1, dim + 1)), 1.0, dim)
    initial = [_pair(z) for z in amps]
    system = {"dim": dim, "drift": list(range(dim)), "coupling": _chain_coupling(rng, dim)}
    argv = ["--mode", "measure-stats", "--system", json.dumps(system),
            "--initial", json.dumps(initial), "--seed", str(seed), "--shots", str(shots)]
    if kind == "per-index":
        blocks = [[k] for k in range(1, dim + 1)]
    else:
        good = sorted(int(x) for x in rng.choice(np.arange(1, dim + 1),
                                                 size=int(rng.integers(1, dim // 2 + 1)),
                                                 replace=False))
        rest = sorted(set(range(1, dim + 1)) - set(good))
        blocks = [good, rest]
        argv += ["--subspace", json.dumps(good)]
    state = _normalized(initial)
    return Item("measure-stats", argv=argv, expect={
        "amplitudes": state, "blocks": blocks, "seed": seed, "shots": shots,
    })


def _analyze_dense(i, stream, u, rng) -> Item:
    # two dense specs per chain: an even mix would put the median report size
    # on the gap between the two kinds' sizes
    dense = i % 3 != 2
    # N in 6..16 with density ~ N^-2: the N^4 cost of the ratio check would
    # otherwise leave a window only a few dozen runs, mostly at large N
    dim = int((6.0**-2 - u[0] * (6.0**-2 - 17.0**-2)) ** -0.5)
    if dense:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (z + z.conj().T) / 2.0
        coupling = [[_pair(h[r, c]) if r != c else float(h[r, r].real) for c in range(dim)]
                    for r in range(dim)]
        drift = [float(x) for x in rng.uniform(0.0, 10.0, size=dim)]
        magnitudes = np.abs(h)
        verdict = "violated"
    else:
        gaps = rng.choice(np.arange(1, 3 * dim + 1), size=dim - 1, replace=False)
        drift = [0] + [int(x) for x in np.cumsum(gaps)]
        coupling = _chain_coupling(rng, dim)
        magnitudes = np.abs(np.array(coupling, dtype=float))
        verdict = "controllable"
    system = {"dim": dim, "drift": drift, "coupling": coupling}
    argv = ["--mode", "analyze", "--system", json.dumps(system)]
    return Item("analyze", argv=argv, expect={"magnitudes": magnitudes, "verdict": verdict})


def _steer_small(i, stream, u, rng) -> Item:
    kind = ("hydrogen-case1", "library", "hydrogen-case2",
            "repeat-case1", "library", "repeat-case2")[i % 6]
    seed = _program_seed(rng)
    if kind.startswith("hydrogen"):
        return Item("preset", argv=["--mode", kind, "--seed", str(seed)])
    if kind.startswith("repeat"):
        # The attempts until success set a repeat run's cost, and its program
        # seed sets them.  So that seed is the run's own number within the
        # stream: every benchmark seed times the same attempt counts, and no
        # two runs of one process share it.
        seed = i + REPEAT_SEED_STRIDE * stream
        mode = "hydrogen-" + kind.split("-")[1]
        argv = ["--mode", mode, "--seed", str(seed), "--iterations", "0",
                "--repeat-until-success", "--shots", str(REPEAT_CAP)]
        return Item("repeat", argv=argv, expect={"cap": REPEAT_CAP})
    spec, model = hydrogen.hydrogen_spec(), hydrogen.HydrogenModel()
    good = int(rng.integers(1, 4))  # a coupled level
    g = 0.02 + 0.18 * u[0]
    initial = StateVector(_state_with_good_weight(rng, 5, [good], g))
    segments = int(rng.integers(3, 9))
    pulse = ControlPulse(tuple(
        (float(rng.uniform(0.1, 0.5)), float(rng.uniform(-1.0, 1.0))) for _ in range(segments)
    ))
    target = StateVector(_split_weight(rng, [1, 2, 3, 4, 5], 1.0, 5))

    call = partial(steer, spec, model, initial, good, seed, pulse, target)
    return Item("library", call=call, expect={
        "drift": np.asarray(spec.drift), "duration": pulse.duration, "target": target,
    })


def steer(spec, model, initial, good, seed, pulse, target):
    """One library run: amplify, measure and steer with run_algorithm1, then
    follow the same collapsed state in the interaction picture."""
    report = algorithms.run_algorithm1(spec, initial, good, seed=seed,
                                       final_pulse=pulse, target=target)
    ip_state = None
    if report.final_state is not None:
        ip_state = hydrogen.propagate_interaction_picture(model, pulse, report.measurement.collapsed)
    return report, ip_state


GENERATORS = {
    "amplify-deep": _amplify_deep,
    "shots-bulk": _shots_bulk,
    "analyze-dense": _analyze_dense,
    "steer-small": _steer_small,
}


# ---------------------------------------------------------------------------
# oracles


def first_peak(g: float) -> int:
    """round(pi/(4 theta) - 1/2) with sin^2(theta) = g."""
    theta = math.asin(math.sqrt(g))
    return int(round(math.pi / (4.0 * theta) - 0.5))


def components_of(magnitudes) -> list[list[int]]:
    """Connected components of |B_ij| > EDGE_THRESHOLD by union-find, 1-based."""
    dim = len(magnitudes)
    parent = list(range(dim))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in range(dim):
        for c in range(r + 1, dim):
            if magnitudes[r][c] > EDGE_THRESHOLD:
                parent[find(r)] = find(c)
    groups: dict[int, list[int]] = {}
    for v in range(dim):
        groups.setdefault(find(v), []).append(v + 1)
    return sorted(groups.values(), key=lambda comp: comp[0])


def _log_binom_pmf(k, n, p):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_outlier(count: int, n: int, p: float) -> bool:
    """True when ``count`` of ``n`` lies beyond 5 sigma of Binomial(n, p).

    With variance >= 25 this is the normal 5-sigma band.  Below that the
    normal band misjudges the skewed tail, so the exact one-sided tail is
    compared with the normal 5-sigma tail probability instead.
    """
    if p <= 0.0 or p >= 1.0:
        return count != (0 if p <= 0.0 else n)
    mean, var = n * p, n * p * (1.0 - p)
    if var >= 25.0:
        return abs(count - mean) > 5.0 * math.sqrt(var)
    step = 1 if count > mean else -1
    tail, k = 0.0, count
    while 0 <= k <= n:
        term = math.exp(_log_binom_pmf(k, n, p))
        tail += term
        if term < 1e-18 * max(tail, 1e-300) or tail > FIVE_SIGMA_TAIL:
            break
        k += step
    return tail < FIVE_SIGMA_TAIL


def _collapse_problems(measurement: dict, dim: int) -> list[str]:
    block = set(measurement["block"])
    amps = [complex(*z) for z in measurement["collapsed"]]
    outside = max((abs(z) for k, z in enumerate(amps, start=1) if k not in block), default=0.0)
    norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
    problems = []
    if len(amps) != dim:
        problems.append(f"collapsed state has {len(amps)} amplitudes, expected {dim}")
    if outside > 1e-12:
        problems.append(f"collapsed state leaves the measured block by {outside:.3e}")
    if abs(norm - 1.0) > 1e-9:
        problems.append(f"collapsed state norm {norm!r}")
    return problems


def _histogram_problems(counts, probabilities, shots) -> list[str]:
    if len(counts) != len(probabilities):
        return [f"{len(counts)} counts for {len(probabilities)} blocks"]
    if sum(counts) != shots:
        return [f"counts sum to {sum(counts)}, expected {shots} shots"]
    return [
        f"block {b}: {c} of {shots} is beyond 5 sigma of p={p:.6g}"
        for b, (c, p) in enumerate(zip(counts, probabilities))
        if binomial_outlier(c, shots, p)
    ]


def _replay_problems(counts, amplitudes, blocks, seed, shots) -> list[str]:
    """Three shot indices replayed through sample_collapse must land on blocks
    the histogram counted."""
    state = StateVector(amplitudes)
    partition = MeasurementPartition(tuple(tuple(b) for b in blocks))
    problems = []
    for shot in (0, shots // 2, shots - 1):
        block = sample_collapse(state, partition, seed, shot=shot).block_index
        if counts[block] == 0:
            problems.append(f"shot {shot} replays to block {block}, which the histogram never hit")
    return problems


def check_amplify(result: dict, g: float, good: list) -> list[str]:
    """amplify-deep: first-peak L, realised weight sin^2((2L+1)theta), unit norm."""
    problems = []
    plan_l = result["plan"]["iterations"]
    if plan_l != first_peak(g):
        problems.append(f"L = {plan_l}, first-peak count is {first_peak(g)}")
    post = np.asarray(result["post_amplification"], dtype=float)
    theta = math.asin(math.sqrt(g))
    realised = float(np.sum(post[np.asarray(good) - 1] ** 2))
    predicted = math.sin((2 * plan_l + 1) * theta) ** 2
    if abs(realised - predicted) > 1e-9:
        problems.append(f"realised good weight {realised!r} vs sin^2((2L+1)theta) = {predicted!r}")
    norm_sq = float(np.sum(post ** 2))
    if abs(norm_sq - 1.0) > 1e-9:
        problems.append(f"post-amplification norm^2 is {norm_sq!r}")
    if "measurement" in result:
        problems += _collapse_problems(result["measurement"], post.size)
    return problems


def check_measure_stats(result: dict, amplitudes, blocks, seed, shots) -> list[str]:
    """shots-bulk measure-stats: counts, 5-sigma Born agreement, shot replay."""
    pops = np.abs(amplitudes) ** 2
    born = [float(sum(pops[k - 1] for k in b)) for b in blocks]
    if result["blocks"] != blocks:
        return [f"blocks {result['blocks']} differ from the requested partition"]
    problems = []
    reported = result["born_probabilities"]
    if max(abs(a - b) for a, b in zip(reported, born)) > 1e-12:
        problems.append("reported Born probabilities differ from |c|^2 block sums")
    counts = result["histogram"]
    problems += _histogram_problems(counts, born, shots)
    if not problems:
        problems += _replay_problems(counts, amplitudes, blocks, seed, shots)
    return problems


def check_preset_histogram(result: dict, g, seed, shots) -> list[str]:
    """shots-bulk hydrogen presets: preset L, 5-sigma binary counts, replay."""
    problems = _preset_l_problems(result)
    plan = result["plan"]
    plan_l = plan["iterations"]
    if abs(plan["initial_good_weight"] - g) > 1e-12:
        problems.append(f"initial good weight {plan['initial_good_weight']!r}, preset has {g}")
    p_good = math.sin((2 * plan_l + 1) * math.asin(math.sqrt(g))) ** 2
    counts = result["histogram"]
    problems += _histogram_problems(counts, [p_good, 1.0 - p_good], shots)
    if not problems:
        amplitudes = np.asarray(result["post_amplification"], dtype=float)
        good = plan["good_indices"]
        rest = sorted(set(range(1, amplitudes.size + 1)) - set(good))
        problems += _replay_problems(counts, amplitudes, [good, rest], seed, shots)
    return problems


def _preset_l_problems(result: dict) -> list[str]:
    expected = result["preset_expectation"]["iterations"]
    plan_l = result["plan"]["iterations"]
    return [] if plan_l == expected else [f"preset L = {plan_l}, expected {expected}"]


def _measured_problems(result: dict) -> list[str]:
    m = result["measurement"]
    problems = _collapse_problems(m, len(result["post_amplification"]))
    if result["success"] != (m["block_index"] == 0):
        problems.append("success flag disagrees with the measured block")
    return problems


def check_preset(result: dict) -> list[str]:
    """steer-small single-shot presets: preset L and an in-block collapse."""
    return _preset_l_problems(result) + _measured_problems(result)


def check_repeat(result: dict, cap: int) -> list[str]:
    """steer-small repeat-until-success at iterations 0."""
    problems = _measured_problems(result)
    if result["plan"]["iterations"] != 0:
        problems.append(f"L = {result['plan']['iterations']}, requested 0")
    attempts = result["attempts"]
    if not 1 <= attempts <= cap:
        problems.append(f"{attempts} attempts outside 1..{cap}")
    elif not result["success"] and attempts != cap:
        problems.append(f"stopped after {attempts} failed attempts, cap is {cap}")
    return problems


def check_analyze(result: dict, magnitudes, verdict) -> list[str]:
    """analyze-dense: components by union-find and the built-in verdict."""
    problems = []
    expected = components_of(magnitudes)
    if result["components"] != expected:
        problems.append(f"components {result['components']} differ from union-find {expected}")
    if result["global_verdict"] != verdict:
        problems.append(f"global verdict {result['global_verdict']!r}, spec built to be {verdict!r}")
    return problems


def check_steer(report, ip_state, drift, duration, target) -> list[str]:
    """steer-small library runs: in-block collapse, fidelity in [0, 1], and
    propagate agreeing with the interaction picture after exp(iAT)."""
    m = report.measurement
    problems = _collapse_problems({
        "block": list(m.block),
        "collapsed": [_pair(z) for z in m.collapsed.amplitudes],
    }, drift.size)
    if report.success != (m.block_index == 0):
        problems.append("success flag disagrees with the measured block")
    if not report.success:
        if report.final_state is not None:
            problems.append("steered after a failed measurement")
        return problems
    if report.final_state is None or ip_state is None:
        return problems + ["successful measurement was not steered"]
    fidelity = report.fidelity
    if fidelity is None or not 0.0 <= fidelity <= 1.0:
        problems.append(f"fidelity {fidelity!r} outside [0, 1]")
    elif abs(fidelity - abs(np.vdot(target.amplitudes, report.final_state.amplitudes)) ** 2) > 1e-12:
        problems.append("fidelity differs from |<target|final>|^2")
    framed = np.exp(1j * drift * duration) * report.final_state.amplitudes
    gap = float(np.max(np.abs(framed - ip_state.amplitudes)))
    if gap > 1e-8:
        problems.append(f"propagate and the interaction picture differ by {gap:.3e}")
    return problems


CHECKS = {
    "algo1": check_amplify,
    "amplify": check_amplify,
    "measure-stats": check_measure_stats,
    "hydrogen-case1": check_preset_histogram,
    "hydrogen-case2": check_preset_histogram,
    "analyze": check_analyze,
    "preset": check_preset,
    "repeat": check_repeat,
}
