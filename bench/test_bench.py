"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root:  python -m pytest -q bench/test_bench.py
"""

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import iqcontrol  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from iqcontrol import cli  # noqa: E402
from iqcontrol.measurement import MeasurementPartition, measurement_histogram  # noqa: E402

WORKLOADS = list(wl.WORKLOAD_IDS)


def fingerprint(item):
    if item.is_cli:
        return tuple(item.argv)
    spec, model, initial, good, seed, pulse, target = item.call.args
    return (good, seed, pulse.segments, tuple(initial.amplitudes), tuple(target.amplitudes))


def result_of(item):
    latency, outcome = wl.execute(item)
    assert latency > 0.0
    assert wl.check(item, outcome) == []
    if item.is_cli:
        return json.loads(outcome.text)["result"]
    return outcome.value


def first_item(workload, kind, seed=3):
    return next(it for it in (wl.make_item(workload, seed, i) for i in range(12)) if it.kind == kind)


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    same = [fingerprint(wl.make_item(workload, 5, i)) for i in range(6)]
    again = [fingerprint(wl.make_item(workload, 5, i)) for i in range(6)]
    other = [fingerprint(wl.make_item(workload, 6, i)) for i in range(6)]
    warmup = [fingerprint(wl.make_item(workload, 5, i, wl.WARMUP)) for i in range(6)]
    assert same == again
    assert all(same[k] != warmup[k] for k in range(6))
    # a repeat-until-success run's program seed is fixed by its run number
    varied = [k for k in range(6) if wl.make_item(workload, 5, k).kind != "repeat"]
    assert all(same[k] != other[k] for k in varied)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_input_repeats_within_two_cycles(workload):
    runs = [fingerprint(wl.make_item(workload, 5, i)) for i in range(2 * wl.CYCLE[workload])]
    assert len(set(runs)) == len(runs)


def test_cost_schedule_repeats_every_cycle_and_starts_at_the_top():
    cycle = wl.CYCLE["analyze-dense"]
    dims = [json.loads(wl.make_item("analyze-dense", 9, i).argv[3])["dim"] for i in range(2 * cycle)]
    assert dims[:cycle] == dims[cycle:]
    assert dims[0] == 16 and min(dims) == 6 and set(dims) <= set(range(6, 17))


# ---------------------------------------------------------------------------
# oracles reject planted wrong results


def test_amplify_check_rejects_wrong_l_weight_and_norm():
    item = wl.make_item("amplify-deep", 3, 0)  # algo1 at N = 64
    result = result_of(item)
    check = lambda r: wl.check_amplify(r, **item.expect)  # noqa: E731
    assert check(result) == []

    wrong_l = copy.deepcopy(result)
    wrong_l["plan"]["iterations"] += 1
    assert any("first-peak" in p for p in check(wrong_l))

    # move 1e-6 of weight from the good index onto a bad one; the norm stays 1
    off = copy.deepcopy(result)
    post = off["post_amplification"]
    good = item.expect["good"][0] - 1
    bad = (good + 1) % len(post)
    post[good] = (post[good] ** 2 - 1e-6) ** 0.5
    post[bad] = (post[bad] ** 2 + 1e-6) ** 0.5
    problems = check(off)
    assert any("realised good weight" in p for p in problems)
    assert not any("norm" in p for p in problems)

    unnormalized = copy.deepcopy(result)
    unnormalized["post_amplification"][good] *= 1.001
    assert any("norm" in p for p in check(unnormalized))


def _histogram_case(seed=11, shots=2000):
    amps = wl._normalized([[0.6, 0.1], [0.3, -0.2], [0.5, 0.0], [0.4, 0.3], [0.2, 0.2]])
    blocks = [[1, 3], [2, 4, 5]]
    counts = measurement_histogram(
        iqcontrol.StateVector(amps), MeasurementPartition(tuple(map(tuple, blocks))), seed, shots)
    pops = np.abs(amps) ** 2
    result = {
        "blocks": blocks,
        "born_probabilities": [float(sum(pops[k - 1] for k in b)) for b in blocks],
        "histogram": counts,
    }
    return result, {"amplitudes": amps, "blocks": blocks, "seed": seed, "shots": shots}


def test_histogram_check_rejects_off_by_one_skewed_and_unreplayable_counts():
    result, expect = _histogram_case()
    assert wl.check_measure_stats(result, **expect) == []

    off_by_one = copy.deepcopy(result)
    off_by_one["histogram"][0] += 1
    assert any("sum to" in p for p in wl.check_measure_stats(off_by_one, **expect))

    skewed = copy.deepcopy(result)
    moved = skewed["histogram"][1] // 3
    skewed["histogram"][0] += moved
    skewed["histogram"][1] -= moved
    assert any("5 sigma" in p for p in wl.check_measure_stats(skewed, **expect))

    # a histogram that never hit the block a replayed shot lands on
    state = iqcontrol.StateVector(expect["amplitudes"])
    partition = MeasurementPartition(tuple(map(tuple, expect["blocks"])))
    landed = wl.sample_collapse(state, partition, expect["seed"], shot=0).block_index
    unreplayable = [0, 0]
    unreplayable[1 - landed] = expect["shots"]
    problems = wl._replay_problems(unreplayable, expect["amplitudes"], expect["blocks"],
                                   expect["seed"], expect["shots"])
    assert any("shot 0 replays" in p for p in problems)

    wrong_born = copy.deepcopy(result)
    wrong_born["born_probabilities"][0] += 1e-9
    assert any("Born" in p for p in wl.check_measure_stats(wrong_born, **expect))


def test_binomial_outlier_uses_the_exact_tail_for_small_counts():
    n, p = 10_000, 9.9e-5  # about one expected count, as in hydrogen-case2
    assert not wl.binomial_outlier(0, n, p)
    assert not wl.binomial_outlier(6, n, p)
    assert wl.binomial_outlier(15, n, p)
    assert not wl.binomial_outlier(5000 + 200, n, 0.5)
    assert wl.binomial_outlier(5000 + 260, n, 0.5)
    assert wl.binomial_outlier(1, n, 0.0)


def test_preset_histogram_check_rejects_wrong_counts():
    item = wl.make_item("shots-bulk", 3, 2)  # hydrogen-case1 histogram
    assert item.kind == "hydrogen-case1"
    item.argv[item.argv.index("--shots") + 1] = "2000"
    item.expect["shots"] = 2000
    result = result_of(item)
    off = copy.deepcopy(result)
    off["histogram"][1] -= 1
    assert any("sum to" in p for p in wl.check_preset_histogram(off, **item.expect))
    swapped = copy.deepcopy(result)
    swapped["histogram"].reverse()
    assert any("5 sigma" in p for p in wl.check_preset_histogram(swapped, **item.expect))


def _analyze(system):
    code, report = cli.execute(cli.validate_config({"mode": "analyze", "system": system}))
    assert code == 0
    return report["result"]


def test_analyze_check_rejects_wrong_components_and_verdict():
    coupling = [[0, 1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 0, 2.0], [0, 0, 2.0, 0]]
    magnitudes = np.abs(np.array(coupling))
    result = _analyze({"dim": 4, "drift": [0, 1, 3, 7], "coupling": coupling})
    assert result["components"] == [[1, 2], [3, 4]]
    assert wl.check_analyze(result, magnitudes, "violated") == []

    merged = copy.deepcopy(result)
    merged["components"] = [[1, 2, 3, 4]]
    assert any("union-find" in p for p in wl.check_analyze(merged, magnitudes, "violated"))
    assert any("verdict" in p for p in wl.check_analyze(result, magnitudes, "controllable"))


def test_generated_analyze_specs_have_their_built_verdicts():
    small = [it for it in (wl.make_item("analyze-dense", 4, i) for i in range(40))
             if json.loads(it.argv[3])["dim"] <= 8]  # small sizes keep the test quick
    for verdict in ("violated", "controllable"):  # dense float drift, integer-gap chain
        item = next(it for it in small if it.expect["verdict"] == verdict)
        assert wl.check_analyze(_analyze(json.loads(item.argv[3])), **item.expect) == []


def test_preset_and_repeat_checks_reject_planted_results():
    preset = result_of(first_item("steer-small", "preset"))
    assert wl.check_preset(preset) == []
    wrong_l = copy.deepcopy(preset)
    wrong_l["plan"]["iterations"] = 6
    assert any("preset L" in p for p in wl.check_preset(wrong_l))
    leaked = copy.deepcopy(preset)
    outside = next(k for k in range(5) if k + 1 not in leaked["measurement"]["block"])
    leaked["measurement"]["collapsed"][outside] = [1e-6, 0.0]
    assert any("leaves the measured block" in p for p in wl.check_preset(leaked))

    item = first_item("steer-small", "repeat")
    repeat = result_of(item)
    assert wl.check_repeat(repeat, **item.expect) == []
    over = copy.deepcopy(repeat)
    over["attempts"] = wl.REPEAT_CAP + 1
    assert wl.check_repeat(over, **item.expect)
    gave_up = copy.deepcopy(repeat)
    gave_up["success"] = False
    gave_up["measurement"]["block_index"] = 1
    gave_up["attempts"] = 3
    assert any("cap" in p for p in wl.check_repeat(gave_up, **item.expect))


def test_steer_check_rejects_frame_mismatch_and_bad_fidelity():
    item = next(it for it in (wl.make_item("steer-small", 8, i) for i in range(60))
                if it.kind == "library" and result_of(it)[0].success)
    report, ip_state = result_of(item)
    shifted = iqcontrol.StateVector(ip_state.amplitudes * np.exp(1j * 1e-6))
    assert any("interaction picture" in p for p in wl.check_steer(report, shifted, **item.expect))
    bad = dataclasses.replace(report, fidelity=1.2)
    assert any("fidelity" in p for p in wl.check_steer(bad, ip_state, **item.expect))


# ---------------------------------------------------------------------------
# tracing


def test_traced_run_records_spans_and_leaves_no_wrapper():
    before = {name: dict(vars(mod)) for name, mod in spans.LAYERS.items()}
    init_before = iqcontrol.core.UnitaryOperator.__init__
    loop = run.Loop(wl, "steer-small", 2)
    untraced = loop.run(0, 24, wl.TIMED)
    tracer = spans.Tracer()
    tracer.install()
    assert spans.installed_wrappers()
    try:
        traced = loop.run(0, 24, wl.TRACED, tracer)
    finally:
        tracer.restore()
    assert spans.installed_wrappers() == []
    assert iqcontrol.core.UnitaryOperator.__init__ is init_before
    for name, mod in spans.LAYERS.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items())
    metrics = tracer.layer_metrics(traced["latencies"], untraced["latencies"], traced["factors"])
    assert len(traced["factors"]) == len(tracer.run_is_cli)
    # a loop runs exactly its runs, each once
    assert len(untraced["latencies"]) == len(traced["latencies"]) == 24
    assert untraced["cut"] == traced["cut"] == 0
    assert loop.attempted == 48
    assert loop.failures == []
    assert metrics["cli.main.self_ms"] > 0.0
    assert metrics["core.unitary_checks"] > 0.0
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    # checks run between runs: no span belongs to no run
    assert min(tracer.run_ids) >= 0


def test_workers_time_one_cycle_each_and_merge(monkeypatch):
    monkeypatch.chdir(ROOT)
    args = argparse.Namespace(workload="steer-small", seed=3, seconds=10.0)
    cycle = wl.CYCLE["steer-small"]
    merged = run.run_workers(args, 2, cycle)
    assert merged["attempted"] == len(merged["latencies"]) == len(merged["kinds"]) == 2 * cycle
    assert merged["cut"] == 0 and merged["failures"] == []
    assert merged["peak_rss_mib"] > 0.0
    assert all(t > 0.0 for t in merged["latencies"])


def test_traced_and_untraced_halves_share_no_input():
    for workload in WORKLOADS:
        timed = {fingerprint(wl.make_item(workload, 4, i, wl.TIMED)) for i in range(6)}
        traced = {fingerprint(wl.make_item(workload, 4, i, wl.TRACED)) for i in range(6)}
        assert not timed & traced


def test_tail_keeps_ten_samples_beyond():
    values = [float(k) for k in range(30)]
    assert run.tail(values) == (19.0, 100.0 * 20 / 30)
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_speed_factor_uses_the_probes_around_a_timed_call():
    probe = run.SpeedProbe()
    probe.stamps, probe.values = [1.0, 2.0, 3.0], [2 * run.PROBE_REF_S, 4 * run.PROBE_REF_S, run.PROBE_REF_S]
    assert probe.factor(1.5, 1.9) == pytest.approx(1 / 3)  # probes 2x and 4x the reference
    assert probe.factor(2.5, 2.6) == pytest.approx(0.4)    # probes 4x and 1x
    assert probe.factor(3.5, 3.6) == pytest.approx(1.0)    # only the probe before
