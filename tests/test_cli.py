import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import iqcontrol
import iqcontrol.algorithms
import iqcontrol.cli
import iqcontrol.hydrogen
from iqcontrol import (
    ConfigError,
    ControlPulse,
    ControllabilityConfig,
    GoodSubspace,
    HydrogenModel,
    MeasurementPartition,
    StateVector,
    SystemSpec,
    case1_preset,
    case2_preset,
    hydrogen_spec,
    make_plan,
    measurement_histogram,
    run_algorithm1,
    run_algorithm2,
    sample_collapse,
)
from iqcontrol.amplification import MAX_ITERATIONS
from iqcontrol.cli import (
    _reindent,
    execute,
    main,
    parse_config,
    render_report,
    summarize,
    validate_config,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def oracle_render(report):
    """The renderer's oracle: Python's json, sorted keys, 2-space indent."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def assert_same_text(text, *expected):
    """``text`` equals each of ``expected``, compared as lists of lines
    first: pytest's diff of two long strings takes minutes, of two lists a
    moment.  The texts are then compared whole, trailing newline included."""
    for other in expected:
        assert text.splitlines() == other.splitlines()
        assert text == other


def run_cli(tmp_path, payload, extra_args=(), capsys=None):
    out = str(tmp_path / "report.json")
    args = ["--config", write_config(tmp_path, payload), "--out", out, *extra_args]
    code = main(args)
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text)
    assert_same_text(text, render_report(report), oracle_render(report))
    return code, report


HYDROGEN_INLINE = {
    "dim": 2,
    "drift": [0.0, 1.0],
    "coupling": [[0.0, 1.0], [1.0, 0.0]],
}


class TestParseConfig:
    def test_minimal_case1_config(self):
        cfg = parse_config(json.dumps({"mode": "hydrogen-case1", "seed": 3}))
        assert cfg.mode == "hydrogen-case1"
        assert cfg.phases == (math.pi, math.pi)
        assert cfg.iterations == "auto"
        assert cfg.shots == 1
        assert cfg.l_max == 10**6

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{nope")

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_config({"mode": "analyze", "system": "hydrogen", "bogus": 1})

    def test_non_hermitian_coupling_names_entry(self):
        raw = {
            "mode": "analyze",
            "system": {
                "dim": 2,
                "drift": [0.0, 1.0],
                "coupling": [[0.0, [0.0, 1.0]], [[0.0, 1.0], 0.0]],
            },
        }
        with pytest.raises(ConfigError, match=r"coupling\[0\]\[1\]"):
            validate_config(raw)

    def test_complex_entries_accepted(self):
        raw = {
            "mode": "analyze",
            "system": {
                "dim": 2,
                "drift": [0.0, 1.0],
                "coupling": [[0.0, [0.0, 1.0]], [[0.0, -1.0], 0.0]],
            },
        }
        cfg = validate_config(raw)
        assert cfg.system["dim"] == 2

    def test_sampling_mode_requires_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"mode": "hydrogen-case2"})

    def test_mode_requirements(self):
        with pytest.raises(ConfigError, match="good"):
            validate_config(
                {"mode": "algo1", "system": "hydrogen", "initial": [1.0, 0.0], "seed": 1}
            )

    def test_phase_range(self):
        with pytest.raises(ConfigError, match=r"phases\[1\]"):
            validate_config({"mode": "hydrogen-case1", "seed": 1, "phases": [1.0, 4.0]})

    def test_non_normalized_initial_rejected_with_norm(self, tmp_path):
        raw = {
            "mode": "algo1",
            "system": HYDROGEN_INLINE,
            "initial": [1.0, 1.0],
            "good": 2,
            "seed": 1,
        }
        with pytest.raises(ConfigError, match="^initial: ") as info:
            validate_config(raw)
        assert "norm" in str(info.value)
        assert "1.41" in str(info.value)  # the computed norm
        code, report = run_cli(tmp_path, raw)
        assert code == 2
        assert report["error"]["message"] == str(info.value)

    def test_auto_iterations_propagates(self, tmp_path):
        code, report = run_cli(
            tmp_path, {"mode": "hydrogen-case1", "seed": 42, "iterations": "auto"}
        )
        assert code == 0
        assert report["result"]["plan"]["iterations"] == 7


class TestExecute:
    def test_analyze_hydrogen(self, tmp_path):
        code, report = run_cli(tmp_path, {"mode": "analyze", "system": "hydrogen"})
        assert code == 0
        result = report["result"]
        assert result["components"] == [[1, 2, 3], [4], [5]]
        assert result["global_verdict"] == "violated"
        verdicts = {tuple(v["component"]): v["verdict"] for v in result["subspace_verdicts"]}
        assert verdicts[(1, 2, 3)] == "inconclusive-relaxed-controllable"

    def test_case1_run(self, tmp_path):
        code, report = run_cli(tmp_path, {"mode": "hydrogen-case1", "seed": 11})
        assert code == 0
        result = report["result"]
        assert result["plan"]["iterations"] == 7
        assert abs(result["predicted_success"] - 0.9953) < 5e-4
        assert result["preset_expectation"]["iterations"] == 7

    def test_case2_statistics(self, tmp_path):
        code, report = run_cli(
            tmp_path, {"mode": "hydrogen-case2", "seed": 7, "shots": 20000}
        )
        assert code == 0
        result = report["result"]
        p = result["predicted_success"]
        bound = 4.0 * math.sqrt(p * (1.0 - p) / 20000)
        assert abs(result["empirical_success"] - p) <= bound

    def test_algo1_inline_system(self, tmp_path):
        payload = {
            "mode": "algo1",
            "system": HYDROGEN_INLINE,
            "initial": [math.sqrt(0.5), math.sqrt(0.5)],
            "good": 2,
            "seed": 5,
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        assert report["result"]["plan"]["good_indices"] == [2]

    def test_algo1_zero_overlap_error(self, tmp_path):
        payload = {
            "mode": "algo1",
            "system": HYDROGEN_INLINE,
            "initial": [1.0, 0.0],
            "good": 2,
            "seed": 5,
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 1
        assert "pre_rotation" in report["error"]["message"]
        assert "result" not in report

    def test_algo1_pre_rotation_flag(self, tmp_path):
        payload = {
            "mode": "algo1",
            "system": HYDROGEN_INLINE,
            "initial": [1.0, 0.0],
            "good": 2,
            "seed": 5,
        }
        code, report = run_cli(tmp_path, payload, extra_args=["--pre-rotation"])
        assert code == 0
        assert report["result"]["plan"]["pre_rotated"] is True

    def test_amplify_mode_no_measurement(self, tmp_path):
        payload = {
            "mode": "amplify",
            "system": "hydrogen",
            "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
            "good": 5,
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        result = report["result"]
        assert result["plan"]["iterations"] == 7
        assert "measurement" not in result
        assert abs(sum(x**2 for x in result["post_amplification"]) - 1.0) < 1e-9

    def test_analyze_tolerance_overrides(self, tmp_path):
        payload = {
            "mode": "analyze",
            "system": {
                "dim": 3,
                "drift": [0.0, 1.0, math.sqrt(2.0)],
                "coupling": [[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]],
            },
            "tolerances": {"max_denominator": 10**9, "ratio_tol": 1e-12},
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        # a huge denominator bound approximates sqrt(2) well enough that
        # the heuristic stops flagging it
        assert report["result"]["irrational_witnesses"] == []

    def test_measure_stats(self, tmp_path):
        payload = {
            "mode": "measure-stats",
            "system": "hydrogen",
            "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
            "good": 5,
            "seed": 2,
            "shots": 5000,
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        result = report["result"]
        assert result["blocks"] == [[5], [1, 2, 3, 4]]
        assert abs(result["born_probabilities"][0] - 0.01) < 1e-12
        assert sum(result["histogram"]) == 5000

    def test_repeat_until_success(self, tmp_path):
        payload = {
            "mode": "algo2",
            "system": "hydrogen",
            "initial": [0.1, 0.06, 0.08, 0.7, 0.7],
            "subspace": [1, 2, 3],
            "iterations": 1,
            "seed": 4,
            "shots": 50,
            "repeat_until_success": True,
        }
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        result = report["result"]
        assert result["success"] is True
        assert 1 <= result["attempts"] <= 50

    def test_config_error_exit_code(self, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(["--mode", "analyze", "--out", out])  # missing system
        assert code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["error"]["type"] == "ConfigError"

    def test_exit_zero_iff_no_error_record(self, tmp_path):
        code, report = run_cli(tmp_path, {"mode": "analyze", "system": "hydrogen"})
        assert code == 0 and "error" not in report
        code, report = run_cli(
            tmp_path,
            {
                "mode": "algo1",
                "system": HYDROGEN_INLINE,
                "initial": [1.0, 0.0],
                "good": 2,
                "seed": 1,
            },
        )
        assert code != 0 and "error" in report


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    report = json.loads(text, parse_constant=reject)
    assert_same_text(text, oracle_render(report))
    return report


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides, path",
    [
        pytest.param(
            {"system": {**HYDROGEN_INLINE, "drift": [0.0, NAN]}},
            "system.drift[1]", id="drift",
        ),
        pytest.param(
            {"system": {**HYDROGEN_INLINE, "coupling": [[0.0, INF], [INF, 0.0]]}},
            "system.coupling[0][1]", id="coupling",
        ),
        pytest.param(
            {"system": {**HYDROGEN_INLINE, "coupling": [[0.0, [1.0, NAN]], [1.0, 0.0]]}},
            "system.coupling[0][1][1]", id="coupling-pair",
        ),
        pytest.param(
            {"mode": "amplify", "initial": [NAN, 1.0], "good": 2},
            "initial[0]", id="initial",
        ),
        pytest.param(
            {"mode": "amplify", "initial": [[0.6, -INF], 0.8], "good": 2},
            "initial[0][1]", id="initial-pair",
        ),
        pytest.param(
            {"system": {**HYDROGEN_INLINE, "coupling": [[0, 10**400], [1.0, 0]]}},
            "system.coupling[0][1]", id="coupling-int-beyond-float",
        ),
    ],
)
def test_non_finite_numbers_rejected_with_path(tmp_path, overrides, path):
    # Python's json reads NaN and Infinity; they must end in a ConfigError
    # naming the field, never in a verdict, a late runtime error or a NaN
    # written into the report
    assert _non_finite_error(tmp_path, overrides).startswith(path + ": expected a finite number")


@pytest.mark.parametrize(
    "overrides, path",
    [
        pytest.param(
            {"tolerances": {"ratio_tol": NAN}}, "tolerances.ratio_tol", id="tolerance-nan",
        ),
        pytest.param(
            {"tolerances": {"edge_threshold": -INF}},
            "tolerances.edge_threshold", id="tolerance-inf",
        ),
    ],
)
def test_non_finite_tolerances_rejected_with_path(tmp_path, overrides, path):
    # a tolerance is read by ControllabilityConfig alone, in its words
    assert _non_finite_error(tmp_path, overrides).startswith(path + ": must be finite")


def _non_finite_error(tmp_path, overrides):
    payload = {"mode": "analyze", "system": HYDROGEN_INLINE, **overrides}
    out = tmp_path / "report.json"
    code = main(["--config", write_config(tmp_path, payload), "--out", str(out)])
    report = _strict_json(out.read_text())
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    return report["error"]["message"]


CHAIN = {"dim": 3, "drift": [0, 1, 3], "coupling": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}


@pytest.mark.parametrize(
    "payload, path",
    [
        pytest.param(
            {"mode": "algo1", "system": "hydrogen", "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
             "good": 7, "seed": 1},
            "good", id="good-out-of-range",
        ),
        pytest.param(
            {"mode": "algo2", "system": HYDROGEN_INLINE, "initial": [0.6, 0.8],
             "subspace": [1, 2], "seed": 1},
            "subspace", id="subspace-whole-basis",
        ),
        pytest.param(
            {"mode": "amplify", "system": "hydrogen", "initial": [0.6, 0.8], "good": 1},
            "initial", id="initial-length",
        ),
        pytest.param(
            {"mode": "measure-stats", "system": HYDROGEN_INLINE, "initial": [0.6, 0.8],
             "good": 3, "seed": 1},
            "good", id="measure-stats-good",
        ),
        # a mode reads one of 'good' and 'subspace'; the other one set was
        # silently ignored, though the report's config echoed it
        pytest.param(
            {"mode": "algo1", "system": "hydrogen", "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
             "good": 5, "subspace": [1, 2, 3], "seed": 1},
            "subspace", id="algo1-good-and-subspace",
        ),
        pytest.param(
            {"mode": "algo2", "system": "hydrogen", "initial": [0.1, 0.06, 0.08, 0.7, 0.7],
             "good": 5, "subspace": [1, 2, 3], "seed": 1},
            "good", id="algo2-good-and-subspace",
        ),
        pytest.param(
            {"mode": "amplify", "system": "hydrogen", "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
             "good": 5, "subspace": [1, 2, 3]},
            "subspace", id="amplify-good-and-subspace",
        ),
        pytest.param(
            {"mode": "measure-stats", "system": "hydrogen", "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
             "good": 5, "subspace": [1, 2, 3], "seed": 1},
            "subspace", id="measure-stats-good-and-subspace",
        ),
        pytest.param(
            {"mode": "analyze", "system": CHAIN, "tolerances": {"ratio_tol": -1e-9}},
            "tolerances.ratio_tol", id="ratio-tol-negative",
        ),
        pytest.param(
            {"mode": "analyze", "system": CHAIN, "tolerances": {"degeneracy_tol": -1e-9}},
            "tolerances.degeneracy_tol", id="degeneracy-tol-negative",
        ),
        pytest.param(
            {"mode": "analyze", "system": CHAIN, "tolerances": {"edge_threshold": -1e-12}},
            "tolerances.edge_threshold", id="edge-threshold-negative",
        ),
        pytest.param(
            {"mode": "hydrogen-case1", "seed": 1, "good": 2, "system": HYDROGEN_INLINE,
             "initial": [0.6, 0.8]},
            "system", id="preset-with-system",
        ),
        pytest.param(
            {"mode": "hydrogen-case1", "seed": 1, "initial": [0.7, 0.5, 0.3, 0.4, 0.1]},
            "initial", id="preset-with-initial",
        ),
        pytest.param({"mode": "hydrogen-case1", "seed": 1, "good": 2}, "good", id="preset-with-good"),
        pytest.param(
            {"mode": "hydrogen-case2", "seed": 1, "subspace": [1, 2]},
            "subspace", id="preset-with-subspace",
        ),
        # past the float range the plan's closed form raised OverflowError (exit 1)
        pytest.param(
            {"mode": "hydrogen-case1", "seed": 1, "iterations": 10**400},
            "iterations", id="iterations-beyond-float",
        ),
        # past the phase-error cap the float answer is off by more than the
        # tolerance; near the float range's top the plan was nan (exit 1,
        # "state amplitudes must be finite")
        pytest.param(
            {"mode": "hydrogen-case1", "seed": 1, "iterations": 2**53 + 1},
            "iterations", id="iterations-beyond-2**53",
        ),
        pytest.param(
            {"mode": "hydrogen-case1", "seed": 1, "iterations": 10**308},
            "iterations", id="iterations-1e308",
        ),
        # one bad entry among plain numbers: the bulk read falls back to
        # the per-entry parse, which names it
        pytest.param(
            {"mode": "analyze", "system": {**CHAIN, "coupling": [[0, True, 0], [1, 0, 1.5], [0, 1.5, 0]]}},
            "system.coupling[0][1]", id="coupling-bool",
        ),
        pytest.param(
            {"mode": "analyze", "system": {**CHAIN, "coupling": [[0, 1, 0], [1, 0, "1.5"], [0, 1.5, 0]]}},
            "system.coupling[1][2]", id="coupling-string",
        ),
        # a system object holds its own fields only: a non-finite value under
        # another key reached the echo and ended in a traceback (exit 1), and
        # a misspelt key was ignored
        pytest.param(
            {"mode": "analyze", "system": {**CHAIN, "x": NAN}}, "system.x", id="system-extra-nan",
        ),
        pytest.param(
            {"mode": "analyze", "system": {**CHAIN, "x": INF}}, "system.x", id="system-extra-inf",
        ),
        pytest.param(
            {"mode": "analyze", "system": {"preset": "hydrogen", "x": NAN}},
            "system.x", id="preset-extra-nan",
        ),
        pytest.param(
            {"mode": "analyze", "system": {**CHAIN, "typo_dim": 3}},
            "system.typo_dim", id="system-misspelt",
        ),
        pytest.param(
            {"mode": "analyze", "system": {**CHAIN, "energy_gap": 2.0}},
            "system.energy_gap", id="system-preset-field",
        ),
        pytest.param(
            {"mode": "analyze", "system": {"preset": "hydrogen", "dim": 5}},
            "system.dim", id="preset-system-field",
        ),
    ],
)
def test_malformed_fields_rejected_with_path(tmp_path, payload, path):
    # labels, lengths and tolerances the library types reject end in exit 2
    # naming the field, not in a runtime error or a changed verdict
    out = tmp_path / "report.json"
    code = main(["--config", write_config(tmp_path, payload), "--out", str(out)])
    report = _strict_json(out.read_text())
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith(path + ": ")


@pytest.mark.parametrize(
    "gap, message",
    [
        (0, "system.energy_gap: must be > 0, got 0.0"),
        (-1, "system.energy_gap: must be > 0, got -1.0"),
    ],
    ids=["zero", "negative"],
)
def test_energy_gap_error_names_its_field_once(tmp_path, gap, message):
    # the message read "system.energy_gap: energy gap must be positive, got 0.0"
    out = tmp_path / "report.json"
    payload = {"mode": "analyze", "system": {"preset": "hydrogen", "energy_gap": gap}}
    code = main(["--config", write_config(tmp_path, payload), "--out", str(out)])
    report = _strict_json(out.read_text())
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"] == message


CHAIN_STATE = StateVector([0.6, 0.8, 0.0])
CHAIN_ALGO1 = {"mode": "algo1", "system": CHAIN, "initial": [0.6, 0.8, 0.0], "good": 2, "seed": 1}
CHAIN_ALGO2 = {"mode": "algo2", "system": CHAIN, "initial": [0.6, 0.8, 0.0], "seed": 1}


def chain_plan(**kwargs):
    return make_plan(CHAIN_STATE, GoodSubspace.of(2, 3), **kwargs)


def chain_histogram(shots):
    return measurement_histogram(CHAIN_STATE, MeasurementPartition.per_index(3), 1, shots)


# each scalar config field: the config that sets it to v, and the library
# call that reads v, whose message the CLI's must repeat under the field's path
SCALAR_READS = {
    "system.dim": (
        lambda v: {"mode": "analyze", "system": {**CHAIN, "dim": v}},
        lambda v: SystemSpec(v, CHAIN["drift"], CHAIN["coupling"]),
    ),
    "system.energy_gap": (
        lambda v: {"mode": "analyze", "system": {"preset": "hydrogen", "energy_gap": v}},
        lambda v: HydrogenModel(energy_gap=v),
    ),
    "good": (
        lambda v: {**CHAIN_ALGO1, "good": v},
        lambda v: iqcontrol.core._integer(v, "good", 1),
    ),
    "subspace[1]": (
        lambda v: {**CHAIN_ALGO2, "subspace": [1, v]},
        lambda v: iqcontrol.core._integer(v, "subspace[1]", 1),
    ),
    "phases[0]": (lambda v: {**CHAIN_ALGO1, "phases": [v, 1.0]}, lambda v: chain_plan(phi1=v)),
    "iterations": (lambda v: {**CHAIN_ALGO1, "iterations": v}, lambda v: chain_plan(iterations=v)),
    "l_max": (lambda v: {**CHAIN_ALGO1, "l_max": v}, lambda v: chain_plan(l_max=v)),
    "seed": (
        lambda v: {**CHAIN_ALGO1, "seed": v},
        lambda v: sample_collapse(CHAIN_STATE, MeasurementPartition.per_index(3), v),
    ),
    "shots": (lambda v: {**CHAIN_ALGO1, "shots": v}, chain_histogram),
    "tolerances.ratio_tol": (
        lambda v: {**CHAIN_ALGO1, "tolerances": {"ratio_tol": v}},
        lambda v: ControllabilityConfig(ratio_tol=v),
    ),
    "tolerances.max_denominator": (
        lambda v: {**CHAIN_ALGO1, "tolerances": {"max_denominator": v}},
        lambda v: ControllabilityConfig(max_denominator=v),
    ),
}
# a wrong kind, a value out of range and a non-finite value of each
BAD_SCALARS = {
    "system.dim": (1.5, 1, NAN),
    "good": ("2", 0, INF),
    "subspace[1]": (True, 0, NAN),
    "phases[0]": ("x", 4.0, NAN),
    "iterations": (2.5, 2**53 + 1, INF),
    "seed": (1.5, -1, NAN),
    "shots": ([2], 2**63, -INF),
    "l_max": (False, -1, INF),
    "tolerances.ratio_tol": ("x", -1e-9, NAN),
    "tolerances.max_denominator": (2.5, 0, INF),
    "system.energy_gap": (None, 0, INF),
}


@pytest.mark.parametrize(
    "path, value",
    [(path, value) for path, values in BAD_SCALARS.items() for value in values],
    ids=[f"{path}={json.dumps(value)}" for path, values in BAD_SCALARS.items() for value in values],
)
def test_scalar_errors_are_the_library_readers(tmp_path, path, value):
    # one rule and one message per field: the CLI reads each scalar through
    # the library's reader, so its error is "<path>: " plus the reader's
    config, read = SCALAR_READS[path]
    with pytest.raises((TypeError, ValueError)) as library:
        read(value)
    expected = f"{path}: " + str(library.value).split(": ", 1)[1]
    code, report = run_cli(tmp_path, config(value))
    assert code == 2
    assert report["error"] == {"type": "ConfigError", "message": expected}


def test_huge_energy_gap_warns_nothing(tmp_path):
    # the spec's commutator check overflowed, and numpy's RuntimeWarnings
    # reached stderr, or under -W error ended the run in a traceback
    payload = {"mode": "analyze", "system": {"preset": "hydrogen", "energy_gap": 1e308}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_cli(tmp_path, payload)
    assert code == 0 and "error" not in report


def test_overflowing_degenerate_drift_warns_commute_once(tmp_path):
    # [A, B] read as d_i b - b d_j was inf - inf = NaN past the float range,
    # so A, a multiple of the identity, went unreported as commuting with B
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"dim": 2, "drift": [1e308, 1e308], "coupling": [[0, 10], [10, 0]]}))
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--mode", "analyze", "--system", str(system), "--out", str(out)])
    assert code == 0 and "error" not in json.loads(out.read_text())
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "drift and coupling commute; the control problem is trivial")
    ]


# numbers a Python caller of validate_config may pass that JSON never holds,
# of each kind the field's reader accepts
NON_JSON_SCALARS = [
    *((f"tolerances.{name}", value)
      for name in ("edge_threshold", "degeneracy_tol", "ratio_tol")
      for value in (np.float32(1e-9), np.int64(0), Fraction(1, 10**9))),
    *(("tolerances.max_denominator", value) for value in (np.int64(1000), np.int32(7), np.uint16(9))),
    *(("system.energy_gap", value) for value in (np.float32(1.5), np.int64(2), Fraction(3, 2))),
]


@pytest.mark.parametrize(
    "path, value", NON_JSON_SCALARS,
    ids=[f"{path}={type(value).__name__}" for path, value in NON_JSON_SCALARS],
)
def test_non_json_scalar_is_echoed_as_read(path, value):
    # the echo held the value as given, and execute raised "Object of type
    # float32 is not JSON serializable" from the config hash
    section, name = path.split(".")
    if section == "tolerances":
        raw = {"mode": "analyze", "system": CHAIN, "tolerances": {name: value}}
        read = getattr(ControllabilityConfig(**{name: value}), name)
    else:
        raw = {"mode": "analyze", "system": {"preset": "hydrogen", name: value}}
        read = HydrogenModel(energy_gap=value).energy_gap
    config = validate_config(raw)
    code, report = execute(config)
    assert code == 0 and "error" not in report
    echoed = json.loads(config.canonical)[section][name]
    assert type(echoed) is type(read) and echoed == read
    assert json.loads(render_report(report))["config"] == json.loads(config.canonical)


@pytest.mark.parametrize("dim", [np.int64(3), np.int32(3), np.uint16(3)], ids=lambda d: type(d).__name__)
def test_numpy_dim_is_echoed_as_read(dim):
    # the echo held the np.int64 as given, and render_report raised "Object
    # of type int64 is not JSON serializable"
    def rendered(system):
        report = json.loads(render_report(execute(validate_config({"mode": "analyze", "system": system}))[1]))
        report["provenance"].pop("generated_at")
        return report

    expected = rendered(CHAIN)
    assert rendered({**CHAIN, "dim": dim}) == expected
    assert expected["config"]["system"]["dim"] == 3 and "error" not in expected


def test_analyze_accepts_good_and_subspace(tmp_path):
    # 'analyze' reads neither target, so a config that sets both for another
    # mode can still be re-run with --mode analyze
    payload = {"mode": "algo1", "system": "hydrogen", "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
               "good": 5, "subspace": [1, 2, 3], "seed": 1}
    code, report = run_cli(tmp_path, payload, ["--mode", "analyze"])
    assert code == 0 and report["mode"] == "analyze" and "error" not in report


# json.loads raises a plain ValueError for an integer literal past Python's
# 4,300-digit limit and a RecursionError for nesting past the recursion limit
HUGE_INT = "1" * 5000
DEEP = "[" * 100_000
UNREADABLE_JSON = {
    "huge-int": {
        "config": '{"mode": "analyze", "system": "hydrogen", "seed": ' + HUGE_INT + "}",
        "system": '{"dim": ' + HUGE_INT + "}",
        "initial": "[" + HUGE_INT + ", 0.0]",
        "subspace": "[" + HUGE_INT + "]",
    },
    "deep": {"config": DEEP, "system": DEEP, "initial": DEEP, "subspace": DEEP},
}


@pytest.mark.parametrize("flag", ["config", "system", "initial", "subspace"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
def test_unreadable_json_exits_2_with_path(tmp_path, kind, flag):
    text = UNREADABLE_JSON[kind][flag]
    out = tmp_path / "report.json"
    if flag == "config":
        path = tmp_path / "config.json"
        path.write_text(text)
        args = ["--config", str(path)]
    else:
        args = ["--mode", "algo2", "--system", "hydrogen", "--seed", "1", f"--{flag}", text]
    code = main([*args, "--out", str(out)])
    report = _strict_json(out.read_text())
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith(f"{flag}: invalid JSON")


@pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
def test_parse_config_unreadable_json(kind):
    with pytest.raises(ConfigError, match="^config: invalid JSON"):
        parse_config(UNREADABLE_JSON[kind]["config"])


@pytest.mark.parametrize("flag", ["config", "system", "initial", "subspace"])
def test_non_utf8_file_exits_2_with_path(tmp_path, flag):
    # read_text raised UnicodeDecodeError past main: exit 1 and no report
    path = tmp_path / "input.json"
    path.write_bytes(b'\xff{"mode": "analyze"}')
    if flag == "config":
        args = ["--config", str(path)]
    else:
        args = ["--mode", "algo2", "--system", "hydrogen", "--seed", "1", f"--{flag}", str(path)]
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 2
    error = _strict_json(out.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"{flag}: cannot read {str(path)!r}: 'utf-8' codec")


def test_unreadable_config_file_exits_2(tmp_path):
    # a path that exists but is no file the reader can open: a directory
    out = tmp_path / "report.json"
    assert main(["--config", str(tmp_path), "--out", str(out)]) == 2
    error = _strict_json(out.read_text())["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"config: cannot read {str(tmp_path)!r}: ")


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_config_error_keeps_the_mode_asked_for(tmp_path, capsys, to_file):
    # --mode is already checked by argparse; the report and summary keep it
    out = tmp_path / "report.json"
    args = ["--mode", "algo2", "--system", "hydrogen", "--subspace", "[1,2]"]
    code = main([*args, "--out", str(out)] if to_file else args)
    captured = capsys.readouterr()
    report = _strict_json(out.read_text() if to_file else captured.out)
    summary = captured.out if to_file else captured.err
    assert code == 2
    assert report["mode"] == "algo2"
    assert report["error"]["message"] == "initial: required for mode 'algo2'"
    assert summary.splitlines()[0] == "mode: algo2"


@pytest.mark.parametrize("payload, extra, mode", [
    ({"mode": "algo1", "system": "hydrogen"}, [], "algo1"),
    ({"mode": "algo1"}, ["--system", "no-such-file.json"], "algo1"),
    ({"mode": "algo1"}, ["--mode", "analyze", "--subspace", "[1,"], "analyze"),
    ({"mode": "algo3", "system": "hydrogen"}, [], None),
    ({"mode": ["algo1"], "system": "hydrogen"}, [], None),
    ({"system": "hydrogen"}, [], None),
], ids=["file-mode", "file-mode-bad-flag", "flag-over-file", "invalid", "wrong-kind", "absent"])
def test_config_error_mode_from_file(tmp_path, capsys, payload, extra, mode):
    # a config file's mode is kept when it names a mode, even when a later
    # flag fails; --mode wins over it
    out = tmp_path / "report.json"
    code = main(["--config", write_config(tmp_path, payload), *extra, "--out", str(out)])
    report = _strict_json(out.read_text())
    assert code == 2 and report["error"]["type"] == "ConfigError"
    assert report["mode"] == mode
    assert capsys.readouterr().out.splitlines()[0] == f"mode: {mode}"


def test_entries_parsed_once(tmp_path, monkeypatch):
    # a coupling and an initial state that mix plain numbers and [re, im]
    # pairs are read in bulk, and the spec is built once
    calls = {"parse": 0, "SystemSpec": 0}
    parse, post_init = iqcontrol.cli._parse_complex, SystemSpec.__post_init__

    def counted_parse(*args):
        calls["parse"] += 1
        return parse(*args)

    def counted_post_init(self):
        calls["SystemSpec"] += 1
        post_init(self)

    monkeypatch.setattr(iqcontrol.cli, "_parse_complex", counted_parse)
    monkeypatch.setattr(SystemSpec, "__post_init__", counted_post_init)
    system = {
        "dim": 3,
        "drift": [0.0, 1.0, 3.0],
        "coupling": [[0, [1.0, 0.5], 0], [[1.0, -0.5], 0, 2], [0, 2, 0]],
    }
    initial = [[0.6, 0.0], [0.0, 0.6], 0.52915026221291817]
    code, _ = run_cli(
        tmp_path, {"mode": "algo1", "system": system, "initial": initial, "good": 2, "seed": 3}
    )
    assert code == 0
    assert calls == {"parse": 0, "SystemSpec": 1}


def test_plain_coupling_read_in_bulk(tmp_path, monkeypatch):
    # a coupling of plain ints and floats is read as one array, and so is
    # an initial state mixing plain amplitudes and [re, im] pairs
    calls = {"parse": 0}
    parse = iqcontrol.cli._parse_complex

    def counted_parse(*args):
        calls["parse"] += 1
        return parse(*args)

    monkeypatch.setattr(iqcontrol.cli, "_parse_complex", counted_parse)
    system = {
        "dim": 3,
        "drift": [0.0, 1.0, 3.0],
        "coupling": [[0, 1.25, 0], [1.25, -0.5, 2], [0, 2, 0.0]],
    }
    initial = [[0.6, 0.0], [0.0, 0.6], 0.52915026221291817]
    payload = {"mode": "algo1", "system": system, "initial": initial, "good": 2, "seed": 3}
    code, _ = run_cli(tmp_path, payload)
    assert code == 0
    assert calls == {"parse": 0}
    spec = validate_config(payload).spec
    assert spec.coupling.dtype == complex
    assert np.array_equal(spec.coupling, np.array(system["coupling"], dtype=complex))


def test_pairs_read_in_bulk(tmp_path, monkeypatch):
    # an initial state and a coupling of [re, im] pairs alone are read as
    # one array each, signed zeros kept, with no per-entry parse
    calls = {"parse": 0}
    parse = iqcontrol.cli._parse_complex

    def counted_parse(*args):
        calls["parse"] += 1
        return parse(*args)

    monkeypatch.setattr(iqcontrol.cli, "_parse_complex", counted_parse)
    coupling = [
        [[0, 0], [1.0, 0.5], [0, -0.0]],
        [[1.0, -0.5], [-0.0, 0], [2, 0]],
        [[0, 0.0], [2, -0.0], [0, 0]],
    ]
    system = {"dim": 3, "drift": [0.0, 1.0, 3.0], "coupling": coupling}
    initial = [[0.6, -0.0], [-0.0, 0.6], [0.52915026221291817, 0]]
    payload = {"mode": "algo1", "system": system, "initial": initial, "good": 2, "seed": 3}
    code, _ = run_cli(tmp_path, payload)
    assert code == 0
    config = validate_config(payload)
    assert calls == {"parse": 0}
    expected = np.array([[complex(*x) for x in row] for row in coupling])
    assert config.spec.coupling.tobytes() == expected.tobytes()
    amps = np.array([complex(*x) for x in initial])
    assert config.state.amplitudes.tobytes() == (amps / np.linalg.norm(amps)).tobytes()


def test_dense_hermitian_coupling_read_in_bulk(monkeypatch):
    # a 16x16 dense Hermitian coupling written the natural way, a real
    # diagonal and [re, im] pairs off it, makes no per-entry parse call
    calls = {"parse": 0}
    parse = iqcontrol.cli._parse_complex

    def counted_parse(*args):
        calls["parse"] += 1
        return parse(*args)

    monkeypatch.setattr(iqcontrol.cli, "_parse_complex", counted_parse)
    dim = 16
    rng = np.random.default_rng(17)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    coupling = [
        [float(h[i, j].real) if i == j else [float(h[i, j].real), float(h[i, j].imag)]
         for j in range(dim)]
        for i in range(dim)
    ]
    coupling[0][0] = -0.0
    system = {"dim": dim, "drift": [float(k) ** 1.5 for k in range(dim)], "coupling": coupling}
    spec = validate_config({"mode": "analyze", "system": system}).spec
    assert calls == {"parse": 0}
    expected = np.array(
        [[parse(x, "system.coupling", i, j) for j, x in enumerate(row)]
         for i, row in enumerate(coupling)]
    )
    assert spec.coupling.tobytes() == expected.tobytes()
    assert math.copysign(1.0, spec.coupling[0, 0].real) == -1.0


# a mixed coupling row that fails the bulk read, and the error record the
# per-entry parse of the entry as written gives
MIXED_ROW_ERRORS = {
    "bool": ([True, [1, 0]], "system.coupling[0][0]: expected a finite number or an "
             "[re, im] pair, got True"),
    "nan": ([math.nan, [1, 0]], "system.coupling[0][0]: expected a finite number or an "
            "[re, im] pair, got nan"),
    "ragged pair": ([0, [1, 0, 0]], "system.coupling[0][1]: expected a finite number or an "
                    "[re, im] pair, got [1, 0, 0]"),
    "integer past the float range": (
        [int(sys.float_info.max) + 1, [1, 0]],
        f"system.coupling[0][0]: expected a finite number or an [re, im] pair, "
        f"got {int(sys.float_info.max) + 1}",
    ),
}


@pytest.mark.parametrize(
    "shots, shown", [(2**63, "9223372036854775808"), (2**64, "a 65-bit integer")], ids=["2**63", "2**64"]
)
def test_shot_counts_past_int64_exit_2(tmp_path, shots, shown):
    # the histogram's int64 bounds array raised numpy's unnamed OverflowError,
    # which exited 1
    out = tmp_path / "report.json"
    assert main(["--mode", "hydrogen-case2", "--shots", str(shots), "--out", str(out)]) == 2
    message = f"shots: must lie in [1, 9223372036854775807], got {shown}"
    assert json.loads(out.read_text())["error"] == {"type": "ConfigError", "message": message}


# a dim-4 chain with all four amplitudes 0.5, amplified toward level 4
# (g = 0.25), where the exact weight after 2**53 applications is 0.25
CHAIN4_ARGV = [
    "--mode", "algo1", "--system",
    '{"dim": 4, "drift": [0, 1, 2, 3], '
    '"coupling": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]}',
    "--initial", "[0.5, 0.5, 0.5, 0.5]", "--good", "4", "--seed", "3",
]


@pytest.mark.parametrize(
    "iterations, bound",
    [(2**53, "8"), (MAX_ITERATIONS + 1, "1.00000008e-09")],
    ids=["2**53", "cap+1"],
)
def test_count_past_the_phase_error_cap_exits_2(tmp_path, iterations, bound):
    # 2**53 exited 0 with "success": true and a predicted_success of
    # 0.99984, for an exact 0.25; the first count past the cap is the
    # first whose phase-error bound exceeds the tolerance
    out = tmp_path / "report.json"
    assert main([*CHAIN4_ARGV, "--iterations", str(iterations), "--out", str(out)]) == 2
    message = (f"iterations: phase-error bound {bound} exceeds 1e-09; the largest count within it "
               f"is 1125899, got {iterations}")
    assert json.loads(out.read_text())["error"] == {"type": "ConfigError", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        [*CHAIN4_ARGV, "--iterations", str(MAX_ITERATIONS)],
        # a steer-small repeat run
        ["--mode", "hydrogen-case2", "--seed", "5", "--iterations", "0", "--repeat-until-success",
         "--shots", "50"],
    ],
    ids=["cap", "zero-repeat"],
)
def test_counts_up_to_the_cap_run(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    plan = json.loads(out.read_text())["result"]["plan"]
    assert plan["iterations"] == int(argv[argv.index("--iterations") + 1])


@pytest.mark.parametrize("kind", sorted(MIXED_ROW_ERRORS))
def test_mixed_coupling_errors_name_the_entry(tmp_path, kind):
    row, message = MIXED_ROW_ERRORS[kind]
    system = {"dim": 2, "drift": [0, 1], "coupling": [row, [[1, 0], 0]]}
    out = tmp_path / "report.json"
    payload = {"mode": "analyze", "system": system}
    assert main(["--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"] == {"type": "ConfigError", "message": message}


def test_hermiticity_error_record_pinned(tmp_path):
    payload = {"mode": "analyze", "system": {"dim": 2, "drift": [0, 1], "coupling": [[0, 1], [2, 0]]}}
    out = tmp_path / "report.json"
    assert main(["--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"] == {
        "type": "ConfigError",
        "message": "system.coupling[0][1]: not Hermitian: value (1+0j) does not match the "
        "conjugate of coupling[1][0] = (2+0j)",
    }


TOLERANCE_NAMES = "['degeneracy_tol', 'edge_threshold', 'max_denominator', 'ratio_tol']"


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param({"mode": "analyze", "system": 5},
                     "system: expected a system object or preset name, got 5", id="system-kind"),
        pytest.param({"mode": "analyze", "system": "helium"},
                     "system.preset: unknown preset 'helium'", id="unknown-preset"),
        pytest.param({"mode": "analyze", "system": {"dim": 2, "drift": [0, 1]}},
                     "system: missing required field 'coupling'", id="missing-coupling"),
        pytest.param({"mode": "analyze", "system": {**HYDROGEN_INLINE, "drift": 5}},
                     "system.drift: expected 2 eigenvalues", id="drift-kind"),
        pytest.param({"mode": "amplify", "system": CHAIN, "initial": 5, "good": 2},
                     "initial: expected a list of amplitudes, got 5", id="initial-kind"),
        pytest.param([1, 2], "config: expected a JSON object at the top level", id="config-kind"),
        pytest.param({"mode": "analyze", "system": CHAIN, "subspace": []},
                     "subspace: expected a nonempty list of basis labels", id="subspace-empty"),
        pytest.param({"mode": "analyze", "system": CHAIN, "subspace": 2},
                     "subspace: expected a nonempty list of basis labels", id="subspace-kind"),
        pytest.param({"mode": "analyze", "system": CHAIN, "subspace": [2, 1, 2]},
                     "subspace: labels must be distinct", id="subspace-repeated"),
        pytest.param({"mode": "analyze", "system": CHAIN, "tolerances": {"ratio": 1e-9}},
                     f"tolerances.ratio: unknown tolerance (allowed: {TOLERANCE_NAMES})",
                     id="unknown-tolerance"),
        pytest.param({"mode": "analyze", "system": CHAIN, "out": 5},
                     "out: expected a path string, got 5", id="out-kind"),
    ],
)
def test_config_error_messages_pinned(tmp_path, capsys, payload, message):
    # without --out the report goes to stdout, so a config's own 'out' is read
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    report = _strict_json(capsys.readouterr().out)
    assert report["error"] == {"type": "ConfigError", "message": message}


@pytest.mark.parametrize("text", ["2.0", "x"])
def test_iterations_flag_reads_as_the_config_field(tmp_path, capsys, text):
    # the flag's own check said "expected 'auto' or an integer, got '2.0'";
    # text int() refuses now reaches the field's reader, as it does from a file
    preset = ["--mode", "hydrogen-case1", "--seed", "1"]
    assert main([*preset, "--iterations", text]) == 2
    from_flag = json.loads(capsys.readouterr().out)["error"]
    payload = {"mode": "hydrogen-case1", "seed": 1, "iterations": text}
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    from_file = json.loads(capsys.readouterr().out)["error"]
    message = f"iterations: must be an integer, got '{text}'"
    assert from_flag == from_file == {"type": "ConfigError", "message": message}


def test_validate_config_refuses_a_non_object():
    # a library caller's value; main reads only objects from --config
    with pytest.raises(ConfigError) as error:
        validate_config([("mode", "analyze")])
    assert str(error.value) == "config: expected a JSON object at the top level"


def test_array_iterations_name_their_field():
    # a library caller's array: comparing it with 'auto' raised numpy's
    # "truth value of an array ... is ambiguous", which names no field
    with pytest.raises(ConfigError) as error:
        validate_config({"mode": "hydrogen-case1", "seed": 1, "iterations": np.array([1, 2])})
    assert str(error.value) == "iterations: must be an integer, got array([1, 2])"


def test_summary_prints_the_final_state_fidelity():
    p = case1_preset()
    report = run_algorithm1(hydrogen_spec(), p.initial, 5, seed=11,
                            final_pulse=ControlPulse(((0.9, 0.4),)),
                            target=StateVector.basis_state(5, 5))
    assert report.success and report.fidelity is not None
    lines = summarize({"mode": "algo1", "result": report.to_dict()}).splitlines()
    assert lines[-1] == f"final-state fidelity = {report.fidelity:.12g}"


REQUIRED = {
    "analyze": ["system"],
    "amplify": ["system", "initial"],  # plus its good set, either field
    "algo1": ["system", "initial", "good", "seed"],
    "algo2": ["system", "initial", "subspace", "seed"],
    "measure-stats": ["system", "initial", "seed"],
}
# values of the wrong JSON kind for each kind of config field that has a
# reader, with the suffix that the path their error names adds to the field
WRONG_VALUES = {
    "integer": [(2.5, ""), (True, ""), ("x", "")],
    "count": [(2.5, ""), (True, ""), ("x", "")],
    "boolean": [(1, ""), ("yes", "")],
    "angles": [("x", ""), ([1.0], ""), ([1.0, "x"], "[1]")],
    "array": [("x", ""), (["x"], "[0]")],
    "object": [([], "")],
}
# a field set to a value of the wrong JSON kind, one row per value of its
# kind in WRONG_VALUES, or of the wrong range: (field, value, the path its
# error names); 'out' is left out, because --out overrides it, and so is
# null, which means "absent" for a field whose default is None
WRONG_KINDS = [
    *((field.name, value, field.name + suffix)
      for field in iqcontrol.cli._FIELDS if field.read is not None and field.name != "out"
      for value, suffix in WRONG_VALUES[field.kind]),
    ("phases", [4.0, 1.0], "phases[0]"),
    *((field, -1, field) for field in ("iterations", "seed", "l_max")),
    ("shots", 0, "shots"),
    ("tolerances", {"ratio_tol": "x"}, "tolerances.ratio_tol"),
    ("tolerances", {"max_denominator": 2.5}, "tolerances.max_denominator"),
]
TARGETS = {
    "analyze": [None],
    "amplify": ["good", "subspace"],
    "algo1": ["good"],
    "algo2": ["subspace"],
    "measure-stats": ["good", "subspace", None],
}


MUTATIONS = ("none", "drop", "label", "length", "tolerance", "hermitian", "kind")


@st.composite
def mutated_configs(draw, mutations=MUTATIONS):
    """A valid config with dim <= 6 and at most one mutation, drawn from
    ``mutations``.

    Returns the payload and the JSON path its error must start with, or
    None when the payload is valid.
    """
    dim = draw(st.integers(2, 6))
    mode = draw(st.sampled_from(sorted(REQUIRED)))
    small = st.integers(-2, 2)
    coupling = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        coupling[i][i] = draw(small)
        for j in range(i + 1, dim):
            re, im = draw(small), draw(small)
            coupling[i][j], coupling[j][i] = ([re, im], [re, -im]) if im else (re, re)
    drift = draw(st.lists(st.integers(0, 9), min_size=dim, max_size=dim))
    amps = [complex(draw(small), draw(small)) for _ in range(dim)]
    assume(any(amps))
    norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
    initial = [[z.real / norm, z.imag / norm] for z in amps]
    payload = {
        "mode": mode,
        "system": {"dim": dim, "drift": drift, "coupling": coupling},
        "initial": initial,
        "seed": draw(st.integers(0, 99)),
        "tolerances": draw(st.fixed_dictionaries({}, optional={
            "ratio_tol": st.floats(0.0, 1e-6), "max_denominator": st.integers(1, 10**5),
        })),
    }
    labels = draw(st.lists(st.integers(1, dim), min_size=1, max_size=dim - 1, unique=True))
    target = draw(st.sampled_from(TARGETS[mode]))
    if target is not None:
        payload[target] = labels[0] if target == "good" else labels

    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop":
        key = draw(st.sampled_from(["mode", *REQUIRED[mode], *([target] if mode == "amplify" else [])]))
        del payload[key]
        return payload, "good" if mode == "amplify" and key == target else key
    if mutation == "label":
        key = target or "good"
        bad = draw(st.sampled_from([0, dim + 1, dim + 4, None]))
        if key == "good":
            payload["good"] = bad or dim + 2
            return payload, "good"
        payload["subspace"] = [*labels[:-1], bad] if bad is not None else list(range(1, dim + 1))
        return payload, f"subspace[{len(labels) - 1}]" if bad == 0 else "subspace"
    if mutation == "length":
        what = draw(st.sampled_from(["initial", "drift", "row", "rows"]))
        grow = draw(st.booleans())
        if what == "initial":
            payload["initial"] = initial + [[0.0, 0.0]] if grow else initial[:-1]
            return payload, "initial"
        if what == "drift":
            payload["system"]["drift"] = drift + [0] if grow else drift[:-1]
            return payload, "system.drift"
        if what == "row":
            i = draw(st.integers(0, dim - 1))
            coupling[i] = coupling[i] + [0] if grow else coupling[i][:-1]
            return payload, f"system.coupling[{i}]"
        payload["system"]["coupling"] = coupling + [[0] * dim] if grow else coupling[:-1]
        return payload, "system.coupling"
    if mutation == "tolerance":
        name = draw(st.sampled_from(["edge_threshold", "degeneracy_tol", "ratio_tol", "max_denominator"]))
        negative = draw(st.floats(-1.0, -1e-300))
        payload["tolerances"] = {name: 0 if name == "max_denominator" else negative}
        return payload, f"tolerances.{name}"
    if mutation == "hermitian":
        i, j = sorted(draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True)))
        coupling[i][j] = [draw(small), 3]  # imaginary part 3 matches no conjugate entry
        return payload, f"system.coupling[{i}][{j}]"
    if mutation == "kind":
        field, value, path = draw(st.sampled_from(WRONG_KINDS))
        payload[field] = value
        return payload, path
    return payload, None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(case=mutated_configs())
def test_config_boundary_fuzz(fuzz_dir, case):
    # every example ends in an exit status and a strict-JSON report, exit 2
    # exactly for a ConfigError, and a mutated field is named by its path;
    # the only warnings are the two documented ones
    payload, path = case
    out = fuzz_dir / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--config", write_config(fuzz_dir, payload), "--out", str(out)])
    for w in caught:
        assert w.category is UserWarning, w
        assert re.search("commute|not a connected component", str(w.message)), w
    report = _strict_json(out.read_text())
    error = report.get("error")
    assert code in (0, 1, 2)
    assert (code == 0) == (error is None)
    assert (code == 2) == (error is not None and error["type"] == "ConfigError")
    if path is None:
        assert code != 2, error
    else:
        assert code == 2 and error["message"].startswith(path + ": "), error


# the derandomized fuzz draws few of its mutations (a few of WRONG_KINDS
# among them); this draws each mutation kind on its own
@pytest.mark.filterwarnings("ignore:drift and coupling commute")
@pytest.mark.filterwarnings("ignore:subspace .* is not a connected component")
@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=20)
@given(data=st.data())
def test_each_mutation_kind_exits_as_expected(fuzz_dir, mutation, data):
    payload, path = data.draw(mutated_configs(mutations=(mutation,)))
    code, report = run_cli(fuzz_dir, payload)
    if path is None:
        # a valid config fails at run time only when its state misses the good set
        assert code == 0 or (code, report["error"]["type"]) == (1, "ZeroOverlapError"), report
    else:
        assert code == 2 and report["error"]["message"].startswith(path + ": "), report


# the fuzz draws only some of WRONG_KINDS; this runs each in every mode
KIND_RUNS = {
    "analyze": {},
    "amplify": {"initial": [0.6, 0.8, 0.0], "good": 2},
    "algo1": {"initial": [0.6, 0.8, 0.0], "good": 2, "seed": 1},
    "algo2": {"initial": [0.6, 0.8, 0.0], "subspace": [2], "seed": 1},
    "measure-stats": {"initial": [0.6, 0.8, 0.0], "seed": 1},
}


@pytest.mark.parametrize(
    "field, value, path", WRONG_KINDS, ids=[f"{f}={json.dumps(v)}" for f, v, _ in WRONG_KINDS]
)
def test_wrong_kind_names_its_field(tmp_path, field, value, path):
    system = {"dim": 3, "drift": [0, 1, 3], "coupling": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}
    for mode, fields in KIND_RUNS.items():
        code, report = run_cli(tmp_path, {"mode": mode, "system": system, **fields, field: value})
        assert code == 2 and report["error"]["message"].startswith(path + ": "), (mode, report)


# leaves at the edges of json's spelling: bools and None, ints past 2^63,
# signed zero, the smallest subnormal, huge and inexact floats, numpy
# float64 (a float subclass), strings json must escape, and strings that
# hold compact JSON's separators and brackets
EDGE_FLOATS = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
SEPARATOR_TEXT = st.text(alphabet=st.sampled_from('",:[]{}\\\nxé\u2028'))
FINITE_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.sampled_from(EDGE_FLOATS)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.text(alphabet=st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀'))
    | SEPARATOR_TEXT
)
NUMBER_LISTS = st.lists(
    st.integers() | st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
    max_size=6,
)


# the bulk read of drift, initial and coupling against the per-entry parse:
# plain numbers (signed zero, ints past 2^63) and [re, im] pairs of them,
# now and then mixed, or holding one odd entry: one the parse rejects (NaN
# and infinity literals, bools, strings, None, ints past the float range,
# among them one that float() rounds to its end, pairs of other lengths),
# or a float at the range's end, which the parse accepts
FLOAT_MAX = sys.float_info.max
NUMBERS = (
    st.integers(-5, 5)
    | st.integers(min_value=2**63, max_value=2**200)
    | st.sampled_from(EDGE_FLOATS)
    | st.floats(allow_nan=False, allow_infinity=False)
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
REJECTED = st.sampled_from(
    [NAN, INF, -INF, True, False, None, "1.5", 10**400, int(FLOAT_MAX) + 1, -int(FLOAT_MAX) - 1]
)
ODD_ENTRIES = (
    REJECTED
    | st.lists(NUMBERS | REJECTED, min_size=1, max_size=3)
    | st.just([[1, 2], 3])
    | st.sampled_from([FLOAT_MAX, -FLOAT_MAX, [FLOAT_MAX, 0.0]])
)
ARRAY_FIELDS = {
    # name: (path, per-entry parse, nesting depth, pairs allowed, dtype)
    "drift": ("system.drift", iqcontrol.cli._require_number, 1, False, float),
    "initial": ("initial", iqcontrol.cli._parse_complex, 1, True, complex),
    "coupling": ("system.coupling", iqcontrol.cli._parse_complex, 2, True, complex),
}


@st.composite
def numeric_arrays(draw):
    name = draw(st.sampled_from(sorted(ARRAY_FIELDS)))
    depth = ARRAY_FIELDS[name][2]
    size = draw(st.integers(1, 4))
    entries = draw(st.sampled_from([NUMBERS, PAIRS, NUMBERS | PAIRS]))
    flat = draw(st.lists(entries, min_size=size**depth, max_size=size**depth))
    if draw(st.booleans()):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(ODD_ENTRIES)
    value = [flat[k : k + size] for k in range(0, len(flat), size)] if depth == 2 else flat
    return name, value


@settings(max_examples=300)
@given(case=numeric_arrays())
@example(case=("initial", [[0.5, -0.0], [-0.0, 0.5]]))
@example(case=("coupling", [[1, int(FLOAT_MAX) + 1], [0.5, 2**64]]))
@example(case=("drift", [0, FLOAT_MAX, -0.0]))
@example(case=("coupling", [[[1, 2], [3, 4]], [[5, 6], [7, 8, 9]]]))
@example(case=("coupling", [[1, np.int64(2)], [3, 4]]))
@example(case=("drift", [np.int64(1), 2]))
@example(case=("initial", [[], 1]))
@example(case=("coupling", [[[], []], [[], []]]))
@example(case=("initial", [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]))
@example(case=("coupling", [[FLOAT_MAX, [0.5, -FLOAT_MAX]], [-FLOAT_MAX, 2]]))
@example(case=("initial", [[FLOAT_MAX, 0.0], -FLOAT_MAX]))
@example(case=("initial", [(0.5, 0.5), (0.5, -0.5)]))
@example(case=("initial", [(0.5, 0.5), 0.5, (1, 2, 3)]))
def test_bulk_read_equals_per_entry_parse(case):
    # bit-identical arrays, or the same ConfigError naming the same path;
    # an array read comes with its canonical text
    name, value = case
    path, parse, depth, pairs, dtype = ARRAY_FIELDS[name]

    def outcome(read):
        try:
            return np.asarray(read(), dtype=dtype).tobytes()
        except ConfigError as exc:
            return str(exc)

    def per_entry():
        if depth == 2:
            return [[parse(x, path, i, j) for j, x in enumerate(row)] for i, row in enumerate(value)]
        return [parse(x, path, k) for k, x in enumerate(value)]

    def bulk():
        array, text = iqcontrol.cli._numbers(value, path, parse, depth, pairs)
        assert text == json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
        return array

    assert outcome(bulk) == outcome(per_entry)


# entries of a config that validates: plain numbers, numpy float64 leaves
# (as a library caller may pass), and the float range's ends, which only
# the per-entry parse accepts
REALS = (
    st.integers(-5, 5)
    | st.sampled_from([-0.0, 5e-324, FLOAT_MAX, -FLOAT_MAX])
    | st.floats(-1e3, 1e3)
)
REALS = REALS | REALS.map(np.float64)


@st.composite
def valid_configs(draw):
    # presets, and written-out systems whose coupling and initial entries
    # are plain numbers, [re, im] pairs or a mix of both
    mode = draw(st.sampled_from(["hydrogen-case1", "hydrogen-case2", "analyze",
                                 "measure-stats", "amplify"]))
    if mode.startswith("hydrogen"):
        return {"mode": mode, "seed": draw(st.integers(0, 99))}
    dim = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["plain", "pairs", "mixed"]))

    def entry(re, im):
        plain = kind == "plain" or (kind == "mixed" and draw(st.booleans()))
        return re if plain and im == 0 else [re, im]

    coupling = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        coupling[i][i] = entry(draw(REALS), 0)
        for j in range(i + 1, dim):
            re, im = draw(REALS), 0 if kind == "plain" else draw(REALS)
            coupling[i][j], coupling[j][i] = entry(re, im), entry(re, -im)
    raw = {"mode": mode, "system": {"dim": dim, "drift": draw(st.lists(REALS, min_size=dim,
                                                                        max_size=dim)),
                                    "coupling": coupling}}
    if mode != "analyze":
        parts = draw(st.lists(st.floats(-1, 1), min_size=2 * dim, max_size=2 * dim))
        amps = [complex(2 + parts[0], parts[1])] + [complex(*parts[k : k + 2])
                                                    for k in range(2, 2 * dim, 2)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
        raw["initial"] = [entry(z.real / norm, z.imag / norm) for z in amps]
        raw["seed"] = 5
        raw["good"] = draw(st.integers(1, dim))
    return raw


@settings(max_examples=150)
@given(raw=valid_configs())
def test_canonical_equals_encoded_echo(raw):
    # the texts validation encoded, spliced into the stand-ins' places, are
    # the echo encoded whole
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # commuting specs; overflow at the float range's end
        config = validate_config(raw)
    assert config.canonical == iqcontrol.cli._encode(config.echo())


def test_each_array_encoded_once(tmp_path, monkeypatch):
    # a written-out coupling reaches the encoder once, in validation; a
    # preset run encodes its canonical echo and each other report key once
    encode, texts = iqcontrol.cli._encode, []

    def counting(value):
        texts.append(encode(value))
        return texts[-1]

    monkeypatch.setattr(iqcontrol.cli, "_encode", counting)
    rng = np.random.default_rng(64)
    coupling = np.diag(rng.uniform(0.5, 2.0, 63), 1)
    payload = {"mode": "algo1", "initial": [0.125] * 64, "good": 64, "seed": 5,
               "system": {"dim": 64, "drift": [0.5 * k * k for k in range(64)],
                          "coupling": (coupling + coupling.T).tolist()}}
    out = str(tmp_path / "report.json")
    assert main(["--config", write_config(tmp_path, payload), "--out", out]) == 0
    coupling_text = encode(payload["system"]["coupling"])
    assert sum(coupling_text in text for text in texts) == 1
    assert coupling_text in Path(out).read_text().replace(" ", "").replace("\n", "")
    texts.clear()
    preset = write_config(tmp_path, {"mode": "hydrogen-case1", "seed": 9})
    assert main(["--config", preset, "--out", out]) == 0
    assert len(texts) <= 4  # config, mode, provenance, result


def echoed_texts(value):
    """Each (list, carried text) pair in a parsed JSON value."""
    found = []
    if isinstance(value, dict):
        for item in value.values():
            found += echoed_texts(item)
    elif isinstance(value, list):
        if type(value) is iqcontrol.cli._EchoedList:
            found.append((value, value.text))
        for item in value:
            found += echoed_texts(item)
    return found


def integer_coupling_config(seed, dim=64):
    # a chain coupling with integer zeros, as json.dumps writes a list built
    # from [0] * dim: mostly integers, so its text is read back, not encoded
    rng = np.random.default_rng(seed)
    coupling = [[0] * dim for _ in range(dim)]
    for k in range(dim - 1):
        coupling[k][k + 1] = coupling[k + 1][k] = float(rng.uniform(0.5, 2.0))
    return {"mode": "algo1", "initial": [0.125] * dim, "good": dim, "seed": seed,
            "system": {"dim": dim, "drift": [0.5 * k * k for k in range(dim)],
                       "coupling": coupling}}


# the spellings of number tokens: some are what _encode writes (repr of the
# value), some are not (trailing zeros, other exponent forms, an integer -0)
NUMBER_TOKENS = (
    st.sampled_from(["0", "-0", "1.50", "1e5", "1E-7", "1e-07", "-0.0", "0.0", "2.5e+300",
                     "1e400", str(10**400), "-" + str(2**1100), "12.0"])
    | st.integers(-10**6, 10**6).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
JSON_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=2)


@st.composite
def number_documents(draw):
    # number arrays up to 3 deep, inside objects up to two deep, spelled with
    # JSON whitespace anywhere it may stand
    def spaced(text):
        return draw(JSON_WHITESPACE) + text + draw(JSON_WHITESPACE)

    def array(depth):
        size = draw(st.integers(0, 3))
        items = [array(depth - 1) if depth > 1 and draw(st.booleans()) else draw(NUMBER_TOKENS)
                 for _ in range(size)]
        return "[" + (",".join(map(spaced, items)) if items else draw(JSON_WHITESPACE)) + "]"

    def obj(depth):
        keys = draw(st.lists(st.text(alphabet="abc", max_size=2), max_size=3, unique=True))
        members = []
        for key in keys:
            if depth > 1 and draw(st.booleans()):
                value = obj(depth - 1)
            elif draw(st.booleans()):
                value = array(draw(st.integers(1, 3)))
            else:
                value = draw(NUMBER_TOKENS)
            members.append(spaced(json.dumps(key)) + ":" + spaced(value))
        return "{" + ",".join(members) + "}"

    body = obj(2)
    # a padding array of integers long enough for the integer-heavy decode
    pad = "[" + "0," * max(1024, 4 * body.count(".")) + "0]"
    return spaced("{" + spaced('"pad"') + ":" + pad + ("," + body[1:] if body != "{}" else "}"))


@settings(max_examples=200)
@given(text=number_documents())
@example(text='{"pad":[' + "0," * 1024 + '0 ], "a": {"b": [[-0.0, 1.50], [], [[1e5]]], "c": [ -0 ]}}')
@example(text='{"a": [-0], "pad": [' + "0, " * 1024 + '0\t]\r\n, "b": [1E-7]}')
@example(text='{"a": {"b": [' + str(10**400) + ', [[]]]}, "pad": [' + "7,\n" * 1024 + "0]}")
def test_echoing_decode_equals_json_loads(text):
    # the integer-heavy decode returns json.loads's value, and each text it
    # carries is what _encode writes for its array
    assert text.count(",") >= max(1024, 4 * text.count("."))
    value = iqcontrol.cli._parse_json(text, "config")
    assert value == json.loads(text)
    texts = echoed_texts(value)
    assert type(value["pad"]) is iqcontrol.cli._EchoedList
    for array, carried in texts:
        assert carried == iqcontrol.cli._encode(array)


def test_echoing_decode_keeps_only_exact_spellings():
    decode = iqcontrol.cli._decode_echoing
    value = decode('{"a": [1, 2.5], "b": [1.50], "c": [-0], "d": [[1e5]], "e": [-0.0],'
                   ' "f": [true], "g": {"h": [ 3 ,\n4 ]}, "i": [[1], [2]], "j": []}')
    kept = {key: getattr(value[key], "text", None) for key in "abcdefij"}
    assert kept == {"a": "[1,2.5]", "b": None, "c": None, "d": None, "e": "[-0.0]",
                    "f": None, "i": "[[1],[2]]", "j": "[]"}
    assert value["g"]["h"].text == "[3,4]"
    # arrays inside arrays are read by the C scanner whole: only the
    # outermost carries its text
    assert type(value["i"][0]) is list
    top = decode("[[0, 1], [2, 3]]")
    assert top.text == "[[0,1],[2,3]]"


# documents the integer-heavy decode must reject as json.loads does, each
# with a padding array that sends it there
INTEGER_PAD = "[" + "0, " * 1024 + "0]"
MALFORMED_INTEGER_HEAVY = {
    "trailing-comma-array": '{"pad": ' + INTEGER_PAD[:-1] + ",]}",
    "trailing-comma-object": '{"pad": ' + INTEGER_PAD + ",}",
    "extra-data": '{"pad": ' + INTEGER_PAD + "} {}",
    "extra-data-array": INTEGER_PAD + " 0",
    "missing-colon": '{"pad" ' + INTEGER_PAD + "}",
    "deep-arrays": '{"pad": ' + INTEGER_PAD + ', "deep": ' + "[" * 100_000 + "}",
    "deep-objects": '{"pad": ' + INTEGER_PAD + ', "deep": ' + '{"a": ' * 100_000 + "}",
    "deep-braces": '{"pad": ' + INTEGER_PAD + ', "deep": ' + "{" * 100_000 + "}",
    "unclosed": '{"pad": ' + INTEGER_PAD,
    "huge-int": '{"pad": ' + INTEGER_PAD + ', "n": [' + HUGE_INT + "]}",
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_INTEGER_HEAVY))
def test_echoing_decode_rejects_what_json_rejects(kind):
    text = MALFORMED_INTEGER_HEAVY[kind]
    assert text.count(",") >= 1024 and "." not in text
    with pytest.raises((ValueError, RecursionError)) as loads:
        json.loads(text)
    with pytest.raises((ValueError, RecursionError)):
        iqcontrol.cli._decode_echoing(text)
    with pytest.raises(ConfigError) as parsed:
        iqcontrol.cli._parse_json(text, "config")
    assert str(parsed.value) == f"config: invalid JSON ({loads.value})"


@pytest.mark.parametrize("variant, encoded", [
    ("integer-zeros", 0), ("float-zeros", 1), ("one-respelled-float", 1),
])
def test_integer_coupling_text_read_back(tmp_path, monkeypatch, variant, encoded):
    # an integer-heavy coupling's text is read back from the input; one
    # with float zeros (float-dense) or with a float spelled other than
    # its repr is encoded once, in validation
    payload = integer_coupling_config(64)
    coupling = payload["system"]["coupling"]
    if variant == "float-zeros":
        payload["system"]["coupling"] = np.array(coupling, dtype=float).tolist()
    text = json.dumps(payload)
    if variant == "one-respelled-float":
        text = text.replace('"coupling": [[0, ', '"coupling": [[1.50, ', 1)
    encode, texts = iqcontrol.cli._encode, []

    def counting(value):
        texts.append(encode(value))
        return texts[-1]

    monkeypatch.setattr(iqcontrol.cli, "_encode", counting)
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "report.json"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    monkeypatch.undo()
    coupling_text = encode(json.loads(text)["system"]["coupling"])
    assert sum(coupling_text in written for written in texts) == encoded
    # the report is the one the json.loads path writes, config block and hash
    report = _strict_json(out.read_text())
    echo = validate_config(json.loads(text)).echo()
    assert report["config"] == json.loads(encode(echo))
    assert report["provenance"]["config_sha256"] == hashlib.sha256(encode(echo).encode()).hexdigest()


def test_edited_echo_validated_again_is_encoded():
    # a config parsed from integer-heavy text keeps plain lists: an edit to
    # its echo, validated again, is encoded, not read from a stale text
    text = json.dumps(integer_coupling_config(7))
    assert type(iqcontrol.cli._parse_json(text, "config")["initial"]) is iqcontrol.cli._EchoedList
    config = iqcontrol.cli.parse_config(text)
    assert echoed_texts(config.echo()) == []
    original = config.canonical
    assert original == iqcontrol.cli._encode(config.echo())
    for edit in (copy.deepcopy, lambda echo: echo):
        raw = edit(config.echo())
        raw["system"]["coupling"][0][1] = raw["system"]["coupling"][1][0] = 3
        raw["initial"][0] = -0.125
        edited = validate_config(raw)
        assert edited.canonical == iqcontrol.cli._encode(edited.echo()) != original
        assert edited.spec.coupling[0, 1] == 3
    # a library caller's dict is kept as it is given
    raw = integer_coupling_config(7)
    assert validate_config(raw).system is raw["system"]


def assert_thread_runs_match(argvs, timeout=60):
    """Each argv (ending in ``--out PATH``), run 10 times in a thread of its
    own while the others run, writes the report it writes alone, with
    ``generated_at`` masked; the reports of different argvs differ.  A
    thread still running ``timeout`` seconds after the joins begin fails."""
    def timeless(argv):
        report = json.loads(Path(argv[-1]).read_text())
        report["provenance"].pop("generated_at")
        return render_report(report)

    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(timeless(argv))
    assert len(set(expected)) == len(argvs)
    mismatches = []

    def worker(k):
        for _ in range(10):
            if main(argvs[k]) != 0 or timeless(argvs[k]) != expected[k]:
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(argvs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_integer_coupling_main_from_threads(tmp_path, capsys):
    # the decode's respelled-float count lives in each call: threads that
    # read integer-heavy configs at once, half of them with a coupling that
    # spells a float 1.50, write the reports they write alone
    argvs = []
    for k in range(4):
        payload = integer_coupling_config(100 + k)
        payload["system"]["coupling"][0][1] = payload["system"]["coupling"][1][0] = 1.5
        text = json.dumps(payload)
        if k % 2:
            text = text.replace('"coupling": [[0, 1.5, ', '"coupling": [[0, 1.50, ', 1)
        config = tmp_path / f"config{k}.json"
        config.write_text(text)
        coupling = iqcontrol.cli._parse_json(text, "config")["system"]["coupling"]
        assert (type(coupling) is iqcontrol.cli._EchoedList) == (k % 2 == 0)
        argvs.append(["--config", str(config), "--out", str(tmp_path / f"report{k}.json")])
    assert_thread_runs_match(argvs)
    capsys.readouterr()


def json_trees(leaves):
    keys = st.text(alphabet=st.characters() | st.sampled_from('"\\\n\x01é')) | SEPARATOR_TEXT
    return st.recursive(
        leaves | NUMBER_LISTS,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=12,
    )


# the two render properties take their example count from the profile:
# Tier-1's derandomized one, or a randomized soak (see tests/conftest.py)
@given(tree=json_trees(FINITE_LEAVES))
def test_render_report_equals_json_dumps(tree):
    assert render_report(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


# the explicit examples hold separators inside plain strings, lists of
# scalars at depths 0-3 next to nested and empty lists, and runs of sibling
# lists of scalars (one token each) at depths 0-3, next to bare scalars and
# after a string that holds "],[", which the derandomized profile's draws
# rarely do
@given(tree=json_trees(FINITE_LEAVES))
@example(tree={"a,b": ["c:d", "[x]", "{}", "", [], {}], ":": {"{": "é\u2028", "]": 'q"\\,'}})
@example(tree=[True, None, -0.0, 1e308])
@example(tree={"a": [[1]], "b": [[], [1, 2.5], []], "c": [7]})
@example(tree=[[[True, None, -0.0, 1e308], [[1]]], [[], [-1, 2**64]]])
@example(tree={"x": [{"y": [[0.5, -0.0], [], [5e-324]], "z": [{}, [1]]}]})
@example(tree=[[1, 2], [3, 4]])
@example(tree=[[1], [2], [3]])
@example(tree={"a": [[1, 2], [3, 4], [5, 6]], "b": [[[7], [8]], [[9], [10]]]})
@example(tree=[{"c": [[[1], [2, 3]], [[4.5, None], [True]]]}])
@example(tree=[[-1.5, [0.5, 0.25], [1, -2]], [[0.5, -0.25], 2.0]])
@example(tree={"a": "],[", "b": [[1], [2]]})
def test_reindent_equals_json_dumps(tree):
    # the report's config block is the canonical compact text re-indented
    compact = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    expected = json.dumps(tree, sort_keys=True, indent=2)
    assert _reindent(compact) == expected + "\n"


def dense_analyze_config(seed, dim=16):
    # a dense complex coupling, as [re, im] pairs off the diagonal, and a
    # float drift, whose ratios give the report its witnesses
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (z + z.conj().T) / 2.0
    coupling = [[[h[r, c].real, h[r, c].imag] if r != c else h[r, r].real for c in range(dim)]
                for r in range(dim)]
    return {"mode": "analyze", "system": {"dim": dim, "drift": rng.uniform(0.0, 10.0, dim).tolist(),
                                          "coupling": coupling}}


def uniform_chain_config(seed, dim, **fields):
    # integer_coupling_config with a uniform state of any dimension
    return {**integer_coupling_config(seed, dim), "initial": [dim**-0.5] * dim, **fields}


@pytest.mark.parametrize(
    "payload",
    [dense_analyze_config(5), uniform_chain_config(6, 256),
     uniform_chain_config(7, 32, mode="measure-stats", good=None, shots=2000)],
    ids=["analyze-dense-16", "algo1-chain-256", "measure-stats-per-index-32"],
)
def test_cli_reports_equal_json_dumps(tmp_path, payload):
    # Hypothesis trees hold at most 12 leaves; these reports hold runs of
    # 16 to 256 sibling lists: coupling rows, [re, im] pairs and blocks
    out = tmp_path / "report.json"
    assert main(["--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    # compared line by line: pytest's diff of two long strings takes minutes
    assert text.split("\n") == (json.dumps(report, sort_keys=True, indent=2) + "\n").split("\n")
    if payload["mode"] == "analyze":
        assert report["result"]["irrational_witnesses"]


@settings(max_examples=60)
@given(
    tree=json_trees(FINITE_LEAVES | st.sampled_from([NAN, INF, -INF]) | st.just([1, NAN, 2.5])),
)
def test_render_report_rejects_what_strict_json_rejects(tree):
    # NaN and infinities raise as json.dumps(allow_nan=False) raises
    try:
        expected = json.dumps(tree, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_report(tree)
    else:
        assert render_report(tree) == expected


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_non_finite_result_becomes_error_record(tmp_path, monkeypatch, capsys, to_file):
    # a NaN the library lets through must not reach the report: the run
    # exits 1 with an error record, and the output stays strict JSON
    def nan_execute(config):
        return 0, {"mode": config.mode, "config": config.echo(),
                   "result": {"predicted_success": float("nan")}}

    monkeypatch.setattr(iqcontrol.cli, "execute", nan_execute)
    out = tmp_path / "report.json"
    args = ["--config", write_config(tmp_path, {"mode": "analyze", "system": "hydrogen"})]
    code = main(args + ["--out", str(out)] if to_file else args)
    captured = capsys.readouterr()
    report = _strict_json(out.read_text() if to_file else captured.out)
    assert code == 1
    assert "result" not in report
    assert report["error"]["type"] == "ValueError"
    assert "not JSON compliant" in report["error"]["message"]
    assert report["config"]["mode"] == "analyze"
    summary = captured.out if to_file else captured.err
    assert summary.strip() == summarize(report).strip()


@pytest.mark.parametrize("target", ["missing-parent", "directory"])
@pytest.mark.parametrize("payload, kept", [
    ({"mode": "hydrogen-case1", "seed": 3}, None),
    ({"mode": "analyze"}, "system: required for mode 'analyze'"),
], ids=["run", "config-error"])
def test_unwritable_out_sends_report_to_stdout(tmp_path, capsys, target, payload, kept):
    # the report is not lost: it goes to stdout with the summary on stderr,
    # the run exits 2, and a report without an error gets one naming 'out'
    out = tmp_path / "missing" / "r.json" if target == "missing-parent" else tmp_path
    code = main(["--config", write_config(tmp_path, payload), "--out", str(out)])
    captured = capsys.readouterr()
    report = _strict_json(captured.out)
    assert code == 2
    assert "Traceback" not in captured.err
    assert captured.err.strip() == summarize(report).strip()
    assert "result" not in report
    error = report["error"]
    if kept is None:
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("out: [Errno "), error
        assert str(out) in error["message"]
        assert report["config"]["mode"] == payload["mode"]
    else:
        assert error["message"] == kept


class TestReportContract:
    def test_determinism_modulo_timestamp(self, tmp_path):
        payload = {"mode": "hydrogen-case2", "seed": 7, "shots": 200}
        _, first = run_cli(tmp_path, payload)
        _, second = run_cli(tmp_path, payload)
        first["provenance"].pop("generated_at")
        second["provenance"].pop("generated_at")
        assert render_report(first) == render_report(second)

    def test_summary_round_trip(self, tmp_path, capsys):
        payload = {"mode": "hydrogen-case1", "seed": 11}
        out = str(tmp_path / "report.json")
        code = main(["--config", write_config(tmp_path, payload), "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert printed.strip() == summarize(report).strip()

    def test_report_to_stdout_summary_to_stderr(self, tmp_path, capsys):
        code = main(["--config", write_config(tmp_path, {"mode": "analyze", "system": "hydrogen"})])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["mode"] == "analyze"
        assert summarize(report).strip() == captured.err.strip()

    @pytest.mark.filterwarnings("ignore:subspace .* is not a connected component")
    def test_summary_counts_collisions_and_explains_a_missing_verdict(self, tmp_path):
        # a target that is no component printed "subspace verdict: None"
        _, analyze = run_cli(tmp_path, {"mode": "analyze", "system": "hydrogen"})
        assert "frequency collisions: 1" in summarize(analyze).splitlines()
        payload = {"mode": "algo2", "system": "hydrogen", "subspace": [1, 2],
                   "initial": [0.5, 0.5, 0.5, 0.5, 0.0], "seed": 1}
        _, algo2 = run_cli(tmp_path, payload)
        assert summarize(algo2).splitlines()[-1] == (
            "subspace verdict: not a connected component of the coupling graph"
        )

    def test_provenance_block(self, tmp_path):
        _, report = run_cli(tmp_path, {"mode": "hydrogen-case1", "seed": 9})
        prov = report["provenance"]
        assert set(prov) == {"config_sha256", "seed", "version", "generated_at"}
        assert prov["seed"] == 9
        assert len(prov["config_sha256"]) == 64

    @pytest.mark.parametrize(
        "payload, digest",
        [
            pytest.param(
                {"mode": "hydrogen-case1", "seed": 9},
                "90ff5963a6c04c0152e4295e10daa47dc9b87702c05c324aa15acd9cd4eb6e92", id="preset",
            ),
            pytest.param(
                {"mode": "amplify", "initial": [0.6, [0, 0.8], 0], "subspace": [1, 2],
                 "system": {"dim": 3, "drift": [0, 1.5, 3.25],
                            "coupling": [[0, [0.5, 0.25], 0], [[0.5, -0.25], 0, 1], [0, 1, 0]]},
                 "phases": [3.0, 1.25], "iterations": 2,
                 "tolerances": {"ratio_tol": 1e-8, "max_denominator": 500}},
                "b74ea7d7f0037d82f8c561bb32a1c56f9cfd231082d073db04083a43cd805610", id="inline",
            ),
            pytest.param(
                {"mode": "algo1", "initial": [0.125] * 64, "good": 64, "seed": 5,
                 "system": {"dim": 64, "drift": [0.5 * k * k for k in range(64)],
                            "coupling": [[1.0 if abs(i - j) == 1 else 0 for j in range(64)]
                                         for i in range(64)]}},
                "16200d853c82c46d6b3b39e36e2756dc6a537e9a71bf2a474832cd35d4941456", id="chain-64",
            ),
        ],
    )
    def test_config_hash_pinned(self, tmp_path, payload, digest):
        # digests computed at version 0.6.0: a drift in the canonical echo
        # bytes, which identical configs must keep, shows here
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        assert report["provenance"]["config_sha256"] == digest

    def test_flags_override_config(self, tmp_path):
        payload = {"mode": "hydrogen-case1", "seed": 1, "shots": 1}
        _, report = run_cli(tmp_path, payload, extra_args=["--seed", "33"])
        assert report["config"]["seed"] == 33
        assert report["provenance"]["seed"] == 33

    def test_main_reuses_one_parser(self, tmp_path, capsys, monkeypatch):
        # the parser is built once, at import: a usage error and --help leave
        # it as they found it, and flags of one call never reach the next
        def rebuilt():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(iqcontrol.cli, "_build_parser", rebuilt)

        def report(payload, extra_args=()):
            code, rep = run_cli(tmp_path, payload, extra_args)
            assert code == 0
            rep["provenance"].pop("generated_at")
            return render_report(rep)

        case1 = {"mode": "hydrogen-case1", "seed": 5}
        case2 = {"mode": "hydrogen-case2", "seed": 6, "shots": 300}
        first = report(case1)
        for argv, status in ((["--bogus"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == status
        capsys.readouterr()
        assert report(case1) == first
        second = report(case2)
        assert second != first
        assert json.loads(report(case1, ["--seed", "33"]))["config"]["seed"] == 33
        assert report(case2) == second
        assert report(case1) == first

    def test_main_from_threads(self, tmp_path, capsys):
        # threads share the parser and the cached hydrogen spec: each run
        # gives the report it gives alone
        argvs = []
        for k in range(6):
            mode = ("hydrogen-case1", "hydrogen-case2")[k % 2]
            argvs.append(["--mode", mode, "--seed", str(k), "--shots", str(1 + 40 * (k % 3)),
                          "--out", str(tmp_path / f"report{k}.json")])
        assert_thread_runs_match(argvs)
        capsys.readouterr()

    def test_flag_only_invocation(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = main(
            [
                "--mode", "algo1",
                "--system", "hydrogen",
                "--initial", "[0.7, 0.5, 0.3, 0.4, 0.1]",
                "--good", "5",
                "--seed", "11",
                "--out", out,
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["result"]["plan"]["iterations"] == 7


ALGO2_ONE_ITERATION = {
    "mode": "algo2",
    "system": "hydrogen",
    "initial": [0.1, 0.06, 0.08, 0.7, 0.7],
    "subspace": [1, 2, 3],
    "iterations": 1,
}
ALGO1_NO_ITERATION = {
    "mode": "algo1",
    "system": "hydrogen",
    "initial": [0.7, 0.5, 0.3, 0.4, 0.1],
    "good": 5,
    "iterations": 0,
}


def per_attempt_oracle(payload, seed, cap):
    """Repeat-until-success as a loop of whole runs, one shot index each."""
    spec = hydrogen_spec()
    mode = payload["mode"]
    if mode == "hydrogen-case1":
        preset = case1_preset()
        run = lambda k: run_algorithm1(spec, preset.initial, 5, seed=seed, measurement_shot=k)
    elif mode == "hydrogen-case2":
        preset = case2_preset()
        run = lambda k: run_algorithm2(spec, preset.initial, preset.good, seed=seed, measurement_shot=k)
    else:
        amps = np.array(payload["initial"], dtype=complex)
        initial = StateVector(amps / np.linalg.norm(amps))  # as the CLI builds it
        if mode == "algo1":
            run = lambda k: run_algorithm1(
                spec, initial, payload["good"], iterations=payload["iterations"],
                seed=seed, measurement_shot=k,
            )
        else:
            run = lambda k: run_algorithm2(
                spec, initial, GoodSubspace.of(payload["subspace"], 5),
                iterations=payload["iterations"], seed=seed, measurement_shot=k,
            )
    for attempt in range(cap):
        report = run(attempt)
        if report.success:
            break
    return report, attempt + 1


@pytest.mark.parametrize(
    "payload, caps, seeds, late",
    [
        pytest.param({"mode": "hydrogen-case1"}, (1, 5), range(10), None, id="case1"),
        pytest.param({"mode": "hydrogen-case2"}, (1, 5), range(10), None, id="case2"),
        pytest.param(ALGO2_ONE_ITERATION, (1, 4, 50), range(20), 1, id="algo2-L1"),
        # success probability 0.01: late hits cross the first chunks of draws
        pytest.param(ALGO1_NO_ITERATION, (100, 300), range(20), 64, id="algo1-L0"),
    ],
)
def test_repeat_until_success_matches_per_attempt_runs(payload, caps, seeds, late, monkeypatch):
    calls = {"make_plan": 0, "_edges": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(iqcontrol.algorithms, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(iqcontrol.algorithms, name, counted)
    outcomes = []
    for cap in caps:
        for seed in seeds:
            config = validate_config(
                {**payload, "seed": seed, "shots": cap, "repeat_until_success": True}
            )
            calls.update(make_plan=0, _edges=0)
            code, report = execute(config)
            # plan and controllability analysis once per run, not per attempt
            algorithm2 = payload["mode"] in ("algo2", "hydrogen-case2")
            assert calls == {"make_plan": 1, "_edges": int(algorithm2)}
            assert code == 0
            result = report["result"]
            result.pop("preset_expectation", None)
            expected, attempts = per_attempt_oracle(payload, seed, cap)
            assert result["attempts"] == attempts
            assert result["success"] is expected.success
            assert result == {**expected.to_dict(), "attempts": attempts}
            outcomes.append((attempts, expected.success, cap))
    if late is not None:
        # the inputs reach both ends: caps run out, and hits come late
        assert any(not hit and n == limit > 1 for n, hit, limit in outcomes)
        assert any(hit and n > late for n, hit, _ in outcomes)


def test_one_flag_per_config_field():
    # every flag's dest is its config field, so the flags merge over the
    # config file in one step; 'tolerances' has no flag, '--config' no field
    dests = {action.dest for action in iqcontrol.cli._PARSER._actions} - {"help"}
    assert dests == set(iqcontrol.cli.CONFIG_FIELDS) - {"tolerances"} | {"config"}
    names = [f.name for f in fields(iqcontrol.cli.RunConfig)]
    assert names[: len(iqcontrol.cli.CONFIG_FIELDS)] == list(iqcontrol.cli.CONFIG_FIELDS)


def test_readme_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Flags \(long-form only\):(.*?)\. Flags override", readme, re.S)
    listed = re.findall(r"`(--[a-z-]+)`", sentence.group(1))
    options = [
        option
        for action in iqcontrol.cli._PARSER._actions
        if action.dest != "help"
        for option in action.option_strings
    ]
    assert sorted(listed) == sorted(options)


def test_readme_lists_every_config_field():
    # one row per record of the field table, in its order, with its default
    # and the modes that cannot run without it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \| ([^|]+) \|$", readme, re.M)
    assert [name for name, _, _ in rows] == list(iqcontrol.cli.CONFIG_FIELDS)
    for field, (name, default, needed) in zip(iqcontrol.cli._FIELDS, rows):
        assert default.strip() == ("none" if field.default is None else f"`{json.dumps(field.default)}`")
        modes = re.findall(r"`([a-z0-9-]+)`", needed.split(";")[0])
        if name != "mode":
            needs = iqcontrol.cli._MODE_FIELDS.items()
            assert modes == [mode for mode, fields in needs if name in fields], name


def test_preset_runs_build_no_preset(tmp_path, monkeypatch):
    # the presets are built once, at import; a run reads them from the table
    def built(*args):
        raise AssertionError("a run built a preset")

    for module in (iqcontrol, iqcontrol.hydrogen, iqcontrol.cli):
        for name in ("case1_preset", "case2_preset"):
            monkeypatch.setattr(module, name, built, raising=False)
    for payload in (
        {"mode": "hydrogen-case1", "seed": 11},
        {"mode": "hydrogen-case2", "seed": 7, "shots": 300},
        {"mode": "hydrogen-case1", "seed": 3, "shots": 40, "repeat_until_success": True},
    ):
        code, report = run_cli(tmp_path, payload)
        assert code == 0
        assert report["result"]["preset_expectation"]["iterations"] in (5, 7)


def test_python_dash_m_runs_main(tmp_path, capsys):
    # 'python -m iqcontrol.cli' is the CLI itself, not a silent no-op
    env = {**os.environ, "PYTHONPATH": str(Path(iqcontrol.__file__).resolve().parents[1])}
    argv = ["--mode", "hydrogen-case1", "--seed", "1"]

    def timeless(text):
        report = json.loads(text)
        report["provenance"].pop("generated_at")
        return render_report(report)

    run = subprocess.run([sys.executable, "-m", "iqcontrol.cli", *argv],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert timeless(run.stdout) == timeless(captured.out)
    assert run.stderr == captured.err
    bogus = subprocess.run([sys.executable, "-m", "iqcontrol.cli", "--mode", "bogus"],
                           capture_output=True, text=True, env=env, cwd=tmp_path)
    assert bogus.returncode == 2
    assert "invalid choice: 'bogus'" in bogus.stderr
