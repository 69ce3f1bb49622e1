import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import fields
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
    GoodSubspace,
    StateVector,
    SystemSpec,
    case1_preset,
    case2_preset,
    hydrogen_spec,
    run_algorithm1,
    run_algorithm2,
)
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


def run_cli(tmp_path, payload, extra_args=(), capsys=None):
    out = str(tmp_path / "report.json")
    args = ["--config", write_config(tmp_path, payload), "--out", out, *extra_args]
    code = main(args)
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text)
    assert text == render_report(report) == oracle_render(report)
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
    assert text == oracle_render(report)
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
            {"tolerances": {"ratio_tol": NAN}}, "tolerances.ratio_tol", id="tolerance-nan",
        ),
        pytest.param(
            {"tolerances": {"edge_threshold": -INF}},
            "tolerances.edge_threshold", id="tolerance-inf",
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
    payload = {"mode": "analyze", "system": HYDROGEN_INLINE, **overrides}
    out = tmp_path / "report.json"
    code = main(["--config", write_config(tmp_path, payload), "--out", str(out)])
    report = _strict_json(out.read_text())
    assert code == 2
    assert report["error"]["type"] == "ConfigError"
    assert report["error"]["message"].startswith(path + ": expected a finite number")


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
        # past 2**53 the float L is inexact, and near the float range's top
        # the plan was nan (exit 1, "state amplitudes must be finite")
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


REQUIRED = {
    "analyze": ["system"],
    "amplify": ["system", "initial"],  # plus its good set, either field
    "algo1": ["system", "initial", "good", "seed"],
    "algo2": ["system", "initial", "subspace", "seed"],
    "measure-stats": ["system", "initial", "seed"],
}
# a scalar field set to a value of the wrong JSON kind or range: (field,
# value, the path its error names); 'out' is left out, because --out
# overrides it, and so is null, which means "absent"
WRONG_KINDS = [
    ("phases", "x", "phases"), ("phases", [1.0], "phases"),
    ("phases", [1.0, "x"], "phases[1]"), ("phases", [4.0, 1.0], "phases[0]"),
    *(("iterations", v, "iterations") for v in (2.5, True, "x", -1)),
    *(("seed", v, "seed") for v in (1.5, True, -1)),
    *(("shots", v, "shots") for v in (0, True, 2.5)),
    *(("l_max", v, "l_max") for v in (-1, 2.5)),
    *((field, v, field) for field in ("pre_rotation", "repeat_until_success") for v in (1, "yes")),
    ("tolerances", [], "tolerances"),
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


# the derandomized fuzz draws few of its mutations (4 of the 23 WRONG_KINDS
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


def json_trees(leaves):
    keys = st.text(alphabet=st.characters() | st.sampled_from('"\\\n\x01é')) | SEPARATOR_TEXT
    return st.recursive(
        leaves | NUMBER_LISTS,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=12,
    )


@settings(max_examples=100)
@given(tree=json_trees(FINITE_LEAVES))
def test_render_report_equals_json_dumps(tree):
    assert render_report(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


# the explicit examples hold separators inside plain strings, and lists of
# scalars (one token each) at depths 0-3 next to nested and empty lists,
# which the derandomized profile's 100 draws rarely do
@settings(max_examples=100)
@given(tree=json_trees(FINITE_LEAVES))
@example(tree={"a,b": ["c:d", "[x]", "{}", "", [], {}], ":": {"{": "é\u2028", "]": 'q"\\,'}})
@example(tree=[True, None, -0.0, 1e308])
@example(tree={"a": [[1]], "b": [[], [1, 2.5], []], "c": [7]})
@example(tree=[[[True, None, -0.0, 1e308], [[1]]], [[], [-1, 2**64]]])
@example(tree={"x": [{"y": [[0.5, -0.0], [], [5e-324]], "z": [{}, [1]]}]})
def test_reindent_equals_json_dumps(tree):
    # the report's config block is the canonical compact text re-indented
    compact = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    expected = json.dumps(tree, sort_keys=True, indent=2)
    assert _reindent(compact) == expected + "\n"


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
        def timeless(path):
            report = json.loads(path.read_text())
            report["provenance"].pop("generated_at")
            return render_report(report)

        argvs, expected = [], []
        for k in range(6):
            out = tmp_path / f"report{k}.json"
            mode = ("hydrogen-case1", "hydrogen-case2")[k % 2]
            argvs.append(["--mode", mode, "--seed", str(k), "--shots", str(1 + 40 * (k % 3)),
                          "--out", str(out)])
            assert main(argvs[k]) == 0
            expected.append(timeless(out))
        mismatches = []

        def worker(k):
            for _ in range(10):
                if main(argvs[k]) != 0 or timeless(tmp_path / f"report{k}.json") != expected[k]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
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
