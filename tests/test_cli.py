import json
import math

import pytest

from iqcontrol import ConfigError
from iqcontrol.cli import execute, main, parse_config, render_report, summarize, validate_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, extra_args=(), capsys=None):
    out = str(tmp_path / "report.json")
    args = ["--config", write_config(tmp_path, payload), "--out", out, *extra_args]
    code = main(args)
    report = json.loads((tmp_path / "report.json").read_text())
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

    def test_non_normalized_initial_rejected_with_norm(self):
        raw = {
            "mode": "algo1",
            "system": HYDROGEN_INLINE,
            "initial": [1.0, 1.0],
            "good": 2,
            "seed": 1,
        }
        code, report = execute(validate_config(raw))
        assert code == 2
        assert "norm" in report["error"]["message"]
        assert "1.41" in report["error"]["message"]  # the computed norm

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
    return json.loads(text, parse_constant=reject)


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

    def test_provenance_block(self, tmp_path):
        _, report = run_cli(tmp_path, {"mode": "hydrogen-case1", "seed": 9})
        prov = report["provenance"]
        assert set(prov) == {"config_sha256", "seed", "version", "generated_at"}
        assert prov["seed"] == 9
        assert len(prov["config_sha256"]) == 64

    def test_flags_override_config(self, tmp_path):
        payload = {"mode": "hydrogen-case1", "seed": 1, "shots": 1}
        _, report = run_cli(tmp_path, payload, extra_args=["--seed", "33"])
        assert report["config"]["seed"] == 33
        assert report["provenance"]["seed"] == 33

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
