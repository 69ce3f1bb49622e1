"""Command-line front end: JSON config in, JSON report out.

Config and report use plain JSON; complex numbers are two-element
[re, im] arrays and matrices are row-major nested lists.  The report is
written to --out (summary then goes to stdout) or to stdout (summary
then goes to stderr), and carries a provenance block with the config
hash, the seed, and the library version, so identical configs produce
byte-identical reports apart from the timestamp field.

Exit status: 0 on success, 2 on a malformed field (a ConfigError naming
its JSON path, 'out' among them when the report cannot be written there
and goes to stdout instead, and the flag of an input file that cannot be
read or is not UTF-8), 1 only on a runtime failure, a result holding a
NaN or an infinity among them.  Any nonzero exit writes a report
containing an error record, except an argparse usage error, which raises
SystemExit(2) before any config is read.  Reports are strict JSON.
Each scalar field is read by the library's own reader (``core._integer``,
``amplification``'s phase and ``iterations`` readers, ``measurement``'s
``shots`` reader, or the type that takes it: ``ControllabilityConfig``
for a tolerance, ``HydrogenModel`` for ``system.energy_gap``), so its
error reads as the library's under the field's path: ``seed: must be an
integer, got 1.5``, ``iterations: phase-error bound 1.00000008e-09
exceeds 1e-09; the largest count within it is 1125899, got 1125900``.  The echo keeps
a JSON int or float as given; a tolerance or ``system.energy_gap`` of
another kind its reader accepts (a ``validate_config`` caller's
``np.float32`` or ``Fraction``) is echoed as the number the reader
returned, so the config hash can encode it.
Every config field is one record of the table ``_FIELDS``: its name,
its JSON kind, its reader, its default and its flag's help.  The parser
adds one flag per record whose kind has one, with the argparse keywords
of that kind; ``validate_config`` reads every field but ``mode``,
``system`` and ``initial`` by its record's reader, in table order, and
builds the ``RunConfig`` from the values read; ``CONFIG_FIELDS`` is the
table's names.  Each default is read by its record's reader once, at
import, with the presets and their spec, and an absent or null field
takes that value.  Every mode is one record of ``_MODES``: the fields it
needs, the target it takes and its run.  Each config reader returns its
field's echo: ``_system_spec`` and ``_initial_state`` return the library
object, the echo and its canonical text, and ``validate_config`` only
assembles the ``RunConfig`` from them.  Every message quotes a caller's
value by ``core._quoted`` and a key or a size by ``core._shown``, so a
value that ``repr`` cannot print (an int of more than 4,300 digits from a
``validate_config`` caller) still ends in a ConfigError naming its path.
``--iterations`` text that ``int`` refuses reaches the field's reader
unchanged, so the flag and the file share one message:
``iterations: must be an integer, got '2.0'``.
Run it as ``iqcontrol`` or as ``python -m iqcontrol.cli``.

The JSON text is ``_text``'s: the report's encoding and indent, the
config echo's canonical text that ``config_sha256`` hashes, the decode
of a config, and the bulk read of its numeric arrays.  Its docstring
states the contract: every report is
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import __version__
from ._text import _FLOAT_MAX, _encode, _numbers, _parse_json, _plain, _reindent, _spliced
from .algorithms import PreparedRun, RunReport, prepare_run, run_algorithm1, run_algorithm2
from .amplification import DEFAULT_L_MAX, MAX_ITERATIONS, GoodSubspace, _check_phase, _iterations
from .controllability import ControllabilityConfig, assess
from .core import StateVector, SystemSpec, _dim, _integer, _quoted, _shown
from .errors import ConfigError
from .hydrogen import case1_preset, case2_preset, hydrogen_spec
from .measurement import (MeasurementPartition, _shots, born_probabilities, measurement_histogram,
                          sample_collapse)

# the preset modes' hydrogen runs and the spec they run on, built once at
# import: frozen, with read-only arrays, so every run and thread shares them
_PRESETS = {preset.name: preset for preset in (case1_preset(), case2_preset())}
_PRESET_SPEC = hydrogen_spec()
INITIAL_NORM_TOL = 1e-8

__all__ = ["RunConfig", "parse_config", "execute", "summarize", "main"]


# ---------------------------------------------------------------------------
# config parsing


@dataclass(frozen=True)
class RunConfig:
    """Validated run: the JSON-shaped fields of CONFIG_FIELDS to hash and
    echo, then the library objects that validation built from them, once.
    ``validate_config`` builds it and supplies every default."""

    mode: str
    system: Optional[dict]
    initial: Optional[list]
    good: Optional[int]
    subspace: Optional[list[int]]
    phases: tuple[float, float]
    iterations: Union[int, str]
    seed: Optional[int]
    shots: int
    pre_rotation: bool
    l_max: int
    tolerances: dict
    repeat_until_success: bool
    out: Optional[str]
    spec: Optional[SystemSpec]
    state: Optional[StateVector]
    # the good set amplified: a preset's, or the one built from 'good' or 'subspace'
    target: Optional[GoodSubspace]
    controllability: ControllabilityConfig
    # the canonical texts of the echo fields validation encoded or read
    # back from the input: 'system' when it is written out, and 'initial'
    texts: dict

    def echo(self) -> dict:
        """JSON-serializable echo of everything that defines the run."""
        echo = {name: getattr(self, name) for name in CONFIG_FIELDS if name != "out"}
        echo["phases"] = list(self.phases)
        return echo

    @cached_property
    def canonical(self) -> str:
        """The echo as sorted, compact strict JSON: the text the provenance
        hashes and the report splices in as its config block.  The fields
        in ``texts`` are spliced in, not encoded again."""
        return _spliced(self.echo(), self.texts)


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _json_number(value, read):
    """``value`` when it is a number JSON reads (a Python int or float),
    else ``read``, the number the library's reader made of it: any other
    kind that the reader accepts (``np.float32``, ``Fraction``) would not
    encode."""
    return value if type(value) in (int, float) else read


def _at(path: str, *index: int) -> str:
    return path + "".join(f"[{k}]" for k in index)


def _require_number(value, path: str, *index: int) -> float:
    # rejects booleans, NaN, +-Infinity and integer literals beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -_FLOAT_MAX <= value <= _FLOAT_MAX
    ):
        _fail(_at(path, *index), f"expected a finite number, got {_quoted(value)}")
    return float(value)


def _parse_complex(value, path: str, *index: int) -> complex:
    # every coupling and initial entry the bulk read declines passes here:
    # plain numbers are checked inline, and the entry's path is built only
    # when it fails; a pair may be a tuple, which json writes as a list
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_require_number(value[0], path, *index, 0),
                       _require_number(value[1], path, *index, 1))
    _fail(_at(path, *index), f"expected a finite number or an [re, im] pair, got {_quoted(value)}")


def _built(prefix: str, build, *args, **kwargs):
    """``build(...)`` with a TypeError or a ValueError raised as a
    ConfigError: ``prefix`` is "<path>: ", "<path>." for types whose
    messages start with a field name, or "" for a reader given the path."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _system_spec(value) -> tuple[SystemSpec, dict, Optional[str]]:
    """The spec ``value`` describes, a preset's name or a system object,
    with the field's echo and its canonical text (None for a preset, which
    is encoded with the config echo).  The echo is ``value`` itself unless
    it must differ: a name becomes its object, a ``dim`` or ``energy_gap``
    that JSON cannot write is echoed as read, and each ``_EchoedList``
    becomes a plain list, so an edited echo is encoded again."""
    if isinstance(value, str):
        value = {"preset": value}
    if not isinstance(value, dict):
        _fail("system", f"expected a system object or preset name, got {_quoted(value)}")
    allowed = ("preset", "energy_gap") if "preset" in value else ("dim", "drift", "coupling")
    for key in value:
        if key not in allowed:
            _fail(f"system.{_shown(key)}", "unknown field")
    if "preset" in value:
        if value["preset"] != "hydrogen":
            _fail("system.preset", f"unknown preset {_quoted(value['preset'])}")
        spec = _built("system.", hydrogen_spec, value.get("energy_gap", 1.0))
        if "energy_gap" in value:  # a preset's drift is (0, gap, gap, gap, gap)
            value = {**value, "energy_gap": _json_number(value["energy_gap"], float(spec.drift[1]))}
        return spec, value, None
    for key in ("dim", "drift", "coupling"):
        if key not in value:
            _fail("system", f"missing required field {_quoted(key)}")
    dim = _built("", _dim, value["dim"], "system.dim", 2)
    drift, coupling = value["drift"], value["coupling"]
    if not isinstance(drift, list):
        _fail("system.drift", f"expected dim eigenvalues, dim = {_shown(dim)}")
    if not isinstance(coupling, list) or len(coupling) != dim:
        _fail("system.coupling", f"expected a dim x dim matrix, dim = {_shown(dim)}")
    for i, row in enumerate(coupling):
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"system.coupling[{i}]", f"expected {_shown(dim)} entries")
    drift, drift_text = _numbers(drift, "system.drift", _require_number, pairs=False)
    coupling, coupling_text = _numbers(coupling, "system.coupling", _parse_complex, depth=2)
    spec = _built("system.", SystemSpec, dim=dim, drift=drift, coupling=coupling)
    if type(value["dim"]) is not int:  # np.int64 would not encode
        value = {**value, "dim": dim}
    # the object's canonical text, its arrays' texts spliced in
    return spec, _plain(value), _spliced(value, {"coupling": coupling_text, "drift": drift_text})


def _initial_state(value, spec: SystemSpec) -> tuple[StateVector, list, str]:
    """The state within INITIAL_NORM_TOL of unit norm, divided by its norm,
    the echo of ``value`` (a plain list) and its canonical text."""
    if not isinstance(value, list):
        _fail("initial", f"expected a list of amplitudes, got {_quoted(value)}")
    if len(value) != spec.dim:
        _fail("initial", f"expected {spec.dim} amplitudes to match the system, got {len(value)}")
    amps, text = _numbers(value, "initial", _parse_complex)
    amps = np.asarray(amps, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > INITIAL_NORM_TOL:
        _fail("initial", f"state is not normalized: norm is {_quoted(norm)}")
    return _built("initial: ", StateVector, amps / norm), _plain(value), text


def _labels(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of basis labels")
    labels = [_integer(v, f"{path}[{k}]", 1) for k, v in enumerate(value)]
    if len(set(labels)) != len(labels):
        _fail(path, "labels must be distinct")
    return labels


def _target(labels, path: str, dim: int) -> GoodSubspace:
    """The good set of ``labels``, one label or a list as the field
    ``path``'s reader read them; a label past ``dim`` is named by its own
    path, as the reader names one below 1."""
    if isinstance(labels, list):
        for k, label in enumerate(labels):
            _built("", _integer, label, f"{path}[{k}]", 1, dim)
    else:
        _built("", _integer, labels, path, 1, dim)
    return _built(f"{path}: ", GoodSubspace.of, labels, dim)


def _phases(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected [phi1, phi2]")
    return tuple(_check_phase(f"{path}[{k}]", p) for k, p in enumerate(value))


def _instance(kind: type, expected: str):
    """The reader of a value of type ``kind``, described as ``expected``."""

    def read(value, path: str):
        if not isinstance(value, kind):
            _fail(path, f"expected {expected}, got {_quoted(value)}")
        return value

    return read


_TOLERANCE_NAMES = sorted(f.name for f in fields(ControllabilityConfig))


def _tolerances(value, path: str) -> tuple[dict, ControllabilityConfig]:
    """The tolerances' echo, each as given when JSON writes it so, and the
    config read from them."""
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    for key in value:
        if key not in _TOLERANCE_NAMES:
            _fail(f"{path}.{_shown(key)}", f"unknown tolerance (allowed: {_TOLERANCE_NAMES})")
    config = _built(f"{path}.", ControllabilityConfig, **value)
    return {key: _json_number(v, getattr(config, key)) for key, v in value.items()}, config


# a config field: its name; its JSON kind, which sets its flag (see
# _FLAG_KEYWORDS); its reader ``(value, path) -> value``, None for the
# fields validate_config reads itself; its default; its flag's help
_Field = namedtuple("_Field", "name kind read default help", defaults=(None, None, None))


# every config field, in the order a RunConfig holds them; the report
# echoes all but 'out', and each flag's dest is its field
_FIELDS = (
    _Field("mode", "mode"),
    _Field("system", "system", help="'hydrogen' or a path to a system JSON object"),
    _Field("initial", "array", help="JSON amplitude array or a path to one"),
    _Field("good", "integer", lambda v, path: _integer(v, path, 1), help="1-based target basis label"),
    _Field("subspace", "array", _labels, help="JSON array of 1-based labels, e.g. [1,2,3]"),
    _Field("phases", "angles", _phases, [math.pi, math.pi]),
    _Field("iterations", "count", lambda v, path: _iterations(v), "auto",
           f"'auto' or an integer in [0, {MAX_ITERATIONS}]"),
    _Field("seed", "integer", lambda v, path: _integer(v, path, 0)),
    _Field("shots", "integer", lambda v, path: _shots(v), 1),
    _Field("pre_rotation", "boolean", _instance(bool, "a boolean"), False),
    _Field("l_max", "integer", lambda v, path: _integer(v, path, 0), DEFAULT_L_MAX),
    _Field("tolerances", "object", _tolerances, {}),
    _Field("repeat_until_success", "boolean", _instance(bool, "a boolean"), False),
    _Field("out", "string", _instance(str, "a path string"),
           help="write the report here instead of stdout"),
)
CONFIG_FIELDS = tuple(field.name for field in _FIELDS)
_READ_FIELDS = tuple(field for field in _FIELDS if field.read is not None)
# each read field's value when it is absent or null: its default as its reader
# reads it, once; every value is immutable but the tolerances' echo dict,
# which each run copies
_READ_DEFAULTS = {
    field.name: None if field.default is None else field.read(field.default, field.name)
    for field in _READ_FIELDS
}


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw config dict, apply defaults, return a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    for key in raw:
        if key not in CONFIG_FIELDS:
            _fail(_shown(key), "unknown field")
    mode = raw.get("mode")
    if mode not in MODES:
        _fail("mode", f"expected one of {', '.join(MODES)}; got {_quoted(mode)}")

    system = raw.get("system")
    initial = raw.get("initial")
    # every other field by its reader, in table order; a field absent or
    # null takes its default as read at import
    read = dict(_READ_DEFAULTS)
    for field in _READ_FIELDS:
        value = raw.get(field.name)
        if value is not None:
            read[field.name] = _built("", field.read, value, field.name)
    tolerances, controllability = read["tolerances"]
    read["tolerances"] = dict(tolerances)  # the run's own echo, which a caller may edit

    # the mode's requirements; a preset sets the system, the state and the target
    present = {"system": system, "initial": initial, **read}
    preset = _PRESETS.get(mode)
    if preset is not None:
        for name in ("system", "initial", "good", "subspace"):
            if present[name] is not None:
                _fail(name, f"not accepted by preset mode {_quoted(mode)}; the preset sets it")
    for name in _MODES[mode].needs:
        if present[name] is None:
            kind = "sampling mode" if name == "seed" else "mode"
            _fail(name, f"required for {kind} {_quoted(mode)}")
    if mode == "amplify" and read["good"] is None and read["subspace"] is None:
        _fail("good", "mode 'amplify' needs either 'good' or 'subspace'")
    taken = _MODES[mode].takes
    if read["good"] is not None and read["subspace"] is not None and taken is not None:
        ignored = "good" if taken == "subspace" else "subspace"
        _fail(ignored, f"not read by mode {_quoted(mode)}, which takes {_quoted(taken)}; set only one of them")

    # the library objects, each built once, after the presence checks above,
    # with the echoes of 'system' and 'initial' and the canonical texts that
    # their readers encoded
    texts = {}
    if preset is not None:
        spec, state, target = _PRESET_SPEC, preset.initial, preset.good
    else:
        # every other mode requires a system
        spec, system, texts["system"] = _system_spec(system)
        state = None
        if initial is not None:
            state, initial, texts["initial"] = _initial_state(initial, spec)
        targets = {
            name: _target(read[name], name, spec.dim)
            for name in ("good", "subspace")
            if read[name] is not None
        }
        # at most one is set, unless 'analyze', which reads neither, has both
        target = targets.get("good", targets.get("subspace"))
    return RunConfig(
        mode=mode, system=system, initial=initial, **read,
        spec=spec, state=state, target=target, controllability=controllability,
        texts={name: text for name, text in texts.items() if text is not None},
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    return validate_config(_parse_json(text, "config"))


# ---------------------------------------------------------------------------
# execution


def _plan_arguments(config: RunConfig) -> dict:
    phi1, phi2 = config.phases
    return dict(phi1=phi1, phi2=phi2, iterations=config.iterations, pre_rotation=config.pre_rotation,
                l_max=config.l_max)


def _measure_arguments(config: RunConfig) -> dict:
    # repeat-until-success: up to ``shots`` single-shot attempts
    shots, max_attempts = (1, config.shots) if config.repeat_until_success else (config.shots, None)
    return dict(seed=config.seed, shots=shots, max_attempts=max_attempts)


def _execute_algo1(config: RunConfig) -> dict:
    good = min(config.target.indices)
    return run_algorithm1(config.spec, config.state, good, **_plan_arguments(config),
                          **_measure_arguments(config)).to_dict()


def _execute_algo2(config: RunConfig) -> dict:
    return run_algorithm2(config.spec, config.state, config.target,
                          controllability_config=config.controllability,
                          **_plan_arguments(config), **_measure_arguments(config)).to_dict()


@lru_cache(maxsize=64)
def _prepared_preset(mode: str, phases: tuple[str, str], iterations: Union[int, str], pre_rotation: bool,
                     l_max: int, controllability: ControllabilityConfig) -> PreparedRun:
    """The prepared run of the preset ``mode``, its phases given by
    ``float.hex``: -0.0 equals 0.0, but a report writes it as -0.0.  Made
    once per process and arguments, as the presets' states are, so the
    runs after the first only measure; an algorithm 2 preset carries its
    component's verdict under ``controllability``."""
    preset = _PRESETS[mode]
    phi1, phi2 = map(float.fromhex, phases)
    return prepare_run(_PRESET_SPEC, preset.initial, preset.good, phi1, phi2, iterations, pre_rotation,
                       l_max, controllability if preset.algorithm == 2 else None)


def _execute_preset(config: RunConfig) -> dict:
    """A preset's run, on its prepared run, with the count and success it
    should hit when its plan is the preset's own: the preset's phases and
    count (the one that ``iterations`` "auto" finds when ``l_max`` reaches
    it), not pre-rotated."""
    preset = _PRESETS[config.mode]
    prepared = _prepared_preset(config.mode, tuple(map(float.hex, config.phases)), config.iterations,
                                config.pre_rotation, config.l_max, config.controllability)
    result = prepared.run(**_measure_arguments(config)).to_dict()
    plan = result["plan"]
    if ((plan["phi1"], plan["phi2"], plan["iterations"], plan["pre_rotated"])
            == (preset.phi1, preset.phi2, preset.expected_iterations, False)):
        result["preset_expectation"] = {"iterations": preset.expected_iterations,
                                        "success": preset.expected_success}
    return result


def _execute_amplify(config: RunConfig) -> dict:
    prepared = prepare_run(config.spec, config.state, config.target, **_plan_arguments(config))
    return RunReport(prepared.plan, prepared.pre_amplification, prepared.post_amplification,
                     prepared.plan.predicted_success).to_dict()


def _execute_measure_stats(config: RunConfig) -> dict:
    state = config.state
    if config.target is not None:
        partition = MeasurementPartition.binary(config.target)
    else:
        partition = MeasurementPartition.per_index(state.dim)
    probs = born_probabilities(state, partition)
    result = {
        "blocks": [list(b) for b in partition.blocks],
        "born_probabilities": [float(p) for p in probs],
    }
    if config.shots > 1:
        counts = measurement_histogram(state, partition, config.seed, config.shots)
        result["histogram"] = counts
        result["frequencies"] = [c / config.shots for c in counts]
    else:
        result["outcome"] = sample_collapse(state, partition, config.seed).to_dict()
    return result


# a mode: the fields it cannot run without, in the order they are checked
# (a mode that needs a seed samples; 'amplify' also needs 'good' or
# 'subspace'); the target field it reads when both are given, None for one
# that reads neither or refuses both; and its run of a validated config,
# which looks the library's functions up in this module when it runs, so
# that one replaced here (a tracer's wrapper) sees every call; a preset
# calls prepare_run only when its prepared run is not yet kept, and
# measures with PreparedRun.run
_Mode = namedtuple("_Mode", "needs takes run")


# every mode, in the order the parser lists them; a preset sets the system,
# the state and the target, and its algorithm picks its run
_MODES = {
    "analyze": _Mode(("system",), None,
                     lambda config: assess(config.spec, config.controllability).to_dict()),
    "amplify": _Mode(("system", "initial"), "good", _execute_amplify),
    "algo1": _Mode(("system", "initial", "good", "seed"), "good", _execute_algo1),
    "algo2": _Mode(("system", "initial", "subspace", "seed"), "subspace", _execute_algo2),
    **{name: _Mode(("seed",), None, _execute_preset) for name in _PRESETS},
    "measure-stats": _Mode(("system", "initial", "seed"), "good", _execute_measure_stats),
}
MODES = tuple(_MODES)


def _with_error(report: dict, error: Exception) -> dict:
    """The report with a record of ``error`` in place of any result."""
    report = {key: value for key, value in report.items() if key != "result"}
    report["error"] = {"type": type(error).__name__, "message": str(error)}
    return report


def execute(config: RunConfig) -> tuple[int, dict]:
    """Run a validated config; return (exit code 0 or 1, report dict)."""
    report = {"provenance": _provenance(config), "config": config.echo(), "mode": config.mode}
    try:
        result = _MODES[config.mode].run(config)
    except Exception as exc:  # propagate module errors into the report
        return 1, _with_error(report, exc)
    report["result"] = result
    return 0, report


def _provenance(config: RunConfig) -> dict:
    return {
        "config_sha256": hashlib.sha256(config.canonical.encode()).hexdigest(),
        "seed": config.seed,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


# ---------------------------------------------------------------------------
# summary


def _fmt(x) -> str:
    return f"{x:.12g}"


def summarize(report: dict) -> str:
    """Human-readable summary, derived from the report dict alone."""
    lines = [f"mode: {report['mode']}"]
    error = report.get("error")
    if error is not None:
        lines.append(f"error ({error['type']}): {error['message']}")
        return "\n".join(lines)
    result = report["result"]
    if report["mode"] == "analyze":
        lines.append("components: " + " | ".join("{" + ",".join(map(str, c)) + "}" for c in result["components"]))
        lines.append(f"global verdict: {result['global_verdict']}")
        for v in result["subspace_verdicts"]:
            lines.append("component {" + ",".join(map(str, v["component"])) + "}: " + v["verdict"])
        lines.append(f"frequency collisions: {len(result['frequency_collisions'])}")
        lines.append(f"irrational ratio witnesses: {len(result['irrational_witnesses'])}")
    elif report["mode"] == "measure-stats":
        for block, p in zip(result["blocks"], result["born_probabilities"]):
            lines.append("block {" + ",".join(map(str, block)) + "}: p = " + _fmt(p))
        if "frequencies" in result:
            lines.append("frequencies: " + " ".join(_fmt(f) for f in result["frequencies"]))
        else:
            lines.append(f"outcome block: {result['outcome']['block_index']}")
    else:
        plan = result["plan"]
        lines.append(f"good indices: {plan['good_indices']}")
        lines.append("initial good weight g = " + _fmt(plan["initial_good_weight"]))
        lines.append(f"iterations L = {plan['iterations']}")
        lines.append("predicted success = " + _fmt(result["predicted_success"]))
        lines.append("index  |c| before      |c| after")
        for i, (before, after) in enumerate(
            zip(result["pre_amplification"], result["post_amplification"]), start=1
        ):
            lines.append(f"{i:>5}  {_fmt(before):<14}  {_fmt(after)}")
        if "histogram" in result:
            lines.append(f"histogram: {result['histogram']}")
            lines.append("empirical success = " + _fmt(result["empirical_success"]))
        elif "measurement" in result:
            m = result["measurement"]
            hit = "success" if result.get("success") else "failure"
            lines.append(
                "measured block {" + ",".join(map(str, m["block"])) + "} "
                f"(p = {_fmt(m['probability'])}): {hit}"
            )
        if "attempts" in result:
            lines.append(f"attempts: {result['attempts']}")
        if "fidelity" in result and result["fidelity"] is not None:
            lines.append("final-state fidelity = " + _fmt(result["fidelity"]))
        note = result.get("controllability_note")
        if note is not None:
            lines.append(f"subspace verdict: {note['verdict'] or '; '.join(note['notes'])}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def _read_file(name: str, path: str) -> str:
    """The text of the UTF-8 file ``name``; one that cannot be read or
    decoded is a ConfigError naming ``path``."""
    try:
        return Path(name).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read {_quoted(name)}: {exc}") from None


def _load_json_or_path(value: str, path_hint: str):
    text = value
    if not value.lstrip().startswith(("[", "{")):
        if not Path(value).is_file():
            _fail(path_hint, f"{_quoted(value)} is neither inline JSON nor an existing file")
        text = _read_file(value, path_hint)
    return _parse_json(text, path_hint)


def _count_text(text: str):
    """A count flag's text as an int when ``int`` reads it, else unchanged,
    for the field's reader: 'auto', or text it refuses by name."""
    try:
        return int(text)
    except ValueError:
        return text


# each JSON kind's flag: its argparse keywords, argparse's defaults for a
# kind not listed (an object has no flag), and the reader of a flag that
# carries JSON or a path to it
_FLAG_KEYWORDS = {
    "mode": {"choices": MODES},
    "integer": {"type": int},
    "angles": {"nargs": 2, "type": float, "metavar": ("PHI1", "PHI2")},
    "count": {"type": _count_text},
    "boolean": {"action": "store_true", "default": None},
}
_FLAG_TEXT = {
    # --system may name the preset
    "system": lambda text, path: text if text == "hydrogen" else _load_json_or_path(text, path),
    "array": _load_json_or_path,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqcontrol",
        description="Amplitude-amplified, measurement-assisted control runs "
        "on finite-level quantum systems.",
    )
    parser.add_argument("--config", help="path to a JSON config document")
    for field in _FIELDS:
        if field.kind != "object":
            parser.add_argument("--" + field.name.replace("_", "-"), help=field.help,
                                **_FLAG_KEYWORDS.get(field.kind, {}))
    return parser


# built once at import: ``parse_args`` only reads it, so every ``main`` call
# in a process, from any thread, shares it
_PARSER = _build_parser()


def _assemble_raw_config(args, raw: dict) -> dict:
    """``raw``, filled with the config file's fields and then every given
    flag merged over them; the flags that carry JSON or a path are read in
    flag order.  On a ConfigError ``raw`` keeps the file's fields when the
    file was read."""
    if args.config:
        parsed = _parse_json(_read_file(args.config, "config"), "config")
        if not isinstance(parsed, dict):
            _fail("config", "expected a JSON object at the top level")
        raw.update(parsed)
    flags = {
        key: value for key, value in vars(args).items() if value is not None and key != "config"
    }
    for field in _FIELDS:
        if field.kind in _FLAG_TEXT and field.name in flags:
            flags[field.name] = _FLAG_TEXT[field.kind](flags[field.name], field.name)
    raw.update(flags)
    return raw


def render_report(report: dict, *, config_text: Optional[str] = None) -> str:
    """The report as sorted, 2-space-indented strict JSON plus a newline:
    encoded once in C, with ``config_text`` (``RunConfig.canonical``)
    spliced in as the ``config`` block when given, then re-indented.
    Raises ValueError on a NaN or an infinity, as strict JSON does."""
    text = _encode(report) if config_text is None else _spliced(report, {"config": config_text})
    return _reindent(text)


def _emit(code: int, report: dict, out: Optional[str], config_text: Optional[str] = None) -> int:
    """Write the report and its summary; return the exit status.

    A report that strict JSON cannot hold is replaced by an error record
    and exits 1, so a NaN never reaches the output.  When ``out`` cannot
    be written the report goes to stdout instead and the run exits 2; a
    report without an error then carries one naming 'out'."""
    try:
        text = render_report(report, config_text=config_text)
    except ValueError as exc:
        report = _with_error(report, ValueError(f"result: {exc}"))
        code, text = 1, render_report(report, config_text=config_text)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            if "error" not in report:
                report = _with_error(report, ConfigError(f"out: {exc}"))
                text = render_report(report, config_text=config_text)
            code, out = 2, None
    if out:
        print(summarize(report))
    else:
        sys.stdout.write(text)
        print(summarize(report), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    raw: dict = {}
    try:
        config = validate_config(_assemble_raw_config(args, raw))
    except ConfigError as exc:
        # the mode asked for: the flag's, which argparse checked, else the
        # config file's when it names a mode
        mode = args.mode or raw.get("mode")
        report = {"provenance": {"version": __version__}, "mode": mode if mode in MODES else None}
        return _emit(2, _with_error(report, exc), args.out)
    code, report = execute(config)
    out, canonical = config.out, config.canonical
    # the run's spec and state are freed before the report is written, so
    # their memory and the report's text are not held at once
    del config
    return _emit(code, report, out, canonical)


if __name__ == "__main__":
    sys.exit(main())
