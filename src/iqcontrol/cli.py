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
``core._real``, ``make_plan``'s for an explicit ``iterations``, or the
type that takes it: ``ControllabilityConfig`` for a tolerance,
``HydrogenModel`` for ``system.energy_gap``), so its error reads as the
library's under the field's path: ``seed: must be an integer, got
1.5``, ``iterations: phase-error bound 1.00000008e-09 exceeds 1e-09;
the largest count within it is 1125899, got 1125900``.  The echo keeps
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
table's names.  ``--iterations`` text that ``int`` refuses reaches the
field's reader unchanged, so the flag and the file share one message:
``iterations: must be an integer, got '2.0'``.
Run it as ``iqcontrol`` or as ``python -m iqcontrol.cli``.

The report is ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline, byte for byte, without that call: ``render_report`` encodes it
once as sorted compact strict JSON with json's C encoder, and
``_reindent`` spaces that out in one tokenizer pass, copying each piece
once.  A whole run of sibling lists of scalars (a coupling row of
``[re, im]`` pairs, the edge list, per-index blocks) is one token, not
one per list.  ``RunConfig.canonical`` is the config echo in the same
encoding: ``config_sha256`` hashes it and the report splices it in as its
``config`` block.  Validation encodes each numeric array (``system.drift``,
``system.coupling``, ``initial``) at most once and the echo splices those
texts in too, so a large coupling is encoded at most once per run.  An array's kinds
are checked on its text, and one whose text holds only number
characters, commas and brackets is read in bulk (``_numbers``); any
other is read entry by entry, so the error names the first bad entry's
path.

An integer-heavy document is not re-encoded at all: when a JSON text has
at least 1024 commas and at least four commas per dot,
``_parse_json`` hands each number-only array that sits in an object (or
is the document) back with its own text, JSON whitespace deleted, as the
canonical text, whenever that text is exactly what ``_encode`` would
write: no float spelled other than its ``repr`` (``1.50``, ``1E-7``) and
no ``-0`` integer.  ``_numbers`` uses that text instead of encoding the
array.  Float-dense and small documents, and dicts from library callers,
are encoded as above.  The ``RunConfig`` keeps plain lists, so an echo
that is edited and validated again is encoded too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import __version__
from .algorithms import RunReport, _amplify, run_algorithm1, run_algorithm2
from .amplification import DEFAULT_L_MAX, MAX_ITERATIONS, GoodSubspace, _explicit_count
from .controllability import ControllabilityConfig, assess
from .core import StateVector, SystemSpec, _integer, _real
from .errors import ConfigError
from .hydrogen import case1_preset, case2_preset, hydrogen_spec
from .measurement import (
    _MAX_SHOTS,
    MeasurementPartition,
    born_probabilities,
    measurement_histogram,
    sample_collapse,
)

# each mode and the fields it cannot run without, in the order they are
# checked; a mode that needs a seed samples, and 'amplify' also needs
# 'good' or 'subspace'
_MODE_FIELDS = {
    "analyze": ("system",),
    "amplify": ("system", "initial"),
    "algo1": ("system", "initial", "good", "seed"),
    "algo2": ("system", "initial", "subspace", "seed"),
    "hydrogen-case1": ("seed",),
    "hydrogen-case2": ("seed",),
    "measure-stats": ("system", "initial", "seed"),
}
MODES = tuple(_MODE_FIELDS)
# the preset modes' hydrogen runs, built once at import: frozen, with
# read-only arrays, so every run and thread shares them
_PRESETS = {preset.name: preset for preset in (case1_preset(), case2_preset())}
INITIAL_NORM_TOL = 1e-8
_FLOAT_MAX = sys.float_info.max
# the characters of compact JSON lists whose leaves are plain numbers
_NUMBER_TEXT = b"0123456789+-.e,[]"
# deletes JSON's whitespace from a text
_NO_WHITESPACE = str.maketrans("", "", " \t\n\r")
# an integer -0, which json reads as 0; a regex finds it far faster than
# ``in`` does in a text of "0,0,0"
_NEGATIVE_ZERO = re.compile(r"-0[,\]]")
# json's own string escaper, as json.dumps applies it with ensure_ascii
_quoted = json.encoder.encode_basestring_ascii
# the one encoder of the report and of the config's canonical text:
# sorted, compact, strict JSON, written in C
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
# the tokens of compact JSON that re-indenting tells apart: the inside of
# a run of sibling nonempty lists of scalars (no string, no container),
# ``[..],[..],...,[..]`` without its outer brackets; a run of scalars,
# commas, colons, empty containers and strings that hold no escape and none
# of ',:[]{}'; an opening bracket; a closing bracket; any other string
_COMPACT_TOKEN = re.compile(
    r'\[([^"\[\]{}]+(?:\],\[[^"\[\]{}]+)*)\]|((?:[^"\[\]{}]+|"[^"\\,:\[\]{}]*"|\[\]|\{\})+)'
    r'|([\[{])|([\]}])|("[^"\\]*(?:\\.[^"\\]*)*")'
)


class _Newlines(dict):
    # a line break indented to each depth, made on first use; threads that
    # race on a new depth store equal strings
    def __missing__(self, depth: int) -> str:
        self[depth] = line = "\n" + "  " * depth
        return line


_NEWLINES = _Newlines()

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


def _spliced(mapping: dict, texts: dict) -> str:
    """``mapping`` as ``_encode`` writes it, keys sorted, with the value of
    each key in ``texts`` written as that already encoded text.  Each run of
    keys between two such keys is encoded in one call, since every call to
    the encoder costs about a microsecond."""
    parts = []
    for spliced, keys in groupby(sorted(mapping), texts.__contains__):
        if spliced:
            parts += (_quoted(key) + ":" + texts[key] for key in keys)
        else:
            parts.append(_encode({key: mapping[key] for key in keys})[1:-1])
    return "{" + ",".join(parts) + "}"


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


class _EchoedList(list):
    """A parsed array of numbers with its canonical text, as ``_encode``
    writes it, read from the JSON text it was parsed from.  None leaves
    validation (``_plain``): an edit to one would leave its text stale."""

    __slots__ = ("text",)


def _plain(value):
    """``value``, or a copy of it with a plain list in place of each
    ``_EchoedList`` it is or holds as a value: an O(N) shallow copy."""
    if type(value) is _EchoedList:
        return list(value)
    if isinstance(value, dict) and any(type(item) is _EchoedList for item in value.values()):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _json_number(value, read):
    """``value`` when it is a number JSON reads (a Python int or float),
    else ``read``, the number the library's reader made of it: any other
    kind that the reader accepts (``np.float32``, ``Fraction``) would not
    encode."""
    return value if type(value) in (int, float) else read


def _parse_json(text: str, path: str):
    """``json.loads``, with every failure a ConfigError naming ``path``:
    malformed text, an integer literal past Python's digit limit, or
    nesting past the recursion limit.

    A text with at least 1024 commas and at least four commas per dot is
    mostly integers: it is decoded by ``_decode_echoing``, whose arrays
    of numbers carry their own text, so ``_numbers`` need not encode them.
    That decode costs about 10 us more per text, and its hook's ``float``
    and ``repr`` per float token cost more than encoding the float would,
    while each integer it echoes saves about 90 ns of encoding.  So
    float-dense and small texts take ``json.loads`` alone: at N=256 the two
    paths break even near three commas per dot, and an all-float coupling
    decodes 13-110% slower with the hook.  Any failure there runs
    ``json.loads`` again, whose error the ConfigError quotes."""
    try:
        if text.count(",") >= max(1024, 4 * text.count(".")):
            try:
                return _decode_echoing(text)
            except (ValueError, RecursionError):
                pass
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _decode_echoing(text: str):
    """``json.loads(text)``, with each array that sits in an object, or is
    the document, returned as an ``_EchoedList`` when its text with JSON
    whitespace deleted is exactly ``_encode`` of its value: it holds only
    ``_NUMBER_TEXT`` characters, no ``-0`` integer (which reads as 0), and
    no float token spelled other than its value's ``repr``.  Objects are
    read by json's Python ``JSONObject`` and arrays by its C scanner; the
    count of respelled floats lives in this call, so threads share
    nothing."""
    respelled = 0

    def parse_float(token: str) -> float:
        nonlocal respelled
        number = float(token)
        if repr(number) != token:
            respelled += 1
        return number

    decoder = json.JSONDecoder(parse_float=parse_float)
    scan_value, memo = decoder.scan_once, {}

    def scan_once(s: str, idx: int):
        if s.startswith("{", idx):
            return json.decoder.JSONObject((s, idx + 1), True, scan_once, None, None, memo)
        before = respelled
        value, end = scan_value(s, idx)
        if type(value) is list and respelled == before:
            spelled = s[idx:end].translate(_NO_WHITESPACE)
            if not (spelled.encode().translate(None, _NUMBER_TEXT)
                    or _NEGATIVE_ZERO.search(spelled)):
                value = _EchoedList(value)
                value.text = spelled
        return value, end

    decoder.scan_once = scan_once
    return decoder.decode(text)


def _at(path: str, *index: int) -> str:
    return path + "".join(f"[{k}]" for k in index)


def _require_number(value, path: str, *index: int) -> float:
    # rejects booleans, NaN, +-Infinity and integer literals beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -_FLOAT_MAX <= value <= _FLOAT_MAX
    ):
        _fail(_at(path, *index), f"expected a finite number, got {value!r}")
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
    _fail(_at(path, *index), f"expected a finite number or an [re, im] pair, got {value!r}")


def _numbers(value: list, path: str, parse, depth: int = 1, pairs: bool = True):
    """The entries of ``value``, lists nested ``depth`` deep whose lengths
    the caller has checked, and its canonical text: the text an
    ``_EchoedList`` carries from its JSON input, else ``_encode(value)``.
    The entries are read in bulk: as one float array when every one is a
    plain int or float (bools and strings are not), and as one complex
    array when ``pairs`` allows it and every one is an [re, im] pair of
    them or a plain one, x read as [x, 0].  Any other value, and one
    holding a number at or past the float range's end, is read one entry
    at a time by ``parse(entry, path, *index)``, which names the first bad
    one."""
    if type(value) is _EchoedList:
        # its text holds only number characters, commas and brackets
        text, numeric = value.text, True
    else:
        try:
            text = _encode(value)
        except (ValueError, TypeError, RecursionError):
            # a NaN or an infinity, a leaf json cannot spell, or nesting past
            # the recursion limit: an entry the per-entry parse rejects
            text = None
        # every leaf is a plain int or float exactly when the text holds
        # nothing but their characters, commas and brackets
        numeric = text is not None and not text.encode().translate(None, _NUMBER_TEXT)
    if value and numeric:
        array = _bulk_array(value, depth, pairs)
        if array is not None:
            return array, text
    # the original entries, so an error names the entry as written; it
    # accepts none that json cannot encode, so the text is set here
    if depth == 2:
        parsed = [[parse(x, path, i, j) for j, x in enumerate(row)] for i, row in enumerate(value)]
    else:
        parsed = [parse(x, path, k) for k, x in enumerate(value)]
    return parsed, text


def _bulk_array(value: list, depth: int, pairs: bool) -> Optional[np.ndarray]:
    """``value``, whose leaves are plain numbers, as one float array of
    ``depth`` axes or, when ``pairs`` allows it, one complex array read
    from [re, im] pairs; None for any other shape or a number at or past
    the float range's end."""
    try:
        array = np.array(value, dtype=float)
    except ValueError:  # ragged: plain numbers mixed with pairs, or bad pairs
        if not pairs:
            return None
        # pad the plain entries; +0.0 imaginary parts, signs kept
        if depth == 2:
            value = [[x if isinstance(x, list) else [x, 0] for x in row] for row in value]
        else:
            value = [x if isinstance(x, list) else [x, 0] for x in value]
        try:
            array = np.array(value, dtype=float)
        except (OverflowError, ValueError):
            return None
    except OverflowError:  # an integer past the float range
        return None
    paired = pairs and array.ndim == depth + 1 and array.shape[-1] == 2
    # an integer just past the float range rounds to its end, where the
    # per-entry parse tells it from a float
    if (array.ndim == depth or paired) and -_FLOAT_MAX < array.min() and array.max() < _FLOAT_MAX:
        return array.view(complex)[..., 0] if paired else array
    return None


def _built(prefix: str, build, *args, **kwargs):
    """``build(...)`` with a TypeError or a ValueError raised as a
    ConfigError: ``prefix`` is "<path>: ", "<path>." for types whose
    messages start with a field name, or "" for a reader given the path."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _system_spec(value) -> tuple[SystemSpec, Optional[str]]:
    """The spec ``value`` describes, and its canonical text when it is
    written out (None for a preset, which is encoded with the echo)."""
    if not isinstance(value, dict):
        _fail("system", f"expected a system object or preset name, got {value!r}")
    allowed = ("preset", "energy_gap") if "preset" in value else ("dim", "drift", "coupling")
    for key in value:
        if key not in allowed:
            _fail(f"system.{key}", "unknown field")
    if "preset" in value:
        if value["preset"] != "hydrogen":
            _fail("system.preset", f"unknown preset {value['preset']!r}")
        return _built("system.", hydrogen_spec, value.get("energy_gap", 1.0)), None
    for key in ("dim", "drift", "coupling"):
        if key not in value:
            _fail("system", f"missing required field {key!r}")
    dim = _built("", _integer, value["dim"], "system.dim", 2)
    drift, coupling = value["drift"], value["coupling"]
    if not isinstance(drift, list):
        _fail("system.drift", f"expected {dim} eigenvalues")
    if not isinstance(coupling, list) or len(coupling) != dim:
        _fail("system.coupling", f"expected a {dim}x{dim} matrix")
    for i, row in enumerate(coupling):
        if not isinstance(row, list) or len(row) != dim:
            _fail(f"system.coupling[{i}]", f"expected {dim} entries")
    drift, drift_text = _numbers(drift, "system.drift", _require_number, pairs=False)
    coupling, coupling_text = _numbers(coupling, "system.coupling", _parse_complex, depth=2)
    spec = _built("system.", SystemSpec, dim=dim, drift=drift, coupling=coupling)
    # the object's canonical text: its keys are exactly these, in sorted order
    return spec, f'{{"coupling":{coupling_text},"dim":{int(dim)},"drift":{drift_text}}}'


def _initial_state(value, spec: SystemSpec) -> tuple[StateVector, str]:
    """The state within INITIAL_NORM_TOL of unit norm, divided by its norm,
    and the canonical text of ``value``."""
    if not isinstance(value, list):
        _fail("initial", f"expected a list of amplitudes, got {value!r}")
    if len(value) != spec.dim:
        _fail("initial", f"expected {spec.dim} amplitudes to match the system, got {len(value)}")
    amps, text = _numbers(value, "initial", _parse_complex)
    amps = np.asarray(amps, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > INITIAL_NORM_TOL:
        _fail("initial", f"state is not normalized: norm is {norm!r}")
    return _built("initial: ", StateVector, amps / norm), text


def _labels(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of basis labels")
    labels = [_integer(v, f"{path}[{k}]", 1) for k, v in enumerate(value)]
    if len(set(labels)) != len(labels):
        _fail(path, "labels must be distinct")
    return labels


def _phases(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected [phi1, phi2]")
    return tuple(_real(p, f"{path}[{k}]", 0.0, math.pi) for k, p in enumerate(value))


def _instance(kind: type, expected: str):
    """The reader of a value of type ``kind``, described as ``expected``."""

    def read(value, path: str):
        if not isinstance(value, kind):
            _fail(path, f"expected {expected}, got {value!r}")
        return value

    return read


def _iterations(value, path: str):
    # 'auto' only as a string: an array compared with it is no boolean
    return value if isinstance(value, str) and value == "auto" else _explicit_count(value)


_TOLERANCE_NAMES = sorted(f.name for f in fields(ControllabilityConfig))


def _tolerances(value, path: str) -> tuple[dict, ControllabilityConfig]:
    """The tolerances' echo, each as given when JSON writes it so, and the
    config read from them."""
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    for key in value:
        if key not in _TOLERANCE_NAMES:
            _fail(f"{path}.{key}", f"unknown tolerance (allowed: {_TOLERANCE_NAMES})")
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
    _Field("iterations", "count", _iterations, "auto", f"'auto' or an integer in [0, {MAX_ITERATIONS}]"),
    _Field("seed", "integer", lambda v, path: _integer(v, path, 0)),
    _Field("shots", "integer", lambda v, path: _integer(v, path, 1, _MAX_SHOTS), 1),
    _Field("pre_rotation", "boolean", _instance(bool, "a boolean"), False),
    _Field("l_max", "integer", lambda v, path: _integer(v, path, 0), DEFAULT_L_MAX),
    _Field("tolerances", "object", _tolerances, {}),
    _Field("repeat_until_success", "boolean", _instance(bool, "a boolean"), False),
    _Field("out", "string", _instance(str, "a path string"),
           help="write the report here instead of stdout"),
)
CONFIG_FIELDS = tuple(field.name for field in _FIELDS)
_READ_FIELDS = tuple(field for field in _FIELDS if field.read is not None)


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw config dict, apply defaults, return a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    for key in raw:
        if key not in CONFIG_FIELDS:
            _fail(key, "unknown field")
    mode = raw.get("mode")
    if mode not in MODES:
        _fail("mode", f"expected one of {', '.join(MODES)}; got {mode!r}")

    system = raw.get("system")
    if isinstance(system, str):
        system = {"preset": system}
    initial = raw.get("initial")
    # every other field by its reader, in table order; an absent field
    # takes its default, and a null one is absent when that is None
    read = {}
    for field in _READ_FIELDS:
        value = raw.get(field.name, field.default)
        if value is not None or field.default is not None:
            value = _built("", field.read, value, field.name)
        read[field.name] = value
    read["tolerances"], controllability = read["tolerances"]

    # the mode's requirements; a preset sets the system, the state and the target
    present = {"system": system, "initial": initial, **read}
    preset = _PRESETS.get(mode)
    if preset is not None:
        for name in ("system", "initial", "good", "subspace"):
            if present[name] is not None:
                _fail(name, f"not accepted by preset mode {mode!r}; the preset sets it")
    for name in _MODE_FIELDS[mode]:
        if present[name] is None:
            kind = "sampling mode" if name == "seed" else "mode"
            _fail(name, f"required for {kind} {mode!r}")
    if mode == "amplify" and read["good"] is None and read["subspace"] is None:
        _fail("good", "mode 'amplify' needs either 'good' or 'subspace'")
    # every other mode reads one target: 'algo2' its subspace, the rest 'good'
    if read["good"] is not None and read["subspace"] is not None and mode != "analyze":
        ignored, taken = ("good", "subspace") if mode == "algo2" else ("subspace", "good")
        _fail(ignored, f"not read by mode {mode!r}, which takes {taken!r}; set only one of them")

    # the library objects, each built once, after the presence checks above,
    # and the canonical texts of the echo fields that validation encoded
    texts = {}
    if preset is not None:
        spec, state, target = hydrogen_spec(), preset.initial, preset.good
    else:
        # every other mode requires a system
        spec, texts["system"] = _system_spec(system)
        if "energy_gap" in system:  # a preset's drift is (0, gap, gap, gap, gap)
            gap = _json_number(system["energy_gap"], float(spec.drift[1]))
            system = {**system, "energy_gap": gap}
        elif "dim" in system and type(system["dim"]) is not int:  # np.int64 would not encode
            system = {**system, "dim": spec.dim}
        state = None
        if initial is not None:
            state, texts["initial"] = _initial_state(initial, spec)
        targets = {
            name: _built(f"{name}: ", GoodSubspace.of, read[name], spec.dim)
            for name in ("good", "subspace")
            if read[name] is not None
        }
        # at most one is set, unless 'analyze', which reads neither, has both
        target = targets.get("good", targets.get("subspace"))
    # the echo, which a caller may edit and validate again, holds plain lists
    return RunConfig(
        mode=mode, system=_plain(system), initial=_plain(initial), **read,
        spec=spec, state=state, target=target, controllability=controllability,
        texts={name: text for name, text in texts.items() if text is not None},
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    return validate_config(_parse_json(text, "config"))


# ---------------------------------------------------------------------------
# execution


def _execute_algorithm(config: RunConfig) -> dict:
    preset = _PRESETS.get(config.mode)
    phi1, phi2 = config.phases
    common = dict(
        phi1=phi1,
        phi2=phi2,
        iterations=config.iterations,
        seed=config.seed,
        pre_rotation=config.pre_rotation,
        l_max=config.l_max,
    )
    # repeat-until-success: up to ``shots`` single-shot attempts
    if config.repeat_until_success:
        common.update(shots=1, max_attempts=config.shots)
    else:
        common.update(shots=config.shots)
    if config.mode == "algo1" or (preset is not None and preset.algorithm == 1):
        report = run_algorithm1(config.spec, config.state, min(config.target.indices), **common)
    else:
        report = run_algorithm2(
            config.spec, config.state, config.target,
            controllability_config=config.controllability, **common,
        )
    result = report.to_dict()
    if preset is not None:
        result["preset_expectation"] = {
            "iterations": preset.expected_iterations,
            "success": preset.expected_success,
        }
    return result


def _execute_amplify(config: RunConfig) -> dict:
    phi1, phi2 = config.phases
    _, run_fields = _amplify(
        config.state, config.target, phi1, phi2,
        config.iterations, config.pre_rotation, config.l_max,
    )
    return RunReport(**run_fields).to_dict()


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


def _with_error(report: dict, error: Exception) -> dict:
    """The report with a record of ``error`` in place of any result."""
    report = {key: value for key, value in report.items() if key != "result"}
    report["error"] = {"type": type(error).__name__, "message": str(error)}
    return report


def execute(config: RunConfig) -> tuple[int, dict]:
    """Run a validated config; return (exit code 0 or 1, report dict)."""
    report = {"provenance": _provenance(config), "config": config.echo(), "mode": config.mode}
    try:
        if config.mode == "analyze":
            result = assess(config.spec, config.controllability).to_dict()
        elif config.mode == "amplify":
            result = _execute_amplify(config)
        elif config.mode == "measure-stats":
            result = _execute_measure_stats(config)
        else:
            result = _execute_algorithm(config)
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
        raise ConfigError(f"{path}: cannot read {name!r}: {exc}") from None


def _load_json_or_path(value: str, path_hint: str):
    text = value
    if not value.lstrip().startswith(("[", "{")):
        if not Path(value).is_file():
            _fail(path_hint, f"{value!r} is neither inline JSON nor an existing file")
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


def _reindent(text: str) -> str:
    """Compact JSON ``text`` (``separators=(",", ":")``) as ``json.dumps``
    writes the same value with ``indent=2``, plus a newline: one token per
    bracket, per run of sibling lists of scalars and per string holding an
    escape or a separator, the runs between them spaced out by
    ``str.replace``.  A run of lists splits on ``],[``, which no list of
    scalars holds, and each list is spaced out and appended on its own.
    Each piece is copied once, by the final join."""
    out = []
    append, extend = out.append, out.extend
    depth = 0
    for lists, run, opening, closing, string in _COMPACT_TOKEN.findall(text):
        if lists:
            inner, outer = _NEWLINES[depth + 1], _NEWLINES[depth]
            comma, between = "," + inner, outer + "]," + outer + "[" + inner
            scalars = iter(lists.split("],["))
            extend(("[", inner, next(scalars).replace(",", comma)))
            for items in scalars:
                extend((between, items.replace(",", comma)))
            extend((outer, "]"))
        elif run:
            append(run.replace(",", "," + _NEWLINES[depth]).replace(":", ": "))
        elif opening:
            depth += 1
            extend((opening, _NEWLINES[depth]))
        elif closing:
            depth -= 1
            extend((_NEWLINES[depth], closing))
        else:
            append(string)
    append("\n")
    return "".join(out)


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
    return _emit(code, report, config.out, config.canonical)


if __name__ == "__main__":
    sys.exit(main())
