"""The CLI's JSON text: the one encoder of reports and config echoes, the
config reader, and the re-indent that writes a report.

Contract, which the stdlib-oracle tests in ``tests/test_text.py`` pin:

- the render (``_reindent`` of ``_encode`` or of ``_spliced``, as
  ``cli.render_report`` calls them) equals
  ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, and raises
  ValueError where ``json.dumps(..., allow_nan=False)`` does;
- the decode (``_parse_json``) equals ``json.loads`` as a value, and
  rejects what it rejects;
- an ``_EchoedList``'s text is ``_encode`` of its value.

The report is ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline, byte for byte, without that call: ``cli.render_report`` encodes
it once as sorted compact strict JSON with json's C encoder, and
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

No other module of the package imports ``json``.  Every name here is
private and none is a library function, so a tracer that wraps the layer
modules' public functions times these as part of their caller.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import groupby
from typing import Optional

import numpy as np

from .errors import ConfigError

_FLOAT_MAX = sys.float_info.max
# the characters of compact JSON lists whose leaves are plain numbers
_NUMBER_TEXT = b"0123456789+-.e,[]"
# deletes JSON's whitespace from a text
_NO_WHITESPACE = str.maketrans("", "", " \t\n\r")
# an integer -0, which json reads as 0; a regex finds it far faster than
# ``in`` does in a text of "0,0,0"
_NEGATIVE_ZERO = re.compile(r"-0[,\]]")
# a str as a JSON string: json's own escaper, as json.dumps applies it
# with ensure_ascii
_json_string = json.encoder.encode_basestring_ascii
# the one encoder of the report and of the config's canonical text:
# sorted, compact, strict JSON, written by json's C encoder.  Built once
# here, as ``JSONEncoder.encode`` builds one per call (about 0.8 us), and
# with no markers dict, which concurrent calls would share: a cycle ends
# in a RecursionError rather than json's ValueError.  A NaN or an
# infinity raises json's ValueError.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
if json.encoder.c_make_encoder is None:  # a Python without json's C speedups
    _encode = _ENCODER.encode
else:
    # the arguments JSONEncoder.iterencode passes it, in its order
    _encode_chunks = json.encoder.c_make_encoder(
        None, _ENCODER.default, _json_string, _ENCODER.indent, _ENCODER.key_separator,
        _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
    )

    def _encode(value) -> str:
        return "".join(_encode_chunks(value, 0))
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


def _spliced(mapping: dict, texts: dict) -> str:
    """``mapping`` as ``_encode`` writes it, keys sorted, with the value of
    each key in ``texts`` written as that already encoded text.  Each run of
    keys between two such keys is encoded in one call, since every call to
    the encoder costs about a microsecond."""
    parts = []
    for spliced, keys in groupby(sorted(mapping), texts.__contains__):
        if spliced:
            parts += (_json_string(key) + ":" + texts[key] for key in keys)
        else:
            parts.append(_encode({key: mapping[key] for key in keys})[1:-1])
    return "{" + ",".join(parts) + "}"


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
