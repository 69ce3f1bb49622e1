"""The CLI's JSON text layer, iqcontrol._text, against the standard
library's json: the render equals json.dumps(sort_keys=True, indent=2)
plus a newline and rejects what strict JSON rejects, and the
integer-heavy decode equals json.loads and carries only texts that
_encode writes."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iqcontrol._text
from iqcontrol import ConfigError
from iqcontrol._text import _reindent
from iqcontrol.cli import render_report
from conftest import EDGE_FLOATS, HUGE_INT, echoed_texts

NAN, INF = float("nan"), float("inf")

# the leaves of JSON trees: the edge floats, numpy float64 (a float
# subclass), strings json must escape, and strings that hold compact
# JSON's separators and brackets
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
@pytest.mark.soak  # a tokenizer fails only on shapes it has not seen
@given(tree=json_trees(FINITE_LEAVES))
def test_render_report_equals_json_dumps(tree):
    assert render_report(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


# the explicit examples hold separators inside plain strings, lists of
# scalars at depths 0-3 next to nested and empty lists, and runs of sibling
# lists of scalars (one token each) at depths 0-3, next to bare scalars and
# after a string that holds "],[", which the derandomized profile's draws
# rarely do
@pytest.mark.soak  # a tokenizer fails only on shapes it has not seen
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
    value = iqcontrol._text._parse_json(text, "config")
    assert value == json.loads(text)
    texts = echoed_texts(value)
    assert type(value["pad"]) is iqcontrol._text._EchoedList
    for array, carried in texts:
        assert carried == iqcontrol._text._encode(array)


def test_echoing_decode_keeps_only_exact_spellings():
    decode = iqcontrol._text._decode_echoing
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
        iqcontrol._text._decode_echoing(text)
    with pytest.raises(ConfigError) as parsed:
        iqcontrol._text._parse_json(text, "config")
    assert str(parsed.value) == f"config: invalid JSON ({loads.value})"
