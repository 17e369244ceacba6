"""RunReport.dumps writes exactly the bytes of json.dumps(..., indent=2) for
the values a payload carries, and raises TypeError for any other."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramtower.jsonio import RunReport

# every code point class json escapes: ASCII controls, non-ASCII, astral
# characters (written as surrogate pairs) and lone surrogates
STRINGS = st.text(
    st.one_of(
        st.characters(),
        st.characters(min_codepoint=0, max_codepoint=0x1F),
        st.characters(categories=["Cs"]),
        st.sampled_from('"\\/\n\t\x7f é'),
    )
)
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.sampled_from([2**300, -(2**300), 2**300 - 1, 0, -1]),
)
SCALARS = st.one_of(STRINGS, INTS, st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    )


TREES = st.recursive(SCALARS, containers, max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=TREES, diagnostics=st.lists(TREES, max_size=3))
def test_dumps_matches_json_indent_2(payload, diagnostics):
    report = RunReport("ok", payload, diagnostics)
    assert report.dumps() == json.dumps(report.as_json(), indent=2)


@pytest.mark.parametrize("wrap", [list, tuple, lambda v: {"k": v}])
def test_dumps_matches_json_when_deeply_nested(wrap):
    tree = []
    for depth in range(60):
        tree = wrap([depth, tree, {}, (), "x", None]) if depth % 2 else wrap(tree)
    report = RunReport("fail", {"tree": tree, "empty": [[], {}, ()]})
    text = report.dumps()
    assert text == json.dumps(report.as_json(), indent=2)
    obj = json.loads(text)
    assert obj["schema"] == 1 and obj["status"] == "fail"


@pytest.mark.parametrize(
    "payload",
    [{"x": Fraction(1, 2)}, {"x": [1, {"y": Fraction(3)}]}, [Fraction(0)]],
)
def test_a_fraction_left_in_a_payload_raises_type_error(payload):
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        RunReport("ok", payload).dumps()


# no payload carries a float or a non-str key, so the writer has no path for
# either; a value keeps json's message, and a key gets the string escaper's
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"x": 0.5}, "float is not JSON serializable"),
        ([1, {"y": [float("nan")]}], "float is not JSON serializable"),
        ({1: "one"}, None),
        ({"x": {None: 1}}, None),
        ({1: Fraction(1, 2)}, None),
    ],
)
def test_a_float_or_a_non_str_key_raises_type_error(payload, message):
    with pytest.raises(TypeError, match=message):
        RunReport("ok", payload).dumps()
