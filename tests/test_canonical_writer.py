"""The canonical writer against its definition.

``traces.dumps_canonical`` must give exactly the text of
``json.dumps(data, indent=2, sort_keys=True) + "\\n"`` (docs/formats.md), and
wherever that call raises, the writer must raise the same exception type.
The documents are random: nested dicts, lists and tuples, empty ones too;
strings with non-ASCII, astral, control and lone-surrogate characters,
quotes and backslashes; NaN, the infinities, -0.0 and ints near the
4,300-digit limit of int-to-str conversion; dicts with int, float, bool or
None keys; lists of same-keyed dicts and of string lists, the shapes of
posetdual's own documents.  The writer renders a list or dict of scalars of
one type in one step and anything else a value at a time, so containers
mixing shapes and types are drawn as often as uniform ones.

The writer exists because json's indenting encoder is pure Python and
leaves reference cycles behind on every call, which would pile up while
``cli.main`` pauses the cyclic collector; so the documents the writer
renders itself must leave the collector nothing.
"""

import gc
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from posetdual.traces import dumps_canonical


def outcome(render, data):
    """The text, or the type of the exception raised instead."""
    try:
        return render(data)
    except Exception as exc:  # the type is what is compared
        return type(exc)


def reference(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def assert_same(data):
    want = outcome(reference, data)
    assert outcome(dumps_canonical, data) == want


LONGEST = 10 ** 4300 - 1  # 4,300 digits: the most int-to-str converts

strings = st.text(st.characters(), max_size=6) | st.sampled_from([
    "", "1.1", '"', "\\", "\x00", "\x1f\x7f", "é", "\U0001f600", "\ud800", "\udfff", " ",
])
numbers = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e308, 5e-324, float("nan"), float("inf"), float("-inf")]),
    # built, not listed: a strategy's description shows its values, and
    # one beyond the limit cannot be shown
    st.tuples(st.sampled_from([1, -1]), st.integers(0, 1)).map(
        lambda sign_over: sign_over[0] * (LONGEST + sign_over[1])
    ),
)
scalars = st.one_of(strings, numbers, st.booleans(), st.none())
keys = st.sampled_from(["a", "b", "id", "slots", "é", ""]) | strings
odd_keys = st.one_of(st.integers(-3, 3), st.floats(), st.booleans(), st.none())


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        # records: one key set, the shape of events, slots and verdicts
        st.lists(
            st.fixed_dictionaries({"id": inner, "n": inner}, optional={"w": inner}),
            max_size=4,
        ),
        # non-empty string lists: covers, edges, chains
        st.lists(st.lists(strings, min_size=1, max_size=3), max_size=4),
    )


documents = st.recursive(scalars, _containers, max_leaves=30)
# The documents the writer renders itself: no int beyond the limit, and
# far from its depth bound.
own_documents = st.recursive(
    st.one_of(strings, st.integers(), st.floats(), st.booleans(), st.none()),
    _containers,
    max_leaves=30,
)
# Values json.dumps accepts but this writer may leave to it, and values
# json.dumps rejects.
odd_documents = st.recursive(
    scalars | st.sampled_from([{1, 2}, b"x", frozenset(), object()]),
    lambda inner: _containers(inner) | st.dictionaries(odd_keys | keys, inner, max_size=3),
    max_leaves=12,
)


SPECIAL = [
    float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324, True, False, None,
    0, -1, LONGEST, -LONGEST, "", '"\\/', "\x00\x1f\x7f", "\u2028", "é", "\U0001f600",
    "\ud800", "\udfff\ud800",
]


def test_special_scalars_match_json_in_every_shape():
    # alone, in one list, in a column of lists, as dict values and in
    # records, the shapes the writer renders differently
    assert_same(SPECIAL)
    for value in SPECIAL:
        assert_same(value)
        assert_same([[value], [value, value], []])
        assert_same({"a": value, "b": [value]})
        assert_same([{"id": value, "n": 1}, {"id": "x", "n": value}, {"id": value}])


@settings(max_examples=600, deadline=None)
@given(documents)
def test_random_documents_match_json(data):
    assert_same(data)


@settings(max_examples=300, deadline=None)
@given(odd_documents)
def test_odd_values_match_json_or_its_exception(data):
    assert_same(data)


@settings(max_examples=200, deadline=None)
@given(own_documents)
def test_written_documents_leave_no_cycles(data):
    gc.collect()
    gc.disable()
    try:
        dumps_canonical(data)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def _nested(depth):
    data = "leaf"
    for level in range(depth):
        data = [data, 1] if level % 2 else {"k": data, "z": None}
    return data


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 98, 99, 100, 101, 102, 150])
def test_nesting_around_the_writers_own_depth_matches_json(depth):
    assert_same(_nested(depth))


def test_nesting_json_accepts_at_the_default_recursion_limit_matches_json():
    # json.dumps recurses once per level, so whether 990 levels pass depends
    # on how deep its caller already is; the writer must answer as json does
    # here, and give json's text where the caller's stack leaves json room.
    data = _nested(990)
    assert_same(data)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)
    try:
        assert dumps_canonical(data) == reference(data)
    finally:
        sys.setrecursionlimit(limit)


def test_circular_references_raise_json_s_value_error():
    loop = []
    loop.append(loop)
    wide = []
    wide.extend([wide] * 50)  # a column of copies of one list, at every level
    mapping = {}
    mapping["self"] = mapping
    for data in (loop, wide, mapping, {"a": [1, {"b": mapping}]}):
        with pytest.raises(ValueError, match="Circular reference"):
            dumps_canonical(data)


def test_shared_containers_are_written_as_json_writes_them():
    pair = ["1.1", "2.1"]
    record = {"id": "e", "slots": [{"idx": 1, "proc": 1}]}
    assert_same([pair, pair, {"edges": [pair, pair]}])
    assert_same({"events": [record, record], "empty": [(), (), {}, {}]})


@pytest.mark.parametrize("data", [
    {"a": {1, 2}},
    [b"bytes"],
    {"a": 1, 2: 3},  # keys that cannot be sorted
    {(1, 2): "tuple key"},
    [LONGEST + 1, {1}],  # json meets the int first
    [{1}, LONGEST + 1],  # and here the set
    [object()],
])
def test_rejected_documents_raise_json_s_exception_type(data):
    with pytest.raises(Exception) as info:
        reference(data)
    with pytest.raises(info.type):
        dumps_canonical(data)
