"""The JSON clause language against the per-op code it replaced.

``ref_as_json`` and ``ref_predicate_from_json`` transcribe the earlier
per-class emitters and the ``if op == ...`` parser.  On random ASTs the
emitted JSON must agree exactly (key order included) and parse back to the
same AST; on random malformed nodes without extra fields, parsing must give
the same AST or the same error message.  Extra fields, which the earlier
parser ignored, are now rejected.
"""

import copy
import json
import random

import pytest

from posetdual.analysis import (
    AggCmp,
    And,
    AttrCmp,
    Const,
    IndexCmp,
    Not,
    Or,
    predicate_from_json,
)
from posetdual.errors import PredicateError

# --- transcribed reference -------------------------------------------------

_REF_CMPS = ("<", "<=", "==", "!=", ">=", ">")
_REF_KINDS = {int: "an integer", str: "a string", bool: "a boolean"}


def ref_as_json(p):
    if isinstance(p, AttrCmp):
        return {"op": "attr", "proc": p.proc, "attr": p.attr, "cmp": p.cmp, "value": p.value}
    if isinstance(p, IndexCmp):
        return {"op": "index", "proc": p.proc, "cmp": p.cmp, "value": p.value}
    if isinstance(p, AggCmp):
        return {"op": "agg", "fn": p.fn, "attr": p.attr, "cmp": p.cmp, "value": p.value}
    if isinstance(p, And):
        return {"op": "and", "args": [ref_as_json(a) for a in p.args]}
    if isinstance(p, Or):
        return {"op": "or", "args": [ref_as_json(a) for a in p.args]}
    if isinstance(p, Not):
        return {"op": "not", "arg": ref_as_json(p.arg)}
    return {"op": "const", "value": p.value}


def _ref_field(data, key, kind):
    value = data[key]
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise PredicateError(f"predicate field {key!r} must be {_REF_KINDS[kind]}, got {value!r}")
    return value


def _ref_check_proc(proc):
    if proc < 1:
        raise PredicateError(f"process numbers are 1-based, got {proc}")
    return proc


def _ref_cmp_name(name):
    if not isinstance(name, str) or name not in _REF_CMPS:
        raise PredicateError(f"unknown comparator {name!r}")
    return name


def _ref_args(data):
    args = data["args"]
    if not isinstance(args, list):
        raise PredicateError(f"predicate field 'args' must be a list, got {args!r}")
    return tuple(ref_predicate_from_json(a) for a in args)


def ref_predicate_from_json(data):
    if not isinstance(data, dict) or "op" not in data:
        raise PredicateError("predicate node must be an object with an 'op'")
    op = data["op"]
    try:
        if op == "attr":
            return AttrCmp(
                _ref_check_proc(_ref_field(data, "proc", int)),
                _ref_field(data, "attr", str),
                _ref_cmp_name(data["cmp"]),
                data["value"],
            )
        if op == "index":
            return IndexCmp(
                _ref_check_proc(_ref_field(data, "proc", int)),
                _ref_cmp_name(data["cmp"]),
                _ref_field(data, "value", int),
            )
        if op == "agg":
            fn = data["fn"]
            if fn not in ("sum", "count"):
                raise PredicateError(f"unknown aggregate {fn!r}")
            return AggCmp(fn, _ref_field(data, "attr", str), _ref_cmp_name(data["cmp"]), data["value"])
        if op == "and":
            return And(_ref_args(data))
        if op == "or":
            return Or(_ref_args(data))
        if op == "not":
            return Not(ref_predicate_from_json(data["arg"]))
        if op == "const":
            return Const(_ref_field(data, "value", bool))
    except KeyError as exc:
        raise PredicateError(f"predicate op {op!r} is missing field {exc}") from None
    raise PredicateError(f"unknown predicate op {op!r}")


# --- generators ------------------------------------------------------------

OPS = ["attr", "index", "agg", "and", "or", "not", "const"]
VALUES = [0, 1, -2, 3, 2.5, None, True, False, "s", "", [1, "x"], {"k": [None]}]
JUNK = VALUES + [0, -1, "attr", "sum", "count", "mystery", "==", "=>", ["=="], ["attr"],
                 {"op": "const"}, {"op": "const", "value": True}, [{"op": "const", "value": 1}]]


def random_ast(rng, depth=0):
    op = rng.choice(OPS if depth < 4 else OPS[:3] + OPS[-1:])
    cmp = rng.choice(_REF_CMPS)
    if op == "attr":
        return AttrCmp(rng.randint(1, 5), rng.choice(["x", "y", ""]), cmp, rng.choice(VALUES))
    if op == "index":
        return IndexCmp(rng.randint(1, 5), cmp, rng.randint(-1, 4))
    if op == "agg":
        return AggCmp(rng.choice(["sum", "count"]), rng.choice(["x", "y"]), cmp, rng.choice(VALUES))
    if op == "not":
        return Not(random_ast(rng, depth + 1))
    if op == "const":
        return Const(rng.random() < 0.5)
    args = tuple(random_ast(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return And(args) if op == "and" else Or(args)


FIELDS = {
    "attr": {"proc", "attr", "cmp", "value"},
    "index": {"proc", "cmp", "value"},
    "agg": {"fn", "attr", "cmp", "value"},
    "and": {"args"},
    "or": {"args"},
    "not": {"arg"},
    "const": {"value"},
}


def has_extra_fields(node):
    """Whether some node of a known op, reached the way the parser reaches
    it, has a field outside its op's."""
    if not isinstance(node, dict) or not isinstance(node.get("op"), str):
        return False
    if set(node) - {"op"} - FIELDS.get(node["op"], set(node)):
        return True
    args = node.get("args") if node["op"] in ("and", "or") else None
    children = args if isinstance(args, list) else []
    if node["op"] == "not" and "arg" in node:
        children = [node["arg"]]
    return any(has_extra_fields(child) for child in children)


def nodes(data):
    """Every node object of a predicate's JSON, the root first."""
    out = [data]
    for node in out:
        out.extend(node.get("args", []))
        if "arg" in node:
            out.append(node["arg"])
    return out


def parse_outcome(parse, data):
    try:
        return parse(data)
    except PredicateError as exc:
        return f"PredicateError: {exc}"


# --- tests -----------------------------------------------------------------


def test_emission_and_round_trip_equal_reference():
    rng = random.Random(8)
    seen = set()
    for _ in range(1500):
        p = random_ast(rng)
        data = p.as_json()
        want = ref_as_json(p)
        assert data == want
        assert json.dumps(data) == json.dumps(want)  # key order too
        assert predicate_from_json(data) == p
        seen.update(node["op"] for node in nodes(data))
    assert seen == set(OPS)


def test_malformed_nodes_fail_as_before():
    rng = random.Random(9)
    messages = set()
    for _ in range(3000):
        data = ref_as_json(random_ast(rng))
        node = rng.choice(nodes(data))
        key = rng.choice(sorted(node))
        if rng.random() < 0.3:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(JUNK))
        if has_extra_fields(data):  # a new op for old fields; rejected now
            continue
        got = parse_outcome(predicate_from_json, data)
        assert got == parse_outcome(ref_predicate_from_json, data)
        messages.add(got if isinstance(got, str) else "ok")
    assert len(messages) > 30  # the mutations reach many distinct outcomes


@pytest.mark.parametrize(
    "data, message",
    [
        ({"op": "const", "value": True, "extra": 1}, "unknown fields ['extra'] for predicate op 'const'"),
        (
            {"op": "and", "args": [], "arg": {"op": "const", "value": True}},
            "unknown fields ['arg'] for predicate op 'and'",
        ),
        ({"op": ["attr"], "proc": 1}, "unknown predicate op ['attr']"),
        ({"op": {"x": 1}}, "unknown predicate op {'x': 1}"),
    ],
)
def test_node_shape_errors(data, message):
    with pytest.raises(PredicateError) as info:
        predicate_from_json(data)
    assert str(info.value) == message


def test_extra_fields_are_rejected_at_any_depth():
    rng = random.Random(10)
    for _ in range(300):
        data = ref_as_json(random_ast(rng))
        node = rng.choice(nodes(data))
        key = rng.choice(["extra", "Op", "args", "arg", "fn", "value"])
        if key in FIELDS[node["op"]]:
            continue
        node[key] = 1
        with pytest.raises(PredicateError, match="^unknown fields "):
            predicate_from_json(data)


@pytest.mark.parametrize("op", ["not", "and", "or"])
def test_deepest_parsed_chain_emits_its_document(op):
    # Emission takes no stack per level: the deepest one-argument chain that
    # parses gives back the document it came from.  The documents are
    # compared, not the predicates, whose dataclass == recurses per level.
    leaf = '{"op": "index", "proc": 1, "cmp": ">=", "value": 0}'
    opening, closing = (
        ('{"op": "not", "arg": ', "}") if op == "not" else (f'{{"op": "{op}", "args": [', "]}")
    )

    def parsed(depth):
        data = json.loads(opening * depth + leaf + closing * depth)
        return data, predicate_from_json(data)

    lo, hi = 1, 5000  # parses, does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parsed(mid)
            lo = mid
        except RecursionError:
            hi = mid
    data, pred = parsed(lo)
    assert lo > 300, lo
    assert pred.as_json() == data
