"""Fuzzing the CLI's error boundary: whatever the input, ``main`` returns one
of the documented exit codes and never lets an exception or a traceback out.

Predicates are random clause trees, well-formed or not; trace documents are
fixtures with a few parts replaced by random JSON values or deleted.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from posetdual.cli import main

from conftest import FIXTURES

EXIT_CODES = {0, 2, 3, 4, 5}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "x", "1.1", "session", "<"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["op", "proc", "a", "1.0"]), inner, max_size=3),
    max_leaves=6,
)


def _node(children):
    fields = {
        "proc": st.integers(-1, 5) | json_values,
        "attr": st.sampled_from(["session", "permits", "in_barrier", "ghost"]) | json_values,
        "cmp": st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]) | json_values,
        "value": json_values,
        "fn": st.sampled_from(["sum", "count", "max"]) | json_values,
        "args": st.lists(children, max_size=3) | json_values,
        "arg": children,
    }
    op = st.sampled_from(["attr", "index", "agg", "and", "or", "not", "const", "max"])
    return st.fixed_dictionaries({"op": op}, optional=fields) | json_values


predicates = st.recursive(_node(json_values), _node, max_leaves=8)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(expr=predicates, mode=st.sampled_from(["--first", "--count", None]))
def test_random_predicates_exit_cleanly(tmp_path, expr, mode):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"kind": "predicate", "version": 1, "expr": expr}))
    for model in ("sessions_state", "message_pair_state", "pinch_state", "barrier_event"):
        argv = ["analyze", "predicate", "--model", str(FIXTURES / f"{model}.json")]
        argv += ["--pred", str(pred)] + ([mode] if mode else [])
        code, err = run(argv)
        assert code in EXIT_CODES and "Traceback" not in err, (model, expr, err)


@st.composite
def mutated(draw, doc):
    """*doc* with one to three subtrees replaced by JSON values or deleted.

    Each mutation descends from a random top-level field, going one level
    deeper with probability 1/2, so that every field is hit often and deep
    entries sometimes.
    """
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
            key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 3)):
            parent[key] = draw(json_values)
        else:
            del parent[key]
    return doc


# Per trace kind: a fixture to perturb, and the commands to run on it (the
# perturbed file stands in for "{}").
KIND_CASES = {
    "poset": ("triple_pinch_poset", [
        ["validate", "{}"],
        ["cuts", "{}", "--family", "downsets"],
        ["cuts", "{}", "--family", "antichains"],
    ]),
    "event": ("barrier_event", [
        ["validate", "{}"],
        ["transform", "{}", "--direction", "es"],
        ["cuts", "{}", "--family", "downsets", "--max-cuts", "5"],
    ]),
    "state": ("sessions_state", [
        ["check", "{}"],
        ["transform", "{}", "--direction", "se"],
        ["cuts", "{}", "--family", "antichains"],
        ["analyze", "predicate", "--model", "{}",
         "--pred", str(FIXTURES / "permits_pred.json"), "--count"],
    ]),
    "marks": ("zigzag_marks", [
        ["analyze", "checkpoints", "--model", str(FIXTURES / "zigzag_state.json"),
         "--marks", "{}", "--engine", "both"],
    ]),
    "predicate": ("barrier_pred", [
        ["analyze", "predicate", "--model", str(FIXTURES / "sessions_state.json"),
         "--pred", "{}", "--first"],
    ]),
}


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_random_trace_documents_exit_cleanly(tmp_path, kind, data):
    fixture, commands = KIND_CASES[kind]
    doc = data.draw(mutated(json.loads((FIXTURES / f"{fixture}.json").read_text())))
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    for command in commands:
        argv = [str(path) if a == "{}" else a for a in command]
        code, err = run(argv)
        assert code in EXIT_CODES and "Traceback" not in err, (argv, doc, err)
