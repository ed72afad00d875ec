"""Frontier-vector enumeration, compiled predicates and conjunctive first
matches against the definitional references.

``cuts`` lines, the images and public enumerations of the cut walk and
the frontier vectors of random posets, event models and state models (re-partitioned ones, and
ones whose bitsets span several bytes) must be those of
``reference.downsets`` and ``reference.frontiers`` (the ``cuts`` fixture of
``tests/conftest.py``).  Detection is checked against ``_evaluate``, kept as
the oracle, on a ``{process: state}`` context per antichain of
``reference.width_antichains``: verdicts and warning lists must agree
exactly.  The ``analyze predicate`` listing, written from the frontier
vectors, must be ``json.dumps`` of the document built from the detection
stream, with the same exit code and the same warnings logged.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetdual
import reference
from posetdual import (
    NotWidthExtensible,
    build_poset,
    build_state_model,
    check_width_extensible,
    detect_width_predicate,
    es_transform,
    se_transform,
)
from posetdual.analysis import (
    AggCmp,
    And,
    AttrCmp,
    Const,
    IndexCmp,
    Not,
    Or,
    _admissible_states,
    _conjuncts,
    _evaluate,
    compile_predicate,
    first_width_predicate,
    predicate_from_json,
)
from posetdual.cli import _diagnostic, main
from posetdual.errors import PredicateError
from posetdual.poset import width
from posetdual.statemodel import require_width_extensible
from posetdual.traces import state_to_json, write_trace

from builders import random_chain_poset, random_event_model, renamed


def ref_detect(sm, pred, warnings):
    """The antichains of *sm* that satisfy *pred* by ``_evaluate``, in the
    reference's order."""
    verdict = check_width_extensible(sm.poset)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    w, _ = width(sm.poset)
    if sm.poset.elements and w != sm.n:
        return
    for antichain in reference.width_antichains(sm):
        if _evaluate(sm, pred, antichain, warnings):
            yield antichain


# --- random inputs ----------------------------------------------------------

# The characters of renamed ids: sorted-id order then differs from chain
# order, and json.dumps escapes some of them.
NAMES = 'aBzé"\\☃0 '


def random_events(rng):
    return renamed(rng, random_event_model(rng, max_procs=4, max_events_per_proc=4), NAMES)


def large_events(rng):
    """A renamed event model of 20 to 40 events, usually with shared events."""
    while True:
        m = random_event_model(rng, max_procs=5, max_events_per_proc=12, max_messages=40)
        if 20 <= len(m.poset.elements) <= 40:
            return renamed(rng, m, NAMES)


def split_chain(rng, sm):
    """*sm* with one chain cut in two: the upper half starts above the lower
    half's initial state, so the initial states are ordered."""
    i = rng.choice([i for i, chain in enumerate(sm.chains) if len(chain) > 1])
    j = rng.randrange(1, len(sm.chains[i]))
    chains = list(sm.chains)
    chains[i:i + 1] = [sm.chains[i][:j], sm.chains[i][j:]]
    return build_state_model(sm.poset, chains)


VALUES = [0, 1, 2, 3, 2.5, None, True, "s", [1]]


def random_attrs(rng, sm, missing=True):
    attrs = {}
    for s in sm.poset.elements:
        if missing and rng.random() < 0.1:
            continue
        attrs[s] = {
            name: rng.choice(VALUES if missing else [0, 1, 2, 3])
            for name in ("x", "y")
            if not missing or rng.random() < 0.9
        }
    return attrs


def chain_model(rng):
    """A renamed chain-covered poset of up to 14 states on its chains,
    possibly not width-extensible, possibly of width below its chain
    count."""
    p, chains = random_chain_poset(rng, max_elems=rng.choice([6, 10, 14]), max_chains=4)
    return renamed(rng, build_state_model(p, chains), NAMES)


def attributed_model(rng, missing=True):
    """The forward transform of a renamed event model, or a
    :func:`chain_model`, with random attributes."""
    sm = es_transform(random_events(rng)) if rng.random() < 0.5 else chain_model(rng)
    return build_state_model(sm.poset, sm.chains, random_attrs(rng, sm, missing))


def random_predicate(rng, n, depth=0, names=("x", "y", "ghost"), values=VALUES):
    """A random AST; ``attr`` clauses read *names*, ``agg`` clauses the
    attributes x and y, and both compare with *values*."""
    kinds = ["attr", "index", "agg", "const"]
    if depth < 3:
        kinds += ["and", "or", "not"] * 2
    kind = rng.choice(kinds)
    cmp = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
    proc = rng.randint(1, n)
    if kind == "attr":
        return AttrCmp(proc, rng.choice(names), cmp, rng.choice(values))
    if kind == "index":
        return IndexCmp(proc, cmp, rng.choice([0, 1, 2, 3, "s"]))
    if kind == "agg":
        return AggCmp(rng.choice(["sum", "count"]), rng.choice(["x", "y"]), cmp, rng.choice(values))
    if kind == "const":
        return Const(rng.random() < 0.5)
    if kind == "not":
        return Not(random_predicate(rng, n, depth + 1, names, values))
    args = tuple(
        random_predicate(rng, n, depth + 1, names, values) for _ in range(rng.randint(0, 3))
    )
    return And(args) if kind == "and" else Or(args)


def random_conjunction(rng, n):
    clauses = []
    for _ in range(rng.randint(0, 4)):
        proc, cmp = rng.randint(1, n), rng.choice(["<=", "==", ">=", "!="])
        if rng.random() < 0.5:
            clauses.append(IndexCmp(proc, cmp, rng.randint(0, 3)))
        else:
            clauses.append(AttrCmp(proc, rng.choice(["x", "y"]), cmp, rng.randint(0, 3)))
    if len(clauses) > 2 and rng.random() < 0.3:  # nested conjunctions
        return And((And(tuple(clauses[:2])),) + tuple(clauses[2:]))
    if len(clauses) == 1 and rng.random() < 0.5:
        return clauses[0]
    return And(tuple(clauses))


# --- cuts lines ---------------------------------------------------------------


def test_downset_lines_equal_reference(cuts):
    rng = random.Random(4101)
    for trial in range(300):
        cuts.downsets(random_events(rng).poset if trial % 2 else chain_model(rng).poset)


def test_antichain_lines_equal_reference(cuts):
    rng = random.Random(4102)
    compared = repartitioned = 0
    for trial in range(400):
        if trial % 2:
            target = es_transform(random_events(rng))
        else:
            sm = chain_model(rng)
            # a state model (re-partitioned when its chains exceed the
            # width) or a bare poset (always partitioned)
            target = sm if trial % 4 else sm.poset
            repartitioned += not (trial % 4) or sm.n > width(sm.poset)[0]
        compared += cuts.antichains(target)
    assert compared >= 250 and repartitioned >= 100, (compared, repartitioned)


def straddling_events(sm):
    """Shared events of *sm*'s event side whose flipped states lie in
    different bytes of the antichain bitset over ``sm.poset.elements``."""
    m = se_transform(sm).event_model
    count = 0
    for slots in m.labels.values():
        states = [sm.chains[i - 1][j] for i, k in slots for j in (k - 1, k)]
        count += len(slots) > 1 and len({sm.poset.index(s) // 8 for s in states}) > 1
    return count


def test_multibyte_streams_equal_reference(cuts):
    """Bitsets of several bytes: 20 to 40 events, shared events whose flipped
    states fall in different bytes, and models whose initial states are
    ordered, which are viewed on Kuhn's partition."""
    rng = random.Random(4107)
    ordered = straddling = 0
    for trial in range(60):
        m = large_events(rng)
        cuts.downsets(m.poset)
        sm = es_transform(m)
        if trial % 3:
            sm = renamed(rng, sm, NAMES)
        if trial % 2:
            sm = split_chain(rng, sm)
        assert cuts.antichains(sm)  # es's posets are width-extensible
        view = require_width_extensible(sm)
        ordered += view is not sm
        straddling += straddling_events(view)
    assert ordered == 30 and straddling >= 100, (ordered, straddling)


# --- compiled evaluation -------------------------------------------------------


def test_compiled_predicates_equal_evaluate():
    rng = random.Random(4103)
    warned = 0
    for _ in range(300):
        sm = attributed_model(rng)
        if not check_width_extensible(sm.poset).ok:
            continue
        pred = random_predicate(rng, sm.n)
        test = compile_predicate(sm, pred)
        for antichain in reference.width_antichains(require_width_extensible(sm)):
            if len(antichain) != sm.n:
                break  # width below the process count: no spanning states
            vector = [sm.coords(s)[1] for s in sorted(antichain, key=sm.coords)]
            want, got = [], []
            assert bool(test(vector, got.append)) == bool(
                _evaluate(sm, pred, antichain, want)
            )
            assert got == want, pred
            warned += bool(want)
        warnings_ref, warnings_new = [], []
        want = list(ref_detect(sm, pred, warnings_ref))
        assert list(detect_width_predicate(sm, pred, warnings_new)) == want
        assert warnings_new == warnings_ref
    assert warned >= 200, warned


# Attribute values of models where every state has both attributes.  Sums
# of the floats depend on the order of the terms (1e16 + 1.0 - 1e16 is 0.0
# without compensation); "text" values can only be counted, and summing
# them warns.
COMPLETE_VALUES = {
    "int": [-2, 0, 1, 3, 7],
    "float": [0.1, 0.2, 0.7, 1.0, 1e16, -1e16],
    "bool": [True, False],
    "mixed": [0, 2, 0.1, 0.7, True, False],
    "text": ["", "s", "ab", [], [1], 0],
}
# Compared values: numbers a sum may hit, and a string and None, which
# warn through the comparison unless it is == or !=.
COMPARED = [0, 1, 2, 3, 0.3, 1.0, 2.5, True, "s", None]


def complete_state_model(rng, kind):
    """A width-extensible state model with values of *kind* for x and y on
    every state."""
    while True:
        sm = attributed_model(rng)
        if check_width_extensible(sm.poset).ok:
            break
    attrs = {
        s: {name: rng.choice(COMPLETE_VALUES[kind]) for name in ("x", "y")}
        for s in sm.poset.elements
    }
    return build_state_model(sm.poset, sm.chains, attrs)


def clauses(pred):
    """The ``attr``, ``index`` and ``agg`` nodes of an AST."""
    if isinstance(pred, (And, Or)):
        return [c for arg in pred.args for c in clauses(arg)]
    if isinstance(pred, Not):
        return clauses(pred.arg)
    return [] if isinstance(pred, Const) else [pred]


def takes_lean_closure(sm, clause):
    """Whether no state warns on the clause and, for ``agg``, every state
    has a value the aggregate cannot fail on."""
    if not isinstance(clause, AggCmp):
        return not any(msgs for _, msgs in clause.column(sm))
    values = [sm.attrs.get(s, {}).get(clause.attr) for s in sm.poset.elements]
    if clause.fn == "count":
        return None not in values
    return all(type(v) in (int, float, bool) for v in values)


def test_lean_closures_equal_evaluate():
    """Complete attributes: most clauses compile to the lean closures, whose
    verdicts, warnings and detected states equal the reference's."""
    rng = random.Random(4108)
    taken = {(kind, closure): 0 for kind in ("local", "agg") for closure in ("lean", "replay")}
    warned = 0
    for trial in range(600):
        sm = complete_state_model(rng, list(COMPLETE_VALUES)[trial % len(COMPLETE_VALUES)])
        pred = random_predicate(rng, sm.n, names=("x", "y"), values=COMPARED)
        for clause in clauses(pred):
            closure = clause.compile(sm).__name__
            assert closure == ("lean" if takes_lean_closure(sm, clause) else "replay"), clause
            taken["agg" if isinstance(clause, AggCmp) else "local", closure] += 1
        test = compile_predicate(sm, pred)
        for antichain in reference.width_antichains(require_width_extensible(sm)):
            if len(antichain) != sm.n:
                break  # width below the process count: no spanning states
            vector = [sm.coords(s)[1] for s in sorted(antichain, key=sm.coords)]
            want, got = [], []
            assert test(vector, got.append) == _evaluate(sm, pred, antichain, want), pred
            assert got == want, pred
            warned += bool(want)
        warnings_ref, warnings_new = [], []
        want = list(ref_detect(sm, pred, warnings_ref))
        assert list(detect_width_predicate(sm, pred, warnings_new)) == want
        assert warnings_new == warnings_ref
    # At least three in four clauses of each kind are lean, and both kinds
    # still replay where a state warns or a sum would fail.
    for kind in ("local", "agg"):
        lean, replay = taken[kind, "lean"], taken[kind, "replay"]
        assert lean >= 3 * replay and replay >= 15, taken
    assert warned >= 300, warned


def test_missing_attributes_take_the_replaying_closure():
    rng = random.Random(4109)
    replayed = 0
    for _ in range(300):
        sm = attributed_model(rng)
        for clause in clauses(random_predicate(rng, sm.n)):
            if isinstance(clause, IndexCmp):
                continue
            procs = range(1, sm.n + 1) if isinstance(clause, AggCmp) else [clause.proc]
            if any(
                clause.attr not in sm.attrs.get(s, {}) for i in procs for s in sm.chains[i - 1]
            ):
                assert clause.compile(sm).__name__ == "replay", clause
                replayed += 1
    assert replayed >= 150, replayed


def test_compile_rejects_processes_the_model_lacks():
    rng = random.Random(4104)
    sm = attributed_model(rng)
    for pred in (
        AttrCmp(sm.n + 1, "x", "==", 1),
        And((IndexCmp(1, "==", 0), Not(IndexCmp(sm.n + 5, ">", 0)))),
        IndexCmp(0, "==", 0),
    ):
        with pytest.raises(PredicateError):
            compile_predicate(sm, pred)
        with pytest.raises(PredicateError):
            first_width_predicate(sm, pred)


# --- Garg-Waldecker first match -------------------------------------------------


def test_conjunctive_first_match_equals_first_of_enumeration():
    rng = random.Random(4105)
    direct = unsatisfiable = narrow = 0
    for trial in range(800):
        sm = attributed_model(rng, missing=trial % 5 == 0)
        # Mostly conjunctions; other predicates must take the enumeration.
        if trial % 4:
            pred = random_conjunction(rng, sm.n)
        else:
            pred = random_predicate(rng, sm.n)
        expected_warnings = []
        try:
            expected = next(ref_detect(sm, pred, expected_warnings), None)
        except NotWidthExtensible as exc:
            with pytest.raises(NotWidthExtensible) as info:
                first_width_predicate(sm, pred)
            assert info.value.witness == exc.witness
            continue
        warnings = []
        assert first_width_predicate(sm, pred, warnings) == expected, pred
        assert warnings == expected_warnings, pred
        clauses = _conjuncts(pred)
        direct += clauses is not None and _admissible_states(sm, clauses) is not None
        unsatisfiable += expected is None
        narrow += width(sm.poset)[0] < sm.n
    assert direct >= 300 and unsatisfiable >= 50 and narrow >= 30, (
        direct, unsatisfiable, narrow,
    )


# --- the predicate listing --------------------------------------------------------

# Id characters beyond NAMES: lone surrogates, an astral character, a
# control character, and "~" and DEL, which sort before "é" raw but after
# its "\u00e9" escape.  The surrogates are low ones only: a high one before
# them would be escaped as a pair, which json.loads reads back as one
# astral character.
ODD = NAMES + "\udc00\udfff\U0001f600\x01~\x7f"


def parsed_predicate(rng, n):
    """A random predicate as the CLI reads it back from its JSON."""
    while True:
        try:
            return predicate_from_json(json.loads(json.dumps(random_predicate(rng, n).as_json())))
        except PredicateError:  # an index compared with a string
            continue


def ref_listing(sm, pred):
    """Exit code, stdout and logged warnings of ``analyze predicate`` on *sm*,
    from the document built of the detection stream."""
    warnings = []
    try:
        cuts = [sorted(c) for c in detect_width_predicate(sm, pred, warnings)]
    except NotWidthExtensible as exc:
        doc = {"ok": False, "error": _diagnostic(exc)}
        code = 2
    else:
        doc = {"count": len(cuts), "cuts": cuts}
        if warnings:
            doc["warnings"] = sorted(set(warnings))
        code = 0
    return code, json.dumps(doc, indent=2, sort_keys=True) + "\n", warnings


def cli_listing(capsys, caplog, tmp_path, sm, pred):
    """Exit code, stdout, stderr and logged warnings of ``analyze
    predicate`` on *sm* through ``main``."""
    model, expr = tmp_path / "model.json", tmp_path / "pred.json"
    write_trace(model, state_to_json(sm))
    write_trace(expr, {"kind": "predicate", "version": 1, "expr": pred.as_json()})
    caplog.clear()
    code = main(["analyze", "predicate", "--model", str(model), "--pred", str(expr)])
    out = capsys.readouterr()
    return code, out.out, out.err, [record.getMessage() for record in caplog.records]


def listing_cases(rng):
    """(model, predicate) pairs: random models with odd ids, some of width
    below their process count, random predicates, and the fixed cases."""
    ghost = AttrCmp(1, "ghost", "==", 1)  # no state has it
    uncomparable = AttrCmp(1, "x", "<", "s")
    empty = build_state_model(build_poset([], []), [])
    cases = [(empty, Const(True)), (empty, Const(False)), (empty, AggCmp("sum", "x", "==", 0))]
    for trial in range(160):
        sm = renamed(rng, attributed_model(rng), ODD)
        if trial % 4 == 0 and any(len(chain) > 1 for chain in sm.chains):
            split = split_chain(rng, sm)
            sm = build_state_model(split.poset, split.chains, sm.attrs)
        pred = parsed_predicate(rng, sm.n)
        if trial % 8 == 1:
            pred = Or((ghost, uncomparable, pred))
        elif trial % 8 == 3:
            pred = Const(False)
        cases.append((sm, pred))
    return cases


def test_listing_equals_the_document_of_the_detection_stream(capsys, caplog, tmp_path):
    rng = random.Random(4107)
    seen = {"warned": 0, "missing": 0, "uncomparable": 0, "none": 0, "narrow": 0,
            "failed": 0, "empty model": 0}
    for sm, pred in listing_cases(rng):
        want_code, want_out, want_warnings = ref_listing(sm, pred)
        got = cli_listing(capsys, caplog, tmp_path, sm, pred)
        # pytest's log capture takes the warnings the CLI writes to stderr
        assert got == (want_code, want_out, "", want_warnings), pred
        seen["warned"] += bool(want_warnings)
        seen["missing"] += any("has no attribute" in w for w in want_warnings)
        seen["uncomparable"] += any(w.startswith("cannot compare") for w in want_warnings)
        seen["none"] += '"cuts": []' in want_out
        seen["failed"] += want_code == 2
        if want_code == 0:
            seen["narrow"] += require_width_extensible(sm).n < sm.n
        seen["empty model"] += '"cuts": [\n    []\n  ]' in want_out
    assert min(seen.values()) >= 1 and seen["narrow"] >= 10, seen


def test_listing_writes_its_warnings_to_stderr_once(tmp_path):
    # Outside pytest's log capture, each warning goes to stderr as logged.
    sm = renamed(random.Random(4108), build_state_model(
        build_poset(["a", "b"], []), [["a"], ["b"]], {"a": {"x": "s"}}), ODD)
    pred = Or((AttrCmp(1, "x", "<", 1), AttrCmp(2, "x", "==", 0)))
    code, out, warnings = ref_listing(sm, pred)
    assert len(warnings) == 2
    model, expr = tmp_path / "model.json", tmp_path / "pred.json"
    write_trace(model, state_to_json(sm))
    write_trace(expr, {"kind": "predicate", "version": 1, "expr": pred.as_json()})
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "posetdual", "analyze", "predicate",
         "--model", str(model), "--pred", str(expr)],
        capture_output=True, encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
    )
    assert (run.returncode, run.stdout, run.stderr) == (
        code, out, "".join(w + "\n" for w in warnings)
    )
