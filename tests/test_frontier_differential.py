"""Frontier-vector enumeration, compiled predicates and conjunctive first
matches against the name-at-a-time code they replaced.

The reference functions transcribe the earlier implementations: downsets
materialized by scanning every linear-extension position, antichains mapped
from each cut through the per-event frontier scan, ``cuts`` lines rendered by
``json.dumps`` of the sorted members, and detection evaluating the AST on a
``{process: state}`` context per antichain (``_evaluate``, kept as the
oracle).  Lines must agree byte for byte and in order; verdicts and warning
lists must agree exactly.
"""

import heapq
import json
import random

import pytest

from posetdual import (
    NotWidthExtensible,
    build_event_model,
    build_poset,
    build_state_model,
    check_width_extensible,
    detect_width_predicate,
    enumerate_width_antichains,
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
    _evaluate,
    compile_predicate,
    first_width_predicate,
)
from posetdual.cli import _antichain_lines, _downset_lines
from posetdual.errors import PredicateError
from posetdual.lattice import enumerate_downsets
from posetdual.poset import minimum_chain_partition, width
from posetdual.statemodel import StateModel

from builders import random_chain_poset, random_event_model

# --- transcribed reference -------------------------------------------------


def ref_linear_extension(p):
    n = len(p.elements)
    indeg = [p._down[i].bit_count() for i in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(p.elements[v])
        for w in range(n):
            if p._up[v] >> w & 1:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
    return tuple(order)


def ref_downsets(p):
    order = ref_linear_extension(p)
    n = len(order)
    pos = {e: q for q, e in enumerate(order)}
    up = []
    for e in order:
        mask = 1 << pos[e]
        for f in order:
            if p.less(e, f):
                mask |= 1 << pos[f]
        up.append(mask)
    stack = [((1 << n) - 1, 0)]
    while stack:
        avail, included = stack.pop()
        if not avail:
            yield frozenset(order[q] for q in range(n) if included >> q & 1)
            continue
        low = avail & -avail
        q = low.bit_length() - 1
        stack.append((avail & ~low, included | low))
        stack.append((avail & ~up[q], included))


def ref_frontier(m, cut):
    tops = [0] * m.n
    for e in cut:
        for i, k in m.labels[e]:
            tops[i - 1] = max(tops[i - 1], k)
    return tuple(tops)


def ref_width_antichains(target):
    poset = target.poset if isinstance(target, StateModel) else target
    verdict = check_width_extensible(poset)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    if not poset.elements:
        yield frozenset()
        return
    if isinstance(target, StateModel) and target.n == width(poset)[0]:
        sm = target
    else:
        sm = StateModel(poset=poset, chains=minimum_chain_partition(poset).chains)
    m = se_transform(sm).event_model
    for cut in ref_downsets(m.poset):
        tops = ref_frontier(m, cut)
        yield frozenset(sm.state_at(i + 1, k) for i, k in enumerate(tops))


def ref_line(cut):
    return json.dumps({"cut": sorted(cut)}, sort_keys=True) + "\n"


def ref_detect(sm, pred, warnings):
    verdict = check_width_extensible(sm.poset)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    w, _ = width(sm.poset)
    if sm.poset.elements and w != sm.n:
        return
    for antichain in ref_width_antichains(sm):
        if _evaluate(sm, pred, antichain, warnings):
            yield antichain


# --- random inputs ----------------------------------------------------------

# Names whose sorted order differs from chain order, and some of which
# json.dumps escapes.
NAME_PARTS = ["a", "B", "z", "é", '"', "\\", "☃", "0", " "]


def renamed(rng, elements):
    names = set()
    while len(names) < len(elements):
        names.add("".join(rng.choice(NAME_PARTS) for _ in range(rng.randint(1, 3))))
    names = list(names)
    rng.shuffle(names)
    return dict(zip(elements, names))


def random_poset(rng):
    p, chains = random_chain_poset(rng, max_elems=rng.choice([6, 10, 14]), max_chains=4)
    name = renamed(rng, p.elements)
    poset = build_poset(name.values(), [(name[a], name[b]) for a, b in p.covers])
    return poset, [[name[s] for s in chain] for chain in chains]


def random_events(rng):
    m = random_event_model(rng, max_procs=4, max_events_per_proc=4)
    name = renamed(rng, m.poset.elements)
    poset = build_poset(name.values(), [(name[a], name[b]) for a, b in m.poset.covers])
    return build_event_model(poset, m.n, {name[e]: s for e, s in m.labels.items()})


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


def random_state_model(rng, missing=True):
    """A state model: the forward transform of a renamed event model, or a
    renamed chain-covered poset (possibly not width-extensible, possibly of
    width below its chain count), with random attributes."""
    if rng.random() < 0.5:
        sm = es_transform(random_events(rng))
        poset, chains = sm.poset, sm.chains
    else:
        poset, chains = random_poset(rng)
    sm = build_state_model(poset, chains)
    return build_state_model(poset, chains, random_attrs(rng, sm, missing))


def random_predicate(rng, n, depth=0):
    kinds = ["attr", "index", "agg", "const"]
    if depth < 3:
        kinds += ["and", "or", "not"] * 2
    kind = rng.choice(kinds)
    cmp = rng.choice(["<", "<=", "==", "!=", ">=", ">"])
    proc = rng.randint(1, n)
    if kind == "attr":
        return AttrCmp(proc, rng.choice(["x", "y", "ghost"]), cmp, rng.choice(VALUES))
    if kind == "index":
        return IndexCmp(proc, cmp, rng.choice([0, 1, 2, 3, "s"]))
    if kind == "agg":
        return AggCmp(rng.choice(["sum", "count"]), rng.choice(["x", "y"]), cmp, rng.choice(VALUES))
    if kind == "const":
        return Const(rng.random() < 0.5)
    if kind == "not":
        return Not(random_predicate(rng, n, depth + 1))
    args = tuple(random_predicate(rng, n, depth + 1) for _ in range(rng.randint(0, 3)))
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


def test_downset_lines_equal_reference():
    rng = random.Random(4101)
    for trial in range(300):
        poset = random_events(rng).poset if trial % 2 else random_poset(rng)[0]
        reference = list(ref_downsets(poset))
        assert list(enumerate_downsets(poset)) == reference
        assert list(_downset_lines(poset)) == [ref_line(c) for c in reference]


def test_antichain_lines_equal_reference():
    rng = random.Random(4102)
    compared = repartitioned = 0
    for trial in range(400):
        if trial % 2:
            target = es_transform(random_events(rng))
        else:
            poset, chains = random_poset(rng)
            # a state model (re-partitioned when its chains exceed the
            # width) or a bare poset (always partitioned)
            target = build_state_model(poset, chains) if trial % 4 else poset
            repartitioned += not (trial % 4) or len(chains) > width(poset)[0]
        try:
            reference = list(ref_width_antichains(target))
        except NotWidthExtensible as exc:
            with pytest.raises(NotWidthExtensible) as info:
                list(_antichain_lines(target))
            assert info.value.witness == exc.witness
            continue
        assert list(enumerate_width_antichains(target)) == reference
        assert list(_antichain_lines(target)) == [ref_line(c) for c in reference]
        compared += 1
    assert compared >= 250 and repartitioned >= 100, (compared, repartitioned)


# --- compiled evaluation -------------------------------------------------------


def test_compiled_predicates_equal_evaluate():
    rng = random.Random(4103)
    warned = 0
    for _ in range(300):
        sm = random_state_model(rng)
        if not check_width_extensible(sm.poset).ok:
            continue
        pred = random_predicate(rng, sm.n)
        test = compile_predicate(sm, pred)
        for antichain in ref_width_antichains(sm):
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
        reference = list(ref_detect(sm, pred, warnings_ref))
        assert list(detect_width_predicate(sm, pred, warnings_new)) == reference
        assert warnings_new == warnings_ref
    assert warned >= 200, warned


def test_compile_rejects_processes_the_model_lacks():
    rng = random.Random(4104)
    sm = random_state_model(rng)
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
        sm = random_state_model(rng, missing=trial % 5 == 0)
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
        direct += _admissible_states(sm, pred) is not None
        unsatisfiable += expected is None
        narrow += width(sm.poset)[0] < sm.n
    assert direct >= 300 and unsatisfiable >= 50 and narrow >= 30, (
        direct, unsatisfiable, narrow,
    )
