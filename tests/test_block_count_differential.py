"""``--count`` a block of the cut walk at a time, against the per-vector count.

``analysis.count_width_predicate`` must give ``sum(1 for _ in
satisfying_frontiers(...))``, with the same warnings, log records and
exceptions, and ``analyze predicate --count`` the same bytes on stdout and
stderr, on random models with shared events, with ordered initial states,
with a single chain, without any chain, and on posets that are not
width-extensible.  Predicates the block count takes are built so by
construction and must not reach the per-vector path; every other predicate
must.  Each runs at several block bounds, so that blocks leave chains
untouched.  The fact the block count rests on (the module docstring of
``posetdual.lattice``) is asserted on every block of random walks.
"""

import itertools
import json
import logging
import random

import pytest

from posetdual import analysis, build_poset, build_state_model, cli, es_transform, lattice
from posetdual.analysis import AggCmp, And, AttrCmp, Const, IndexCmp, Not, Or
from posetdual.errors import NotWidthExtensible, PredicateError
from posetdual.statemodel import require_width_extensible
from posetdual.traces import state_to_json
from posetdual.transforms import se_transform

from builders import random_chain_poset, random_event_model

CMPS = ["<", "<=", "==", "!=", ">=", ">"]
BOUNDS = [0, 1, 3, lattice._BLOCK]
PER_VECTOR = analysis.satisfying_frontiers


def per_vector_count(sm, pred, warnings=None):
    """The count as the CLI made it before blocks."""
    return sum(1 for _ in PER_VECTOR(sm, pred, warnings))


@pytest.fixture(params=BOUNDS, ids=[f"block{b}" for b in BOUNDS])
def bound(request, monkeypatch):
    monkeypatch.setattr(lattice, "_BLOCK", request.param)
    return request.param


# --- random models and predicates -------------------------------------------


def random_model(rng, kind):
    """A state model of the given kind with int and bool attributes x and y.

    ``shared``: the forward transform of an event model with shared events;
    ``ordered``: the same with one chain cut in two, so its initial states
    are ordered and its width is below its chain count; ``single``: one
    chain; ``empty``: no chain at all; ``poset``: a chain-covered poset,
    possibly not width-extensible.
    """
    if kind == "empty":
        return build_state_model(build_poset([], []), [])
    if kind == "poset":
        poset, chains = random_chain_poset(rng, max_elems=10, max_chains=4)
    else:
        m = random_event_model(
            rng,
            max_procs=1 if kind == "single" else 4,
            max_events_per_proc=6,
            max_messages=6,
        )
        sm = es_transform(m)
        poset, chains = sm.poset, [list(c) for c in sm.chains]
        if kind == "ordered" and any(len(c) > 1 for c in chains):
            i = rng.choice([i for i, c in enumerate(chains) if len(c) > 1])
            j = rng.randrange(1, len(chains[i]))
            chains[i:i + 1] = [chains[i][:j], chains[i][j:]]
    big = rng.random() < 0.2  # exact sums far beyond a float's mantissa
    attrs = {
        s: {name: random_int(rng, big) for name in ("x", "y")} for s in poset.elements
    }
    return build_state_model(poset, chains, attrs)


def random_int(rng, big):
    if rng.random() < 0.2:
        return rng.random() < 0.5
    if big:
        return rng.choice([-1, 1]) * (10**20 + rng.randint(0, 3))
    return rng.randint(-3, 9)


def random_local(rng, sm):
    proc = rng.randint(1, sm.n)
    cmp = rng.choice(CMPS)
    if rng.random() < 0.3:
        return IndexCmp(proc, cmp, rng.randint(0, 4))
    return AttrCmp(proc, rng.choice(["x", "y"]), cmp, rng.randint(-2, 8))


def random_agg(rng, sm):
    fn, attr = rng.choice(["sum", "count"]), rng.choice(["x", "y"])
    # A value near the sums the model can reach: zero and nonzero counts.
    values = [v for chain in sm.chains for s in chain for v in [sm.attrs[s][attr]]]
    if fn == "count":
        value = rng.randint(0, sm.n)
    elif values:
        value = sum(rng.choice(values) for _ in range(sm.n)) + rng.randint(-2, 2)
    else:
        value = rng.randint(-1, 1)
    if rng.random() < 0.1:
        value = rng.random() < 0.5
    return AggCmp(fn, attr, rng.choice(CMPS), value)


def random_block_predicate(rng, sm):
    """An ``and`` of local clauses, constants and at most one ``agg``, none
    of which warns on *sm*: one the block count takes."""
    args = [random_local(rng, sm) for _ in range(rng.randint(0, 3) if sm.n else 0)]
    if rng.random() < 0.7:
        args.append(random_agg(rng, sm))
    if rng.random() < 0.3:
        args.append(Const(True))
    if rng.random() < 0.05:
        args.append(Const(False))
    rng.shuffle(args)
    if len(args) > 2 and rng.random() < 0.4:  # nested conjunctions
        return And((And(tuple(args[:2])), And((And(tuple(args[2:])),))))
    if len(args) == 1 and rng.random() < 0.5:
        return args[0]
    return And(tuple(args))


def with_values(sm, attr, values):
    """*sm* with attribute *attr* set to ``values[s]`` (deleted where that
    is ``...``)."""
    attrs = {s: dict(a) for s, a in sm.attrs.items()}
    for s, value in values.items():
        if value is ...:
            del attrs[s][attr]
        else:
            attrs[s][attr] = value
    return build_state_model(sm.poset, sm.chains, attrs)


def random_fallback(rng, sm, pred):
    """A predicate and model that the per-vector path must count, built from
    a block predicate: its reason, the predicate and the model."""
    states = [s for chain in sm.chains for s in chain]
    reasons = ["or", "not", "float value", "two aggs"]
    if states:
        reasons += ["float sum", "null", "missing", "uncomparable"]
    reason = rng.choice(reasons)
    if reason == "or":
        return reason, Or((pred, Const(False))), sm
    if reason == "not":
        return reason, Not(Not(pred)), sm
    if reason == "float value":
        return reason, And((pred, AggCmp(rng.choice(["sum", "count"]), "x", "<=", 2.5))), sm
    if reason == "two aggs":
        return reason, And((pred, random_agg(rng, sm), random_agg(rng, sm))), sm
    target = rng.choice(states)
    proc = next(i for i, chain in enumerate(sm.chains, start=1) if target in chain)
    if reason == "float sum":
        model = with_values(sm, "z", {s: 0.5 * rng.randint(0, 4) for s in states})
        return reason, And((pred, AggCmp("sum", "z", rng.choice(CMPS), rng.randint(0, 3)))), model
    if reason == "null":
        model = with_values(sm, "z", {s: None if s == target else 1 for s in states})
        return reason, And((pred, AggCmp(rng.choice(["sum", "count"]), "z", ">=", 0))), model
    if reason == "missing":
        model = with_values(sm, "x", {target: ...})
        clause = AttrCmp(proc, "x", rng.choice(CMPS), 1)
        return reason, And((clause, pred) if rng.random() < 0.5 else (pred, clause)), model
    model = with_values(sm, "x", {target: "s"})  # uncomparable: the clause warns
    return reason, And((pred, AttrCmp(proc, "x", rng.choice(["<", "<=", ">=", ">"]), 1))), model


# --- the comparison -----------------------------------------------------------


def outcome(count, sm, pred, caplog):
    """Result or exception of one count, its warnings and its log records."""
    caplog.clear()
    warnings = []
    try:
        result = count(sm, pred, warnings)
    except (NotWidthExtensible, PredicateError) as exc:
        result = (type(exc), str(exc), getattr(exc, "witness", None))
    records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    return result, warnings, records


def compare(sm, pred, caplog, monkeypatch):
    """The block count's outcome, asserted equal to the per-vector one, and
    whether it took the per-vector path."""
    want = outcome(per_vector_count, sm, pred, caplog)
    calls = []

    def spy(*args):
        calls.append(args)
        return PER_VECTOR(*args)

    with monkeypatch.context() as m:
        m.setattr(analysis, "satisfying_frontiers", spy)
        got = outcome(analysis.count_width_predicate, sm, pred, caplog)
    assert got == want, pred
    return got[0], bool(calls)


MODEL_KINDS = ["shared"] * 6 + ["ordered", "single", "empty", "poset"]


def test_block_count_equals_per_vector_count(bound, caplog, monkeypatch):
    caplog.set_level(logging.INFO)
    rng = random.Random(2600 + bound)
    taken = {"block": 0, "fallback": 0, "zero": 0, "nonzero": 0, "raised": 0}
    fallback_reasons = set()
    for trial in range(300):
        sm = random_model(rng, MODEL_KINDS[trial % len(MODEL_KINDS)])
        pred = random_block_predicate(rng, sm)
        if sm.n and rng.random() < 0.03:  # a process the model lacks
            pred = And((pred, IndexCmp(sm.n + 1, "==", 0)))
        result, fell_back = compare(sm, pred, caplog, monkeypatch)
        assert not fell_back, pred
        if isinstance(result, tuple):
            taken["raised"] += 1
        else:
            taken["block"] += 1
            taken["zero" if result == 0 else "nonzero"] += 1
        reason, pred, sm = random_fallback(rng, sm, pred)
        result, fell_back = compare(sm, pred, caplog, monkeypatch)
        # A clause on a process the model lacks raises before either path.
        assert fell_back or result[0] is PredicateError, (reason, pred)
        taken["fallback"] += fell_back
        fallback_reasons.add(reason)
    assert taken["block"] >= 250 and taken["fallback"] >= 250, taken
    assert taken["zero"] >= 40 and taken["nonzero"] >= 100 and taken["raised"] >= 10, taken
    assert len(fallback_reasons) == 8, fallback_reasons


def test_cmps_and_aggregates_each_count_both_ways(caplog, monkeypatch):
    """Every comparator with each aggregate, on exact ints, bools and large
    ints, gives zero and nonzero counts by blocks."""
    caplog.set_level(logging.INFO)
    rng = random.Random(2610)
    seen = {(fn, cmp): set() for fn in ("sum", "count") for cmp in CMPS}
    for trial in range(480):
        sm = random_model(rng, "shared")
        if rng.random() < 0.25:  # one sum on every global state
            sm = with_values(sm, "x", dict.fromkeys(sm.poset.elements, rng.choice([2, True])))
        fn, cmp = list(seen)[trial % len(seen)]
        # The aggregate of a random global state, or near it.
        frontier = rng.choice(list(lattice._frontiers(sm)))
        values = [sm.attrs[chain[k]]["x"] for chain, k in zip(sm.chains, frontier)]
        value = sum(values) if fn == "sum" else sum(map(bool, values))
        pred = And((AggCmp(fn, "x", cmp, value + rng.choice([0, 0, -1, 1])),))
        result, fell_back = compare(sm, pred, caplog, monkeypatch)
        assert not fell_back
        seen[fn, cmp].add(result > 0)
    assert all(both == {False, True} for both in seen.values()), seen


def test_untouched_chains_rule_blocks_out(caplog, monkeypatch):
    """At small block bounds most blocks leave chains untouched, and a local
    clause on such a chain rules whole blocks out of the count."""
    caplog.set_level(logging.INFO)
    rng = random.Random(2620)
    ruled_out = 0
    for trial in range(200):
        monkeypatch.setattr(lattice, "_BLOCK", [1, 3][trial % 2])
        sm = random_model(rng, "shared")
        pred = random_block_predicate(rng, sm)
        result, fell_back = compare(sm, pred, caplog, monkeypatch)
        assert not fell_back
        locals_ = [c for c in analysis._conjuncts(pred) or () if isinstance(c, (AttrCmp, IndexCmp))]
        fixed_fails = False
        for _, _, base, touched in walk_blocks(sm):
            for clause in locals_:
                i = clause.proc - 1
                if i not in touched:
                    column = clause.column(sm)
                    fixed_fails |= not column[base[i]][0]
        ruled_out += fixed_fails
    assert ruled_out >= 40, ruled_out


# --- the CLI --------------------------------------------------------------------


def cli_answer(argv, capsys, caplog):
    caplog.clear()
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def test_cli_count_is_byte_identical(tmp_path, capsys, caplog, monkeypatch):
    """``analyze predicate --count`` prints the same bytes and logs the same
    records by either path, warnings, zero counts and errors included."""
    caplog.set_level(logging.INFO)
    rng = random.Random(2630)
    model, pred_path = tmp_path / "model.json", tmp_path / "pred.json"
    argv = ["analyze", "predicate", "--model", str(model), "--pred", str(pred_path), "--count"]
    warned = 0
    for trial in range(300):
        sm = random_model(rng, MODEL_KINDS[trial % len(MODEL_KINDS)])
        pred = random_block_predicate(rng, sm)
        if trial % 2:
            _, pred, sm = random_fallback(rng, sm, pred)
        model.write_text(json.dumps(state_to_json(sm)))
        pred_path.write_text(json.dumps({"kind": "predicate", "version": 1, "expr": pred.as_json()}))
        got = cli_answer(argv, capsys, caplog)
        with monkeypatch.context() as m:
            m.setattr(analysis, "count_width_predicate", per_vector_count)
            want = cli_answer(argv, capsys, caplog)
        assert got == want, pred
        warned += '"warnings"' in got[1]
    assert warned >= 10, warned


# --- const in a conjunction -----------------------------------------------------


def test_const_conjuncts_take_the_direct_paths(tmp_path, capsys, caplog, monkeypatch):
    """``const true`` is dropped from a conjunction and ``const false`` means
    no match: ``--first`` takes Garg-Waldecker and ``--count`` the blocks,
    and both print the bytes the enumeration printed."""
    caplog.set_level(logging.INFO)
    rng = random.Random(2640)
    model, pred_path = tmp_path / "model.json", tmp_path / "pred.json"
    direct = {True: 0, False: 0}
    for trial in range(200):
        sm = random_model(rng, MODEL_KINDS[trial % len(MODEL_KINDS)])
        value = trial % 2 == 0
        args = [random_local(rng, sm) for _ in range(rng.randint(0, 2) if sm.n else 0)]
        args.insert(rng.randint(0, len(args)), Const(value))
        pred = And(tuple(args)) if rng.random() < 0.8 else And((And(tuple(args)),))
        clauses = analysis._conjuncts(pred)
        assert clauses is not None and analysis._admissible_states(sm, clauses) is not None
        _, fell_back = compare(sm, pred, caplog, monkeypatch)
        assert not fell_back
        model.write_text(json.dumps(state_to_json(sm)))
        pred_path.write_text(json.dumps({"kind": "predicate", "version": 1, "expr": pred.as_json()}))
        for mode in ("--first", "--count"):
            argv = ["analyze", "predicate", "--model", str(model), "--pred", str(pred_path), mode]
            got = cli_answer(argv, capsys, caplog)
            with monkeypatch.context() as m:
                m.setattr(analysis, "first_width_predicate", enumerated_first)
                m.setattr(analysis, "count_width_predicate", per_vector_count)
                want = cli_answer(argv, capsys, caplog)
            assert got == want, (mode, pred)
            assert value or got[0] != 0 or '"found": null' in got[1] or '"count": 0' in got[1]
        direct[value] += got[0] == 0
    assert min(direct.values()) >= 70, direct


def enumerated_first(sm, pred, warnings=None):
    """The first match as the CLI found it before ``const`` conjuncts were
    dropped: the first of the enumeration."""
    return next(analysis.detect_width_predicate(sm, pred, warnings), None)


# --- the fact -------------------------------------------------------------------


def walk_blocks(sm):
    """Per block of the frontier walk of *sm*'s minimum view: its ``avail``,
    its images as vectors, its image's vector, and per chain that has an
    event in ``avail`` the lowest slot of those events, read off the reverse
    transform as the walk builds it."""
    view = require_width_extensible(sm)
    vector, blocks = lattice._frontier_walk(view)
    m = se_transform(view).event_model
    events = [m.poset.elements[v] for v in m.poset._order]

    def unpack(image):
        return vector.unpack(image.to_bytes(vector.size, "little"))

    for avail, image, (packed, count) in blocks:
        slots = [m.labels[events[q]] for q in range(len(events)) if avail >> q & 1]
        touched = {}
        for i, k in itertools.chain.from_iterable(slots):
            touched[i - 1] = min(k, touched.get(i - 1, k))
        vectors = list(vector.iter_unpack(lattice._block_bytes(image, packed, count, vector.size)))
        yield avail, vectors, unpack(image), touched


def test_touched_chains_depend_on_avail_alone(bound):
    """Two frames with the same ``avail`` give the same touched-chain fields
    in every image, a touched chain sits below its lowest event in
    ``avail``, and an untouched chain keeps the frame image's state."""
    rng = random.Random(2650 + bound)
    repeated = untouched = 0
    for _ in range(150):
        m = random_event_model(rng, max_procs=5, max_events_per_proc=6, max_messages=6)
        sm = es_transform(m)
        seen = {}
        for avail, vectors, base, touched in walk_blocks(sm):
            for i, lowest in touched.items():
                assert base[i] == lowest - 1
            fields = [tuple(v[i] for i in sorted(touched)) for v in vectors]
            for v in vectors:
                for i in range(sm.n):
                    if i not in touched:
                        assert v[i] == base[i]
            untouched += len(touched) < sm.n
            if avail in seen:
                assert seen[avail] == fields
                repeated += 1
            seen[avail] = fields
    # At the default bound few random models have frames to split.
    floor = 1000 if bound < BOUNDS[-1] else 1
    assert repeated >= floor and untouched >= floor, (repeated, untouched)
