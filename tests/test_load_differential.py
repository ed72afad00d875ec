"""The load path against the element-at-a-time code it replaced.

The reference functions transcribe the earlier implementations: the trace
schema checks with one generator, set difference or sort per entry, a
``build_poset`` that walks bitsets of direct successors and checks every
input pair, duplicates included, and model validators that ask
``Poset.less`` about each pair of neighbours on a chain.  Posets (with
their upper-cover index lists and stored linear extension), models, exception classes
and messages must agree exactly, on valid inputs and on inputs broken in the
ways the checks look for.
"""

import copy
import json
import random
import heapq
from collections import Counter

import pytest

from posetdual import build_event_model, build_poset, build_state_model, eventmodel
from posetdual.errors import (
    CycleError,
    EmptyProcess,
    IndexGap,
    ModelError,
    NotTotallyOrdered,
    SchemaError,
    UnknownElement,
)
from posetdual.poset import Poset, is_downset
from posetdual.traces import (
    event_to_json,
    parse_event,
    parse_poset,
    parse_state,
    state_to_json,
)
from posetdual.transforms import es_transform

import reference
from builders import random_chain_poset, random_event_model


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset_parts_reference(elements, relation_pairs):
    """The fields the poset stored when it kept its order four times: the
    elements, up-sets, down-sets, sorted cover tuple, upper-cover lists and
    a topological order, now Kahn's with the lowest ready index first."""
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    n = len(els)
    adj = [0] * n
    indeg = [0] * n
    for a, b in relation_pairs:
        if a not in index:
            raise UnknownElement(f"relation names undeclared element {a!r}")
        if b not in index:
            raise UnknownElement(f"relation names undeclared element {b!r}")
        if a == b:
            raise CycleError(f"reflexive pair {a!r} -> {b!r} is not allowed")
        ia, ib = index[a], index[b]
        if not adj[ia] >> ib & 1:
            adj[ia] |= 1 << ib
            indeg[ib] += 1
    order = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in _bits(adj[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != n:
        cyclic = sorted(els[i] for i in range(n) if indeg[i] > 0)
        raise CycleError(f"relation has a cycle through {cyclic}")
    up = [0] * n
    cover = [0] * n
    for v in reversed(order):
        above_succ = 0
        for w in _bits(adj[v]):
            above_succ |= up[w]
        up[v] = adj[v] | above_succ
        cover[v] = adj[v] & ~above_succ
    down = [0] * n
    for v in order:
        below = down[v] | 1 << v
        for w in _bits(cover[v]):
            down[w] |= below
    covers = tuple((els[v], els[w]) for v in range(n) for w in _bits(cover[v]))
    upper = [list(_bits(cover[v])) for v in range(n)]
    return els, tuple(up), down, covers, upper, order


def build_poset_reference(elements, relation_pairs):
    els, up, _, _, upper, order = build_poset_parts_reference(elements, relation_pairs)
    return Poset(els, up, upper, order)


def build_state_model_reference(poset, chains, attrs=None):
    chs = tuple(tuple(c) for c in chains)
    seen = set()
    for i, chain in enumerate(chs, start=1):
        if not chain:
            raise ModelError(f"chain {i} is empty; every process has an initial state")
        for s in chain:
            if s not in poset:
                raise UnknownElement(f"chain {i} names unknown state {s!r}")
            if s in seen:
                raise ModelError(f"state {s!r} appears on more than one chain")
            seen.add(s)
        for a, b in zip(chain, chain[1:]):
            if not poset.less(a, b):
                raise NotTotallyOrdered(
                    i, f"chain {i} is not ascending at {a!r} -> {b!r}"
                )
    if len(seen) != len(poset.elements):
        missing = sorted(set(poset.elements) - seen)
        raise ModelError(f"states {missing} are not assigned to any chain")
    bad_attrs = sorted(set(attrs or ()) - seen)
    if bad_attrs:
        raise UnknownElement(f"attrs reference unknown states {bad_attrs}")
    return poset, chs, dict(attrs or {})


def build_event_model_reference(poset, n, labels, *, allow_empty_process=False):
    if n < 0:
        raise ModelError("process count must be non-negative")
    norm = {}
    for e in poset.elements:
        if e not in labels:
            raise ModelError(f"event {e!r} has no label")
        slots = frozenset((int(i), int(k)) for i, k in labels[e])
        if not slots:
            raise ModelError(f"event {e!r} has an empty label set")
        procs = [i for i, _ in slots]
        if len(procs) != len(set(procs)):
            raise ModelError(f"event {e!r} carries two slots on one process")
        for i, k in slots:
            if not 1 <= i <= n:
                raise ModelError(f"event {e!r} labeled with unknown process {i}")
            if k < 1:
                raise IndexGap(i, f"event {e!r} has non-positive index {k}")
        norm[e] = slots
    for e in labels:
        if e not in poset:
            raise UnknownElement(f"label for undeclared event {e!r}")
    per_proc = {}
    for e, slots in norm.items():
        for i, k in slots:
            per_proc.setdefault(i, []).append((k, e))
    chains = []
    for i in range(1, n + 1):
        entries = sorted(per_proc.get(i, ()))
        if not entries:
            if not allow_empty_process:
                raise EmptyProcess(i)
            chains.append(())
            continue
        indices = [k for k, _ in entries]
        for (k1, e1), (k2, e2) in zip(entries, entries[1:]):
            if k1 == k2:
                if poset.less(e1, e2) or poset.less(e2, e1):
                    raise IndexGap(i, f"process {i} repeats index {k1}")
                raise NotTotallyOrdered(i)
        if indices != list(range(1, len(entries) + 1)):
            raise IndexGap(i, f"process {i} indices {indices} are not 1..n_i")
        ordered = [e for _, e in entries]
        for a, b in zip(ordered, ordered[1:]):
            if not poset.less(a, b):
                if poset.less(b, a):
                    raise IndexGap(
                        i, f"process {i} index order contradicts causal order"
                    )
                raise NotTotallyOrdered(i)
        chains.append(tuple(ordered))
    return poset, n, norm, tuple(chains)


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _string_list(value, what):
    _require(isinstance(value, list), f"{what} must be a list")
    _require(all(isinstance(v, str) for v in value), f"{what} entries must be strings")
    return value


def _pair_list(value, what):
    _require(isinstance(value, list), f"{what} must be a list")
    out = []
    for entry in value:
        _require(
            isinstance(entry, list) and len(entry) == 2
            and all(isinstance(v, str) for v in entry),
            f"{what} entries must be [from, to] string pairs",
        )
        out.append((entry[0], entry[1]))
    return out


def _element_list(data):
    elements = _string_list(data.get("elements", []), "'elements'")
    dupes = sorted(e for e, count in Counter(elements).items() if count > 1)
    _require(not dupes, f"duplicate element ids {dupes}")
    return elements


def _chain_lists(value):
    _require(isinstance(value, list), "'chains' must be a list")
    return [_string_list(c, "chain") for c in value]


def parse_poset_reference(data):
    elements = _element_list(data)
    relations = _pair_list(data.get("relations", []), "'relations'")
    chains = _chain_lists(data["chains"]) if "chains" in data else None
    poset = build_poset_reference(elements, relations)
    if chains is not None:
        build_state_model_reference(poset, chains)
    return poset


def parse_state_reference(data):
    _require("chains" in data, "state traces require 'chains'")
    elements = _element_list(data)
    relations = _pair_list(data.get("relations", []), "'relations'")
    chains = _chain_lists(data["chains"])
    for chain in chains:
        relations.extend(zip(chain, chain[1:]))
    attrs = data.get("attrs", {})
    _require(isinstance(attrs, dict), "'attrs' must map state ids to objects")
    for state, mapping in attrs.items():
        _require(isinstance(state, str), "'attrs' keys must be state ids")
        _require(isinstance(mapping, dict), f"attrs for {state!r} must be an object")
    poset = build_poset_reference(elements, relations)
    return build_state_model_reference(poset, chains, attrs)


def parse_event_reference(data):
    _require("n" in data, "event traces require 'n'")
    n = data["n"]
    _require(_is_int(n) and n >= 0, "'n' must be a non-negative integer")
    raw_events = data.get("events", [])
    _require(isinstance(raw_events, list), "'events' must be a list")
    labels = {}
    per_proc = {}
    for entry in raw_events:
        _require(isinstance(entry, dict), "event entries must be objects")
        unknown = sorted(set(entry) - {"id", "slots"})
        _require(not unknown, f"unknown event fields {unknown}")
        eid = entry.get("id")
        _require(isinstance(eid, str), "event 'id' must be a string")
        _require(eid not in labels, f"duplicate event id {eid!r}")
        slots = entry.get("slots")
        _require(isinstance(slots, list) and slots, f"event {eid!r} needs slots")
        parsed = set()
        for slot in slots:
            _require(isinstance(slot, dict), "slots must be objects")
            bad = sorted(set(slot) - {"proc", "idx"})
            _require(not bad, f"unknown slot fields {bad}")
            proc, idx = slot.get("proc"), slot.get("idx")
            _require(
                _is_int(proc) and _is_int(idx),
                "slot 'proc' and 'idx' must be integers",
            )
            parsed.add((proc, idx))
            per_proc.setdefault(proc, []).append((idx, eid))
        labels[eid] = parsed
    edges = _pair_list(data.get("edges", []), "'edges'")
    twice = {
        proc for slots in labels.values() for proc, _ in slots
        if [i for i, _ in slots].count(proc) > 1
    }
    for proc, entries in per_proc.items():
        entries.sort()
        if proc in twice:
            continue
        for (k1, e1), (k2, e2) in zip(entries, entries[1:]):
            if k1 < k2:
                edges.append((e1, e2))
    allow_empty = data.get("allow_empty_process", False)
    _require(isinstance(allow_empty, bool), "'allow_empty_process' must be a boolean")
    poset = build_poset_reference(labels.keys(), edges)
    return build_event_model_reference(
        poset, n, labels, allow_empty_process=allow_empty
    )


def poset_key(p):
    return p.elements, p._up, p._upper, p._order, p._index, p.covers


def outcome(fn, *args, **kwargs):
    """What a call returns, or the class, message and process of its error."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the comparison is the point, whatever it is
        return "error", type(exc), str(exc), getattr(exc, "process", None)
    if isinstance(result, Poset):
        return "poset", poset_key(result)
    if hasattr(result, "chains"):  # StateModel
        return "state", poset_key(result.poset), result.chains, result.attrs
    if hasattr(result, "proc_events"):  # EventModel
        return (
            "event", poset_key(result.poset), result.n, dict(result.labels),
            result.proc_events,
        )
    if len(result) == 3:  # the state reference's (poset, chains, attrs)
        return "state", poset_key(result[0]), result[1], result[2]
    poset, n, labels, chains = result
    return "event", poset_key(poset), n, labels, chains


def random_relation(rng):
    """Elements and a shuffled relation with duplicate and implied pairs."""
    p, _ = random_chain_poset(
        rng, max_elems=rng.choice([6, 12, 24]), max_chains=rng.choice([2, 4])
    )
    closure = list(p.closure_pairs())
    pairs = list(p.covers) + rng.sample(closure, len(closure) // 2)
    pairs += rng.sample(pairs, len(pairs) // 3)
    rng.shuffle(pairs)
    return list(p.elements), pairs, closure


def as_container(rng, pairs):
    """The same pairs as tuples, lists, a mix of both, or a generator."""
    kind = rng.randrange(4)
    if kind == 0:
        return list(pairs)
    if kind == 1:
        return [list(pair) for pair in pairs]
    if kind == 2:
        return tuple(pair if rng.random() < 0.5 else list(pair) for pair in pairs)
    return (pair for pair in list(pairs))


def break_relation(rng, elements, pairs, closure):
    """Insert one to three bad pairs, some repeated, at random positions."""
    pairs = list(pairs)
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(elements)
        kind = rng.randrange(4)
        if kind == 0:
            bad = (f"ghost{rng.randrange(3)}", e)
        elif kind == 1:
            bad = (e, f"ghost{rng.randrange(3)}")
        elif kind == 2:
            bad = (e, e)
        elif closure:
            a, b = rng.choice(closure)
            bad = (b, a)
        else:
            bad = (e, e)
        pairs.insert(rng.randint(0, len(pairs)), bad)
        if rng.random() < 0.5:
            pairs.insert(rng.randint(0, len(pairs)), bad)
    return pairs


def test_build_poset_equals_reference_on_valid_relations():
    rng = random.Random(1972)
    for _ in range(1500):
        elements, pairs, _ = random_relation(rng)
        rng.shuffle(elements)
        expected = outcome(build_poset_reference, elements, pairs)
        assert expected[0] == "poset"
        assert outcome(build_poset, elements, as_container(rng, pairs)) == expected


def test_stored_order_and_down_readers_equal_definitions():
    """One linear extension, no down-sets: the stored order is the least
    one, and what used to be read off the down-sets and the stored cover
    tuple follows from ``less``."""
    rng = random.Random(1977)
    for _ in range(600):
        elements, pairs, _ = random_relation(rng)
        p = build_poset(elements, pairs)
        els = p.elements
        assert [els[v] for v in p._order] == reference.linear_extension(p)
        _, _, down, covers, _, _ = build_poset_parts_reference(elements, pairs)
        assert p.covers == covers
        below = {e: {f for f in els if p.less(f, e)} for e in els}
        for e, d in zip(els, down):
            assert p.down_mask(e) == d == p.set_to_mask(below[e])
        assert p.minimal_elements() == tuple(e for e in els if not below[e])
        for _ in range(4):
            subset = set(rng.sample(els, rng.randint(0, len(els))))
            closed = subset.union(*(below[e] for e in subset))
            for s in (subset, closed):
                assert is_downset(p, s) == all(below[e] <= s for e in s)
            assert is_downset(p, closed)


RELATION_FAULTS = ("undeclared element", "reflexive pair", "cycle through")


def test_build_poset_errors_equal_reference():
    rng = random.Random(1973)
    seen = Counter()
    for _ in range(2000):
        elements, pairs, closure = random_relation(rng)
        pairs = break_relation(rng, elements, pairs, closure)
        expected = outcome(build_poset_reference, elements, pairs)
        got = outcome(build_poset, elements, as_container(rng, pairs))
        assert got == expected, pairs
        seen.update(f for f in RELATION_FAULTS if f in expected[2])
    # Unknown names, reflexive pairs and cycles must all be compared often.
    assert min(seen[f] for f in RELATION_FAULTS) >= 150, seen


def test_first_bad_pair_after_a_duplicate_wins():
    elements = ["a", "b", "c"]
    pairs = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "zz"), ("yy", "a"), ("c", "zz")]
    for given in (pairs, [list(p) for p in pairs], iter(pairs)):
        with pytest.raises(UnknownElement, match="'zz'"):
            build_poset(elements, given)
    pairs = [("a", "b"), ("a", "b"), ("b", "b"), ("c", "zz"), ("b", "b")]
    assert outcome(build_poset, elements, pairs) == outcome(
        build_poset_reference, elements, pairs
    )
    with pytest.raises(CycleError, match="reflexive pair 'b' -> 'b'"):
        build_poset(elements, pairs)


def break_chains(rng, p, chains):
    """Chains with one to two of the faults the validator looks for."""
    chains = [list(c) for c in chains]
    attrs = {s: {"x": 1} for s in rng.sample(list(p.elements), min(2, len(p)))}
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(7)
        c = rng.choice(chains)
        if kind == 0 and len(c) >= 2:  # not ascending
            i, j = sorted(rng.sample(range(len(c)), 2))
            c[i], c[j] = c[j], c[i]
        elif kind == 1:  # a state moved to another chain
            src = rng.choice(chains)
            if src:
                c.insert(rng.randint(0, len(c)), src.pop(rng.randrange(len(src))))
        elif kind == 2 and p.elements:  # a state on two chains, or twice on one
            c.insert(rng.randint(0, len(c)), rng.choice(p.elements))
        elif kind == 3:
            c.insert(rng.randint(0, len(c)), "ghost")
        elif kind == 4:
            chains.insert(rng.randint(0, len(chains)), [])
        elif kind == 5 and c:  # a state on no chain
            c.pop(rng.randrange(len(c)))
        else:
            attrs["ghost"] = {}
    return chains, attrs


def test_state_model_validation_equals_reference():
    rng = random.Random(1974)
    seen = Counter()
    for trial in range(2000):
        if trial % 3:
            p, chains = random_chain_poset(rng, max_elems=14, max_chains=4)
        else:
            sm = es_transform(random_event_model(rng, max_events_per_proc=5))
            p, chains = sm.poset, sm.chains
        if trial % 5:
            chains, attrs = break_chains(rng, p, chains)
        else:
            attrs = {s: {"x": 1} for s in p.elements[:2]}
        expected = outcome(build_state_model_reference, p, chains, attrs)
        assert outcome(build_state_model, p, chains, attrs) == expected, chains
        seen[expected[1].__name__ if expected[0] == "error" else "ok"] += 1
    assert min(seen[k] for k in ("ok", "ModelError", "UnknownElement")) >= 100, seen
    assert seen["NotTotallyOrdered"] >= 200, seen


def break_labels(rng, m, n):
    """Labels of a valid event model with one to two indexing faults."""
    labels = {e: set(slots) for e, slots in m.labels.items()}
    events = list(labels)
    for _ in range(rng.randint(1, 2)):
        left = [e for e in events if e in labels]
        if not left:
            break
        e = rng.choice(left)
        i, k = rng.choice(sorted(labels[e]))
        kind = rng.randrange(8)
        on_proc = m.proc_events[i - 1] if i <= m.n else ()
        peers = [f for f in on_proc if f != e and f in labels]
        if kind == 0 and peers:  # repeated index
            other = rng.choice(peers)
            labels[e] = {s for s in labels[e] if s[0] != i} | {
                s for s in labels[other] if s[0] == i
            }
        elif kind == 1:  # a gap
            for f, slots in labels.items():
                labels[f] = {
                    (j, x + 1 if j == i and (x > k or f == e and x == k) else x)
                    for j, x in slots
                }
        elif kind == 2 and peers:  # order against causality
            f = rng.choice(peers)
            kf = next(x for j, x in labels[f] if j == i)
            labels[e] = {(j, kf if j == i else x) for j, x in labels[e]}
            labels[f] = {(j, k if j == i else x) for j, x in labels[f]}
        elif kind == 3:
            labels[e] = {(j, 0 if j == i else x) for j, x in labels[e]}
        elif kind == 4:
            labels[e] = labels[e] | {(n + 1, 1)}
        elif kind == 5:
            labels[e] = labels[e] | {(i, k + 100)}
        elif kind == 6:
            labels["ghost"] = {(1, 1)}
        else:
            del labels[e]
    return labels


def unchained_poset(rng, m):
    """The model's poset without one process's chain edges: some of its
    events may become concurrent."""
    drop = rng.randrange(m.n)
    chain = m.proc_events[drop]
    dropped = set(zip(chain, chain[1:]))
    kept = [c for c in m.poset.covers if c not in dropped]
    return build_poset(m.poset.elements, kept)


def parsed_slot_lists(rng, labels):
    """The labels' slots as the loader lists them for ``build_event_model``:
    per process, one ``(index, event)`` per listed slot, sorted; now and then
    a slot is listed twice, as a document may list it."""
    per_proc = {}
    for e, slots in labels.items():
        for i, k in slots:
            for _ in range(1 + (rng.random() < 0.05)):
                per_proc.setdefault(i, []).append((k, e))
    for entries in per_proc.values():
        entries.sort()
    return per_proc


INDEX_FAULTS = ("repeats index", "are not 1..n_i", "contradicts causal order")
SLOT_FAULTS = ("two slots on one process", "unknown process", "non-positive index")


def test_event_model_validation_equals_reference():
    rng = random.Random(1975)
    seen = Counter()
    for trial in range(2000):
        m = random_event_model(rng, max_events_per_proc=5)
        n = m.n + (trial % 7 == 0)
        # Valid, causally broken, broken in its indices, or both.
        poset = unchained_poset(rng, m) if trial % 4 in (0, 3) else m.poset
        labels = break_labels(rng, m, n) if trial % 4 >= 2 else dict(m.labels)
        allow = trial % 5 == 0
        expected = outcome(
            build_event_model_reference, poset, n, labels, allow_empty_process=allow
        )
        got = outcome(build_event_model, poset, n, labels, allow_empty_process=allow)
        assert got == expected, (labels, poset.covers)
        # The loader's path, for labels a loaded document can have: exactly
        # the poset's events, each with a nonempty set of int pairs.
        if set(labels) == set(poset.elements) and all(labels.values()):
            per_proc = parsed_slot_lists(rng, labels)
            fast = eventmodel._slots_pass(n, per_proc)
            got = outcome(
                build_event_model, poset, n, labels,
                allow_empty_process=allow, _per_proc=per_proc,
            )
            assert got == expected, (labels, per_proc, poset.covers)
            seen["loader path, slots pass" if fast else "loader path, slots fail"] += 1
        seen[expected[1].__name__ if expected[0] == "error" else "ok"] += 1
        if expected[0] == "error":
            seen.update(f for f in INDEX_FAULTS + SLOT_FAULTS if f in expected[2])
    assert min(seen[k] for k in ("ok", "IndexGap", "NotTotallyOrdered", "ModelError")) >= 100, seen
    assert min(seen[k] for k in INDEX_FAULTS + SLOT_FAULTS) >= 30, seen
    assert seen["EmptyProcess"] >= 20, seen
    assert min(seen["loader path, slots pass"], seen["loader path, slots fail"]) >= 300, seen


def mutate_document(rng, data, depth=0):
    """A copy of a trace document with one random part replaced or removed."""
    junk = [None, True, 0, -1, 1.5, "x", "", [], {}, ["a"], ["a", "b", "c"],
            [1, 2], {"proc": 1}, {"id": "x"}, [[]], [["a", 1]]]
    if isinstance(data, dict) and data:
        key = rng.choice(sorted(data))
        if depth and rng.random() < 0.2:
            del data[key]
        elif rng.random() < 0.3:
            data[rng.choice(["id", "slots", "proc", "idx", "extra"])] = rng.choice(junk)
        elif rng.random() < 0.6 and isinstance(data[key], (list, dict)) and data[key]:
            mutate_document(rng, data[key], depth + 1)
        else:
            data[key] = rng.choice(junk)
    elif isinstance(data, list) and data:
        i = rng.randrange(len(data))
        r = rng.random()
        if r < 0.2:
            data.insert(rng.randrange(len(data) + 1), copy.deepcopy(data[i]))
        elif r < 0.55 and isinstance(data[i], (list, dict)) and data[i]:
            mutate_document(rng, data[i], depth + 1)
        else:
            data[i] = rng.choice(junk)
    return data


def extend_event_entry(rng, events):
    """Give one event entry, or one of its slots, a field of its own."""
    entry = rng.choice(events)
    if isinstance(entry, dict):
        slots = entry.get("slots")
        if rng.random() < 0.5 and isinstance(slots, list) and slots:
            entry = rng.choice(slots)
        if isinstance(entry, dict):
            entry[rng.choice(["extra", "id", "idx", "proc", "slots", "kind"])] = 1


def break_event_slot(rng, events):
    """Move one listed slot to a bad process or index, list it twice, or
    give its event a second slot on the same process."""
    entries = [
        e for e in events
        if isinstance(e, dict) and isinstance(e.get("slots"), list) and e["slots"]
    ]
    if not entries:
        return
    entry = rng.choice(entries)
    slot = rng.choice(entry["slots"])
    if not isinstance(slot, dict):
        return
    kind = rng.randrange(4)
    if kind == 0:
        slot["proc"] = rng.choice([0, -1, 99])
    elif kind == 1:
        slot["idx"] = rng.choice([0, -2])
    elif kind == 2:
        entry["slots"].append(dict(slot))
    elif isinstance(slot.get("idx"), int):
        entry["slots"].append(dict(slot, idx=slot["idx"] + 50))


def random_documents(rng, fixtures_dir):
    docs = []
    for path in sorted(fixtures_dir.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and data.get("kind") in ("poset", "state", "event"):
            docs.append(data)
    for _ in range(20):
        m = random_event_model(rng, max_events_per_proc=4)
        docs.append(event_to_json(m))
        docs.append(state_to_json(es_transform(m)))
        p, chains = random_chain_poset(rng, max_elems=10, max_chains=3)
        poset_doc = {"kind": "poset", "version": 1, "elements": list(p.elements),
                     "relations": [list(c) for c in p.covers]}
        docs.append(poset_doc)
        docs.append(dict(poset_doc, chains=[list(c) for c in chains]))
    return docs


PARSERS = {
    "poset": (parse_poset, parse_poset_reference),
    "state": (parse_state, parse_state_reference),
    "event": (parse_event, parse_event_reference),
}


def test_trace_parsing_equals_reference(fixtures_dir):
    rng = random.Random(1976)
    docs = random_documents(rng, fixtures_dir)
    kinds = Counter(d["kind"] for d in docs)
    assert min(kinds.values()) >= 20, kinds
    seen = Counter()
    for trial in range(4000):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(0, 3)):
            mutate_document(rng, doc)
        if trial % 4 == 0 and isinstance(doc.get("events"), list) and doc["events"]:
            extend_event_entry(rng, doc["events"])
        if trial % 2 and isinstance(doc.get("events"), list):
            break_event_slot(rng, doc["events"])
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in PARSERS:
            continue
        parse, reference = PARSERS[kind]
        expected = outcome(reference, copy.deepcopy(doc))
        assert outcome(parse, doc) == expected, doc
        seen[expected[1].__name__ if expected[0] == "error" else "ok"] += 1
        if expected[0] == "error":
            seen.update(f for f in SLOT_FAULTS if f in expected[2])
    assert seen["ok"] >= 200 and seen["SchemaError"] >= 1000, seen
    # A second slot on one process gives that process no chain edges, so the
    # model's check names it instead of a cycle through the event.
    assert min(seen[f] for f in SLOT_FAULTS) >= 20, seen
    assert seen["UnknownElement"] + seen["ModelError"] + seen["CycleError"] >= 100, seen
