"""Model builders shared by the test suite and the fixture corpus.

The small named models double as the on-disk fixture corpus (see
tests/test_traces_cli.py, which asserts the JSON files stay in sync), and the
random generators feed the property/acceptance suites; :func:`renamed` gives
a model ids of a chosen alphabet.  The model families at the end feed the
differential tests of the tentative graph, its components, the clocks, the
checkpoint engines, the matching and the property checks against
``tests/reference.py``; each family's docstring names the kinds of model it
draws and the floors its differentials assert on them.
"""

from __future__ import annotations

import random

from posetdual import (
    EventModel,
    Poset,
    StateModel,
    build_event_model,
    build_poset,
    build_state_model,
    es_transform,
)
from posetdual.analysis import (
    AggCmp,
    And,
    AttrCmp,
    CheckpointMarking,
    Predicate,
)


# --- two processes exchanging one message -------------------------------

def message_pair_event() -> EventModel:
    """P1 runs a,b,c and P2 runs e,f,g; b sends a message received by f."""
    p = build_poset(
        ["a", "b", "c", "e", "f", "g"],
        [("a", "b"), ("b", "c"), ("e", "f"), ("f", "g"), ("b", "f")],
    )
    labels = {
        "a": {(1, 1)}, "b": {(1, 2)}, "c": {(1, 3)},
        "e": {(2, 1)}, "f": {(2, 2)}, "g": {(2, 3)},
    }
    return build_event_model(p, 2, labels)


#: the twelve consistent cuts of the message-pair run, in containment order
MESSAGE_PAIR_CUTS = [
    set(), {"a"}, {"e"}, {"a", "b"}, {"a", "e"}, {"a", "b", "c"},
    {"a", "b", "e"}, {"a", "b", "c", "e"}, {"a", "b", "e", "f"},
    {"a", "b", "c", "e", "f"}, {"a", "b", "e", "f", "g"},
    {"a", "b", "c", "e", "f", "g"},
]

#: the matching twelve maximum antichains of the state view, same order
MESSAGE_PAIR_ANTICHAINS = [
    {"a0", "e0"}, {"a'", "e0"}, {"a0", "e'"}, {"b'", "e0"}, {"a'", "e'"},
    {"c'", "e0"}, {"b'", "e'"}, {"c'", "e'"}, {"b'", "f'"}, {"c'", "f'"},
    {"b'", "g'"}, {"c'", "g'"},
]


def message_pair_state() -> StateModel:
    """State view of the message-pair run, with primed state names."""
    chains = [["a0", "a'", "b'", "c'"], ["e0", "e'", "f'", "g'"]]
    relations = [("a'", "f'")]
    for chain in chains:
        relations.extend(zip(chain, chain[1:]))
    p = build_poset([s for c in chains for s in c], relations)
    return build_state_model(p, chains)


def indexed_pair_event() -> EventModel:
    """The message-pair run with positional event names e<i>.<k>."""
    ids = [f"e{i}.{k}" for i in (1, 2) for k in (1, 2, 3)]
    rel = [(f"e{i}.{k}", f"e{i}.{k + 1}") for i in (1, 2) for k in (1, 2)]
    rel.append(("e1.2", "e2.2"))
    p = build_poset(ids, rel)
    labels = {f"e{i}.{k}": {(i, k)} for i in (1, 2) for k in (1, 2, 3)}
    return build_event_model(p, 2, labels)


# --- two processes synchronizing on a barrier ----------------------------

def barrier_event() -> EventModel:
    """P1 and P2 each do one op, meet at a shared barrier event, then one op."""
    shared = "shared(1.2,2.2)"
    ids = ["e1.1", shared, "e1.3", "e2.1", "e2.3"]
    rel = [("e1.1", shared), (shared, "e1.3"), ("e2.1", shared), (shared, "e2.3")]
    p = build_poset(ids, rel)
    labels = {
        "e1.1": {(1, 1)}, shared: {(1, 2), (2, 2)}, "e1.3": {(1, 3)},
        "e2.1": {(2, 1)}, "e2.3": {(2, 3)},
    }
    return build_event_model(p, 2, labels)


def barrier_state() -> StateModel:
    return es_transform(barrier_event())


# --- posets that model no computation ------------------------------------

def pinch_poset() -> Poset:
    """Five elements where b is pinched between both chains."""
    return build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("d", "e"), ("d", "b"), ("b", "e")],
    )


def pinch_state() -> StateModel:
    return build_state_model(pinch_poset(), [["a", "b", "c"], ["d", "e"]])


def triple_pinch_poset() -> Poset:
    """Three 3-chains with b->f and e->i; singletons extend but {b,i} does not."""
    return build_poset(
        list("abcdefghi"),
        [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"),
         ("g", "h"), ("h", "i"), ("b", "f"), ("e", "i")],
    )


def triple_pinch_state() -> StateModel:
    return build_state_model(
        triple_pinch_poset(), [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]]
    )


# --- checkpointing -------------------------------------------------------

def zigzag_event() -> EventModel:
    """P2 sends m1 before P1's middle checkpoint; P1 answers m2 after it."""
    p = build_poset(
        ["r1", "s2", "s1", "r2", "l2"],
        [("r1", "s2"), ("s1", "r2"), ("r2", "l2"), ("s1", "r1"), ("s2", "r2")],
    )
    labels = {
        "r1": {(1, 1)}, "s2": {(1, 2)},
        "s1": {(2, 1)}, "r2": {(2, 2)}, "l2": {(2, 3)},
    }
    return build_event_model(p, 2, labels)


def zigzag_state() -> StateModel:
    return es_transform(zigzag_event())


def zigzag_marking() -> CheckpointMarking:
    # middle checkpoint of P1 sits between receiving m1 and sending m2
    return CheckpointMarking(((0, 1, 2), (0, 2, 3)))


def crossing_event() -> EventModel:
    """Three processes whose marked middle state on P1 is subtly useless.

    Its incomparable runs on both other chains are nonempty, but the only
    candidates are ordered against each other, so no global checkpoint
    contains it.
    """
    chain_edges = [
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
        ("b1", "b2"), ("b2", "b3"), ("c1", "c2"), ("c2", "c3"),
    ]
    msgs = [("b1", "a1"), ("c1", "a2"), ("b2", "c2"), ("a3", "b3"), ("a4", "c3")]
    p = build_poset(
        ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "c1", "c2", "c3"],
        chain_edges + msgs,
    )
    labels = {
        "a1": {(1, 1)}, "a2": {(1, 2)}, "a3": {(1, 3)}, "a4": {(1, 4)},
        "b1": {(2, 1)}, "b2": {(2, 2)}, "b3": {(2, 3)},
        "c1": {(3, 1)}, "c2": {(3, 2)}, "c3": {(3, 3)},
    }
    return build_event_model(p, 3, labels)


def crossing_marking() -> CheckpointMarking:
    return CheckpointMarking(((0, 2, 4), (0, 1, 3), (0, 2, 3)))


def restricted_model(sm: StateModel, marking: CheckpointMarking) -> StateModel:
    """*sm* restricted to the marked states, whose order it inherits."""
    chains = [
        [sm.state_at(i, k) for k in idxs]
        for i, idxs in enumerate(marking.marks, start=1)
    ]
    return build_state_model(sm.poset.restrict([s for c in chains for s in c]), chains)


# --- predicate fixtures ---------------------------------------------------

def sessions_model() -> StateModel:
    """Three workers with session/barrier/fork flags and a permit budget."""
    chain_edges = [
        ("w1a", "w1b"), ("w1b", "w1c"),
        ("w2a", "w2b"), ("w2b", "w2c"),
        ("w3a", "w3b"), ("w3b", "w3c"),
    ]
    msgs = [("w1a", "w2b"), ("w2a", "w3b")]
    p = build_poset(
        ["w1a", "w1b", "w1c", "w2a", "w2b", "w2c", "w3a", "w3b", "w3c"],
        chain_edges + msgs,
    )
    labels = {
        "w1a": {(1, 1)}, "w1b": {(1, 2)}, "w1c": {(1, 3)},
        "w2a": {(2, 1)}, "w2b": {(2, 2)}, "w2c": {(2, 3)},
        "w3a": {(3, 1)}, "w3b": {(3, 2)}, "w3c": {(3, 3)},
    }
    sm = es_transform(build_event_model(p, 3, labels))
    # per-state attributes, by (process, index)
    table = {
        (1, 0): dict(session=0, in_barrier=0, has_fork=0, permits=4),
        (1, 1): dict(session=1, in_barrier=0, has_fork=1, permits=3),
        (1, 2): dict(session=1, in_barrier=1, has_fork=1, permits=2),
        (1, 3): dict(session=1, in_barrier=1, has_fork=0, permits=2),
        (2, 0): dict(session=0, in_barrier=0, has_fork=0, permits=3),
        (2, 1): dict(session=1, in_barrier=0, has_fork=1, permits=2),
        (2, 2): dict(session=1, in_barrier=1, has_fork=1, permits=1),
        (2, 3): dict(session=1, in_barrier=1, has_fork=1, permits=0),
        (3, 0): dict(session=0, in_barrier=0, has_fork=0, permits=2),
        (3, 1): dict(session=1, in_barrier=0, has_fork=0, permits=2),
        (3, 2): dict(session=1, in_barrier=1, has_fork=1, permits=1),
        (3, 3): dict(session=1, in_barrier=1, has_fork=1, permits=1),
    }
    attrs = {sm.state_at(i, k): v for (i, k), v in table.items()}
    return build_state_model(sm.poset, sm.chains, attrs)


def barrier_predicate() -> Predicate:
    """Every worker has entered the barrier."""
    return And(tuple(AttrCmp(i, "in_barrier", "==", 1) for i in (1, 2, 3)))


def forks_predicate() -> Predicate:
    """Every worker holds a fork."""
    return And(tuple(AttrCmp(i, "has_fork", "==", 1) for i in (1, 2, 3)))


def permits_predicate(cap: int = 5) -> Predicate:
    """All sessions active and fewer than *cap* permits held in total."""
    sessions = tuple(AttrCmp(i, "session", "==", 1) for i in (1, 2, 3))
    return And(sessions + (AggCmp("sum", "permits", "<", cap),))


def down_sets(p: Poset) -> tuple[int, ...]:
    """Each element's strict down-set as a bitset, the transpose of the
    poset's up-sets (a poset stores no down-sets)."""
    n = len(p)
    down = [0] * n
    for i, above in enumerate(p._up):
        for j in range(n):
            if above >> j & 1:
                down[j] |= 1 << i
    return tuple(down)


# --- random generators ----------------------------------------------------

def random_chain_poset(
    rng: random.Random, max_elems: int = 12, max_chains: int = 4
) -> tuple[Poset, list[list[str]]]:
    """A random poset given with a chain partition (cover of chains)."""
    n = rng.randint(1, max_chains)
    total = rng.randint(n, max_elems)
    sizes = [1] * n
    for _ in range(total - n):
        sizes[rng.randrange(n)] += 1
    return _chain_poset(rng, sizes, 2 * n)


def _chain_poset(
    rng: random.Random, sizes: list[int], max_cross: int
) -> tuple[Poset, list[list[str]]]:
    """Chains ``i.0 .. i.(sizes[i-1]-1)`` and up to *max_cross* random cross
    relations, each forward in a random interleaving of the chains."""
    n, total = len(sizes), sum(sizes)
    chains = [[f"{i + 1}.{k}" for k in range(sizes[i])] for i in range(n)]
    # random interleaving = linear extension; cross edges only go forward in it
    tags = [i for i in range(n) for _ in range(sizes[i])]
    rng.shuffle(tags)
    seq: list[str] = []
    nxt = [0] * n
    for i in tags:
        seq.append(chains[i][nxt[i]])
        nxt[i] += 1
    relations = [pair for c in chains for pair in zip(c, c[1:])]
    chain_of = {s: i for i, c in enumerate(chains) for s in c}
    for _ in range(rng.randint(0, max_cross)):
        u, v = sorted(rng.sample(range(total), 2)) if total > 1 else (0, 0)
        if u != v and chain_of[seq[u]] != chain_of[seq[v]]:
            relations.append((seq[u], seq[v]))
    return build_poset([s for c in chains for s in c], relations), chains


def random_event_model(
    rng: random.Random,
    max_procs: int = 4,
    max_events_per_proc: int = 4,
    shared: bool = True,
    max_messages: int = 4,
) -> EventModel:
    """A random valid event model, optionally with shared events."""
    n = rng.randint(1, max_procs)
    quota = [rng.randint(1, max_events_per_proc) for _ in range(n)]
    counts = [0] * n
    events: list[tuple[str, frozenset[tuple[int, int]]]] = []
    while any(counts[i] < quota[i] for i in range(n)):
        open_procs = [i for i in range(n) if counts[i] < quota[i]]
        if shared and len(open_procs) >= 2 and rng.random() < 0.25:
            k = rng.randint(2, min(3, len(open_procs)))
            procs = rng.sample(open_procs, k)
        else:
            procs = [rng.choice(open_procs)]
        slots = []
        for i in procs:
            counts[i] += 1
            slots.append((i + 1, counts[i]))
        events.append((f"ev{len(events)}", frozenset(slots)))

    labels = dict(events)
    order = [e for e, _ in events]
    by_slot = {s: e for e, slots in events for s in slots}
    relations = []
    for i in range(n):
        for k in range(1, quota[i]):
            relations.append((by_slot[(i + 1, k)], by_slot[(i + 1, k + 1)]))
    for _ in range(rng.randint(0, max_messages)):
        if len(order) < 2:
            break
        u, v = sorted(rng.sample(range(len(order)), 2))
        a, b = order[u], order[v]
        pa = {i for i, _ in labels[a]}
        pb = {i for i, _ in labels[b]}
        if a != b and not (pa & pb):
            relations.append((a, b))
    poset = build_poset(order, relations)
    return build_event_model(poset, n, labels)


def random_asc(rng: random.Random, **kwargs) -> EventModel:
    return random_event_model(rng, shared=False, **kwargs)


def random_marking(
    rng: random.Random, sm: StateModel, max_marks: int = 5
) -> CheckpointMarking:
    marks = []
    for i in range(1, sm.n + 1):
        top = sm.chain_top_index(i)
        middle = list(range(1, top))
        rng.shuffle(middle)
        picked = sorted(middle[: rng.randint(0, min(max_marks - 2, len(middle)))])
        marks.append(tuple([0] + picked + ([top] if top else [])))
    return CheckpointMarking(tuple(marks))


def _names(rng: random.Random, count: int, alphabet: str) -> list[str]:
    """*count* distinct strings of one to three characters of *alphabet*,
    in random order."""
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3))))
    return rng.sample(sorted(names), count)


def renamed(rng: random.Random, model, alphabet: str):
    """*model*, a poset, an event model or a state model (attributes kept),
    with its ids renamed to strings of *alphabet* (:func:`_names`), so that
    sorted-id order crosses the order of the old ids."""
    p = model if isinstance(model, Poset) else model.poset
    name = dict(zip(p.elements, _names(rng, len(p.elements), alphabet)))
    poset = build_poset(name.values(), [(name[a], name[b]) for a, b in p.covers])
    if isinstance(model, EventModel):
        return build_event_model(poset, model.n, {name[e]: s for e, s in model.labels.items()})
    if isinstance(model, StateModel):
        chains = [[name[s] for s in chain] for chain in model.chains]
        return build_state_model(poset, chains, {name[s]: a for s, a in model.attrs.items()})
    return poset


def random_poset(rng: random.Random, n: int, alphabet: str) -> Poset:
    """A poset on *n* ids of *alphabet* (:func:`_names`): each pair of ids
    is ordered, forward in their random order, with one probability drawn
    per poset."""
    names = _names(rng, n, alphabet)
    density = rng.choice([0.0, 0.03, 0.1, 0.3])
    pairs = [
        (names[a], names[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < density
    ]
    return build_poset(names, pairs)


def random_state_model(rng: random.Random, n: int, alphabet: str) -> StateModel:
    """A state model on *n* ids of *alphabet* (:func:`_names`): up to four
    chains interleaved at random in the order of the ids, and a few forward
    edges between chains."""
    names = _names(rng, n, alphabet)
    k = rng.randint(1, min(n, 4)) if n else 0
    tags = [rng.randrange(k) for _ in range(n)]
    chains = [[name for name, tag in zip(names, tags) if tag == i] for i in range(k)]
    chains = [chain for chain in chains if chain]
    pairs = [pair for chain in chains for pair in zip(chain, chain[1:])]
    chain_of = {name: i for i, chain in enumerate(chains) for name in chain}
    for _ in range(rng.randint(0, 2 * k)):
        if n > 1:
            a, b = sorted(rng.sample(range(n), 2))
            if chain_of[names[a]] != chain_of[names[b]]:
                pairs.append((names[a], names[b]))
    return build_state_model(build_poset(names, pairs), chains)


# --- model families of the differential tests ------------------------------

def chain_poset_model(rng: random.Random, gadget: StateModel, max_elems: int) -> StateModel:
    """A random chain poset's state model, half the time beside *gadget*."""
    p, chains = random_chain_poset(
        rng, max_elems=max_elems, max_chains=rng.choice([3, 5])
    )
    if rng.random() < 0.5:
        return beside(build_state_model(p, chains), gadget)
    return build_state_model(p, chains)


def beside(sm: StateModel, gadget: StateModel) -> StateModel:
    """*sm* with *gadget*'s chains appended, unrelated to it."""
    elements = list(sm.poset.elements) + [f"g{s}" for s in gadget.poset.elements]
    pairs = list(sm.poset.covers) + [(f"g{a}", f"g{b}") for a, b in gadget.poset.covers]
    chains = [list(c) for c in sm.chains] + [[f"g{s}" for s in c] for c in gadget.chains]
    return build_state_model(build_poset(elements, pairs), chains)


def with_one_state_chains(rng: random.Random, sm: StateModel) -> StateModel:
    """*sm* with one to three one-state chains, each related at random to
    states placed before and after it in a random linear extension."""
    p = sm.poset
    seq = [p.elements[i] for i in p._order]
    extra = [f"x{t}" for t in range(rng.randint(1, 3))]
    for x in extra:
        seq.insert(rng.randint(0, len(seq)), x)
    pairs = list(p.covers)
    for _ in range(rng.randint(1, 3 * len(extra) + 2)):
        u, v = sorted(rng.sample(range(len(seq)), 2))
        if seq[u] in extra or seq[v] in extra:
            pairs.append((seq[u], seq[v]))
    chains = [list(c) for c in sm.chains] + [[x] for x in extra]
    return build_state_model(build_poset(seq, pairs), chains)


def with_empty_processes(rng: random.Random, m: EventModel) -> EventModel:
    """*m* with one to three processes that have no events, numbered in
    among its own."""
    n = m.n + rng.randint(1, 3)
    procs = sorted(rng.sample(range(1, n + 1), m.n))
    labels = {e: {(procs[i - 1], k) for i, k in slots} for e, slots in m.labels.items()}
    return build_event_model(m.poset, n, labels, allow_empty_process=True)


def random_models(rng: random.Random, count: int) -> list[StateModel]:
    """Chain posets and es models of event computations with shared events,
    a quarter of them each beside the pinch gadget (so ``se`` fails) and
    with one-state chains (so edges run through virtual nodes, and a
    virtual node with out-edges is often a component of its own: a relay).

    Floors asserted on it: ``tests/test_collapse_differential.py`` compares
    at least 1,000 relay models, 50 failing ``se`` and 1,000 ``se`` outputs
    with shared events in 5,200 models, 100 hand-offs with shared events
    and with processes that have no events in 1,500, and 200 failing ``se``
    in pinch compositions.
    """
    gadget = pinch_state()
    models = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind < 2:
            p, chains = random_chain_poset(
                rng, max_elems=rng.choice([8, 16, 24]), max_chains=rng.choice([3, 5])
            )
            sm = build_state_model(p, chains)
        else:
            sm = es_transform(random_event_model(
                rng, max_procs=rng.choice([3, 5]), max_events_per_proc=5, max_messages=8
            ))
        if kind in (1, 3) and rng.random() < 0.5:
            sm = beside(sm, gadget)  # a pinch composition: se fails
        if kind % 2 and rng.random() < 0.7:
            sm = with_one_state_chains(rng, sm)
        models.append(sm)
    return models


def models(seed: int, count: int) -> list[StateModel]:
    """The model with no chains, then ``random_models(Random(seed), count)``.

    Floors asserted on it: ``tests/test_int_graph_differential.py`` compares
    the model with no chains once and at least 400 models each with
    one-state chains, relays and cycles in 2,500, and 150 each of failing
    ``se``, shared events and relays through ``cli.main`` in 1,500;
    ``tests/test_checkpoint_differential.py`` compares, under
    :func:`marking`, at least 400 models each decided by the fast engine,
    falling back to the oracle and with a witness that several checkpoints
    share, and 400 useless checkpoints.
    """
    return [build_state_model(build_poset([], []), [])] + random_models(
        random.Random(seed), count
    )


def marking(rng: random.Random, sm: StateModel, density: float) -> CheckpointMarking:
    """Each middle state of each chain marked with probability *density*."""
    marks = []
    for chain in sm.chains:
        top = len(chain) - 1
        middle = [k for k in range(1, top) if rng.random() < density]
        marks.append(tuple([0, *middle] + ([top] if top else [])))
    return CheckpointMarking(tuple(marks))


def marked_models(rng: random.Random, trials: int = 3000):
    """Marked es models of event and ASC computations, chain posets and
    chain posets beside the pinch gadget, in turn.

    Floors asserted on it by ``tests/test_checkpoint_differential.py``, at
    an oracle bound of 14, each model's reports compared for the three
    engines: at least 2,000 models decided by the fast engine and 400 that
    fall back to the oracle, 500 useless and 6,000 useful verdicts of the
    fast engine, and 500 fast-engine checkpoints that lie in more than one
    global checkpoint.  ``tests/test_reference.py`` asserts 500 each of
    checkpoints in no global checkpoint and in several in 600 trials.
    """
    gadget = pinch_state()
    for trial in range(trials):
        kind = trial % 4
        if kind < 2:
            make = random_event_model if kind else random_asc
            sm = es_transform(make(
                rng, max_procs=rng.choice([3, 5]), max_events_per_proc=8, max_messages=20
            ))
            max_marks = rng.choice([5, 6])
        else:
            if kind == 2:
                sm = build_state_model(*random_chain_poset(
                    rng, max_elems=14, max_chains=rng.choice([3, 5])
                ))
            else:
                sm = chain_poset_model(rng, gadget, rng.choice([8, 14]))
            max_marks = rng.choice([4, 5])
        yield sm, random_marking(rng, sm, max_marks=max_marks)


def clock_families(rng: random.Random, rounds: int):
    """``(kind, poset, chains)``: partitions (half beside the pinch gadget),
    event chains, which share events and may include an empty chain, and
    sub-families that leave elements on no chain.

    Floor asserted on it by ``tests/test_clock_differential.py``: at least
    300 families each with shared elements, elements on no chain and an
    empty chain in 1,500 rounds.
    """
    gadget = pinch_state()
    for _ in range(rounds):
        sm = chain_poset_model(rng, gadget, rng.choice([8, 16, 24]))
        yield "partition", sm.poset, sm.chains
        m = random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=5, max_messages=8
        )
        yield "events", m.poset, list(m.proc_events) + [()] * rng.randint(0, 1)
        kept = [c for c in sm.chains if rng.random() < 0.7]
        yield "partial", sm.poset, [[s for s in c if rng.random() < 0.7] for c in kept]


def long_chain_poset(rng: random.Random) -> Poset:
    """Two or three ``i.k``-named chains of 10 to 120 states each, with up
    to one random cross relation per ten states.  Sorted-id order (``1.10``
    before ``1.2``) crosses chain order, so Kuhn's searches in sorted-id
    order reroute long augmenting paths.

    Floor asserted by ``tests/test_bitset_differential.py`` on 120 of these
    posets, 120 ``perfbench/gen.py`` runs and 80 copies with renamed ids:
    at least 200 posets whose longest augmenting path, counted by
    ``reference.kuhn``, has 20 or more steps.
    """
    sizes = [rng.randint(10, 120) for _ in range(rng.randint(2, 3))]
    return _chain_poset(rng, sizes, sum(sizes) // 10)[0]


def omega_models(rng: random.Random, rounds: int, max_elems: int):
    """Models on their own chains: half random chain posets beside the pinch
    gadget or the triple pinch, a quarter bare ones, and a quarter es
    transforms of event models.

    Floors asserted on it: ``tests/test_omega_differential.py`` compares at
    least 500 failing and 1,000 passing ``omega3`` verdicts in 3,000 models
    of up to 24 states, 800 passing and failing ``we`` verdicts each on the
    own chains and on Kuhn's partition in 4,000, and 300 failing ``we``
    reports in 1,500; ``tests/test_statemodel.py`` grows 100 antichains and
    meets 100 of each kind of witness in 1,500.  In 2,000 of these and
    2,000 :func:`partition_models`, ``tests/test_verdict_rule_differential.py``
    meets at least 800 failing ``omega1``, 400 failing ``we`` where
    ``omega1`` holds, 300 failing only ``psi`` and 1,000 raising in
    ``require_width_extensible``.
    """
    gadgets = [pinch_state(), triple_pinch_state()]
    for trial in range(rounds):
        if trial % 4 == 3:
            m = random_event_model(
                rng, max_procs=rng.choice([2, 3]), max_events_per_proc=3, max_messages=4
            )
            yield es_transform(m)
        elif trial % 2:
            p, chains = random_chain_poset(
                rng, max_elems=max_elems, max_chains=rng.choice([3, 4])
            )
            yield build_state_model(p, chains)
        else:
            yield chain_poset_model(rng, rng.choice(gadgets), max_elems - 9)


def pinch_composition(rng: random.Random) -> StateModel:
    """A random chain-partitioned poset beside a pinch gadget, with a few
    edges from the random part into the gadget."""
    p, chains = random_chain_poset(rng, max_elems=11, max_chains=3)
    gadget = rng.choice([pinch_state, triple_pinch_state])()
    elements = list(p.elements) + [f"g{s}" for s in gadget.poset.elements]
    pairs = list(p.covers) + [(f"g{a}", f"g{b}") for a, b in gadget.poset.covers]
    for _ in range(rng.randint(0, 2)):
        pairs.append((rng.choice(p.elements), f"g{rng.choice(gadget.poset.elements)}"))
    chains = chains + [[f"g{s}" for s in c] for c in gadget.chains]
    return build_state_model(build_poset(elements, pairs), chains)


def partition_models(rng: random.Random, count: int):
    """Chain posets, es transforms of event models and pinch compositions,
    in turn.

    Floors asserted on it by ``tests/test_partition_differential.py`` in
    3,000 models: at least 50 with concurrent initial states that are not
    width-extensible, 500 width-extensible but not interleaving-consistent,
    and 1,000 whose own chains are a minimum partition.
    """
    for trial in range(count):
        kind = trial % 3
        if kind == 0:
            p, chains = random_chain_poset(
                rng, max_elems=rng.choice([8, 14, 20]), max_chains=rng.choice([3, 5])
            )
            yield build_state_model(p, chains)
        elif kind == 1:
            yield es_transform(random_event_model(rng, max_events_per_proc=4))
        else:
            yield pinch_composition(rng)
