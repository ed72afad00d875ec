"""Model builders shared by the test suite and the fixture corpus.

The small named models double as the on-disk fixture corpus (see
tests/test_traces_cli.py, which asserts the JSON files stay in sync), and the
random generators feed the property/acceptance suites.
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
    for _ in range(rng.randint(0, 2 * n)):
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
