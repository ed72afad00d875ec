"""The one-pass collapse of the tentative event graph against the two-walk
collapse it replaced.

``se_transform`` once dropped the virtual nodes from every component and
carried each edge into a virtual node on to the real nodes that node
reaches through virtual nodes alone, found by a second, memoised walk of
the graph (``real_successors``).  Tarjan's pass kept an ``on_stack`` set
and a child position per frame.  Both are transcribed below.  The library
now maps every node of a component with a real node to its event, expands
a lone virtual node into the events of its successors, which Tarjan lists
earlier, and keeps ``low`` entries only for nodes on the stack.  Every
emitted event trace and report byte, every ``temp_edges`` tuple and every
component list must be the same.
"""

import random

from posetdual import build_event_model, build_poset, build_state_model, es_transform
from posetdual import transforms
from posetdual.traces import dumps_canonical, event_to_json, state_to_json
from posetdual.transforms import (
    InvalidityReport,
    OffendingComponent,
    SETransformOutcome,
    _shared_id,
    se_transform,
    strongly_connected_components,
    transition_graph,
)

from builders import pinch_state, random_chain_poset, random_event_model


def tarjan_with_on_stack(nodes, succ):
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = 0
    result = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = succ[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if child not in index:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                result.append(tuple(sorted(component)))
            if work:
                parent, pos = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
                work[-1] = (parent, pos)
    return result


def real_successors(node, succ, virtual, memo):
    stack = [node]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        pending = [w for w in succ[top] if w in virtual and w not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[top] = list(dict.fromkeys(
            c for w in succ[top] for c in (memo[w] if w in virtual else (w,))
        ))
    return memo[node]


def two_walk_se_transform(sm):
    nodes, succ = transition_graph(sm)
    virtual = {(i, len(chain)) for i, chain in enumerate(sm.chains, start=1)}
    components = []
    for comp in tarjan_with_on_stack(nodes, succ):
        if not virtual.isdisjoint(comp):
            comp = tuple(node for node in comp if node not in virtual)
            if not comp:
                continue
        components.append(comp)

    offending = []
    for comp in components:
        if len(comp) < 2:
            continue
        chains = [i for i, _ in comp]
        dupes = sorted({c for c in chains if chains.count(c) > 1})
        if dupes:
            offending.append(OffendingComponent(nodes=comp, chain=dupes[0]))
    if offending:
        return SETransformOutcome(
            event_model=None,
            report=InvalidityReport(tuple(sorted(offending))),
            _graph=(nodes, succ),
        )

    event_of = {}
    labels = {}
    for comp in components:
        (i, k) = comp[0]
        eid = f"e{i}.{k}" if len(comp) == 1 else _shared_id(comp)
        labels[eid] = frozenset(comp)
        for node in comp:
            event_of[node] = eid
    beyond = {}
    pairs = []
    for a in nodes:
        ea = event_of.get(a)
        if ea is None:
            continue
        for b in succ[a]:
            eb = event_of.get(b)
            if eb is None:
                for c in real_successors(b, succ, virtual, beyond):
                    if event_of[c] != ea:
                        pairs.append((ea, event_of[c]))
            elif eb != ea:
                pairs.append((ea, eb))
    poset = build_poset(labels.keys(), pairs)
    model = build_event_model(poset, sm.n, labels, allow_empty_process=True)
    return SETransformOutcome(event_model=model, report=None, _graph=(nodes, succ))


def beside(sm, gadget):
    """*sm* with *gadget*'s chains appended, unrelated to it."""
    elements = list(sm.poset.elements) + [f"g{s}" for s in gadget.poset.elements]
    pairs = list(sm.poset.covers) + [(f"g{a}", f"g{b}") for a, b in gadget.poset.covers]
    chains = [list(c) for c in sm.chains] + [[f"g{s}" for s in c] for c in gadget.chains]
    return build_state_model(build_poset(elements, pairs), chains)


def with_one_state_chains(rng, sm):
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


def random_models(rng, count):
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


def has_relay(sm):
    """Whether a virtual node with out-edges is a component on its own."""
    nodes, succ = transition_graph(sm)
    virtual = {(i, len(chain)) for i, chain in enumerate(sm.chains, start=1)}
    return any(
        len(comp) == 1 and comp[0] in virtual and succ[comp[0]]
        for comp in strongly_connected_components(nodes, succ)
    )


def outcome_bytes(outcome):
    doc = event_to_json(outcome.event_model) if outcome.ok else outcome.report.as_json()
    return dumps_canonical(doc)


def test_one_pass_collapse_equals_two_walk_collapse():
    rng = random.Random(1972)
    counts = {"relay": 0, "offending": 0, "shared": 0}
    models = random_models(rng, 5200)
    for sm in models:
        got, want = se_transform(sm), two_walk_se_transform(sm)
        assert outcome_bytes(got) == outcome_bytes(want), state_to_json(sm)
        assert got.temp_edges == want.temp_edges
        counts["relay"] += has_relay(sm)
        counts["offending"] += not got.ok
        counts["shared"] += got.ok and any(
            len(slots) > 1 for slots in got.event_model.labels.values()
        )
    # Relays, failing transforms and shared events must all be compared often.
    assert counts["relay"] >= 1000, counts
    assert counts["offending"] >= 50, counts
    assert counts["shared"] >= 1000, counts


def test_components_equal_on_random_graphs():
    rng = random.Random(1972)
    for _ in range(3000):
        n = rng.randint(1, 30)
        nodes = [(rng.randint(1, 4), k) for k in range(n)]
        rng.shuffle(nodes)
        density = rng.choice([0.02, 0.08, 0.2])
        succ = {
            a: [b for b in nodes if rng.random() < density] for a in nodes
        }
        assert strongly_connected_components(nodes, succ) == tarjan_with_on_stack(
            nodes, succ
        )


def test_components_equal_on_a_long_path_and_cycle():
    n = 100_000
    nodes = [(1, k) for k in range(n)]
    path = {(1, k): [(1, k + 1)] if k + 1 < n else [] for k in range(n)}
    got = strongly_connected_components(nodes, path)
    assert got == tarjan_with_on_stack(nodes, path)
    assert len(got) == n
    cycle = {**path, (1, n - 1): [(1, 0)]}
    got = strongly_connected_components(nodes, cycle)
    assert got == tarjan_with_on_stack(nodes, cycle) == [tuple(nodes)]


def test_se_hand_off_equals_a_fresh_build():
    # se_transform hands build_event_model the per-process slot lists it
    # filled while naming the events (the loader's path).  The model must
    # be the one built from the same poset and labels with every label
    # checked one event at a time, and the one the two-walk collapse built.
    rng = random.Random(1979)
    counts = {"shared": 0, "empty": 0}
    for sm in random_models(rng, 1500):
        outcome = se_transform(sm)
        if not outcome.ok:
            continue
        m = outcome.event_model
        fresh = build_event_model(
            m.poset, sm.n, {e: set(slots) for e, slots in m.labels.items()},
            allow_empty_process=True,
        )
        want = two_walk_se_transform(sm).event_model
        for other in (fresh, want):
            assert m.n == other.n
            assert list(m.labels.items()) == list(other.labels.items())
            assert m.proc_events == other.proc_events
            assert m.poset.covers == other.poset.covers
        counts["shared"] += any(len(slots) > 1 for slots in m.labels.values())
        counts["empty"] += any(not events for events in m.proc_events)
    assert min(counts.values()) >= 100, counts


def test_a_failing_se_names_no_event(monkeypatch):
    # The components are screened before any event is named, so a model
    # that is reported builds no shared id and no event model.
    def unreachable(*args, **kwargs):
        raise AssertionError("a failing se named an event")

    gadget = pinch_state()
    models = [
        beside(sm, gadget)
        for sm in random_models(random.Random(1980), 300)
        if "ga" not in sm.poset  # not a pinch composition yet
    ]
    reports = [two_walk_se_transform(sm).report for sm in models]
    monkeypatch.setattr(transforms, "_shared_id", unreachable)
    monkeypatch.setattr(transforms, "build_event_model", unreachable)
    monkeypatch.setattr(transforms, "build_poset", unreachable)
    for sm, report in zip(models, reports):
        assert se_transform(sm).report == report
    assert len(models) >= 200
