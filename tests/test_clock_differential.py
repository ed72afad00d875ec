"""Chain-clock checks and transforms against the definitional pair scans.

The reference functions below ask ``Poset.less`` or ``EventModel.state_less``
about every pair of states, exactly as the definitions read.  The library
answers the same questions from ``chain_clocks``; verdicts, witnesses, detail
strings and emitted state traces must agree.

The library's tentative graph is read off the covers, with one virtual node
per chain.  Its edges between real nodes are edges of the full graph, and
the full graph must give the same real-node components, transforms and
checkpoint reports.  The graph it replaced, read off the chain clocks with
the lowest edge per node and other chain, is transcribed below
(``clock_transition_graph``) and must give the same components, ``se``
bytes and fast checkpoint reports, witnesses included, on models that send
edges through virtual nodes.  Both graphs drive ``se_transform`` and the
fast checkpoint engine through the seam they build their graph at,
``_tentative_graph``, on node ids (``on_node_ids``).  The fast checkpoint
engine's one sweep over
the components must name the witnesses that one ancestor search per
checkpoint named.

``chain_clocks`` itself, one sweep over the covers in each direction, is
compared with the popcounts of each element's bitsets against each chain's
mask, on partitions, on event chains that share events, and on families
that leave elements on no chain.  Its vectors may be shared between
elements, so no reader may change one.
"""

import copy
import itertools
import random

from posetdual import (
    Verdict,
    build_event_model,
    build_poset,
    build_state_model,
    check_omega1,
    check_omega2,
    check_omega3,
    check_psi,
    es_transform,
)
from posetdual import analysis, poset, statemodel, transforms
from posetdual.analysis import CheckpointMarking, find_useless_checkpoints
from posetdual.traces import dumps_canonical, event_to_json, state_to_json
from posetdual.transforms import (
    event_signature,
    se_transform,
    strongly_connected_components,
    transition_graph,
)

from builders import (
    down_sets,
    pinch_state,
    random_chain_poset,
    random_event_model,
    random_marking,
    restricted_model,
)


def omega3_by_pairs(sm):
    p, n = sm.poset, sm.n
    for j in range(1, n + 1):
        for t in range(1, sm.chain_top_index(j) + 1):
            jt, jt_prev = sm.state_at(j, t), sm.state_at(j, t - 1)
            below = [
                (i, s)
                for i in range(1, n + 1)
                if i != j
                for s in range(sm.chain_top_index(i) + 1)
                if p.less(sm.state_at(i, s), jt)
            ]
            above = [
                (k, u)
                for k in range(1, n + 1)
                if k != j
                for u in range(sm.chain_top_index(k) + 1)
                if p.less(jt_prev, sm.state_at(k, u))
            ]
            for (i, s), (k, u) in itertools.product(below, above):
                a, c = sm.state_at(i, s), sm.state_at(k, u)
                if not p.less(a, c):
                    return Verdict(
                        False,
                        (a, jt, c),
                        f"[{i},{s}] < [{j},{t}] and [{j},{t - 1}] < [{k},{u}] "
                        f"but not [{i},{s}] < [{k},{u}]",
                    )
    return Verdict(True)


def psi_by_pairs(sm):
    p = sm.poset
    for i, j in itertools.permutations(range(1, sm.n + 1), 2):
        for s in range(1, sm.chain_top_index(i) + 1):
            for t in range(1, sm.chain_top_index(j) + 1):
                a, b = sm.state_at(i, s - 1), sm.state_at(j, t)
                c, d = sm.state_at(j, t - 1), sm.state_at(i, s)
                if p.less(a, b) and p.less(c, d):
                    return Verdict(
                        False,
                        (a, b, c, d),
                        f"chains {i} and {j} advance in lockstep at "
                        f"indices {s} and {t}",
                    )
    return Verdict(True)


def tentative_edges_by_pairs(sm):
    edges = set()
    for i in range(1, sm.n + 1):
        for k in range(1, sm.chain_top_index(i)):
            edges.add(((i, k), (i, k + 1)))
        for j in range(1, sm.n + 1):
            for r in range(1, sm.chain_top_index(i) + 1):
                for s in range(1, sm.chain_top_index(j) + 1):
                    src, dst = sm.state_at(i, r - 1), sm.state_at(j, s)
                    if i != j and sm.poset.less(src, dst):
                        edges.add(((i, r), (j, s)))
    return edges


def lowest_per_chain(edges):
    """Per node and target chain, the edge to the lowest target."""
    lowest = {}
    for a, (j, s) in edges:
        lowest[a, j] = min(s, lowest.get((a, j), s))
    return {(a, (j, s)) for (a, j), s in lowest.items()}


def dense_transition_graph(sm):
    """The full tentative graph, in the node order of ``transition_graph``."""
    nodes = [(i, r) for i in range(1, sm.n + 1) for r in range(1, sm.chain_top_index(i) + 1)]
    succ = {a: [] for a in nodes}
    for a, b in tentative_edges_by_pairs(sm):
        succ[a].append(b)
    for out in succ.values():
        out.sort()
    return nodes, succ


def clock_transition_graph(sm):
    """The tentative graph as read off the chain clocks: per node ``(i,r)``,
    its chain edge and, per other chain, the edge to the lowest state above
    ``[i,r-1]`` there (or to ``(j,1)``).  It has no virtual nodes."""
    clocks = sm.clocks()
    nodes, succ = [], {}
    for i, chain in enumerate(sm.chains, start=1):
        for r in range(1, len(chain)):
            up = clocks[chain[r - 1]][1]
            out = []
            for j, other in enumerate(sm.chains, start=1):
                s = r + 1 if j == i else max(1, up[j - 1])
                if s < len(other):
                    out.append((j, s))
            nodes.append((i, r))
            succ[(i, r)] = out
    return nodes, succ


def on_node_ids(graph):
    """*graph* as the library's graph seam gives it: per node id, the ids of
    its successors.  Node ``(i,k)`` has the id of ``transforms._nodes``; a
    virtual node that *graph* leaves out is there, with no edges."""

    def on_ids(sm):
        nodes, succ = graph(sm)
        ids = {node: v for v, node in enumerate(transforms._nodes(sm.chains))}
        out = [[] for _ in ids]
        for a in nodes:
            out[ids[a]] = [ids[b] for b in succ[a]]
        return out

    return on_ids


def is_real(sm, node):
    """False for the virtual node ``(i,len)`` of a chain."""
    i, k = node
    return k < len(sm.chains[i - 1])


def real_components(sm, components):
    """The components with every virtual node dropped, as a set."""
    real = (tuple(node for node in comp if is_real(sm, node)) for comp in components)
    return {comp for comp in real if comp}


def es_transform_by_pairs(m):
    chains = [
        [f"{i}.{k}" for k in range(m.chain_length(i) + 1)] for i in range(1, m.n + 1)
    ]
    pairs = [pair for chain in chains for pair in zip(chain, chain[1:])]
    for i, j in itertools.permutations(range(1, m.n + 1), 2):
        for r in range(m.chain_length(i)):
            for s in range(1, m.chain_length(j) + 1):
                if m.state_less((i, r), (j, s)):
                    pairs.append((chains[i - 1][r], chains[j - 1][s]))
    poset = build_poset([s for chain in chains for s in chain], pairs)
    return build_state_model(poset, chains)


def fast_usefulness_by_search(induced):
    """The fast checkpoint engine with one ancestor search per witness."""
    if not check_omega1(induced).ok or not check_omega2(induced).ok:
        return None
    nodes, succ = transition_graph(induced)
    comp_index = {}
    for ci, comp in enumerate(strongly_connected_components(nodes, succ)):
        for node in comp:
            comp_index[node] = ci
    preds = {n: [] for n in nodes}
    for a in nodes:
        for b in succ[a]:
            preds[b].append(a)

    def frontier_witness(anchor):
        tops = [0] * induced.n
        if anchor is not None:
            seen = {anchor}
            queue = [anchor]
            while queue:
                node = queue.pop()
                for prev in preds[node]:
                    if prev not in seen:
                        seen.add(prev)
                        queue.append(prev)
            for i, k in seen:
                if k > tops[i - 1]:
                    tops[i - 1] = k
        return frozenset(induced.state_at(i + 1, k) for i, k in enumerate(tops))

    out = {}
    for i in range(1, induced.n + 1):
        top = induced.chain_top_index(i)
        for k in range(top + 1):
            state = induced.state_at(i, k)
            if 1 <= k <= top - 1 and comp_index[(i, k)] == comp_index[(i, k + 1)]:
                out[state] = None
            else:
                out[state] = frontier_witness((i, k) if k >= 1 else None)
    return out


def chain_poset_model(rng, gadget, max_elems):
    """A random chain poset's state model, half the time beside *gadget*."""
    p, chains = random_chain_poset(
        rng, max_elems=max_elems, max_chains=rng.choice([3, 5])
    )
    elements, pairs = list(p.elements), list(p.covers)
    if rng.random() < 0.5:
        elements += [f"g{s}" for s in gadget.poset.elements]
        pairs += [(f"g{a}", f"g{b}") for a, b in gadget.poset.covers]
        chains = chains + [[f"g{s}" for s in c] for c in gadget.chains]
    return build_state_model(build_poset(elements, pairs), chains)


def test_clock_results_equal_pair_scans():
    rng = random.Random(1988)
    models = []
    for _ in range(2000):
        p, chains = random_chain_poset(
            rng, max_elems=rng.choice([8, 16, 24]), max_chains=rng.choice([3, 5])
        )
        models.append(build_state_model(p, chains))
    for _ in range(500):
        m = random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=5, max_messages=8
        )
        sm = es_transform(m)
        assert state_to_json(sm) == state_to_json(es_transform_by_pairs(m))
        models.append(sm)

    failures = {"omega3": 0, "psi": 0}
    for sm in models:
        for name, fast, slow in (
            ("omega3", check_omega3, omega3_by_pairs),
            ("psi", check_psi, psi_by_pairs),
        ):
            verdict = fast(sm).as_json()
            assert verdict == slow(sm).as_json(), (name, state_to_json(sm))
            failures[name] += not verdict["ok"]
        full = tentative_edges_by_pairs(sm)
        nodes, succ = clock_transition_graph(sm)
        edges = {(a, b) for a in nodes for b in succ[a]}
        assert edges == lowest_per_chain(full)
        assert all(succ[a] == sorted(succ[a]) for a in nodes)
        nodes, succ = transition_graph(sm)
        real = {(a, b) for a in nodes for b in succ[a] if is_real(sm, a) and is_real(sm, b)}
        assert real <= full
        assert all(len({j for j, _ in succ[a]}) == len(succ[a]) for a in nodes)
    # Both checks must fail often enough for their witnesses to be compared.
    assert min(failures.values()) >= 100, failures


def with_empty_processes(rng, m):
    """*m* with one to three processes that have no events, numbered in
    among its own."""
    n = m.n + rng.randint(1, 3)
    procs = sorted(rng.sample(range(1, n + 1), m.n))
    labels = {e: {(procs[i - 1], k) for i, k in slots} for e, slots in m.labels.items()}
    return build_event_model(m.poset, n, labels, allow_empty_process=True)


def test_es_equals_pair_scans_with_shared_events_and_empty_processes():
    # es emits a pair only where a chain's target on another process
    # changes; shared events enter a state on each of their processes, and
    # a process with no events is a one-state chain that no pair reaches.
    rng = random.Random(2214)
    counts = {"shared": 0, "empty": 0}
    for _ in range(800):
        m = random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=6, max_messages=10
        )
        if rng.random() < 0.5:
            m = with_empty_processes(rng, m)
        sm = es_transform(m)
        assert state_to_json(sm) == state_to_json(es_transform_by_pairs(m))
        assert event_signature(se_transform(sm).event_model) == event_signature(m)
        counts["shared"] += any(len(slots) > 1 for slots in m.labels.values())
        counts["empty"] += any(not events for events in m.proc_events)
    assert min(counts.values()) >= 300, counts


def test_psi_fails_when_an_initial_state_is_squeezed():
    # [2,0] is squeezed between [1,0] and [1,1].  Chains 1 and 2 cross at
    # indices 1 and 1 where [2,0] itself is above [1,0] (u = 0), which
    # check_psi's clock pass skips; chains 2 and 1 cross at 1 and 1 too,
    # and that crossing it sees.
    chains = [["a0", "a1", "a2"], ["b0", "b1"]]
    pairs = [("a0", "b0"), ("b0", "a1")] + [
        pair for chain in chains for pair in zip(chain, chain[1:])
    ]
    sm = build_state_model(build_poset(["a0", "a1", "a2", "b0", "b1"], pairs), chains)
    verdict = check_psi(sm)
    assert not verdict.ok
    assert verdict.as_json() == psi_by_pairs(sm).as_json()


def se_and_checkpoint_outputs(models):
    out = []
    for sm, marking in models:
        se = se_transform(sm)
        out.append(event_to_json(se.event_model) if se.ok else se.report.as_json())
        if marking is not None:
            out.append(find_useless_checkpoints(sm, marking, engine="both").as_json())
    return out


def test_sparse_tentative_graph_equals_full_graph(monkeypatch):
    rng = random.Random(1972)
    gadget = pinch_state()
    models = []
    for _ in range(600):
        # half of them beside the pinch gadget, so se often fails
        models.append((chain_poset_model(rng, gadget, rng.choice([12, 24])), None))
    for _ in range(400):
        sm = es_transform(random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=5, max_messages=8
        ))
        models.append((sm, random_marking(rng, sm, max_marks=rng.choice([3, 5]))))

    shared = 0
    for sm, _ in models:
        sparse = real_components(sm, strongly_connected_components(*transition_graph(sm)))
        dense = strongly_connected_components(*dense_transition_graph(sm))
        assert sparse == set(dense), state_to_json(sm)
        shared += any(len(c) > 1 for c in sparse)
    # Enough models carry cycles for the components to be compared.
    assert shared >= 200, shared

    expected = se_and_checkpoint_outputs(models)
    for module in (transforms, analysis):
        monkeypatch.setattr(module, "_tentative_graph", on_node_ids(dense_transition_graph))
    assert se_and_checkpoint_outputs(models) == expected


def virtual_paths(sm):
    """The cross covers of *sm* that ``omega1`` or ``omega2`` forbid: into a
    one-state chain (its edge ends at that chain's virtual node), into the
    initial state of a longer chain (its edge ends at ``(j,1)``), and out
    of a final state (its edge starts at a virtual node)."""
    coords = sm._coords()
    seen = set()
    for a, b in sm.poset.covers:
        (i, r), (j, s) = coords[a], coords[b]
        if i == j:
            continue
        if s == 0:
            seen.add("one-state chain" if len(sm.chains[j - 1]) == 1 else "into initial")
        if r == len(sm.chains[i - 1]) - 1:
            seen.add("out of final")
    return seen


def se_and_fast_checkpoint_bytes(cases):
    out = []
    for sm, marking in cases:
        se = se_transform(sm)
        out.append(dumps_canonical(event_to_json(se.event_model) if se.ok else se.report.as_json()))
        report = find_useless_checkpoints(sm, marking, engine="fast")
        out.append(dumps_canonical(report.as_json()))
    return out


def test_cover_graph_equals_clock_graph(monkeypatch):
    rng = random.Random(2029)
    gadget = pinch_state()
    cases = []
    for _ in range(2400):
        # half of them beside the pinch gadget, so se often fails
        sm = chain_poset_model(rng, gadget, rng.choice([8, 16, 24]))
        cases.append((sm, random_marking(rng, sm, max_marks=rng.choice([3, 4]))))
    for _ in range(800):
        sm = es_transform(random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=6, max_messages=10
        ))
        cases.append((sm, random_marking(rng, sm, max_marks=rng.choice([3, 5]))))

    seen = {"one-state chain": 0, "into initial": 0, "out of final": 0}
    counts = {"cycles": 0, "se fails": 0, "fast": 0, "useless": 0}
    for sm, _ in cases:
        covers = real_components(sm, strongly_connected_components(*transition_graph(sm)))
        clocks = strongly_connected_components(*clock_transition_graph(sm))
        assert covers == set(clocks), state_to_json(sm)
        counts["cycles"] += any(len(c) > 1 for c in covers)
        for kind in virtual_paths(sm):
            seen[kind] += 1

    got = se_and_fast_checkpoint_bytes(cases)
    for module in (transforms, analysis):
        monkeypatch.setattr(module, "_tentative_graph", on_node_ids(clock_transition_graph))
    want = se_and_fast_checkpoint_bytes(cases)
    for k, (sm, marking) in enumerate(cases):
        assert got[2 * k: 2 * k + 2] == want[2 * k: 2 * k + 2], (
            state_to_json(sm), marking.as_json(),
        )
        counts["se fails"] += '"error"' in got[2 * k]
        counts["fast"] += '"engine": "fast"' in got[2 * k + 1]
        counts["useless"] += '"useful": false' in got[2 * k + 1]
    # Every kind of edge through a virtual node, failing transforms and
    # useless checkpoints from the fast engine must all be compared often.
    assert min(seen.values()) >= 20, seen
    assert min(counts.values()) >= 200, counts


def fast_reports(cases):
    return [
        find_useless_checkpoints(sm, marking, engine="fast").as_json()
        for sm, marking in cases
    ]


def test_one_sweep_witnesses_equal_ancestor_searches(monkeypatch):
    rng = random.Random(1997)
    gadget = pinch_state()
    cases = []
    for _ in range(800):
        sm = es_transform(random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=8, max_messages=20
        ))
        cases.append((sm, random_marking(rng, sm, max_marks=rng.choice([5, 7]))))
    for _ in range(400):
        sm = chain_poset_model(rng, gadget, rng.choice([12, 20]))
        cases.append((sm, random_marking(rng, sm, max_marks=rng.choice([3, 4]))))

    def search_usefulness(sm, marks, chains):
        return fast_usefulness_by_search(restricted_model(sm, CheckpointMarking(marks)))

    got = fast_reports(cases)
    monkeypatch.setattr(analysis, "_fast_usefulness", search_usefulness)
    want = fast_reports(cases)
    counts = {"useful": 0, "useless": 0}
    for (sm, marking), report, expected in zip(cases, got, want):
        assert report == expected, (state_to_json(sm), marking.as_json())
        if report["engine"] == "fast":
            for verdict in report["verdicts"]:
                counts["useful" if verdict["useful"] else "useless"] += 1
    # Enough verdicts of each kind come from the fast engine to compare.
    assert counts["useful"] >= 6000 and counts["useless"] >= 500, counts


def chain_clocks_by_popcount(p, chains):
    """The clocks as popcounts of each element's bitsets against each
    chain's mask: a chain meets a strict down-set in a prefix and a strict
    up-set in a suffix."""
    masks = [p.set_to_mask(c) for c in chains]
    return {
        e: (
            [(d & m).bit_count() - 1 for m in masks],
            [len(c) - (u & m).bit_count() for c, m in zip(chains, masks)],
        )
        for e, d, u in zip(p.elements, down_sets(p), p._up)
    }


def clock_families(rng, rounds):
    """``(kind, poset, chains)``: partitions (half beside the pinch gadget),
    event chains, which share events and may include an empty chain, and
    sub-families that leave elements on no chain."""
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


def test_cover_sweep_clocks_equal_popcounts():
    rng = random.Random(2003)
    seen = {"shared": 0, "unplaced": 0, "empty chain": 0}
    for kind, p, chains in clock_families(rng, 1500):
        assert poset.chain_clocks(p, chains) == chain_clocks_by_popcount(p, chains), (
            kind, p.covers, chains,
        )
        placed = [s for c in chains for s in c]
        seen["shared"] += len(placed) > len(set(placed))
        seen["unplaced"] += len(set(placed)) < len(p)
        seen["empty chain"] += () in chains
    # Every kind of family must be compared often.
    assert min(seen.values()) >= 300, seen


def recording_chain_clocks(monkeypatch):
    """Make every chain_clocks call keep its result and a deep copy of it."""
    made = []

    def record(p, chains):
        clocks = poset.chain_clocks(p, chains)
        made.append((clocks, copy.deepcopy(clocks)))
        return clocks

    for module in (statemodel, transforms):
        monkeypatch.setattr(module, "chain_clocks", record)
    return made


def test_readers_leave_clock_vectors_unchanged(monkeypatch):
    made = recording_chain_clocks(monkeypatch)
    rng = random.Random(2011)
    gadget = pinch_state()
    for trial in range(300):
        m = random_event_model(
            rng, max_procs=rng.choice([3, 5]), max_events_per_proc=6, max_messages=10
        )
        es = es_transform(m)
        sm = es if trial % 2 else chain_poset_model(rng, gadget, 12)
        statemodel.run_property_checks(sm, statemodel.PROPERTIES)
        for check in (check_omega3, check_psi):
            check(sm)
        statemodel.check_width_extensible(sm.poset)
        se_transform(sm)
        marking = random_marking(rng, sm, max_marks=4)
        find_useless_checkpoints(sm, marking, engine="fast")
        admissible = [[rng.random() < 0.6 for _ in chain] for chain in es.chains]
        analysis._least_frontier(es, admissible)
    assert len(made) >= 900
    for clocks, snapshot in made:
        assert clocks == snapshot
