"""Chain-clock checks and transforms, and the sparse tentative graph,
against the definitional pair scans of ``tests/reference.py``.

The references ask ``Poset.less`` about every pair of states, exactly as
the definitions read.  The library answers the same questions from
``chain_clocks``; verdicts, witnesses, detail strings and emitted state
traces must agree.

The library's tentative graph is read off the covers, with one virtual node
per chain.  Its edges between real nodes are edges of the full graph
(``reference.dense_graph``), and the full graph must give the same
real-node components, and, fed to ``se_transform`` and the fast checkpoint
engine through the seam they build their graph at, ``_tentative_graph``, on
node ids (``on_node_ids``), the same ``se`` bytes and checkpoint reports, on
models that send edges through virtual nodes.

``chain_clocks`` itself, one sweep over the covers in each direction, and
``up_clocks``, its reverse sweep alone, are compared with the reference's
counts of the chain members below and above each element, on partitions,
on event chains that share events, and on families that leave elements on
no chain.  Their vectors may be shared between elements, so no reader may
change one.

The text ``state_text`` writes for an ``es`` result must be the definition
of canonical text, ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, of
the reference's state document.
"""

import copy
import json
import random

import reference
from posetdual import (
    build_poset,
    build_state_model,
    check_omega3,
    check_psi,
    es_transform,
)
from posetdual import analysis, poset, statemodel, transforms
from posetdual.analysis import find_useless_checkpoints
from posetdual.traces import dumps_canonical, event_to_json, state_text, state_to_json
from posetdual.transforms import (
    event_signature,
    se_transform,
    strongly_connected_components,
    transition_graph,
)

from builders import (
    chain_poset_model,
    clock_families,
    pinch_state,
    random_chain_poset,
    random_event_model,
    random_marking,
    with_empty_processes,
)


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
        assert state_to_json(sm) == state_to_json(reference.es(m))
        models.append(sm)

    failures = {"omega3": 0, "psi": 0}
    for sm in models:
        for name, fast, slow in (
            ("omega3", check_omega3, reference.omega3),
            ("psi", check_psi, reference.psi),
        ):
            verdict = fast(sm).as_json()
            assert verdict == slow(sm).as_json(), (name, state_to_json(sm))
            failures[name] += not verdict["ok"]
        nodes, succ = reference.dense_graph(sm)
        full = {(a, b) for a in nodes for b in succ[a]}
        nodes, succ = transition_graph(sm)
        real = {(a, b) for a in nodes for b in succ[a] if is_real(sm, a) and is_real(sm, b)}
        assert real <= full
        assert all(len({j for j, _ in succ[a]}) == len(succ[a]) for a in nodes)
    # Both checks must fail often enough for their witnesses to be compared.
    assert min(failures.values()) >= 100, failures


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
        want = state_to_json(reference.es(m))
        assert state_to_json(sm) == want
        assert state_text(sm) == json.dumps(want, indent=2, sort_keys=True) + "\n"
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
    assert verdict.as_json() == reference.psi(sm).as_json()


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


def test_sparse_tentative_graph_equals_full_graph(monkeypatch):
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
        sparse = real_components(sm, strongly_connected_components(*transition_graph(sm)))
        dense = reference.tarjan(*reference.dense_graph(sm))
        assert sparse == set(dense), state_to_json(sm)
        counts["cycles"] += any(len(c) > 1 for c in sparse)
        for kind in virtual_paths(sm):
            seen[kind] += 1

    got = se_and_fast_checkpoint_bytes(cases)
    for module in (transforms, analysis):
        monkeypatch.setattr(module, "_tentative_graph", on_node_ids(reference.dense_graph))
    want = se_and_fast_checkpoint_bytes(cases)
    for k, (sm, marking) in enumerate(cases):
        assert got[2 * k: 2 * k + 2] == want[2 * k: 2 * k + 2], (
            state_to_json(sm), marking.as_json(),
        )
        counts["se fails"] += '"error"' in got[2 * k]
        counts["fast"] += '"engine": "fast"' in got[2 * k + 1]
        counts["useless"] += '"useful": false' in got[2 * k + 1]
    # Every kind of edge through a virtual node, models with cycles,
    # failing transforms and useless checkpoints from the fast engine must
    # all be compared often.
    assert min(seen.values()) >= 20, seen
    assert min(counts.values()) >= 200, counts


def test_cover_sweep_clocks_equal_popcounts():
    rng = random.Random(2003)
    seen = {"shared": 0, "unplaced": 0, "empty chain": 0}
    for kind, p, chains in clock_families(rng, 1500):
        want = reference.chain_clocks(p, chains)
        assert poset.chain_clocks(p, chains) == want, (kind, p.covers, chains)
        assert poset.up_clocks(p, chains) == {e: up for e, (_, up) in want.items()}
        placed = [s for c in chains for s in c]
        seen["shared"] += len(placed) > len(set(placed))
        seen["unplaced"] += len(set(placed)) < len(p)
        seen["empty chain"] += () in chains
    # Every kind of family must be compared often.
    assert min(seen.values()) >= 300, seen


def recording_chain_clocks(monkeypatch):
    """Make every chain_clocks and up_clocks call keep its result and a deep
    copy of it."""
    made = []

    def recording(clocks_of):
        def record(p, chains):
            clocks = clocks_of(p, chains)
            made.append((clocks, copy.deepcopy(clocks)))
            return clocks

        return record

    monkeypatch.setattr(statemodel, "chain_clocks", recording(poset.chain_clocks))
    monkeypatch.setattr(transforms, "up_clocks", recording(poset.up_clocks))
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
