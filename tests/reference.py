"""One definitional reference per layer that the differential tests check.

Each function here computes what its layer means, straight from the
definitions, and shares no code with the layer it checks.  It may use the
public constructors (``build_poset``, ``build_state_model``,
``build_event_model``), the result types, the models' coordinate
accessors, ``Poset.less`` and ``Poset.covers`` (and
``builders.restricted_model``, which restricts the order with
``Poset.restrict``), but never the library's own graph, component, clock,
checkpoint or lattice code (``_tentative_graph``, ``_components``,
``transition_graph``, ``strongly_connected_components``, ``chain_clocks``,
``_fast_usefulness``, ``_oracle_usefulness``, ``se_transform``, anything of
``posetdual.lattice``).  A faster library path is
checked by one more comparison with the reference of its layer, not by a
transcription of the code it replaced.

Layers, in the coordinates of :mod:`posetdual.transforms` (node ``(i,k)``
is the transition out of state ``[i,k-1]``):

* :func:`dense_graph`: the tentative event graph as its definition reads,
  one cross edge per ordered pair of states; :func:`cover_graph`: the graph
  as the library defines it from the covers, with one virtual node per
  chain;
* :func:`tarjan`: the textbook iterative Tarjan pass, with an ``on_stack``
  set and a child position per frame (Tarjan 1972);
* :func:`se_collapse`: the reverse transform, collapsing the components of
  the cover graph with a second walk for the edges into virtual nodes;
* :func:`omega3`, :func:`psi`, :func:`es` and :func:`chain_clocks`: pair
  scans over ``Poset.less`` (or the event order);
* :func:`checkpoint_report`: the checkpoint oracle on the restriction to
  the marked states (``builders.restricted_model``);
* :func:`closure_and_covers`: the order of a relation list, closed by a
  sweep over an adjacency matrix and reduced by testing every closure pair;
* :func:`kuhn`: Kuhn's matching on the split graph of the order, over
  neighbour lists in sorted-id order and a visited set (Kuhn 1955);
  :func:`width_extensible`: every element and every incomparable pair
  tested for room on the other chains of Kuhn's partition, by
  :func:`chain_clocks`;
* :func:`downsets`: the include/exclude walk over the least linear
  extension (:func:`linear_extension`, a heap over ``Poset.covers``), one
  frozenset per downset, excluding with ``Poset.less``;
  :func:`frontiers` and :func:`width_antichains`: the maximum antichains of
  a width-extensible view, one per cut of :func:`se_collapse`'s event side,
  with each chain at the top slot the cut holds on it (the event/state
  duality); :func:`cut_line`: a ``cuts`` line, ``json.dumps`` of the sorted
  cut.  The view is an input: the tests take it from
  ``require_width_extensible``, whose partition policy
  ``tests/test_partition_differential.py`` checks.

Beyond the inputs above, :func:`width_extensible` reads the partition
``minimum_chain_partition`` gives (whose matching :func:`kuhn` checks), and
:func:`se_text` writes an ``se`` outcome with ``traces.event_to_json``.
"""

from __future__ import annotations

import heapq
import itertools
import json

from posetdual import (
    OracleBoundExceeded,
    Verdict,
    build_event_model,
    build_poset,
    build_state_model,
)
from posetdual.analysis import CheckpointReport, CheckpointVerdict
from posetdual.poset import minimum_chain_partition, oracle_bound
from posetdual.traces import event_to_json
from posetdual.transforms import (
    InvalidityReport,
    OffendingComponent,
    SETransformOutcome,
)

from builders import restricted_model


# --- the tentative event graph ---------------------------------------------

def dense_graph(sm):
    """The full tentative graph on the real nodes ``(i,1) .. (i,n_i)``: the
    chain edges, and ``(i,r) -> (j,s)`` whenever ``[i,r-1] < [j,s]``,
    ``s >= 1``, ``i != j``.  Nodes chain by chain, successors sorted."""
    p, chains = sm.poset, sm.chains
    nodes = [(i, r) for i, chain in enumerate(chains, start=1) for r in range(1, len(chain))]
    succ = {}
    for i, r in nodes:
        out = [(i, r + 1)] if r + 1 < len(chains[i - 1]) else []
        for j, other in enumerate(chains, start=1):
            if j != i:
                out += [(j, s) for s in range(1, len(other)) if p.less(chains[i - 1][r - 1], other[s])]
        succ[(i, r)] = sorted(out)
    return nodes, succ


def cover_graph(sm):
    """The tentative graph read off the covers, as the library defines it.

    Nodes ``(i,1) .. (i,len)`` chain by chain; ``(i,len)`` is the virtual
    node, the transition out of the final state.  Per node ``(i,k)``: the
    chain edge to ``(i,k+1)`` first, then per cross cover
    ``[i,k-1] ⋖ [j,s]``, in the order of ``Poset.covers``, the edge to
    ``(j,max(1,s))``.
    """
    at = {s: (i, k) for i, chain in enumerate(sm.chains, start=1) for k, s in enumerate(chain)}
    cross = {s: [] for s in at}
    for a, b in sm.poset.covers:
        (i, _), (j, s) = at[a], at[b]
        if i != j:
            cross[a].append((j, max(1, s)))
    nodes, succ = [], {}
    for i, chain in enumerate(sm.chains, start=1):
        for k in range(1, len(chain) + 1):
            nodes.append((i, k))
            succ[(i, k)] = ([(i, k + 1)] if k < len(chain) else []) + cross[chain[k - 1]]
    return nodes, succ


def virtual_nodes(sm):
    return {(i, len(chain)) for i, chain in enumerate(sm.chains, start=1)}


# --- strongly connected components -----------------------------------------

def tarjan(nodes, succ):
    """The components of *succ*, each sorted, in the order Tarjan's pass
    completes them (reverse topological), roots taken in *nodes* order.
    Iterative: no result depends on the recursion limit."""
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


# --- the reverse transform --------------------------------------------------

def _real_successors(node, succ, virtual, memo):
    """The real nodes *node* reaches through virtual nodes alone."""
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


def se_collapse(sm):
    """``se_transform`` by two walks of :func:`cover_graph`: the components
    with their virtual nodes dropped name the events (a component with two
    nodes of one chain is reported instead), and an edge into a virtual
    node is carried on to the real nodes it reaches through virtual nodes
    alone."""
    nodes, succ = cover_graph(sm)
    ids = {node: v for v, node in enumerate(nodes)}
    graph = (nodes, [[ids[b] for b in succ[a]] for a in nodes])
    virtual = virtual_nodes(sm)
    components = []
    for comp in tarjan(nodes, succ):
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
            event_model=None, report=InvalidityReport(tuple(sorted(offending))), _graph=graph
        )

    event_of = {}
    labels = {}
    for comp in components:
        (i, k) = comp[0]
        if len(comp) == 1:
            eid = f"e{i}.{k}"
        else:
            eid = "shared(" + ",".join(f"{i}.{k}" for i, k in comp) + ")"
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
                for c in _real_successors(b, succ, virtual, beyond):
                    if event_of[c] != ea:
                        pairs.append((ea, event_of[c]))
            elif eb != ea:
                pairs.append((ea, eb))
    poset = build_poset(labels.keys(), pairs)
    model = build_event_model(poset, sm.n, labels, allow_empty_process=True)
    return SETransformOutcome(event_model=model, report=None, _graph=graph)


def has_relay(sm):
    """Whether a virtual node with out-edges is a component on its own."""
    nodes, succ = cover_graph(sm)
    virtual = virtual_nodes(sm)
    return any(
        len(comp) == 1 and comp[0] in virtual and succ[comp[0]]
        for comp in tarjan(nodes, succ)
    )


def se_text(outcome):
    """The canonical text of an ``se`` outcome: its event document, or its
    report where it failed."""
    doc = event_to_json(outcome.event_model) if outcome.ok else outcome.report.as_json()
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- chain checks, the forward transform and chain clocks ------------------

def omega3(sm):
    """``[i,s] < [j,t]`` and ``[j,t-1] < [k,u]`` imply ``[i,s] < [k,u]``
    (``i != j != k``); the first failing ``(j,t)``, then ``(i,s,k,u)``, in
    lexicographic order is the witness."""
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


def psi(sm):
    """No two chains advance in lockstep: never ``[i,s-1] < [j,t]`` and
    ``[j,t-1] < [i,s]``; the first such ``(i,j,s,t)`` is the witness."""
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


def es(m):
    """The state model an event model induces: chains ``i.0 .. i.n_i`` and
    ``[i,r] < [j,s]`` across chains iff the event leaving ``[i,r]`` is, or
    happened before, the event entering ``[j,s]``."""
    procs = m.proc_events
    chains = [[f"{i}.{k}" for k in range(len(events) + 1)] for i, events in enumerate(procs, start=1)]
    pairs = [pair for chain in chains for pair in zip(chain, chain[1:])]
    for i, j in itertools.permutations(range(len(procs)), 2):
        for r, e in enumerate(procs[i]):
            for s, f in enumerate(procs[j], start=1):
                if e == f or m.poset.less(e, f):
                    pairs.append((chains[i][r], chains[j][s]))
    poset = build_poset([s for chain in chains for s in chain], pairs)
    return build_state_model(poset, chains)


def chain_clocks(p, chains):
    """Per element ``(down, up)``: per chain, the highest position strictly
    below it (-1 if none) and the lowest strictly above it (the chain's
    length if none).  A chain meets a strict down-set in a prefix and a
    strict up-set in a suffix, so both are counts of ``less`` answers."""
    return {
        e: (
            [sum(p.less(x, e) for x in chain) - 1 for chain in chains],
            [len(chain) - sum(p.less(e, x) for x in chain) for chain in chains],
        )
        for e in p.elements
    }


# --- checkpoints -------------------------------------------------------------

def concurrent(p, a, b):
    return a != b and not p.less(a, b) and not p.less(b, a)


def global_checkpoints(rm):
    """The global checkpoints of *rm*, the one-per-chain tuples of pairwise
    concurrent states, by the state they hold: ``holding(i, state)``
    iterates over those that hold *state* on chain *i* (from 0), in the
    order of ``itertools.product(*rm.chains)``, with the tuples that fail
    cut short."""
    p, chains = rm.poset, rm.chains
    states = [s for chain in chains for s in chain]
    others = {a: {b for b in states if concurrent(p, a, b)} for a in states}

    def holding(i, state):
        def extend(picks):
            if len(picks) == len(chains):
                yield picks
                return
            c = len(picks)
            for x in (state,) if c == i else chains[c]:
                if others[x].issuperset(picks):
                    yield from extend(picks + (x,))

        return extend(())

    return holding


def checkpoint_report(sm, marking, engine):
    """The report ``find_useless_checkpoints(sm, marking, engine)`` gives.

    Every engine names, for a useful checkpoint, the first global
    checkpoint in product order that holds it: one-per-chain tuples of
    pairwise concurrent marked states are closed under componentwise min,
    so that first tuple is the least one, the one both engines name.  The
    fast engine applies when the initial states and the final states are
    pairwise concurrent, and defers to the oracle (``oracle-fallback``)
    otherwise; ``both`` then records that the two agree.  The oracle raises
    ``OracleBoundExceeded`` above ``2 ** oracle_bound()`` tuples.
    """
    rm = restricted_model(sm, marking)
    p = rm.poset
    fast = all(
        concurrent(p, a, b)
        for ends in (0, -1)
        for a, b in itertools.combinations([c[ends] for c in rm.chains], 2)
    )
    if engine == "oracle" or engine == "both" or not fast:
        combos = 1
        for chain in rm.chains:
            combos *= len(chain)
        cap = 1 << oracle_bound()
        if combos > cap:
            raise OracleBoundExceeded(f"{combos} tuples exceed oracle cap {cap}")
    used = "oracle" if engine == "oracle" else engine if fast else "oracle-fallback"
    holding = global_checkpoints(rm)
    verdicts = []
    for i, (idxs, chain) in enumerate(zip(marking.marks, rm.chains)):
        for k, state in zip(idxs, chain):
            witness = next(holding(i, state), None)
            witness = None if witness is None else frozenset(witness)
            verdicts.append(CheckpointVerdict(state, i + 1, k, witness is not None, witness))
    agree = True if engine == "both" and fast else None
    return CheckpointReport(tuple(verdicts), used, agree)


# --- closure, covers and the matching ----------------------------------------

def closure_and_covers(elements, relation_pairs):
    """``(elements, up, down, covers)`` of the order *relation_pairs*
    generates on *elements*: ids sorted, element ``i`` as bit ``i``, ``up``
    and ``down`` the strict up- and down-sets as bitsets, and ``covers``
    the sorted pairs ``a < b`` with nothing between them, each closure pair
    tested."""
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    n = len(els)
    adj = [0] * n
    indeg = [0] * n
    for a, b in set(relation_pairs):
        adj[index[a]] |= 1 << index[b]
        indeg[index[b]] += 1
    order = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for w in range(n):
            if adj[v] >> w & 1:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    up = [0] * n
    for v in reversed(order):
        up[v] = adj[v]
        for w in range(n):
            if adj[v] >> w & 1:
                up[v] |= up[w]
    down = [0] * n
    for i, j in itertools.permutations(range(n), 2):
        if up[i] >> j & 1:
            down[j] |= 1 << i
    covers = sorted(
        (els[i], els[j])
        for i, j in itertools.permutations(range(n), 2)
        if up[i] >> j & 1 and not up[i] & down[j]
    )
    return els, tuple(up), tuple(down), tuple(covers)


def kuhn(p):
    """Kuhn's maximum matching between left copies (sources of ``<``) and
    right copies (targets): one augmenting-path search per left vertex in
    sorted-id order, each a DFS that scans a neighbour list in sorted-id
    order and skips the right vertices it has visited.  Returns the partner
    lists ``mate_l, mate_r`` by element index (-1 for none) and the longest
    augmenting path, counted in right vertices."""
    els = p.elements
    n = len(els)
    neighbors = [[j for j in range(n) if p.less(els[i], els[j])] for i in range(n)]
    mate_l, mate_r = [-1] * n, [-1] * n
    longest = 0
    for root in range(n):
        visited = set()
        stack = [(root, iter(neighbors[root]))]
        path = []
        while stack:
            v = next((v for v in stack[-1][1] if v not in visited), None)
            if v is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            visited.add(v)
            path.append(v)
            if mate_r[v] >= 0:
                w = mate_r[v]
                stack.append((w, iter(neighbors[w])))
                continue
            longest = max(longest, len(path))
            for (u, _), x in zip(stack, path):
                mate_l[u] = x
                mate_r[x] = u
            break
    return mate_l, mate_r, longest


def width_extensible(p):
    """Width-extensibility on Kuhn's partition (``minimum_chain_partition``),
    read off :func:`chain_clocks`: an element fails when some other chain
    has no state concurrent with it, and an incomparable pair when some
    third chain has no state concurrent with both.  The witness is the last
    failing element in sorted-id order, else the last failing pair in
    ``itertools.combinations`` order."""
    chains = minimum_chain_partition(p).chains
    at = {s: (c, k) for c, chain in enumerate(chains) for k, s in enumerate(chain)}
    clocks = chain_clocks(p, chains)

    def room(lows, highs, skip):
        return all(high - low >= 2 for c, (low, high) in enumerate(zip(lows, highs)) if c not in skip)

    singles = [s for s in p.elements if not room(*clocks[s], {at[s][0]})]
    if singles:
        return Verdict(False, frozenset({singles[-1]}), "no maximum antichain contains it")
    pairs = []
    for a, b in itertools.combinations(p.elements, 2):
        (da, ua), (db, ub) = clocks[a], clocks[b]
        cb, kb = at[b]
        if da[cb] < kb < ua[cb] and not room(map(max, da, db), map(min, ua, ub), {at[a][0], cb}):
            pairs.append((a, b))
    if pairs:
        return Verdict(False, frozenset(pairs[-1]), "no maximum antichain contains both")
    return Verdict(True)


# --- the lattice of cuts ---------------------------------------------------------

def linear_extension(p):
    """The lexicographically least linear extension of *p*: a heap of the
    ids whose lower covers are all placed, least first."""
    below = {e: 0 for e in p.elements}
    upper = {e: [] for e in p.elements}
    for a, b in p.covers:
        below[b] += 1
        upper[a].append(b)
    ready = [e for e in p.elements if not below[e]]
    order = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for f in upper[e]:
            below[f] -= 1
            if not below[f]:
                heapq.heappush(ready, f)
    return order


def downsets(p):
    """Every downset of *p* once, as a frozenset, in the order of the
    include/exclude walk over :func:`linear_extension`: the first undecided
    element of the extension is excluded with everything above it, and
    that subtree walked, then included.  The walk is lazy."""
    order = linear_extension(p)
    above = {e: {f for f in order[q + 1:] if p.less(e, f)} for q, e in enumerate(order)}
    stack = [(order, frozenset())]
    while stack:
        undecided, cut = stack.pop()
        if not undecided:
            yield cut
            continue
        e, rest = undecided[0], undecided[1:]
        stack.append((rest, cut | {e}))
        stack.append(([f for f in rest if f not in above[e]], cut))


def frontiers(view):
    """The maximum antichains of the width-extensible *view*, by the
    event/state duality: per cut of the event side of :func:`se_collapse`,
    in :func:`downsets` order, the position of each chain's state, which is
    the top slot the cut holds on that chain (0 for none)."""
    m = se_collapse(view).event_model
    for cut in downsets(m.poset):
        tops = [0] * view.n
        for e in cut:
            for i, k in m.labels[e]:
                tops[i - 1] = max(tops[i - 1], k)
        yield tuple(tops)


def width_antichain(view, tops):
    """The states of *view* at the positions *tops*, one per chain."""
    return frozenset(chain[k] for chain, k in zip(view.chains, tops))


def width_antichains(view):
    """The antichains of :func:`frontiers`, as sets of states."""
    return (width_antichain(view, tops) for tops in frontiers(view))


def cut_line(cut):
    """The ``cuts`` line of *cut*, without its newline."""
    return json.dumps({"cut": sorted(cut)})
