"""Conversions between event-based and state-based models.

The forward transform turns an event model into the state model it induces:
each process contributes a chain of ``n_i + 1`` states named ``i.k``, and
``[i,r] < [j,s]`` across chains exactly when the event entering ``[i,r+1]``
happened before (or is, for a shared event) the event entering ``[j,s]``.

The reverse transform rebuilds an event model from a state model.  It lays
down one tentative event per non-initial state, adds a cross edge
``(i,r) -> (j,s)`` whenever ``[i,r-1] < [j,s]``, and then collapses each
strongly connected component of the tentative graph into a single shared
event.  A component with two nodes on the same chain cannot be collapsed;
such inputs do not model any computation and are reported rather than
converted.  Only reachability in that graph matters, so it is read off the
covers: the chain edges and one edge per cross cover, plus one virtual node
per chain for the transition out of its final state, which names no event.

The forward transform reads the order from
:func:`~posetdual.poset.chain_clocks` instead of testing pairs: walking
each chain from the top down, it emits one pair per change of target and
leaves out the pairs a chain edge implies, at most O(events x processes)
pairs.  The reverse transform reads no clocks: its graph has O(covers)
edges, its components are screened before any event is named, and the
collapsed event order is closed from the edges between components.

The graph is built on integer node ids (:func:`_tentative_graph`), and one
Tarjan kernel over list-indexed arrays (:func:`_components`) serves the
reverse transform and the fast checkpoint engine of
:mod:`posetdual.analysis`.  :func:`transition_graph` and
:func:`strongly_connected_components` name its nodes for callers.

Both transforms are pure; parallel invocation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .eventmodel import EventModel, build_event_model
from .poset import build_poset, chain_clocks
from .statemodel import StateModel, build_state_model

Node = tuple[int, int]


def es_transform(m: EventModel) -> StateModel:
    """Event model -> state model; states are named ``i.k``.

    Every valid event model converts; the result is a poset and passes the
    omega checks by construction.  Each state ``[i,r]`` is below the lowest
    ``[j,s]`` of each other process ``j`` whose entering event is, or
    happened after, the event leaving ``[i,r]``.  That target is read off
    the chain clocks of the event poset over the processes, and it never
    rises from ``[i,r]`` to ``[i,r+1]``.  Each chain is walked from the top
    down, and a pair is emitted only where the target on ``j`` changes: the
    chain edge ``[i,r] < [i,r+1]`` implies the others, and the closure
    supplies the states above each target.  So there is one pair per change
    of target, at most O(events x processes) of them.
    """
    chains = [
        [f"{i}.{k}" for k in range(m.chain_length(i) + 1)] for i in range(1, m.n + 1)
    ]
    clocks = chain_clocks(m.poset, m.proc_events)
    labels = m.labels
    pairs: list[tuple[str, str]] = []
    for i, chain in enumerate(chains):
        pairs.extend(zip(chain, chain[1:]))
        # per process, the target of the state above; past its chain's end
        # when that state has none
        last = [len(other) for other in chains]
        events = m.proc_events[i]
        for r in range(len(events) - 1, -1, -1):
            e = events[r]
            targets = [u + 1 for u in clocks[e][1]]
            # A shared event itself enters a state on each of its processes.
            for j, k in labels[e]:
                targets[j - 1] = k
            targets[i] = last[i]  # no pair within the chain
            if targets != last:
                state = chain[r]
                for j, (s, t) in enumerate(zip(targets, last)):
                    if s != t:
                        pairs.append((state, chains[j][s]))
                last = targets
    poset = build_poset([s for chain in chains for s in chain], pairs)
    return build_state_model(poset, chains)


@dataclass(frozen=True, order=True)
class OffendingComponent:
    """A strongly connected component that blocks the reverse transform."""

    nodes: tuple[Node, ...]
    chain: int  # the chain contributing at least two nodes

    def as_json(self) -> dict:
        return {"nodes": [list(n) for n in self.nodes], "chain": self.chain}


@dataclass(frozen=True)
class InvalidityReport:
    """Why a state model cannot come from any event model."""

    components: tuple[OffendingComponent, ...]

    def as_json(self) -> dict:
        return {
            "error": "not-width-extensible",
            "components": [c.as_json() for c in self.components],
        }


@dataclass(frozen=True)
class SETransformOutcome:
    """Either the rebuilt event model or an invalidity report.

    ``temp_edges`` exposes the stored tentative pre-collapse graph for
    diagnostics, listed when read: per node, its chain edge and one edge per
    cross cover that leaves the state the node's transition leaves
    (:func:`transition_graph`).  Each chain's virtual node ``(i,len)`` is
    listed too.  Between real nodes its reachability and cycles are those
    of the full graph, whose other edges follow from these.
    """

    event_model: EventModel | None
    report: InvalidityReport | None
    _graph: tuple[list[Node], list[list[int]]] | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.event_model is not None

    @property
    def temp_edges(self) -> tuple[tuple[Node, Node], ...]:
        if self._graph is None:
            return ()
        nodes, succ = self._graph
        return tuple((a, nodes[w]) for a, out in zip(nodes, succ) for w in out)


def _nodes(chains: Sequence[Sequence[str]]) -> list[Node]:
    """The name ``(i,k)`` of each node id, chain by chain (the order of
    :func:`_tentative_graph`'s ids)."""
    return [(i, k) for i, chain in enumerate(chains, start=1) for k in range(1, len(chain) + 1)]


def _tentative_graph(sm: StateModel) -> list[list[int]]:
    """The graph of :func:`transition_graph` on integer node ids.

    Node ``(i,k)`` is ``base[i] + k - 1``, where ``base[i]`` counts the
    states on the chains before ``i``: node ``v`` is the transition out of
    the ``v``-th state in chain order.  Entry ``v`` lists its successors in
    the order :func:`transition_graph` lists them, the chain edge first.
    """
    p = sm.poset
    index, upper = p._index, p._upper
    flat = [index[s] for chain in sm.chains for s in chain]
    # per element [j,s], the node (j,max(1,s)) its cross covers lead to
    into = [0] * len(flat)
    for v, e in enumerate(flat):
        into[e] = v - 1
    v = 0
    for chain in sm.chains:
        into[flat[v]] = v
        v += len(chain)
    succ: list[list[int]] = []
    end = -1
    for chain in sm.chains:
        start, end = end + 1, end + len(chain)
        for v in range(start, end + 1):
            out = [v + 1] if v < end else []
            for w in upper[flat[v]]:
                w = into[w]
                if w != v:  # else the cover [i,k-1] < [i,k]
                    out.append(w)
            succ.append(out)
    return succ


def transition_graph(sm: StateModel) -> tuple[list[Node], dict[Node, list[Node]]]:
    """Tentative event graph of a state model (may contain cycles), sparse.

    Node ``(i,k)`` stands for the transition out of state ``[i,k-1]``, which
    is the transition into ``[i,k]`` when ``k`` is below the chain's length.
    The full graph has the chain edges and a cross edge ``(i,r) -> (j,s)``
    whenever ``[i,r-1] < [j,s]``, ``s >= 1``.  This one is read off the
    covers: the chain edges, and for each cross cover ``[i,r] ⋖ [j,s]`` the
    edge ``(i,r+1) -> (j,max(1,s))``.  A path of covers from ``[i,r-1]`` to
    ``[j,s]`` is then a path from ``(i,r)`` to ``(j,s)``, so reachability
    between real nodes, and with it the components, is that of the full
    graph, with one edge per cover and chain step.

    Each chain ``i`` also gets one virtual node ``(i,len)``, the transition
    out of its final state.  It carries the covers that leave the final
    state, and it is the target of a cover into ``[i,0]`` when the chain has
    only that state.  No transition enters it, so it names no event in
    :func:`se_transform`.  Paths through virtual nodes alone
    are acyclic, since each of their edges follows a cover.  Nodes are
    listed chain by chain; each successor list has at most one node per
    chain.
    """
    nodes = _nodes(sm.chains)
    succ = _tentative_graph(sm)
    return nodes, {a: [nodes[w] for w in out] for a, out in zip(nodes, succ)}


def _components(succ: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Tarjan's algorithm, iterative, on the nodes ``0 .. len(succ) - 1``.

    Returns the components, each sorted and listed after every component
    it reaches (reverse topological order), and each node's component
    number.  Roots are taken in id order.  The node being searched and an
    iterator over its successors are locals; ``work`` holds the frames
    it suspended.  ``number`` is 0 for a node not reached yet, its
    preorder number (from 1) while it is on the stack, and ``done + c``
    once it is in component ``c``: above every preorder number, so that it
    never lowers a ``low``.
    """
    done = len(succ) + 1
    number = [0] * len(succ)
    low = [0] * len(succ)
    stack: list[int] = []
    comps: list[list[int]] = []
    count = 0
    for root in range(len(succ)):
        if number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        stack.append(root)
        node, children = root, iter(succ[root])
        work = []
        while True:
            for child in children:
                seen = number[child]
                if not seen:
                    count += 1
                    number[child] = low[child] = count
                    stack.append(child)
                    work.append((node, children))
                    node, children = child, iter(succ[child])
                    break
                if seen < low[node]:
                    low[node] = seen
            else:
                least = low[node]
                if least == number[node]:
                    seen = done + len(comps)
                    member = stack.pop()
                    number[member] = seen
                    comp = [member]
                    while member != node:
                        member = stack.pop()
                        number[member] = seen
                        comp.append(member)
                    comp.sort()
                    comps.append(comp)
                if not work:
                    break
                # A root's preorder number is above its parent's low.
                node, children = work.pop()
                if least < low[node]:
                    low[node] = least
    return comps, [seen - done for seen in number]


def strongly_connected_components(
    nodes: Sequence[Node], succ: dict[Node, list[Node]]
) -> list[tuple[Node, ...]]:
    """The components of the graph *succ* on *nodes*, which lists every
    node: each sorted, listed after every component it reaches (reverse
    topological order), with roots taken in the order of *nodes*.

    Runs :func:`_components` on the nodes' positions in *nodes*.
    """
    nodes = list(dict.fromkeys(nodes))
    ids = {node: v for v, node in enumerate(nodes)}
    comps, _ = _components([[ids[w] for w in succ[a]] for a in nodes])
    return [tuple(sorted(map(nodes.__getitem__, comp))) for comp in comps]


def _shared_id(members: Sequence[Node]) -> str:
    return "shared(" + ",".join(f"{i}.{k}" for i, k in sorted(members)) + ")"


def se_transform(sm: StateModel) -> SETransformOutcome:
    """State model -> event model, or an invalidity report.

    Up to the closure of the collapsed order, runs in time linear in the
    tentative graph, which has one edge per cover and chain step: O(covers),
    with no chain clocks.  Collapsed shared events get deterministic ids so
    that round-trips compare equal; plain events are named ``e<i>.<k>``.

    The graph is built and collapsed on integer node ids; nodes are named
    only for the result.  The components are screened first: a model with
    a component holding two nodes of one chain is reported before any
    event is named.  Otherwise the graph is collapsed in one pass over its
    components, in the order :func:`_components` lists them.  A component
    with a real node names an event, and every node in it, virtual nodes
    included, maps to that event.  A component of virtual nodes alone is a
    relay: it stands for the events its successors map to.  Each process's
    slot list is filled with the names, in slot order, and handed to
    :func:`build_event_model` as the loader hands its own, so no label is
    normalized twice.  The event order is closed from one pair per edge
    out of a mapped node, with relays expanded.  It is the order of the
    components' reachability:

    * Paths of virtual nodes follow covers, so they are acyclic.  Hence a
      component with no real node is a single virtual node, and a virtual
      node on a cycle shares its component with a real node.
    * Say virtual node ``b`` lies in the component of event ``E``.  An edge
      ``a -> b`` gives ``a <= E``; the real nodes of ``E`` reach ``b``, so
      the edges out of ``b`` are ``E``'s edges too.
    * Every successor of a relay lies in an earlier component, so its
      events are known before any edge into the relay is read.

    :func:`build_poset` keeps only the order the pairs generate (its
    closure, covers and least linear extension), so any pairs that
    generate the components' reachability give the same event poset.

    Known limitation: a model whose initial or final states are ordered
    (``omega1`` or ``omega2`` fails) is converted, without a report, but
    the forward transform of the result need not give it back.  With
    chains ``[1.0, 1.1]`` and ``[2.0]`` and ``1.1 < 2.0``, the result is
    the one event ``e1.1``, whose forward transform drops ``1.1 < 2.0``:
    no transition enters ``2.0``.  Rejecting such models is left open.
    """
    succ = _tentative_graph(sm)
    nodes = _nodes(sm.chains)
    virtual = [False] * len(succ)
    end = -1
    for chain in sm.chains:
        end += len(chain)
        virtual[end] = True
    components, comp_of = _components(succ)
    offending: list[OffendingComponent] = []
    for comp in components:
        if len(comp) > 1:
            real = tuple(nodes[v] for v in comp if not virtual[v])
            twice = [i for (i, _), (j, _) in zip(real, real[1:]) if i == j]
            if twice:
                offending.append(OffendingComponent(nodes=real, chain=twice[0]))
    if offending:
        return SETransformOutcome(
            event_model=None,
            report=InvalidityReport(tuple(sorted(offending))),
            _graph=(nodes, succ),
        )

    # per component, the events it stands for
    events: list[tuple[str, ...]] = [()] * len(components)
    labels: dict[str, frozenset[Node]] = {}
    mapped: list[tuple[str, list[int]]] = []
    # per chain, the event of each real node (i,1), (i,2), ...
    slot_events: list[list[str]] = [[""] * (len(chain) - 1) for chain in sm.chains]
    for c, comp in enumerate(components):
        if len(comp) > 1:
            real = tuple(nodes[v] for v in comp if not virtual[v])
        elif virtual[comp[0]]:
            events[c] = tuple(
                dict.fromkeys(e for w in succ[comp[0]] for e in events[comp_of[w]])
            )
            continue
        else:
            real = (nodes[comp[0]],)
        if len(real) == 1:
            ((i, k),) = real
            eid = f"e{i}.{k}"
        else:
            eid = _shared_id(real)
        for i, k in real:
            slot_events[i - 1][k - 1] = eid
        labels[eid] = frozenset(real)
        mapped.append((eid, comp))
        events[c] = (eid,)

    pairs = [
        (ea, eb)
        for ea, comp in mapped
        for a in comp
        for b in succ[a]
        for eb in events[comp_of[b]]
        if eb != ea
    ]
    poset = build_poset(labels.keys(), pairs)
    # The loader's path: the sorted (index, event) lists of each process
    # with events.  The screening leaves each event at most one slot per
    # process, so the per-event label checks cannot fail; build_event_model
    # still checks the lists and each process's order.
    per_proc = {
        i: list(enumerate(row, start=1))
        for i, row in enumerate(slot_events, start=1)
        if row
    }
    model = build_event_model(
        poset, sm.n, labels, allow_empty_process=True, _per_proc=per_proc
    )
    return SETransformOutcome(event_model=model, report=None, _graph=(nodes, succ))


def event_signature(m: EventModel):
    """Canonical shape of an event model, invariant under event renaming.

    Each event is keyed by its sorted slot tuple (slots are unique across
    events), so two models compare equal iff they agree on slot sets and on
    the happened-before relation between them.
    """
    sig = {e: tuple(sorted(slots)) for e, slots in m.labels.items()}
    edges = frozenset(
        (sig[a], sig[b]) for a, b in m.poset.closure_pairs()
    )
    return m.n, frozenset(sig.values()), edges


def state_signature(sm: StateModel):
    """Canonical shape of a state model in chain coordinates."""
    lengths = tuple(len(c) for c in sm.chains)
    pairs = frozenset(
        (sm.coords(a), sm.coords(b)) for a, b in sm.poset.closure_pairs()
    )
    return lengths, pairs


def roundtrip_es_se(m: EventModel) -> bool:
    """True iff the reverse transform undoes the forward one on *m*."""
    outcome = se_transform(es_transform(m))
    if not outcome.ok:
        return False
    return event_signature(outcome.event_model) == event_signature(m)


def roundtrip_se_es(sm: StateModel) -> bool:
    """True iff the forward transform undoes the reverse one on *sm*."""
    outcome = se_transform(sm)
    if not outcome.ok:
        return False
    return state_signature(es_transform(outcome.event_model)) == state_signature(sm)
