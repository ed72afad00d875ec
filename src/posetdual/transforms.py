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
converted.  Only reachability in that graph matters, so it is stored
sparse: each node keeps its chain edge and, per other chain, the cross edge
to the lowest such ``(j,s)``; the chain edges imply the rest.

Both directions read the order from :func:`~posetdual.poset.chain_clocks`
instead of testing pairs: the forward transform emits one pair per state and
other process, O(events x processes) before the closure, and the tentative
graph takes each node's edges from one clock, O(states x processes) edges.
The collapsed event order is closed from the edges between components.

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
    omega checks by construction.  Each state ``[i,r]`` gets one pair per
    other process ``j``: to the lowest ``[j,s]`` whose entering event is, or
    happened after, the event leaving ``[i,r]``.  That position is read off
    the chain clocks of the event poset over the processes, and the closure
    supplies the states above it: O(events x processes) pairs.
    """
    chains = [
        [f"{i}.{k}" for k in range(m.chain_length(i) + 1)] for i in range(1, m.n + 1)
    ]
    clocks = chain_clocks(m.poset, m.proc_events)
    pairs: list[tuple[str, str]] = []
    for i, chain in enumerate(chains):
        pairs.extend(zip(chain, chain[1:]))
        for r, e in enumerate(m.proc_events[i]):
            own = {j - 1: k for j, k in m.labels[e]}
            up = clocks[e][1]
            for j, other in enumerate(chains):
                # A shared event itself enters a state on each of its processes.
                s = own.get(j, up[j] + 1)
                if j != i and s < len(other):
                    pairs.append((chain[r], other[s]))
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
    diagnostics, listed when read: per node, its chain edge and its lowest
    edge to each other chain.  The edges it leaves out follow from these by
    chain edges, so its reachability and cycles are those of the full graph.
    """

    event_model: EventModel | None
    report: InvalidityReport | None
    _graph: tuple[list[Node], dict[Node, list[Node]]] | None = field(
        default=None, repr=False
    )

    @property
    def ok(self) -> bool:
        return self.event_model is not None

    @property
    def temp_edges(self) -> tuple[tuple[Node, Node], ...]:
        if self._graph is None:
            return ()
        nodes, succ = self._graph
        return tuple((a, b) for a in nodes for b in succ[a])


def transition_graph(sm: StateModel) -> tuple[list[Node], dict[Node, list[Node]]]:
    """Tentative event graph of a state model (may contain cycles), sparse.

    Nodes ``(i,k)`` stand for the transition into state ``[i,k]``.  The full
    graph has the chain edges and a cross edge ``(i,r) -> (j,s)`` whenever
    ``[i,r-1] < [j,s]``; on chain ``j`` those ``s`` run from the lowest
    state above ``[i,r-1]`` (its chain clock) to the top.  Each node keeps
    its chain edge and only the first cross edge per other chain: chain
    edges reach the rest, so reachability and the components are the same
    with O(states x processes) edges.  Successor lists are sorted, at most
    one node per chain.
    """
    clocks = sm.clocks()
    nodes: list[Node] = []
    succ: dict[Node, list[Node]] = {}
    for i, chain in enumerate(sm.chains, start=1):
        for r in range(1, len(chain)):
            up = clocks[chain[r - 1]][1]
            out: list[Node] = []
            for j, other in enumerate(sm.chains, start=1):
                s = r + 1 if j == i else max(1, up[j - 1])
                if s < len(other):
                    out.append((j, s))
            nodes.append((i, r))
            succ[(i, r)] = out
    return nodes, succ


def strongly_connected_components(
    nodes: Sequence[Node], succ: dict[Node, list[Node]]
) -> list[tuple[Node, ...]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    counter = 0
    result: list[tuple[Node, ...]] = []

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
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


def _shared_id(members: Sequence[Node]) -> str:
    return "shared(" + ",".join(f"{i}.{k}" for i, k in sorted(members)) + ")"


def se_transform(sm: StateModel) -> SETransformOutcome:
    """State model -> event model, or an invalidity report.

    Up to the closure of the collapsed order, runs in time linear in the
    sparse tentative graph: O(states x processes).  Collapsed shared events
    get deterministic ids so that round-trips compare equal; plain events
    are named ``e<i>.<k>``.
    """
    nodes, succ = transition_graph(sm)
    components = strongly_connected_components(nodes, succ)

    offending: list[OffendingComponent] = []
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

    comp_of: dict[Node, tuple[Node, ...]] = {}
    for comp in components:
        for node in comp:
            comp_of[node] = comp
    ids: dict[tuple[Node, ...], str] = {}
    labels: dict[str, frozenset[Node]] = {}
    for comp in components:
        (i, k) = comp[0]
        eid = f"e{i}.{k}" if len(comp) == 1 else _shared_id(comp)
        ids[comp] = eid
        labels[eid] = frozenset(comp)
    pairs = [
        (ids[comp_of[a]], ids[comp_of[b]])
        for a in nodes
        for b in succ[a]
        if comp_of[b] is not comp_of[a]
    ]
    poset = build_poset(labels.keys(), pairs)
    # The component screening makes this validation unreachable-by-failure.
    model = build_event_model(poset, sm.n, labels, allow_empty_process=True)
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
