"""Enumeration of consistent cuts and maximum antichains, and the bijection.

Cut enumeration walks a binary include/exclude tree over a fixed linear
extension of the event poset: at each step the smallest undecided event is
either added to the cut (its predecessors are already in) or excluded
together with everything above it.  Every leaf is a distinct downset, both
branches of every interior node are productive, and the delay between
consecutive cuts is linear in the event count, comfortably inside the
quadratic per-cut budget the enumeration contract allows.

Maximum antichains of a state model are enumerated through the duality:
convert to the event side, enumerate consistent cuts there, and map each cut
back through the frontier bijection.  The family of cuts can be exponential
in the model size, so the CLI guards enumeration with an explicit cap.

Streams are lazy and single-consumer; separate enumerations may run in
parallel.  Materialized lattices are immutable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    GuardExceeded,
    InvalidStateModel,
    NotWidthAntichain,
    NotWidthExtensible,
    UnknownElement,
)
from .eventmodel import EventModel, is_consistent_cut, require_consistent_cut
from .poset import Poset, minimum_chain_partition, width
from .statemodel import (
    StateModel,
    check_width_extensible,
    require_width_antichain,
)
from .transforms import se_transform


def linear_extension(p: Poset) -> tuple[str, ...]:
    """A topological order of the poset, lexicographically tie-broken."""
    n = len(p.elements)
    indeg = [p._down[i].bit_count() for i in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(p.elements[v])
        mask = p._up[v]
        while mask:
            low = mask & -mask
            w = low.bit_length() - 1
            mask ^= low
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return tuple(order)


def enumerate_downsets(p: Poset) -> Iterator[frozenset[str]]:
    """Yield every downset of the poset exactly once, deterministically.

    The empty cut comes first and the full cut last.
    """
    order = linear_extension(p)
    n = len(order)
    pos = {e: q for q, e in enumerate(order)}
    # up_with_self in linear-extension coordinates
    up = []
    for e in order:
        mask = 1 << pos[e]
        m = p.up_mask(e)
        while m:
            low = m & -m
            mask |= 1 << pos[p.elements[low.bit_length() - 1]]
            m ^= low
        up.append(mask)

    full = (1 << n) - 1
    stack: list[tuple[int, int]] = [(full, 0)]
    while stack:
        avail, included = stack.pop()
        if not avail:
            yield frozenset(
                order[q] for q in range(n) if included >> q & 1
            )
            continue
        low = avail & -avail
        q = low.bit_length() - 1
        stack.append((avail & ~low, included | low))  # include, explored later
        stack.append((avail & ~up[q], included))  # exclude, explored first


def enumerate_event_cuts(m: EventModel) -> Iterator[frozenset[str]]:
    """All consistent cuts of an event model, each exactly once."""
    return enumerate_downsets(m.poset)


def _frontier(m: EventModel, cut: Iterable[str]) -> tuple[int, ...]:
    """Per-process top index of a cut (0 where the cut has no events)."""
    tops = [0] * m.n
    for e in cut:
        for i, k in m.labels[e]:
            if k > tops[i - 1]:
                tops[i - 1] = k
    return tuple(tops)


def cut_to_antichain(m: EventModel, cut: Iterable[str]) -> frozenset[str]:
    """Map a consistent cut to the matching maximum antichain of states.

    For each process the image keeps the state reached after the last cut
    event on that process (the initial state when there is none).  States are
    named ``i.k`` exactly as the forward transform names them.
    """
    events = require_consistent_cut(m, cut)
    tops = _frontier(m, events)
    return frozenset(f"{i + 1}.{k}" for i, k in enumerate(tops))


def _parse_state_id(m: EventModel, sid: str) -> tuple[int, int]:
    try:
        i_str, k_str = sid.split(".")
        i, k = int(i_str), int(k_str)
    except ValueError:
        raise UnknownElement(f"{sid!r} is not an i.k state id") from None
    if not 1 <= i <= m.n or not 0 <= k <= m.chain_length(i):
        raise UnknownElement(f"state {sid!r} out of range for this model")
    return i, k


def antichain_to_cut(m: EventModel, antichain: Iterable[str]) -> frozenset[str]:
    """Inverse of :func:`cut_to_antichain`.

    Accepts one ``i.k`` state per process; the cut keeps every event whose
    slot on some process lies at or below that process's chosen index.
    """
    coords = sorted(_parse_state_id(m, sid) for sid in antichain)
    if [i for i, _ in coords] != list(range(1, m.n + 1)):
        raise NotWidthAntichain("need exactly one state per process")
    for a in coords:
        for b in coords:
            if a != b and m.state_less(a, b):
                raise NotWidthAntichain(
                    f"states {a} and {b} are ordered, not concurrent"
                )
    tops = {i: k for i, k in coords}
    cut = frozenset(
        e
        for e, slots in m.labels.items()
        if any(k <= tops[i] for i, k in slots)
    )
    if not is_consistent_cut(m, cut):
        raise AssertionError("bijection produced an inconsistent cut")
    return cut


def _working_chains(target: StateModel | Poset) -> StateModel:
    if isinstance(target, StateModel):
        w, _ = width(target.poset)
        if target.n == w:
            return target
        poset = target.poset
    else:
        poset = target
    return StateModel(poset=poset, chains=minimum_chain_partition(poset).chains)


def enumerate_width_antichains(
    target: StateModel | Poset,
) -> Iterator[frozenset[str]]:
    """All maximum antichains of a width-extensible poset, each exactly once.

    Works through the duality: reverse-transform a chain-partitioned view of
    the poset, enumerate consistent cuts of the event side, and map each cut
    back through the bijection.  A state model whose chain count exceeds the
    poset width is re-partitioned internally (maximum antichains do not
    depend on the partition).

    Raises:
        NotWidthExtensible: the input fails the precondition (with witness).
    """
    poset = target.poset if isinstance(target, StateModel) else target
    verdict = check_width_extensible(poset)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    if not poset.elements:
        yield frozenset()
        return
    sm = _working_chains(target)
    outcome = se_transform(sm)
    if not outcome.ok:  # unreachable for width-extensible input
        raise InvalidStateModel(outcome.report)
    m = outcome.event_model
    for cut in enumerate_event_cuts(m):
        tops = _frontier(m, cut)
        yield frozenset(sm.state_at(i + 1, k) for i, k in enumerate(tops))


def lattice_meet_join(
    p: Poset, a: Iterable[str], b: Iterable[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """Meet and join of two maximum antichains (per-chain min and max).

    Mirrors union/intersection of the corresponding cuts under the bijection;
    both results are again maximum antichains.
    """
    fa = require_width_antichain(p, a)
    fb = require_width_antichain(p, b)
    cp = minimum_chain_partition(p)
    meet: list[str] = []
    join: list[str] = []
    for chain in cp.chains:
        xa = [s for s in chain if s in fa]
        xb = [s for s in chain if s in fb]
        if len(xa) != 1 or len(xb) != 1:
            raise AssertionError("maximum antichain must hit every chain once")
        ka, kb = chain.index(xa[0]), chain.index(xb[0])
        meet.append(chain[min(ka, kb)])
        join.append(chain[max(ka, kb)])
    fmeet, fjoin = frozenset(meet), frozenset(join)
    for res in (fmeet, fjoin):
        require_width_antichain(p, res)
    return fmeet, fjoin


@dataclass(frozen=True)
class CutLattice:
    """Materialized cut family with successor (one-event-step) links."""

    cuts: tuple[frozenset[str], ...]
    successors: Mapping[frozenset[str], tuple[frozenset[str], ...]]


def materialize_cut_lattice(m: EventModel, max_cuts: int | None = None) -> CutLattice:
    """Collect all cuts plus links to the cuts one added event above."""
    cuts: list[frozenset[str]] = []
    for cut in enumerate_event_cuts(m):
        cuts.append(cut)
        if max_cuts is not None and len(cuts) > max_cuts:
            raise GuardExceeded(f"cut count exceeds cap {max_cuts}")
    succ: dict[frozenset[str], tuple[frozenset[str], ...]] = {}
    for cut in cuts:
        mask = m.poset.set_to_mask(cut)
        nexts = []
        for e in m.poset.elements:
            if e in cut:
                continue
            if m.poset.down_mask(e) & ~mask:
                continue
            nexts.append(cut | {e})
        succ[cut] = tuple(nexts)
    return CutLattice(cuts=tuple(cuts), successors=succ)
