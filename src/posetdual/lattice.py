"""Enumeration of consistent cuts and maximum antichains, and the bijection.

Cut enumeration walks a binary include/exclude tree over a fixed linear
extension of the event poset: at each step the smallest undecided event is
either added to the cut (its predecessors are already in) or excluded
together with everything above it.  Every leaf is a distinct downset, both
branches of every interior node are productive, and each step is a few
bitset operations of O(events / word size), so the delay between
consecutive cuts is linear in the event count, comfortably inside the
quadratic per-cut budget the enumeration contract allows.  The linear
extension is the one the poset stores (``Poset._order``, the
lexicographically least), and the exclusion masks come from the covers,
in O(covers) bitset operations before the first cut.

Every cut is one earlier cut plus one event, so each output is rendered
from its parent's (:func:`_walk`): a stack frame carries an image bitset,
which including an event XORs with that event's flip, and the image's
rendered parts, one per field.  Including an event re-reads only the
fields its flip touches, from tables filled on first use, and reuses the
parent's other parts.  For downsets the image is the cut over the sorted
ids and the fields are its bytes; names are built only at the edge, once
per byte position and value.

Maximum antichains of a state model are enumerated through the duality:
convert to the event side and walk its cuts, with the image of each cut
under the bijection as the walk's image.  It starts at every chain's
initial state, and an event moves each chain it has a slot on to the next
state.  With a byte per field the parts are the antichain's names in
sorted-id order (:func:`antichain_parts`); with a field per chain they are
its frontier vector (:func:`frontier_parts`).  Either way an antichain
costs O(touched fields) table reads and no per-cut set of names.  The
family of cuts can be exponential in the model size, so the CLI guards
enumeration with an explicit cap.

Streams are lazy and single-consumer; separate enumerations may run in
parallel.  Materialized lattices are immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    GuardExceeded,
    InvalidStateModel,
    NotWidthAntichain,
    UnknownElement,
)
from .eventmodel import EventModel, is_consistent_cut, require_consistent_cut

# width and check_width_extensible are not called here any more; the names
# stay bound in this module because perfbench/tracing.py wraps them by these
# bindings.
from .poset import Poset, width  # noqa: F401
from .statemodel import (  # noqa: F401
    StateModel,
    check_width_extensible,
    minimum_view,
    require_width_antichain,
    require_width_extensible,
)
from .transforms import se_transform

T = TypeVar("T")


def linear_extension(p: Poset) -> tuple[str, ...]:
    """A topological order of the poset, lexicographically tie-broken
    (``Poset._order``)."""
    return tuple(p.elements[v] for v in p._order)


class _Table(dict):
    """Field value -> its rendered part, computed on first use."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[int], object]):
        super().__init__()
        self.render = render

    def __missing__(self, value: int):
        part = self[value] = self.render(value)
        return part


# A field of the walk's image: its lowest bit, its bit count, and its table.
Field = tuple[int, int, Mapping[int, object]]


def _byte_fields(items: Sequence, join: Callable[[list], T]) -> list[Field]:
    """One field per byte of a bitset over *items* (bit ``i`` is ``items[i]``),
    rendered as ``join`` of the byte's members in item order."""

    def table(chunk: Sequence) -> _Table:
        return _Table(lambda byte: join([x for b, x in enumerate(chunk) if byte >> b & 1]))

    return [(b, 8, table(items[b:b + 8])) for b in range(0, len(items), 8)]


def _walk(
    p: Poset, image: int, toggles: Sequence[Iterable[int]], fields: Sequence[Field]
) -> Iterator[list]:
    """Every downset of *p* once, rendered through an image bitset.

    The walk starts at the empty downset with *image*, and including element
    ``v`` XORs the image with the bits ``toggles[v]``.  Each downset comes out
    as its parts: part ``f`` is the table entry of ``fields[f]`` for that
    field of the image.  A stack frame carries its image and its parts, so
    including ``v`` re-reads only the fields ``toggles[v]`` touches and
    reuses the parent's other parts (the ideal tree of Habib, Medina,
    Nourine & Steiner, DAM 2001).  A yielded list is never changed later.

    The walk is the binary include/exclude tree over the linear extension
    (module docstring): the empty downset first, the full one last.  Its
    setup is O(covers) bitset operations.
    """
    upper, order = p._upper, p._order
    pos = [0] * len(order)
    for q, v in enumerate(order):
        pos[v] = q
    # Per position q, in one reverse sweep over the covers: order[q] and its
    # up-set as positions, which excluding order[q] removes.
    above = [0] * len(order)
    for q in reversed(range(len(order))):
        mask = 1 << q
        for w in upper[order[q]]:
            mask |= above[pos[w]]
        above[q] = mask
    keep = [~mask for mask in above]
    reads = [(f, low, (1 << bits) - 1, table) for f, (low, bits, table) in enumerate(fields)]
    field_of = [f for f, (_, bits, _) in enumerate(fields) for _ in range(bits)]
    flip = [sum(1 << b for b in toggles[v]) for v in order]
    touched = [[reads[f] for f in {field_of[b] for b in toggles[v]}] for v in order]

    parts = [table[image >> low & mask] for _, low, mask, table in reads]
    stack = [((1 << len(order)) - 1, image, parts)]
    while stack:
        avail, image, parts = stack.pop()
        while avail:
            low = avail & -avail
            q = low.bit_length() - 1
            child_image = image ^ flip[q]
            child = parts.copy()
            for f, shift, mask, table in touched[q]:
                child[f] = table[child_image >> shift & mask]
            stack.append((avail ^ low, child_image, child))  # include, explored later
            avail &= keep[q]  # exclude it and everything above it, explored first
        yield parts


def downset_parts(
    p: Poset, items: Sequence, join: Callable[[list], T]
) -> Iterator[list[T]]:
    """Every downset of the poset once, as the parts of its bitset.

    Bit ``i`` of the bitset is ``items[i]``, which stands for
    ``p.elements[i]``; part ``b`` is ``join`` of the members of byte ``b``,
    in sorted-id order, so the parts concatenate to the downset in that
    order.  The order of the stream is that of :func:`enumerate_downsets`.
    """
    return _walk(p, 0, [(v,) for v in range(len(p.elements))], _byte_fields(items, join))


def enumerate_downsets(p: Poset) -> Iterator[frozenset[str]]:
    """Yield every downset of the poset exactly once, deterministically.

    The empty cut comes first and the full cut last.
    """
    for parts in downset_parts(p, p.elements, tuple):
        yield frozenset(itertools.chain.from_iterable(parts))


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


def _antichain_walk(
    sm: StateModel, slots: Sequence[Sequence[int]], fields: Sequence[Field]
) -> Iterator[list]:
    """The maximum antichains of *sm* through its reverse transform.

    Runs :func:`_walk` on the event side with the antichain as the image:
    bit ``slots[i][k]`` stands for state ``k`` of ``sm.chains[i]``.  The
    image starts at every chain's first state, and an event toggles the old
    and the new state of each of its slots (a shared event flips two or
    more chains).  The poset must be width-extensible and have as many
    chains as its width; neither is checked here.
    """
    outcome = se_transform(sm)
    if not outcome.ok:  # unreachable for width-extensible input
        raise InvalidStateModel(outcome.report)
    m = outcome.event_model
    toggles = [
        [b for i, k in m.labels[e] for b in slots[i - 1][k - 1:k + 1]]
        for e in m.poset.elements
    ]
    image = sum(1 << chain[0] for chain in slots)
    return _walk(m.poset, image, toggles, fields)


def antichain_parts(
    sm: StateModel, items: Sequence, join: Callable[[list], T]
) -> Iterator[list[T]]:
    """The maximum antichains of *sm* as the parts of their bitsets.

    Bit ``i`` of the bitset is ``items[i]``, which stands for
    ``sm.poset.elements[i]``; part ``b`` is ``join`` of the members of byte
    ``b``, so the parts concatenate to the antichain in sorted-id order.
    The order of the stream and the precondition are those of
    :func:`frontier_parts`.
    """
    slots = [[sm.poset.index(s) for s in chain] for chain in sm.chains]
    return _antichain_walk(sm, slots, _byte_fields(items, join))


def frontier_parts(sm: StateModel) -> Iterator[list[int]]:
    """The maximum antichains of *sm* as frontier vectors in the walk's lists.

    Entry ``i`` of a vector is the position of the antichain's state on
    ``sm.chains[i]``.  The poset must be width-extensible and have as many
    chains as its width; neither is checked here.  The vectors come in the
    order of the consistent cuts of the reverse transform.  The image is
    laid out chain by chain, one field per chain, so an event re-reads the
    entries of the chains it moves.  A yielded list is never changed later
    (:func:`_walk`), so a consumer may keep it, or test it and drop it.
    """
    slots, fields, low = [], [], 0
    position = _Table(lambda bit: bit.bit_length() - 1)  # one-hot -> index
    for chain in sm.chains:
        slots.append(range(low, low + len(chain)))
        fields.append((low, len(chain), position))
        low += len(chain)
    return _antichain_walk(sm, slots, fields)


def enumerate_width_antichains(
    target: StateModel | Poset,
) -> Iterator[frozenset[str]]:
    """All maximum antichains of a width-extensible poset, each exactly once.

    Works through the duality: reverse-transform a chain-partitioned view of
    the poset, enumerate consistent cuts of the event side, and carry each
    cut's image under the bijection along the walk.  A state model whose
    initial states are ordered is re-partitioned internally (maximum
    antichains do not depend on the partition).

    Raises:
        NotWidthExtensible: the input fails the precondition (with witness).
    """
    sm = require_width_extensible(target)
    for parts in antichain_parts(sm, sm.poset.elements, tuple):
        yield frozenset(itertools.chain.from_iterable(parts))


def lattice_meet_join(
    p: Poset, a: Iterable[str], b: Iterable[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """Meet and join of two maximum antichains (per-chain min and max).

    Mirrors union/intersection of the corresponding cuts under the bijection;
    both results are again maximum antichains.
    """
    fa = require_width_antichain(p, a)
    fb = require_width_antichain(p, b)
    view = minimum_view(p)
    ka, kb = dict(map(view.coords, fa)), dict(map(view.coords, fb))
    if len(ka) != view.n or len(kb) != view.n:
        raise AssertionError("maximum antichain must hit every chain once")
    fmeet = frozenset(view.state_at(i, min(ka[i], kb[i])) for i in ka)
    fjoin = frozenset(view.state_at(i, max(ka[i], kb[i])) for i in ka)
    for res in (fmeet, fjoin):
        require_width_antichain(p, res)
    return fmeet, fjoin


@dataclass(frozen=True)
class CutLattice:
    """Materialized cut family with successor (one-event-step) links."""

    cuts: tuple[frozenset[str], ...]
    successors: Mapping[frozenset[str], tuple[frozenset[str], ...]]


def materialize_cut_lattice(m: EventModel, max_cuts: int | None = None) -> CutLattice:
    """Collect all cuts plus links to the cuts one added event above.

    Each cut is kept under its bitset over the sorted event ids.  An event
    that extends a cut is the first event of one of its processes outside
    the cut, found by a popcount per process, and the extended cut is the
    key ``mask | bit``: links come in sorted-id order, as the same objects
    as in ``cuts``.
    """
    p = m.poset
    items = [(1 << v, e) for v, e in enumerate(p.elements)]
    chains = [[1 << p.index(e) for e in events] for events in m.proc_events]
    owns = [sum(bits) for bits in chains]

    def join(members: list) -> tuple[int, list[str]]:  # a byte's bits and names
        return sum(bit for bit, _ in members), [e for _, e in members]

    by_mask: dict[int, frozenset[str]] = {}
    for parts in downset_parts(p, items, join):
        mask = sum(bits for bits, _ in parts)
        by_mask[mask] = frozenset(itertools.chain.from_iterable(names for _, names in parts))
        if max_cuts is not None and len(by_mask) > max_cuts:
            raise GuardExceeded(f"cut count exceeds cap {max_cuts}")
    succ: dict[frozenset[str], tuple[frozenset[str], ...]] = {}
    for mask, cut in by_mask.items():
        nexts = set()
        for own, bits in zip(owns, chains):
            k = (mask & own).bit_count()  # the cut holds a prefix of each chain
            if k < len(bits) and mask | bits[k] in by_mask:
                nexts.add(bits[k])
        succ[cut] = tuple(by_mask[mask | bit] for bit in sorted(nexts))
    return CutLattice(cuts=tuple(by_mask.values()), successors=succ)
