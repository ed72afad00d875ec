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

The walk (:func:`_walk`) carries an image bitset per cut, not a set of
names: including an event XORs the image with that event's flip.  A frame
of the walk is an image and ``avail``, the positions neither decided nor
excluded, and the images of its subtree are its image XOR a list of
deltas that depend on ``avail`` alone.  By induction on the positions in
``avail``: the frame with none emits its image (the delta 0); otherwise,
with ``q`` the lowest position in ``avail``, its subtree is that of
``avail`` less ``q`` and everything above ``q``, with the same image, then
that of ``avail`` less ``q``, with ``q``'s flip XORed into the image.
Neither step reads the image, and XOR commutes, so the deltas of ``avail``
are those of the first subframe followed by those of the second, each
XOR ``q``'s flip.  The walk therefore expands frames one at a time only
while they have more than ``_BLOCK`` positions; a smaller frame emits its
subtree as one block, ``(avail, image, deltas)``, with the deltas built
the first time its ``avail`` is met and kept for every later frame with
the same ``avail``.  Every kept block has been emitted, the latest
perhaps not yet consumed, so the memo never holds more deltas than the walk
has emitted plus one block.

For downsets the image is the cut over the sorted ids.  Maximum antichains
of a state model are enumerated through the duality: convert to the event
side and walk its cuts, with the image of each cut under the bijection as
the walk's image.  It starts at every chain's initial state, and an event
moves each chain it has a slot on to the next state.  With a bit per state
the image is the antichain over the sorted ids; with a counter field per
chain it is the frontier vector, which ``struct`` unpacks in one call.
Bitsets are named a chunk at a time (:func:`_named`), in 16-bit fields
looked up in tables filled on first use, so a cut costs C-level calls
only, and no per-cut set of names.  The family of cuts can be exponential
in the model size, so the CLI guards enumeration with an explicit cap.

With counter fields, a block's ``avail`` fixes more than its deltas.  Call
a chain touched when ``avail`` holds one of its events.  An untouched
chain keeps the frame image's field in every image of the block, since
each delta XORs flips of events in ``avail`` only, and none of them moves
it.  A touched chain's field in ``image ^ delta`` depends on ``avail`` and
the delta alone.  Let ``a`` be its lowest event in ``avail``.  The walk
includes only the lowest position of a frame's ``avail``, so every event
in the frame's cut lies before every position in ``avail``, and no event
of the chain from ``a`` on is in it.  Every event of the chain below ``a``
is: it lies below ``a`` in the poset, so excluding it would have excluded
``a`` with it, and were it undecided it would be in ``avail`` below ``a``.
So the frame's field is ``a``'s index on the chain less one, fixed by
``avail``, and the delta moves it from there.  Predicate counts rest on
this (:func:`posetdual.analysis.count_width_predicate`).

Streams are lazy and single-consumer; separate enumerations may run in
parallel.  Materialized lattices are immutable.
"""

from __future__ import annotations

import itertools
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
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


# A frame of the walk with at most this many available positions emits its
# subtree as one block of images: up to 2**_BLOCK deltas, built once per
# distinct avail mask (module docstring).  A lower bound expands more frames
# one at a time in Python; a higher one builds larger blocks, each met fewer
# times.
_BLOCK = 16

# Bitsets are named this many at a time: a chunk is some kB of bytes, its
# setup costs as much as naming a few dozen bitsets, and a lazy stream reads
# at most this far ahead.
_CHUNK = 1024


class _Table(dict):
    """Field value -> its rendered part, computed on first use."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[int], object]):
        super().__init__()
        self.render = render

    def __missing__(self, value: int):
        part = self[value] = self.render(value)
        return part


def _frames(
    avail: int, image: int, keep: Sequence[int], flip: Sequence[int], bound: int
) -> Iterator[tuple[int, int]]:
    """The frames of the walk below ``(avail, image)`` that have at most
    *bound* available positions, in walk order, as ``(avail, image)``."""
    stack = [(avail, image)]
    while stack:
        avail, image = stack.pop()
        while avail.bit_count() > bound:
            low = avail & -avail
            q = low.bit_length() - 1
            stack.append((avail ^ low, image ^ flip[q]))  # include, explored later
            avail &= keep[q]  # exclude it and everything above it, explored first
        yield avail, image


def _walk(p: Poset, image: int, flips: Sequence[int]) -> Iterator[tuple[int, int, list[int]]]:
    """Every downset of *p* once, as an image bitset, in blocks of images.

    The walk starts at the empty downset with *image*, and including element
    ``v`` XORs the image with ``flips[v]`` (the ideal tree of Habib, Medina,
    Nourine & Steiner, DAM 2001).  It is the binary include/exclude tree
    over the linear extension: the empty downset first, the full one last.
    Each block is the subtree of a frame with at most ``_BLOCK`` available
    positions, as ``(avail, image, deltas)``: its images are ``image ^
    delta`` per delta, in order, and *deltas* is built on first use and is
    the same list for every block with the same *avail* (module docstring).
    Its setup is O(covers) bitset operations.
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
    flip = [flips[v] for v in order]
    memo: dict[int, list[int]] = {}
    for avail, image in _frames((1 << len(order)) - 1, image, keep, flip, _BLOCK):
        deltas = memo.get(avail)
        if deltas is None:
            deltas = memo[avail] = [delta for _, delta in _frames(avail, 0, keep, flip, 0)]
        yield avail, image, deltas


def _images(blocks: Iterable[tuple[int, int, list[int]]]) -> Iterator[int]:
    """The images of the blocks of :func:`_walk`, in order."""
    return itertools.chain.from_iterable(map(image.__xor__, deltas) for _, image, deltas in blocks)


def _downsets(p: Poset) -> Iterator[int]:
    """Every downset of *p* once, as its bitset over ``p.elements``."""
    return _images(_walk(p, 0, [1 << v for v in range(len(p.elements))]))


def _named(
    bitsets: Iterable[int], items: Sequence, join: Callable[[list], T]
) -> Iterator[tuple[T, ...]]:
    """Per bitset over *items* (bit ``i`` is ``items[i]``), ``join`` of its
    members in each field of 16 items, in item order.

    A chunk of bitsets becomes one bytes object, read as 16-bit columns, and
    each column is looked up in its field's table: C-level calls per bitset,
    and one Python call per field value met for the first time.  Even no
    items make one field, so the empty bitset is named too.
    """

    def table(chunk: Sequence) -> _Table:
        return _Table(lambda value: join([x for b, x in enumerate(chunk) if value >> b & 1]))

    tables = [table(items[f:f + 16]) for f in range(0, len(items) or 1, 16)]

    def name(chunk: list[int]) -> Iterator[tuple[T, ...]]:
        size = repeat(2 * len(tables))
        columns = array("H", b"".join(map(int.to_bytes, chunk, size, repeat("little"))))
        if sys.byteorder == "big":
            columns.byteswap()
        return zip(*[map(t.__getitem__, columns[f::len(tables)]) for f, t in enumerate(tables)])

    bitsets = iter(bitsets)
    chunks = iter(lambda: list(itertools.islice(bitsets, _CHUNK)), [])
    return itertools.chain.from_iterable(map(name, chunks))


def _frozensets(bitsets: Iterable[int], items: Sequence[str]) -> Iterator[frozenset[str]]:
    """Per bitset over *items*, the set of its members."""
    return map(frozenset, map(itertools.chain.from_iterable, _named(bitsets, items, tuple)))


def enumerate_downsets(p: Poset) -> Iterator[frozenset[str]]:
    """Yield every downset of the poset exactly once, deterministically.

    The empty cut comes first and the full cut last.
    """
    yield from _frozensets(_downsets(p), p.elements)


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
    """The coordinates of a state id exactly as :func:`cut_to_antichain`
    names it: ``int`` alone would also read signs, spaces, underscores and
    leading zeros."""
    try:
        i_str, k_str = sid.split(".")
        i, k = int(i_str), int(k_str)
        if f"{i}.{k}" != sid:
            raise ValueError
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
    sm: StateModel, start: int, flip: Callable[[int, int], int]
) -> Iterator[tuple[int, int, list[int]]]:
    """The maximum antichains of *sm* as blocks of images, through its
    reverse transform.

    Walks the cuts of the event side (:func:`_walk`) with the antichain's
    image: *start* stands for every chain's initial state, and
    ``flip(i, k)`` is the bits that move ``sm.chains[i]`` from state
    ``k - 1`` to state ``k``.  An event flips each chain it has a slot on (a
    shared event two or more); its slots are on distinct chains, whose bits
    are disjoint, so their flips sum to the event's.  The images come in the
    order of the consistent cuts of the reverse transform.  The poset must
    be width-extensible and have as many chains as its width; neither is
    checked here.
    """
    outcome = se_transform(sm)
    if not outcome.ok:  # unreachable for width-extensible input
        raise InvalidStateModel(outcome.report)
    m = outcome.event_model
    flips = [sum(flip(i - 1, k) for i, k in m.labels[e]) for e in m.poset.elements]
    return _walk(m.poset, start, flips)


def _antichains(sm: StateModel) -> Iterator[int]:
    """The maximum antichains of *sm* as bitsets over ``sm.poset.elements``,
    as :func:`_antichain_walk` gives them."""
    index = [[sm.poset.index(s) for s in chain] for chain in sm.chains]
    start = sum(1 << chain[0] for chain in index)
    blocks = _antichain_walk(sm, start, lambda i, k: (1 << index[i][k - 1]) | (1 << index[i][k]))
    return _images(blocks)


def _frontier_walk(sm: StateModel) -> tuple[struct.Struct, Iterator[tuple[int, int, list[int]]]]:
    """The blocks of :func:`_antichain_walk` with frontier vectors for
    images, and the struct that unpacks an image's bytes into its vector.

    Entry ``i`` of a vector is the position of the antichain's state on
    ``sm.chains[i]``.  The image holds that position in a field of its own
    per chain, wide enough for the longest chain, so moving chain ``i`` to
    state ``k`` XORs ``(k - 1) ^ k`` into its field, and one unpack reads the
    vector off the image's bytes.
    """
    longest = max(map(len, sm.chains), default=1)
    formats = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    size, code = next(f for f in formats if longest <= 1 << 8 * f[0])
    vector = struct.Struct("<" + code * sm.n)
    return vector, _antichain_walk(sm, 0, lambda i, k: ((k - 1) ^ k) << (8 * size * i))


def _frontiers(sm: StateModel) -> Iterator[tuple[int, ...]]:
    """The maximum antichains of *sm* as frontier vectors
    (:func:`_frontier_walk`), in walk order."""
    vector, blocks = _frontier_walk(sm)
    images = map(int.to_bytes, _images(blocks), repeat(vector.size), repeat("little"))
    return map(vector.unpack, images)


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
    yield from _frozensets(_antichains(sm), sm.poset.elements)


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
    chains = [[1 << p.index(e) for e in events] for events in m.proc_events]
    owns = [sum(bits) for bits in chains]
    masks = list(itertools.islice(_downsets(p), None if max_cuts is None else max_cuts + 1))
    if max_cuts is not None and len(masks) > max_cuts:
        raise GuardExceeded(f"cut count exceeds cap {max_cuts}")
    by_mask = dict(zip(masks, _frozensets(masks, p.elements)))
    succ: dict[frozenset[str], tuple[frozenset[str], ...]] = {}
    for mask, cut in by_mask.items():
        nexts = set()
        for own, bits in zip(owns, chains):
            k = (mask & own).bit_count()  # the cut holds a prefix of each chain
            if k < len(bits) and mask | bits[k] in by_mask:
                nexts.add(bits[k])
        succ[cut] = tuple(by_mask[mask | bit] for bit in sorted(nexts))
    return CutLattice(cuts=tuple(by_mask.values()), successors=succ)
