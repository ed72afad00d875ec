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
has emitted plus one block.  The deltas are packed into one int, a fixed
width of bytes each, and built by the same induction with a few int
operations per ``avail`` met: the packed deltas of the first subframe, then
those of the second XOR ``q``'s flip repeated (:func:`_packed`).  The
build keeps the deltas of the smaller ``avail`` it meets in a memo of its
own, dropped once the block is built.  Each of them is a frame at some
depth of the block's subtree, frames at one depth have disjoint subtrees,
and every step down removes a position, so that memo holds at most
``_BLOCK + 1`` times the block's deltas.  A block's images are then one
XOR of its packed deltas with its image repeated, as bytes, which are read
in runs of ``_CHUNK`` images (:func:`_runs`).

For downsets the image is the cut over the sorted ids.  Maximum antichains
of a state model are enumerated through the duality: convert to the event
side and walk its cuts, with the image of each cut under the bijection as
the walk's image.  It starts at every chain's initial state, and an event
moves each chain it has a slot on to the next state.  With a bit per state
the image is the antichain over the sorted ids; with a counter field per
chain it is the frontier vector, which ``struct`` unpacks a run at a time.
Bitsets are named a run at a time, in 16-bit columns looked up in tables
filled on first use, so a cut costs C-level calls only, and no per-cut set
of names.  The family of cuts can be exponential in the model size, so the
CLI guards enumeration with an explicit cap.

The CLI writes a run's ``cuts`` lines with one join over the parts of all
of them, a column at a time (:func:`posetdual.cli._cut_lines`).  Each name
is rendered with the ", " it takes after another name, so the first name
of a cut must drop it.  Call the anchor of a run its first column that is
not all zero.  If no entry of the anchor is zero, the first name of every
cut of the run lies in the anchor's field: names are in bit order, every
cut is zero in the fields before the anchor, since their columns are all
zero, and nonzero in the anchor's.  So the anchor is read from a table
whose parts have no leading ", ", and every later field from the tables
with it.  Otherwise some cut's first name lies in a later field, which
differs from cut to cut, and the run's lines join each cut's names and
then drop their first two characters.

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

# A block of the cut walk: (avail, image, (packed deltas, count)), see _walk.
_Block = tuple[int, int, tuple[int, int]]


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

# Images are read this many at a time, as one run of bytes: a run is some kB,
# its setup costs as much as naming a few dozen images, and a lazy stream
# reads at most this far ahead.  The CLI writes a run's lines with one write.
_CHUNK = 256


class _Table(dict):
    """Field value -> its rendered part, computed on first use."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[int], object]):
        super().__init__()
        self.render = render

    def __missing__(self, value: int):
        part = self[value] = self.render(value)
        return part


def _width(count: int) -> int:
    """Bytes per image of a bitset over *count* items: a 16-bit field per 16
    items, and one field for no items, so the empty bitset is named too."""
    return 2 * max(1, -(-count // 16))


def _tables(items: Sequence, join: Callable[[list], T]) -> list[_Table]:
    """Per field of 16 items, field value -> ``join`` of its members, in
    item order."""

    def table(chunk: Sequence) -> _Table:
        return _Table(lambda value: join([x for b, x in enumerate(chunk) if value >> b & 1]))

    return [table(items[f:f + 16]) for f in range(0, len(items) or 1, 16)]


def _columns(run, fields: int) -> list[array]:
    """The 16-bit columns of a run of images, *fields* per image."""
    words = array("H")
    words.frombytes(run)
    if sys.byteorder == "big":
        words.byteswap()
    return [words[f::fields] for f in range(fields)]


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


def _repeat(value: int, count: int, width: int) -> int:
    """*count* copies of *value*, one per *width* bytes, as one int."""
    return int.from_bytes(value.to_bytes(width, "little") * count, "little")


def _packed(
    avail: int, keep: Sequence[int], flip: Sequence[int], width: int, known: dict
) -> tuple[int, int]:
    """The deltas of *avail* (module docstring) as ``(packed, count)``: delta
    ``j`` is bytes ``j * width`` to ``(j + 1) * width`` of *packed*, little
    endian.  They are those of ``avail & keep[q]`` followed by those of
    ``avail ^ low``, each XOR ``flip[q]``, for the lowest position ``q``.
    *known* maps each ``avail`` built so far to its deltas, and 0 to the
    delta 0 alone, ``(0, 1)``."""
    got = known.get(avail)
    if got is None:
        low = avail & -avail
        q = low.bit_length() - 1
        first, n = _packed(avail & keep[q], keep, flip, width, known)
        second, m = _packed(avail ^ low, keep, flip, width, known)
        second ^= _repeat(flip[q], m, width)
        got = known[avail] = (first | second << 8 * width * n, n + m)
    return got


def _walk(p: Poset, image: int, flips: Sequence[int], width: int) -> Iterator[_Block]:
    """Every downset of *p* once, as an image bitset, in blocks of images.

    The walk starts at the empty downset with *image*, and including element
    ``v`` XORs the image with ``flips[v]`` (the ideal tree of Habib, Medina,
    Nourine & Steiner, DAM 2001).  It is the binary include/exclude tree
    over the linear extension: the empty downset first, the full one last.
    Each block is the subtree of a frame with at most ``_BLOCK`` available
    positions, as ``(avail, image, (packed, count))``: its images are
    ``image ^ delta`` per delta of ``(packed, count)`` (:func:`_packed`,
    *width* bytes per delta), in order, built on first use and the same for
    every block with the same *avail* (module docstring).  Its setup is
    O(covers) bitset operations.
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
    memo: dict[int, tuple[int, int]] = {}
    for avail, image in _frames((1 << len(order)) - 1, image, keep, flip, _BLOCK):
        deltas = memo.get(avail)
        if deltas is None:
            deltas = memo[avail] = _packed(avail, keep, flip, width, {0: (0, 1)})
        yield avail, image, deltas


def _block_bytes(image: int, packed: int, count: int, width: int) -> bytes:
    """The images of a block ``(avail, image, (packed, count))`` of
    :func:`_walk` as bytes, *width* per image: one XOR with *image*
    repeated."""
    return (packed ^ _repeat(image, count, width)).to_bytes(count * width, "little")


def _runs(blocks: Iterable[_Block], width: int) -> Iterator[bytes]:
    """The images of the blocks of :func:`_walk` as bytes, *width* per image,
    little endian, in order, in runs of ``_CHUNK`` images (the last perhaps
    fewer).  A block's images are one XOR of its packed deltas with its
    image repeated."""
    step = _CHUNK * width
    rest = b""
    for _, image, (packed, count) in blocks:
        data = rest + _block_bytes(image, packed, count, width)
        whole = len(data) - len(data) % step
        if whole:
            view = memoryview(data)
            for start in range(0, whole, step):
                yield view[start:start + step]
        rest = data[whole:]
    if rest:
        yield rest


def _images(runs: Iterable[bytes], width: int) -> Iterator[int]:
    """The images in *runs*, *width* bytes each, as ints."""
    for run in runs:
        for start in range(0, len(run), width):
            yield int.from_bytes(run[start:start + width], "little")


def _downsets(p: Poset) -> Iterator[bytes]:
    """Every downset of *p* once, as its bitset over ``p.elements``, in runs
    of ``_width(len(p.elements))`` bytes per bitset (:func:`_runs`)."""
    width = _width(len(p.elements))
    return _runs(_walk(p, 0, [1 << v for v in range(len(p.elements))], width), width)


def _frozensets(runs: Iterable[bytes], items: Sequence[str]) -> Iterator[frozenset[str]]:
    """Per bitset over *items* in *runs* (bit ``i`` is ``items[i]``), the set
    of its members: each 16-bit column is looked up in its field's table, so
    a bitset costs C-level calls only."""
    tables = _tables(items, tuple)

    def named(run) -> Iterator[tuple[tuple[str, ...], ...]]:
        columns = _columns(run, len(tables))
        return zip(*[map(t.__getitem__, col) for t, col in zip(tables, columns)])

    parts = itertools.chain.from_iterable(map(named, runs))
    return map(frozenset, map(itertools.chain.from_iterable, parts))


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
    sm: StateModel, start: int, flip: Callable[[int, int], int], width: int
) -> Iterator[_Block]:
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
    return _walk(m.poset, start, flips, width)


def _antichains(sm: StateModel) -> Iterator[bytes]:
    """The maximum antichains of *sm* as bitsets over ``sm.poset.elements``,
    as :func:`_antichain_walk` gives them, in runs (:func:`_downsets`)."""
    index = [[sm.poset.index(s) for s in chain] for chain in sm.chains]
    start = sum(1 << chain[0] for chain in index)
    width = _width(len(sm.poset.elements))
    blocks = _antichain_walk(
        sm, start, lambda i, k: (1 << index[i][k - 1]) | (1 << index[i][k]), width
    )
    return _runs(blocks, width)


def _frontier_walk(sm: StateModel) -> tuple[struct.Struct, Iterator[_Block]]:
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
    vector = struct.Struct("<" + (code * sm.n or "x"))  # a pad byte for no chains
    return vector, _antichain_walk(sm, 0, lambda i, k: ((k - 1) ^ k) << (8 * size * i), vector.size)


def _frontiers(sm: StateModel) -> Iterator[tuple[int, ...]]:
    """The maximum antichains of *sm* as frontier vectors
    (:func:`_frontier_walk`), in walk order."""
    vector, blocks = _frontier_walk(sm)
    return itertools.chain.from_iterable(map(vector.iter_unpack, _runs(blocks, vector.size)))


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
    width = _width(len(p.elements))
    images = _images(_downsets(p), width)
    masks = list(itertools.islice(images, None if max_cuts is None else max_cuts + 1))
    if max_cuts is not None and len(masks) > max_cuts:
        raise GuardExceeded(f"cut count exceeds cap {max_cuts}")
    run = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    by_mask = dict(zip(masks, _frozensets([run], p.elements)))
    succ: dict[frozenset[str], tuple[frozenset[str], ...]] = {}
    for mask, cut in by_mask.items():
        nexts = set()
        for own, bits in zip(owns, chains):
            k = (mask & own).bit_count()  # the cut holds a prefix of each chain
            if k < len(bits) and mask | bits[k] in by_mask:
                nexts.add(bits[k])
        succ[cut] = tuple(by_mask[mask | bit] for bit in sorted(nexts))
    return CutLattice(cuts=tuple(by_mask.values()), successors=succ)
