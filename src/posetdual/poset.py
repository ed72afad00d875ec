"""Finite strict partial orders: closure, width, chain partitions, oracles.

A :class:`Poset` stores a finite irreflexive strict order over opaque string
ids.  Input relations may be any subset of the intended order; construction
takes the transitive closure and recomputes the cover relation by transitive
reduction.  Each element keeps its strict up- and down-set as an int bitset
(bit ``i`` is the ``i``-th element in sorted-id order); closure, reduction
and matching work on whole bitsets, so their Python-level steps grow with
the input edges and the matching's search steps, not with the closure's
pairs.  Instances are immutable after construction and safe to share between
threads; enumeration generators are single-consumer.

Besides the optimized operations (width and minimum chain partition via
maximum bipartite matching), the module provides deliberately unsophisticated
brute-force enumerators used as oracles in tests.  Those are capped by an
element-count bound (default 20, override with the ``POSETDUAL_ORACLE_BOUND``
environment variable or a keyword argument).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    BadChainIndex,
    ConfigError,
    CycleError,
    OracleBoundExceeded,
    UnknownElement,
)

T = TypeVar("T")
U = TypeVar("U")

DEFAULT_ORACLE_BOUND = 20
_ORACLE_BOUND_ENV = "POSETDUAL_ORACLE_BOUND"


def oracle_bound(override: int | None = None) -> int:
    """Resolve the brute-force size cap (argument > environment > default).

    Raises ConfigError when the environment value is not a non-negative
    integer.
    """
    if override is not None:
        return override
    env = os.environ.get(_ORACLE_BOUND_ENV)
    if env is None:
        return DEFAULT_ORACLE_BOUND
    if not env.strip().isdecimal():
        raise ConfigError(
            f"{_ORACLE_BOUND_ENV} must be a non-negative integer, got {env!r}"
        )
    return int(env)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _ByteTable(dict):
    """Byte value -> the joined items of its set bits, filled on first use."""

    __slots__ = ("items", "join")

    def __init__(self, items: Sequence[T], join: Callable[[list[T]], U]):
        super().__init__()
        self.items, self.join = items, join

    def __missing__(self, byte: int) -> U:
        value = self[byte] = self.join(
            [x for b, x in enumerate(self.items) if byte >> b & 1]
        )
        return value


def bitset_decoder(
    items: Sequence[T], join: Callable[[list[T]], U]
) -> Callable[[int], list[U]]:
    """Decode bitsets over *items* (bit ``i`` is ``items[i]``) a byte at a time.

    The returned function maps a bitset to ``join`` of the members of each of
    its nonzero bytes, lowest byte first; ``join`` of a byte is computed once
    per byte position and value, so decoding costs O(bytes), not O(bits).
    With ``join=tuple`` the chunks concatenate to the members in item order.
    """
    tables = [_ByteTable(items[b:b + 8], join) for b in range(0, len(items), 8)]
    size = len(tables)

    def decode(mask: int) -> list[U]:
        return [t[v] for t, v in zip(tables, mask.to_bytes(size, "little")) if v]

    return decode


class Comparability(enum.Enum):
    """Verdict of comparing two elements of a poset."""

    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal-element"
    CONCURRENT = "concurrent"


@dataclass(frozen=True)
class ChainPartition:
    """A partition of a poset into totally ordered chains.

    ``chains[i]`` lists the elements of chain ``i`` from low to high.  Chains
    are disjoint and jointly cover all elements; ``n`` is the chain count.
    """

    chains: tuple[tuple[str, ...], ...]

    @property
    def n(self) -> int:
        return len(self.chains)

    def position(self, element: str) -> tuple[int, int]:
        """Return ``(chain_index, index_in_chain)`` for *element*."""
        return self._positions()[element]

    def _positions(self) -> dict[str, tuple[int, int]]:
        pos = getattr(self, "_pos_cache", None)
        if pos is None:
            pos = {
                e: (ci, k)
                for ci, chain in enumerate(self.chains)
                for k, e in enumerate(chain)
            }
            object.__setattr__(self, "_pos_cache", pos)
        return pos


@dataclass(frozen=True)
class Interval:
    """A contiguous run of chain elements, possibly empty.

    ``lo``/``hi`` are positions within the owning chain (inclusive); both are
    ``None`` when the run is empty.
    """

    elements: tuple[str, ...]
    lo: int | None
    hi: int | None

    def __bool__(self) -> bool:
        return bool(self.elements)


class Poset:
    """Immutable finite strict partial order.

    Use :func:`build_poset` to construct one; the constructor assumes its
    arguments already describe a valid closed order.
    """

    __slots__ = (
        "elements",
        "_index",
        "_up",
        "_down",
        "covers",
        "_width_cache",
        "_partition_cache",
    )

    def __init__(
        self,
        elements: tuple[str, ...],
        up: tuple[int, ...],
        down: tuple[int, ...],
        covers: tuple[tuple[str, str], ...],
    ):
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        self._up = up
        self._down = down
        self.covers = covers
        self._width_cache: tuple[int, frozenset[str]] | None = None
        self._partition_cache: ChainPartition | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None

    def up_mask(self, element: str) -> int:
        """Bitmask of elements strictly above *element* (by sorted index)."""
        return self._up[self.index(element)]

    def down_mask(self, element: str) -> int:
        """Bitmask of elements strictly below *element*."""
        return self._down[self.index(element)]

    def mask_to_set(self, mask: int) -> frozenset[str]:
        return frozenset(self.elements[i] for i in _bits(mask))

    def set_to_mask(self, subset: Iterable[str]) -> int:
        mask = 0
        for e in subset:
            mask |= 1 << self.index(e)
        return mask

    def less(self, a: str, b: str) -> bool:
        """True iff ``a < b`` in the closed order."""
        return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def closure_pairs(self) -> Iterator[tuple[str, str]]:
        """All ordered pairs ``(a, b)`` with ``a < b``, in sorted order."""
        els = self.elements
        for i, a in enumerate(els):
            mask = self._up[i]
            while mask:
                low = mask & -mask
                yield a, els[low.bit_length() - 1]
                mask ^= low

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if not self._down[i])

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if not self._up[i])

    def restrict(self, subset: Iterable[str]) -> "Poset":
        """Sub-poset induced on *subset* (inherits the closed order)."""
        keep = sorted(set(subset))
        for e in keep:
            self.index(e)
        pairs = [(a, b) for a in keep for b in keep if a != b and self.less(a, b)]
        return build_poset(keep, pairs)


def build_poset(
    elements: Iterable[str], relation_pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from element ids and (any subset of) its order relation.

    The relation is transitively closed; the stored cover relation is the
    transitive reduction of the closure.  After a topological sort, one
    reverse sweep over the direct successors gives the up-sets and the
    covers, and one forward sweep over the covers gives the down-sets:
    O(elements + edges) bitset unions of O(elements / word size) each.
    Duplicate and transitively implied pairs are accepted and change
    nothing.

    Raises:
        CycleError: the induced relation has a cycle (including a reflexive
            pair), so it is not a partial order.
        UnknownElement: a pair names an undeclared element.
    """
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    n = len(els)
    adj: list[int] = [0] * n
    indeg = [0] * n
    for a, b in relation_pairs:
        if a not in index:
            raise UnknownElement(f"relation names undeclared element {a!r}")
        if b not in index:
            raise UnknownElement(f"relation names undeclared element {b!r}")
        if a == b:
            raise CycleError(f"reflexive pair {a!r} -> {b!r} is not allowed")
        ia, ib = index[a], index[b]
        if not adj[ia] >> ib & 1:
            adj[ia] |= 1 << ib
            indeg[ib] += 1

    # Kahn topological order; leftovers mean a cycle.
    order: list[int] = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for w in _bits(adj[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != n:
        cyclic = sorted(els[i] for i in range(n) if indeg[i] > 0)
        raise CycleError(f"relation has a cycle through {cyclic}")

    # Reverse sweep: everything above v is a direct successor or above one,
    # and the covers of v are the direct successors above none of the others.
    up = [0] * n
    cover = [0] * n
    for v in reversed(order):
        above_succ = 0
        for w in _bits(adj[v]):
            above_succ |= up[w]
        up[v] = adj[v] | above_succ
        cover[v] = adj[v] & ~above_succ
    # Forward sweep over the covers, which carry the whole order.
    down = [0] * n
    for v in order:
        below = down[v] | 1 << v
        for w in _bits(cover[v]):
            down[w] |= below

    # Index order is sorted-id order, so the covers come out sorted.
    covers = tuple((els[v], els[w]) for v in range(n) for w in _bits(cover[v]))
    return Poset(els, tuple(up), tuple(down), covers)


def comparable(p: Poset, a: str, b: str) -> Comparability:
    """Compare two elements; concurrent means neither is below the other."""
    ia, ib = p.index(a), p.index(b)
    if ia == ib:
        return Comparability.EQUAL
    if p._up[ia] >> ib & 1:
        return Comparability.LESS
    if p._up[ib] >> ia & 1:
        return Comparability.GREATER
    return Comparability.CONCURRENT


def _maximum_matching(p: Poset) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum matching on the split bipartite graph of the closure.

    Left copies are sources of ``<`` pairs, right copies are targets.
    Deterministic: vertices and neighbors are scanned in sorted-id order.
    """
    up = p._up
    everything = (1 << len(up)) - 1
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    for root in range(len(up)):
        # Kuhn's augmenting-path search as an explicit-stack DFS: path[d] is
        # the right vertex tried from stack[d], so depth is not bounded by
        # the recursion limit.  Every neighbor a frame has tried is visited,
        # and visited only grows, so the frame's next neighbor in sorted
        # order is the lowest bit of its up-set still in ``unvisited``.
        unvisited = everything
        stack = [root]
        path: list[int] = []
        while stack:
            free = up[stack[-1]] & unvisited
            if not free:
                stack.pop()
                if path:
                    path.pop()
                continue
            low = free & -free
            unvisited ^= low
            v = low.bit_length() - 1
            path.append(v)
            w = match_r.get(v)
            if w is not None:
                stack.append(w)
                continue
            for u, x in reversed(list(zip(stack, path))):
                match_l[u] = x
                match_r[x] = u
            break
    return match_l, match_r


def _matching_to_partition(p: Poset, match_l: dict[int, int]) -> ChainPartition:
    n = len(p.elements)
    matched_targets = set(match_l.values())
    heads = [i for i in range(n) if i not in matched_targets]
    chains = []
    for h in heads:
        chain = [p.elements[h]]
        cur = h
        while cur in match_l:
            cur = match_l[cur]
            chain.append(p.elements[cur])
        chains.append(tuple(chain))
    chains.sort()
    return ChainPartition(tuple(chains))


def _max_antichain_from_cover(p: Poset, match_l, match_r) -> frozenset[str]:
    """Extract a maximum antichain from the Koenig vertex cover."""
    # Alternating reachability from unmatched left vertices, as bitsets.  A
    # right vertex is reached once, and its partner is matched, so no left
    # vertex enters the frontier twice.
    frontier = [i for i in range(len(p.elements)) if i not in match_l]
    z_left = sum(1 << i for i in frontier)
    z_right = 0
    while frontier:
        fresh = p._up[frontier.pop()] & ~z_right
        z_right |= fresh
        for v in _bits(fresh):
            w = match_r.get(v)
            if w is not None:
                z_left |= 1 << w
                frontier.append(w)
    # Cover = (L \ Z_L) | Z_R; antichain = both copies outside the cover.
    return p.mask_to_set(z_left & ~z_right)


def width(p: Poset) -> tuple[int, frozenset[str]]:
    """Width of the poset with a witness maximum antichain.

    Computed by minimum chain cover over the closure's split bipartite graph;
    the witness comes from the matching's vertex cover, so the Dilworth
    equality ``chain count == antichain size`` holds by construction.  The
    witness is deterministic but otherwise unspecified.  Kuhn's method runs
    one search per element; each search step takes the next neighbor as the
    lowest bit of an up-set outside the visited bitset, so a step costs one
    bitset operation, and a search may visit every element: O(elements^2)
    steps in the worst case, as on long chains.
    """
    if p._width_cache is None:
        if not p.elements:
            p._width_cache = (0, frozenset())
            p._partition_cache = ChainPartition(())
        else:
            match_l, match_r = _maximum_matching(p)
            partition = _matching_to_partition(p, match_l)
            antichain = _max_antichain_from_cover(p, match_l, match_r)
            if len(antichain) != partition.n:
                raise AssertionError("Dilworth equality violated (internal bug)")
            p._width_cache = (len(antichain), antichain)
            p._partition_cache = partition
    return p._width_cache


def minimum_chain_partition(p: Poset) -> ChainPartition:
    """A minimum chain partition; its size equals ``width(p)[0]``."""
    width(p)
    assert p._partition_cache is not None
    return p._partition_cache


def is_antichain(p: Poset, members: Iterable[str]) -> bool:
    ids = [p.index(e) for e in members]
    for k, i in enumerate(ids):
        for j in ids[k + 1:]:
            if i == j or p._up[i] >> j & 1 or p._up[j] >> i & 1:
                return False
    return True


def is_downset(p: Poset, subset: Iterable[str]) -> bool:
    mask = p.set_to_mask(subset)
    rest = mask
    while rest:
        low = rest & -rest
        if p._down[low.bit_length() - 1] & ~mask:
            return False
        rest ^= low
    return True


def enumerate_antichains(
    p: Poset,
    size_filter: int | None = None,
    *,
    bound: int | None = None,
) -> Iterator[frozenset[str]]:
    """Yield every antichain exactly once, in lexicographic order.

    Brute-force oracle; refuses posets larger than the oracle bound.  The
    empty antichain is included (unless filtered out by ``size_filter``).
    """
    limit = oracle_bound(bound)
    if len(p.elements) > limit:
        raise OracleBoundExceeded(
            f"{len(p.elements)} elements exceed oracle bound {limit}"
        )
    n = len(p.elements)
    incomp = [
        ~(p._up[i] | p._down[i] | (1 << i)) & ((1 << n) - 1) for i in range(n)
    ]

    stack: list[tuple[tuple[str, ...], int, int]] = [((), 0, (1 << n) - 1)]
    while stack:
        members, start, allowed = stack.pop()
        if size_filter is None or len(members) == size_filter:
            yield frozenset(members)
        if size_filter is not None and len(members) >= size_filter:
            continue
        # Push in reverse so smaller extensions are explored first.
        ext = []
        for i in range(start, n):
            if allowed >> i & 1:
                ext.append((members + (p.elements[i],), i + 1, allowed & incomp[i]))
        stack.extend(reversed(ext))


def enumerate_downsets_bruteforce(
    p: Poset, *, bound: int | None = None
) -> Iterator[frozenset[str]]:
    """Yield all downward-closed subsets by scanning the full powerset.

    Oracle only; exponential in the element count and capped by the bound.
    """
    limit = oracle_bound(bound)
    n = len(p.elements)
    if n > limit:
        raise OracleBoundExceeded(f"{n} elements exceed oracle bound {limit}")
    down = p._down
    for mask in range(1 << n):
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & ~mask:
                ok = False
                break
            rest ^= low
        if ok:
            yield p.mask_to_set(mask)


def chain_clocks(
    p: Poset, chains: Sequence[Sequence[str]]
) -> dict[str, tuple[list[int], list[int]]]:
    """Per-element vector clocks against a family of chains of *p*.

    For each element ``e`` returns ``(down, up)``: ``down[c]`` is the highest
    position on ``chains[c]`` strictly below ``e`` (-1 if none) and ``up[c]``
    the lowest position strictly above it (``len(chains[c])`` if none).  Each
    chain must list its elements from low to high; it then meets the strict
    downset of ``e`` in a prefix and the strict upset in a suffix, so both
    numbers are popcounts of the element's bitsets against the chain's mask.
    Cost is O(elements x chains) bitset intersections.
    """
    masks = [p.set_to_mask(c) for c in chains]
    return {
        e: (
            [(d & m).bit_count() - 1 for m in masks],
            [len(c) - (u & m).bit_count() for c, m in zip(chains, masks)],
        )
        for e, d, u in zip(p.elements, p._down, p._up)
    }


def incomparable_interval(
    p: Poset, cp: ChainPartition, s: str, chain_index: int
) -> Interval:
    """Elements of chain ``chain_index`` incomparable to *s*, as one run.

    The chain always decomposes into a prefix below *s*, a contiguous middle
    incomparable to *s*, and a suffix above *s*; the middle is returned with
    its lo/hi chain positions, read off the clock of *s* against this one
    chain (as in :func:`chain_clocks`), in O(chain length).  The interval
    over the chain containing *s* itself is empty by convention.
    """
    i = p.index(s)
    if not 0 <= chain_index < cp.n:
        raise BadChainIndex(f"chain index {chain_index} out of range")
    chain = cp.chains[chain_index]
    mask = p.set_to_mask(chain)
    below = (p._down[i] & mask).bit_count() - 1
    above = len(chain) - (p._up[i] & mask).bit_count()
    if s in chain or below + 1 == above:
        return Interval((), None, None)
    return Interval(tuple(chain[below + 1:above]), below + 1, above - 1)
