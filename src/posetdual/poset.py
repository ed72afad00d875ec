"""Finite strict partial orders: closure, width, chain partitions, oracles.

A :class:`Poset` stores a finite irreflexive strict order over opaque string
ids.  Input relations may be any subset of the intended order, with
duplicates; construction keeps each pair at its first occurrence, takes the
transitive closure and recomputes the cover relation by transitive
reduction.  The order is stored once: each element keeps its strict up-set
as an int bitset (bit ``i`` is the ``i``-th element in sorted-id order) and
its upper covers as an index list, and the poset keeps one topological
order, the lexicographically least linear extension.  No down-sets are
stored; the few readers that need one read it off the up-sets or the
covers.  Closure and reduction walk per-element successor lists built in
one pass over the unique pairs, with one bitset union per pair; matching
works on whole bitsets.  So their Python-level steps grow with the unique
input pairs and the matching's search steps, not with the closure's pairs.
Chain clocks are one sweep over the covers in each direction:
O(covers x chains) integer steps.  Instances are immutable after
construction and safe to share between threads; enumeration generators are
single-consumer.

Besides the optimized operations (width and minimum chain partition via
maximum bipartite matching), the module provides deliberately unsophisticated
brute-force enumerators used as oracles in tests.  Those are capped by an
element-count bound, set only by the ``POSETDUAL_ORACLE_BOUND`` environment
variable (default 20).
"""

from __future__ import annotations

import enum
import heapq
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadChainIndex,
    ConfigError,
    CycleError,
    OracleBoundExceeded,
    UnknownElement,
)

DEFAULT_ORACLE_BOUND = 20
_ORACLE_BOUND_ENV = "POSETDUAL_ORACLE_BOUND"


def oracle_bound() -> int:
    """The brute-force size cap: ``POSETDUAL_ORACLE_BOUND``, else the default.

    Raises ConfigError when the environment value is not a non-negative
    integer, or has more digits than ``int`` converts.
    """
    env = os.environ.get(_ORACLE_BOUND_ENV)
    if env is None:
        return DEFAULT_ORACLE_BOUND
    if not env.strip().isdecimal():
        raise ConfigError(
            f"{_ORACLE_BOUND_ENV} must be a non-negative integer, got {env!r}"
        )
    try:
        return int(env)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise ConfigError(
            f"{_ORACLE_BOUND_ENV} has {len(env.strip())} digits, more than"
            f" {sys.get_int_max_str_digits()}"
        ) from None


def _require_oracle_size(n: int) -> None:
    """Raise OracleBoundExceeded when *n* elements exceed the oracle bound."""
    limit = oracle_bound()
    if n > limit:
        raise OracleBoundExceeded(f"{n} elements exceed oracle bound {limit}")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    arguments already describe a valid closed order.  ``_up[v]`` is the
    up-set bitset of element ``v``, ``_upper[v]`` lists its upper covers in
    ascending order, and ``_order`` lists every index in the
    lexicographically least linear extension (smallest index first among
    the elements whose predecessors are all placed).  These are the only
    copies of the order: there are no down-sets, and :attr:`covers` is
    derived from ``_upper``.  Readers must not change them.  ``_dilworth``
    is the one cache of Kuhn's matching: the width with its Koenig
    antichain, and the chain partition, both read off one matching by the
    first :func:`width` call.
    """

    __slots__ = (
        "elements",
        "_index",
        "_up",
        "_upper",
        "_order",
        "_dilworth",
    )

    def __init__(
        self,
        elements: tuple[str, ...],
        up: tuple[int, ...],
        upper: list[list[int]],
        order: list[int],
        index: dict[str, int] | None = None,
    ):
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)} if index is None else index
        self._up = up
        self._upper = upper
        self._order = order
        self._dilworth: tuple[tuple[int, frozenset[str]], ChainPartition] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None

    def down_mask(self, element: str) -> int:
        """Bitmask of elements strictly below *element*: one pass over the
        up-sets, so O(elements) bitset operations."""
        bit = 1 << self.index(element)
        return sum(1 << v for v, above in enumerate(self._up) if above & bit)

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The cover pairs ``(a, b)``, ``b`` covering ``a``, in sorted order.

        Built from ``_upper`` on each access; index order is sorted-id order
        and each cover list ascends, so the pairs come out sorted.
        """
        els = self.elements
        return tuple((els[v], els[w]) for v, ws in enumerate(self._upper) for w in ws)

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
        """The elements that no cover list names."""
        covered = set().union(*self._upper)
        return tuple(e for i, e in enumerate(self.elements) if i not in covered)

    def restrict(self, subset: Iterable[str]) -> "Poset":
        """Sub-poset induced on *subset* (inherits the closed order)."""
        keep = sorted(set(subset))
        kept = self.set_to_mask(keep)
        els, index, up = self.elements, self._index, self._up
        pairs = [(a, els[j]) for a in keep for j in _bits(up[index[a]] & kept)]
        return build_poset(keep, pairs)


def build_poset(
    elements: Iterable[str], relation_pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from element ids and (any subset of) its order relation.

    The relation is transitively closed; the cover relation is the
    transitive reduction of the closure.  One pass over the unique pairs,
    each kept at its first occurrence, checks them in input order and fills
    per-element successor lists.  Those lists drive Kahn's topological sort,
    which always places the lowest ready index, then one reverse sweep gives
    the up-sets and the covers (Aho, Garey & Ullman 1972): a few list steps
    and one bitset union of O(elements / word size) per unique pair.  The
    placed elements always form a down-set, so an element is ready exactly
    when its lower covers are placed, and the order is the lexicographically
    least linear extension, whichever pairs were given.  The poset keeps the
    covers' index lists and that order; it computes no down-sets.  Duplicate
    and transitively implied pairs are accepted and change nothing; a pair
    may be any 2-item iterable, a list included.

    Raises:
        CycleError: the induced relation has a cycle (including a reflexive
            pair), so it is not a partial order.
        UnknownElement: a pair names an undeclared element.
    """
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    n = len(els)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    get = index.get
    # Deduplicated in first-occurrence order, so the first bad pair is the
    # one a scan of the input would meet first.
    for a, b in dict.fromkeys(map(tuple, relation_pairs)):
        ia = get(a)
        if ia is None:
            raise UnknownElement(f"relation names undeclared element {a!r}")
        ib = get(b)
        if ib is None:
            raise UnknownElement(f"relation names undeclared element {b!r}")
        if ia == ib:
            raise CycleError(f"reflexive pair {a!r} -> {b!r} is not allowed")
        succ[ia].append(ib)
        indeg[ib] += 1

    # Kahn's order over a heap of ready indices; leftovers mean a cycle, and
    # which elements are left does not depend on the walk order.
    ready = [v for v in range(n) if not indeg[v]]  # ascending: a heap
    order: list[int] = []
    pop, push = heapq.heappop, heapq.heappush
    while ready:
        v = pop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                push(ready, w)
    if len(order) != n:
        cyclic = sorted(els[i] for i in range(n) if indeg[i] > 0)
        raise CycleError(f"relation has a cycle through {cyclic}")

    # Reverse sweep: everything above v is above a direct successor or is a
    # direct successor, and the covers of v are the direct successors above
    # none of the others, so only they need their own bit.
    up = [0] * n
    for v in reversed(order):
        ws = succ[v]
        if not ws:
            continue
        above = 0
        for w in ws:
            above |= up[w]
        covers_v = [w for w in ws if not above >> w & 1]
        covers_v.sort()
        for w in covers_v:
            above |= 1 << w
        up[v] = above
        succ[v] = covers_v
    return Poset(els, tuple(up), succ, order, index)


def chain_break(p: Poset, ids: Sequence[int]) -> int:
    """First ``k`` with ``ids[k]`` not below ``ids[k + 1]``, or -1 if none.

    *ids* are element indices; one bit test of an up-set per step.
    """
    up = p._up
    for k, (a, b) in enumerate(zip(ids, ids[1:])):
        if not up[a] >> b & 1:
            return k
    return -1


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


def _maximum_matching(p: Poset) -> tuple[list[int], list[int]]:
    """Maximum matching on the split bipartite graph of the closure.

    Left copies are sources of ``<`` pairs, right copies are targets.
    Returns the partner lists ``mate_l, mate_r``, indexed by element, with
    -1 for an unmatched copy; both readers of the matching, the chain
    partition and the Koenig antichain, take them as they are.
    Deterministic: vertices and neighbors are scanned in sorted-id order.
    """
    up = p._up
    n = len(up)
    everything = (1 << n) - 1
    mate_l = [-1] * n  # partners, -1 for none
    mate_r = [-1] * n
    for root in range(n):
        # Kuhn's augmenting-path search as an explicit-stack DFS: path[d] is
        # the right vertex tried from stack[d], so depth is not bounded by
        # the recursion limit.  Every neighbor a frame has tried is visited,
        # and visited only grows, so the frame's next neighbor in sorted
        # order is the lowest bit of its up-set (``top`` for the top frame)
        # still in ``unvisited``.
        unvisited = everything
        stack = [root]
        path: list[int] = []
        top = up[root]
        while True:
            free = top & unvisited
            if not free:
                stack.pop()
                if not stack:
                    break
                path.pop()
                top = up[stack[-1]]
                continue
            low = free & -free
            unvisited ^= low
            v = low.bit_length() - 1
            path.append(v)
            w = mate_r[v]
            if w >= 0:
                stack.append(w)
                top = up[w]
                continue
            for u, x in zip(stack, path):
                mate_l[u] = x
                mate_r[x] = u
            break
    return mate_l, mate_r


def _matching_to_partition(p: Poset, mate_l, mate_r) -> ChainPartition:
    """Chains of the matching: each starts at an unmatched right copy and
    follows ``mate_l`` up."""
    chains = []
    for head, below in enumerate(mate_r):
        if below < 0:
            chain, cur = [], head
            while cur >= 0:
                chain.append(p.elements[cur])
                cur = mate_l[cur]
            chains.append(tuple(chain))
    chains.sort()
    return ChainPartition(tuple(chains))


def _max_antichain_from_cover(p: Poset, mate_l, mate_r) -> frozenset[str]:
    """Extract a maximum antichain from the Koenig vertex cover."""
    # Alternating reachability from unmatched left vertices, as bitsets.  A
    # right vertex is reached once, and its partner is matched, so no left
    # vertex enters the frontier twice.
    frontier = [i for i, x in enumerate(mate_l) if x < 0]
    z_left = sum(1 << i for i in frontier)
    z_right = 0
    while frontier:
        fresh = p._up[frontier.pop()] & ~z_right
        z_right |= fresh
        for v in _bits(fresh):
            w = mate_r[v]
            if w >= 0:
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
    steps in the worst case, as on long chains.  The first call matches
    once and keeps the antichain and the chain partition in the poset's one
    cache, which :func:`minimum_chain_partition` reads too; an empty poset
    gives ``(0, frozenset())`` and no chains.
    """
    if p._dilworth is None:
        mate_l, mate_r = _maximum_matching(p)
        partition = _matching_to_partition(p, mate_l, mate_r)
        antichain = _max_antichain_from_cover(p, mate_l, mate_r)
        if len(antichain) != partition.n:
            raise AssertionError("Dilworth equality violated (internal bug)")
        p._dilworth = (len(antichain), antichain), partition
    return p._dilworth[0]


def minimum_chain_partition(p: Poset) -> ChainPartition:
    """A minimum chain partition; its size equals ``width(p)[0]``.

    Read from the cache that :func:`width` fills, so both come from one
    matching.  ``statemodel.minimum_view(p).coords`` gives each element's
    place on it.
    """
    width(p)
    return p._dilworth[1]


def is_antichain(p: Poset, members: Iterable[str]) -> bool:
    ids = [p.index(e) for e in members]
    for k, i in enumerate(ids):
        for j in ids[k + 1:]:
            if i == j or p._up[i] >> j & 1 or p._up[j] >> i & 1:
                return False
    return True


def _is_down_mask(up: Sequence[int], mask: int) -> bool:
    """True iff no element outside *mask* is below a member: no up-set of a
    non-member meets the mask."""
    return not any(up[i] & mask for i in _bits(((1 << len(up)) - 1) & ~mask))


def is_downset(p: Poset, subset: Iterable[str]) -> bool:
    return _is_down_mask(p._up, p.set_to_mask(subset))


def enumerate_antichains(
    p: Poset, size_filter: int | None = None
) -> Iterator[frozenset[str]]:
    """Yield every antichain exactly once, in lexicographic order.

    Brute-force oracle; refuses posets larger than the oracle bound.  The
    empty antichain is included (unless filtered out by ``size_filter``).
    """
    n = len(p.elements)
    _require_oracle_size(n)
    related = list(p._up)  # up-sets, then the down-sets transposed in
    for i, above in enumerate(p._up):
        for j in _bits(above):
            related[j] |= 1 << i
    incomp = [~(r | (1 << i)) & ((1 << n) - 1) for i, r in enumerate(related)]

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


def enumerate_downsets_bruteforce(p: Poset) -> Iterator[frozenset[str]]:
    """Yield all downward-closed subsets by scanning the full powerset.

    Oracle only; exponential in the element count and capped by the bound.
    """
    n = len(p.elements)
    _require_oracle_size(n)
    for mask in range(1 << n):
        if _is_down_mask(p._up, mask):
            yield p.mask_to_set(mask)


def chain_clocks(
    p: Poset, chains: Sequence[Sequence[str]]
) -> dict[str, tuple[list[int], list[int]]]:
    """Per-element vector clocks against a family of chains of *p*.

    For each element ``e`` returns ``(down, up)``: ``down[c]`` is the highest
    position on ``chains[c]`` strictly below ``e`` (-1 if none) and ``up[c]``
    the lowest position strictly above it (``len(chains[c])`` if none).  Each
    chain must list its elements from low to high; an element may sit on
    several chains (a shared event) or on none.

    Everything below ``e`` is at or below one of its lower covers, so
    ``down`` is the elementwise max of the lower covers' inclusive clocks: a
    clock with the element's own position set on every chain that holds it.
    One sweep over the covers in ``p._order`` pushes each element's
    inclusive clock to its upper covers; the first cover it reaches shares
    the vector, and each later one takes the max into a new vector.  ``up``
    is the elementwise min over the upper covers, in one reverse sweep,
    copied from the first cover's only when an own position lowers an
    entry.  Any topological order would give the same clocks.  So the cost
    is O(covers x chains) integer steps, and vectors may be shared between
    elements: readers must not change them.
    """
    n = len(p.elements)
    own: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    index = p._index
    for c, chain in enumerate(chains):
        for pos, e in enumerate(chain):
            own[index[e]].append((c, pos))
    upper, order = p._upper, p._order

    down: list = [None] * n
    bottom = [-1] * len(chains)
    for v in order:
        d = down[v]
        if d is None:
            d = down[v] = bottom
        ws = upper[v]
        if not ws:
            continue
        if own[v]:
            d = d.copy()
            for c, pos in own[v]:
                d[c] = pos
        for w in ws:
            low = down[w]
            down[w] = d if low is None else [x if x > y else y for x, y in zip(low, d)]

    up: list = [None] * n
    top = [len(chain) for chain in chains]
    for v in reversed(order):
        ws = upper[v]
        if not ws:
            up[v] = top
            continue
        first = up[ws[0]]
        u = first
        for w in ws[1:]:
            u = [x if x < y else y for x, y in zip(u, up[w])]
        for w in ws:
            for c, pos in own[w]:
                if pos < u[c]:
                    if u is first:
                        u = first.copy()
                    u[c] = pos
        up[v] = u
    return dict(zip(p.elements, zip(down, up)))


def incomparable_interval(
    p: Poset, cp: ChainPartition, s: str, chain_index: int
) -> Interval:
    """Elements of chain ``chain_index`` incomparable to *s*, as one run.

    The chain always decomposes into a prefix below *s*, a contiguous middle
    incomparable to *s*, and a suffix above *s*; the middle is returned with
    its lo/hi chain positions, read off the clock of *s* against this one
    chain (as in :func:`chain_clocks`): the chain elements whose up-sets hold
    *s* are counted, O(chain length) bit tests.  The interval
    over the chain containing *s* itself is empty by convention.
    """
    i = p.index(s)
    if not 0 <= chain_index < cp.n:
        raise BadChainIndex(f"chain index {chain_index} out of range")
    chain = cp.chains[chain_index]
    mask = p.set_to_mask(chain)
    bit = 1 << i
    below = sum(1 for j in _bits(mask) if p._up[j] & bit) - 1
    above = len(chain) - (p._up[i] & mask).bit_count()
    if s in chain or below + 1 == above:
        return Interval((), None, None)
    return Interval(tuple(chain[below + 1:above]), below + 1, above - 1)
