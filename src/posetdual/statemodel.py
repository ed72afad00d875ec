"""State-side model of a concurrent computation and its property checks.

A :class:`StateModel` is a poset of local states under existed-before plus a
chain partition: chain ``i`` lists the states of process ``i`` from the
initial state (index 0) up to the final state (index ``n_i``).

The checks implemented here decide which posets can model computations at
all:

* ``omega1``/``omega2``: all initial / all final states pairwise concurrent;
* ``omega3``: cross-chain transitivity through a predecessor state;
* ``psi``: no mutual crossing between two chains (the order never forces two
  processes to advance in lockstep);
* width-extensibility: every antichain extends to a maximum antichain;
* interleaving-consistency: every non-top maximum antichain has a successor
  maximum antichain differing in exactly one state.

The chain-structured checks read one table of the order, the model's
:func:`~posetdual.poset.chain_clocks` (:meth:`StateModel.clocks`, computed
once per model by one sweep over the covers in each direction): per state
and chain, the highest position below the state and the lowest above it.
With ``n`` chains, ``omega3`` compares one pair of clocks per cover,
O(covers x n) integer steps, and ``psi`` costs O(states x n).  On a minimum
partition width-extensibility is ``omega1`` and ``omega2`` and ``omega3``
(:func:`check_width_extensible`), so only a failing verdict pays
O(states x n) bitset operations on the up-sets, to name its witness.

Width-extensibility and interleaving-consistency are defined against a
minimum chain partition, and their verdicts are the same on every such
partition; only a failure's witness names the partition's chains.  One rule
follows: a model's own chains can only pass ``we`` and ``ic``, and every
failing verdict is the poset's, decided on Kuhn's partition
(:func:`minimum_view` of the poset, through
:func:`~posetdual.poset.minimum_chain_partition`, O(states^2) search steps
in the worst case).  The own chains pass ``we`` when ``omega1``,
``omega2`` and ``omega3`` hold on them, and ``ic`` when ``psi`` holds too:
``omega1`` makes the initial states an antichain as large as the chain
count, so by Dilworth the own chains are minimum.  Conversely, a width-extensible model whose own
chains are minimum satisfies ``omega1``: an initial state below another
chain's initial state is below that whole chain, so no maximum antichain
holds it.  :func:`require_width_extensible` gives the partitioned view of a
width-extensible model to enumeration and detection: its own chains under
``omega1``, else Kuhn's.

All checks are pure functions over immutable models and safe to call from
multiple threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import le
from typing import Iterable, Mapping

from .errors import (
    ModelError,
    NotTotallyOrdered,
    NotWidthAntichain,
    NotWidthExtensible,
    UnknownElement,
    UsageError,
)
from .poset import (
    Comparability,
    Poset,
    chain_break,
    chain_clocks,
    comparable,
    enumerate_antichains,
    is_antichain,
    minimum_chain_partition,
    width,
)


@dataclass(frozen=True)
class StateModel:
    """Validated state-based model; build via :func:`build_state_model`."""

    poset: Poset
    chains: tuple[tuple[str, ...], ...]
    attrs: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.chains)

    def chain_top_index(self, proc: int) -> int:
        """Final-state index ``n_i`` of process *proc* (1-based)."""
        return len(self.chains[proc - 1]) - 1

    def state_at(self, proc: int, idx: int) -> str:
        return self.chains[proc - 1][idx]

    def coords(self, state: str) -> tuple[int, int]:
        """``(process, index)`` of a state; process is 1-based."""
        return self._coords()[state]

    def _coords(self) -> dict[str, tuple[int, int]]:
        cache = getattr(self, "_coords_cache", None)
        if cache is None:
            cache = {
                s: (i + 1, k)
                for i, chain in enumerate(self.chains)
                for k, s in enumerate(chain)
            }
            object.__setattr__(self, "_coords_cache", cache)
        return cache

    def clocks(self) -> dict[str, tuple[list[int], list[int]]]:
        """The poset's :func:`~posetdual.poset.chain_clocks` against ``chains``.

        Computed on first use and kept, like the coordinates.
        """
        cache = getattr(self, "_clocks_cache", None)
        if cache is None:
            cache = chain_clocks(self.poset, self.chains)
            object.__setattr__(self, "_clocks_cache", cache)
        return cache


def build_state_model(
    poset: Poset,
    chains: Iterable[Iterable[str]],
    attrs: Mapping[str, Mapping[str, object]] | None = None,
) -> StateModel:
    """Validate and freeze a state model.

    Chains must be nonempty, disjoint, jointly cover the poset, and be listed
    in ascending existed-before order.
    """
    chs = tuple(tuple(c) for c in chains)
    index = poset._index
    seen: set[str] = set()
    for i, chain in enumerate(chs, start=1):
        if not chain:
            raise ModelError(f"chain {i} is empty; every process has an initial state")
        ids = list(map(index.get, chain))
        if None in ids or len(set(chain)) != len(chain) or not seen.isdisjoint(chain):
            # Name the first bad state, in chain order.
            for s in chain:
                if s not in poset:
                    raise UnknownElement(f"chain {i} names unknown state {s!r}")
                if s in seen:
                    raise ModelError(f"state {s!r} appears on more than one chain")
                seen.add(s)
        seen.update(chain)
        k = chain_break(poset, ids)
        if k >= 0:
            raise NotTotallyOrdered(
                i, f"chain {i} is not ascending at {chain[k]!r} -> {chain[k + 1]!r}"
            )
    if len(seen) != len(poset.elements):
        missing = sorted(set(poset.elements) - seen)
        raise ModelError(f"states {missing} are not assigned to any chain")
    if attrs and not seen.issuperset(attrs):
        bad_attrs = sorted(set(attrs) - seen)
        raise UnknownElement(f"attrs reference unknown states {bad_attrs}")
    return StateModel(poset=poset, chains=chs, attrs=dict(attrs or {}))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a property check; a false verdict carries a witness."""

    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def as_json(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def _jsonable(value):
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def check_omega1(sm: StateModel) -> Verdict:
    """All initial states pairwise concurrent."""
    return _concurrent(sm.poset, [c[0] for c in sm.chains], "initial states are ordered")


def check_omega2(sm: StateModel) -> Verdict:
    """All final states pairwise concurrent."""
    return _concurrent(sm.poset, [c[-1] for c in sm.chains], "final states are ordered")


def _concurrent(p: Poset, states: list[str], detail: str) -> Verdict:
    """*states* pairwise concurrent; the first ordered pair is the witness."""
    for a, b in itertools.combinations(states, 2):
        if comparable(p, a, b) is not Comparability.CONCURRENT:
            return Verdict(False, (a, b), detail)
    return Verdict(True)


def check_omega3(sm: StateModel) -> Verdict:
    """Cross-chain transitivity through the predecessor state.

    For all chains ``i != j`` and ``j != k`` (``i == k`` allowed):
    ``[i,s] < [j,t]`` and ``[j,t-1] < [k,u]`` imply ``[i,s] < [k,u]``.
    Per ``(j,t)`` that says: every state below ``[j,t]`` lies below every
    state above ``[j,t-1]``, i.e. its up-clock is at most that of
    ``[j,t-1]`` entrywise (on chain ``j`` it is at most ``t`` anyway).
    Up-clocks only fall as states fall, and everything below ``[j,t]`` is at
    or below one of its lower covers, so it suffices to test the lower
    covers: one comparison of two clocks per cover, O(covers x chains)
    integer steps.  Only the first failing ``(j,t)`` is scanned state by
    state, for the witness: the first failing ``(i,s,k,u)`` in
    lexicographic order.
    """
    clocks = sm.clocks()
    p = sm.poset
    els, index = p.elements, p._index
    # Per element index: the up-clock of its chain predecessor, if any.
    bound: list = [None] * len(els)
    for chain in sm.chains:
        for prev, state in zip(chain, chain[1:]):
            bound[index[state]] = clocks[prev][1]
    failing = []
    for c, ws in enumerate(p._upper):
        above = clocks[els[c]][1]
        for x in ws:
            limit = bound[x]
            if limit is None or limit is above:  # no predecessor, or it is c
                continue
            if not all(map(le, above, limit)):
                failing.append(sm.coords(els[x]))
    if failing:
        j, t = min(failing)
        return _omega3_witness(sm, j - 1, t)
    return Verdict(True)


def _omega3_witness(sm: StateModel, j: int, t: int) -> Verdict:
    """The failing verdict of ``omega3`` at ``(j,t)``, which must fail.

    The premise only weakens as ``s`` falls, so each ``i`` is first tested
    at the highest ``[i,s]`` below ``[j,t]``; the failing ``i`` is scanned
    for its lowest ``s``, and that for its first ``k``.
    """
    clocks = sm.clocks()
    chains = sm.chains
    chain = chains[j]

    def less(i: int, s: int, k: int, u: int) -> bool:
        return s < u if i == k else u >= clocks[chains[i][s]][1][k]

    below = clocks[chain[t]][0]
    above = clocks[chain[t - 1]][1]
    ks = [k for k in range(sm.n) if k != j and above[k] < len(chains[k])]

    def fails(i: int, s: int) -> bool:
        return not all(less(i, s, k, above[k]) for k in ks)

    i = next(
        i for i in range(sm.n) if i != j and below[i] >= 0 and fails(i, below[i])
    )
    s = next(s for s in range(below[i] + 1) if fails(i, s))
    k = next(k for k in ks if not less(i, s, k, above[k]))
    u = above[k]
    return Verdict(
        False,
        (chains[i][s], chain[t], chains[k][u]),
        f"[{i + 1},{s}] < [{j + 1},{t}] and [{j + 1},{t - 1}] < "
        f"[{k + 1},{u}] but not [{i + 1},{s}] < [{k + 1},{u}]",
    )


def check_psi(sm: StateModel) -> Verdict:
    """No mutual crossing: ``[i,s-1] < [j,t]`` forbids ``[j,t-1] < [i,s]``.

    For each ``(i,j,s)`` the first ``t`` with ``[i,s-1] < [j,t]`` is read off
    the chain clock of ``[i,s-1]``; it is the only candidate that can cross,
    since ``[j,t-1] < [i,s]`` holds for a prefix of ``t``: O(states x chains)
    integer steps, one pass over two clocks per ``(i,s)``.  Only a failing
    model is scanned in ``(i,j,s)`` order, for the first crossing.
    """
    clocks = sm.clocks()
    chains = sm.chains
    sizes = [len(c) for c in chains]
    for i, chain in enumerate(chains):
        # Chain i itself always "crosses" at t = s; size 0 rules it out.
        others = sizes.copy()
        others[i] = 0
        for prev, state in zip(chain, chain[1:]):
            above, below = clocks[prev][1], clocks[state][0]
            # t = u crosses iff t < size and t - 1 <= d.  A crossing at
            # t = 1 with u = 0 squeezes [j,0] between [i,s-1] and [i,s], so
            # chains j and i also cross at indices 1 and s, with u = s.
            if any(
                u <= d + 1 and 0 < u < size
                for u, d, size in zip(above, below, others)
            ):
                return _psi_witness(sm)
    return Verdict(True)


def _psi_witness(sm: StateModel) -> Verdict:
    """The failing verdict of :func:`check_psi`, which must fail: the first
    crossing in ``(i,j,s)`` order."""
    clocks = sm.clocks()
    chains = sm.chains
    for i, j in itertools.permutations(range(sm.n), 2):
        ci, cj = chains[i], chains[j]
        for s in range(1, len(ci)):
            t = max(1, clocks[ci[s - 1]][1][j])
            if t < len(cj) and t - 1 <= clocks[ci[s]][0][j]:
                return Verdict(
                    False,
                    (ci[s - 1], cj[t], cj[t - 1], ci[s]),
                    f"chains {i + 1} and {j + 1} advance in lockstep at "
                    f"indices {s} and {t}",
                )
    return Verdict(True)


def extend_to_width_antichain(
    p: Poset, members: Iterable[str]
) -> frozenset[str]:
    """Grow an antichain to a maximum antichain, one chain at a time.

    For each chain of a minimum chain partition not yet represented, the
    incomparable runs of the current members intersect (runs are intervals,
    so pairwise intersection gives a common element); any element of the
    intersection extends the antichain.  Each run is read off the member's
    clock on :func:`minimum_view`, whose chains are Kuhn's partition.
    Raises :class:`NotWidthExtensible` with the stuck sub-antichain when no
    extension exists: the first member, in sorted order, with no run on the
    chain, else the whole antichain.
    """
    current = set(members)
    if not is_antichain(p, current):
        raise NotWidthAntichain(f"{sorted(current)} is not an antichain")
    view = minimum_view(p)
    clocks = view.clocks()
    taken = {view.coords(s)[0] - 1 for s in current}
    for ci, chain in enumerate(view.chains):
        if ci in taken:
            continue
        lo, hi = 0, len(chain) - 1
        for s in sorted(current):
            down, up = clocks[s]
            if down[ci] + 1 == up[ci]:
                raise NotWidthExtensible(frozenset({s}))
            lo, hi = max(lo, down[ci] + 1), min(hi, up[ci] - 1)
        if lo > hi:
            raise NotWidthExtensible(frozenset(current))
        current.add(chain[lo])
    return frozenset(current)


def minimum_view(target: StateModel | Poset) -> StateModel:
    """*target* on a minimum chain partition.

    A state model whose initial states are pairwise concurrent is its own
    view; any other model, and a bare poset, is viewed on Kuhn's partition
    (a new model without attributes).  On a width-extensible model, the view
    is the model itself iff its chain count is the width (module docstring).
    """
    if isinstance(target, StateModel):
        if check_omega1(target).ok:
            return target
        target = target.poset
    return StateModel(poset=target, chains=minimum_chain_partition(target).chains)


def check_width_extensible(p: Poset) -> Verdict:
    """Decide whether every antichain extends to a maximum antichain.

    It suffices to check antichains of size at most two: singletons need a
    nonempty incomparable run on every other chain of a minimum chain
    partition, and incomparable pairs need those runs to intersect on every
    chain containing neither element (runs on a chain obey the Helly
    property, so pairwise intersection lifts to any antichain).  The run of
    ``s`` on chain ``c`` is ``down[c]+1 .. up[c]-1`` of its chain clock.

    On a minimum partition, with ``[k,u]`` the ``u``-th state of chain
    ``k``, this holds iff ``omega1``, ``omega2`` and ``omega3`` do, so the
    verdict costs what those checks cost:

    * If the three hold, every singleton passes.  A state ``x`` with an
      empty run on chain ``k`` is below ``[k,0]``, so an initial state is
      below another (``omega1`` fails); or above ``k``'s final state
      (``omega2`` fails); or squeezed, ``[k,u] < x < [k,u+1]``, and then
      ``omega3`` at ``[k,u+1]``, with ``x`` on both sides, gives ``x < x``.
    * Every pair passes too.  Let ``x`` and ``y`` be incomparable, and their
      runs on a chain ``c`` holding neither be disjoint, say with ``x``'s
      run ending at position ``h`` before ``y``'s begins.  Then
      ``[c,h] < y`` and ``x < [c,h+1]``, and ``omega3`` at ``[c,h+1]``
      forces ``x < y``.
    * Conversely, a failing ``omega1`` puts an initial state below another
      chain's initial state, and so below that whole chain: its run there
      is empty.  ``omega2`` is the dual.  A failing ``omega3`` triple has
      ``[i,s] < [j,t]`` and ``[j,t-1] < [k,u]`` but not ``[i,s] < [k,u]``.
      If ``[k,u] <= [i,s]`` (always so when ``i == k``), then ``[i,s]`` is
      squeezed between ``[j,t-1]`` and ``[j,t]``, with an empty run on chain
      ``j``.  Otherwise the two are incomparable, and on chain ``j``, which
      holds neither, the run of ``[i,s]`` ends below ``t`` while that of
      ``[k,u]`` starts at ``t`` or above.

    Only a failure is located, for its witness.  For incomparable ``x`` and
    ``y`` and a chain holding neither, ``y`` is below the first state of
    ``x``'s run iff ``x`` is above the last state of ``y``'s run: both say
    that ``y``'s run ends before ``x``'s begins.  So let ``F(x)`` be the
    states above the last state of ``x``'s run on some chain, minus those
    above ``x``; all of them are incomparable to ``x``, and a pair fails iff
    ``y`` is in ``F(x)`` or ``x`` is in ``F(y)``.  One downward scan keeps
    the union of ``F`` over the elements passed, and one more pass names
    the partner: O(states x chains) bitset operations, one OR of an up-set
    per state and chain, with no down-sets.  The partition of a bare
    poset is Kuhn's (:func:`minimum_view`).  On failure the witness is the
    offending antichain; among several failures the lexicographically
    greatest is reported.  :func:`require_width_extensible` and
    :func:`run_property_checks` skip the matching when a state model's own
    chains pass.
    """
    return _width_extensible(minimum_view(p))


def _width_extensible(sm: StateModel) -> Verdict:
    """:func:`check_width_extensible` on ``sm.chains``, a minimum partition:
    ``omega1`` and ``omega2`` and ``omega3`` on ``sm``, and a failure's
    witness."""
    if check_omega1(sm) and check_omega2(sm) and check_omega3(sm):
        return Verdict(True)
    return _width_extensible_witness(sm)


def _width_extensible_witness(sm: StateModel) -> Verdict:
    """The failing verdict of :func:`_width_extensible` on *sm*, named by
    the scans of :func:`check_width_extensible`."""
    p, clocks = sm.poset, sm.clocks()
    # An element's run on its own chain is the element itself (up - down is
    # 2), so a singleton fails iff some chain leaves it an empty run.  The
    # last failure in sorted order is the greatest.
    for s in reversed(p.elements):
        down, up = clocks[s]
        if any(u - d < 2 for d, u in zip(down, up)):
            return Verdict(False, frozenset({s}), "no maximum antichain contains it")

    # Pairs.  F(x) is the union over chains of the up-sets of the last state
    # of x's run, minus x's own up-set: states incomparable to x, above its
    # run on some chain (the own chain gives x itself, its up-set removed).
    # A pair fails iff b is in F(a) or a is in F(b) (docstring of
    # check_width_extensible), so scan a downward, keeping in `later` the
    # union of F(b) over b > a.  The greatest failing pair has the last such
    # a and its last partner.
    els, up = p.elements, p._up
    ids = [[p.index(e) for e in chain] for chain in sm.chains]

    def beyond(x: int) -> int:
        f = 0
        for chain, above in zip(ids, clocks[els[x]][1]):
            f |= up[chain[above - 1]]
        return f & ~up[x]

    later = 0
    for a in range(len(els) - 1, -1, -1):
        fa = beyond(a)
        if fa >> (a + 1) or later >> a & 1:
            # The last b > a with a in F(b), in one more pass, against the
            # top of F(a), which is a partner when it is above a.
            b = next((b for b in range(len(els) - 1, a, -1) if beyond(b) >> a & 1), -1)
            b = max(b, fa.bit_length() - 1)
            return Verdict(
                False, frozenset({els[a], els[b]}), "no maximum antichain contains both"
            )
        later |= fa
    return Verdict(True)


def require_width_extensible(target: StateModel | Poset) -> StateModel:
    """:func:`minimum_view` of *target*, which must be width-extensible.

    A model's own chains, the view when its initial states are concurrent,
    pass when ``omega2`` and ``omega3`` hold too.  Otherwise the poset is
    decided on Kuhn's partition, the view of any other target.

    Raises:
        NotWidthExtensible: with the witness of :func:`check_width_extensible`.
    """
    view = minimum_view(target)
    if view is target and check_omega2(view) and check_omega3(view):
        return view
    verdict = _width_extensible(view if view is not target else minimum_view(view.poset))
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    return view


def width_extensible_bruteforce(p: Poset) -> bool:
    """Definition-level oracle: every antichain lies in some maximum one."""
    w, _ = width(p)
    width_antichains = list(enumerate_antichains(p, size_filter=w))
    for a in enumerate_antichains(p):
        if not any(a <= wa for wa in width_antichains):
            return False
    return True


def _antichain_leq(p: Poset, a: frozenset[str], b: frozenset[str]) -> bool:
    return all(x in b or any(p.less(x, y) for y in b) for x in a)


def compare_width_antichains(
    p: Poset, a: Iterable[str], b: Iterable[str]
) -> Comparability:
    """Compare two maximum antichains under the for-all/exists order."""
    fa, fb = frozenset(a), frozenset(b)
    for s in (fa, fb):
        require_width_antichain(p, s)
    if fa == fb:
        return Comparability.EQUAL
    le = _antichain_leq(p, fa, fb)
    ge = _antichain_leq(p, fb, fa)
    if le and not ge:
        return Comparability.LESS
    if ge and not le:
        return Comparability.GREATER
    if le and ge:
        # Both directions only happen for equal maximum antichains.
        raise AssertionError("distinct maximum antichains mutually below")
    return Comparability.CONCURRENT


def require_width_antichain(p: Poset, members: Iterable[str]) -> frozenset[str]:
    ms = frozenset(members)
    w, _ = width(p)
    if len(ms) != w or not is_antichain(p, ms):
        raise NotWidthAntichain(
            f"{sorted(ms)} is not an antichain of maximum size {w}"
        )
    return ms


def interleaving_consistent_bruteforce(p: Poset) -> Verdict:
    """Definition-level check over the enumerated maximum antichains."""
    w, _ = width(p)
    if w == 0:
        return Verdict(True)
    family = list(enumerate_antichains(p, size_filter=w))
    maximal = [
        a
        for a in family
        if not any(b != a and _antichain_leq(p, a, b) for b in family)
    ]
    if len(maximal) != 1:
        raise AssertionError("maximum antichains must have a unique top")
    top = maximal[0]
    for a in family:
        if a == top:
            continue
        ok = any(
            b != a
            and len(a & b) == len(a) - 1
            and _antichain_leq(p, a, b)
            for b in family
        )
        if not ok:
            return Verdict(False, a, "no one-step successor maximum antichain")
    return Verdict(True)


def check_interleaving_consistent(p: Poset) -> Verdict:
    """Decide interleaving-consistency, on Kuhn's partition of *p*.

    Fast path: on a width-extensible poset (with a minimum chain partition)
    the property is equivalent to ``psi``, so the crossing scan decides it.
    Otherwise the definition is checked by enumerating maximum antichains,
    subject to the oracle bound (``POSETDUAL_ORACLE_BOUND``).
    """
    view = minimum_view(p)
    if _width_extensible(view):
        return check_psi(view)
    return interleaving_consistent_bruteforce(p)


#: The property names :func:`run_property_checks` accepts, in report order,
#: and the :class:`PropertyReport` field of each.
_FIELDS = {
    "omega1": "omega1",
    "omega2": "omega2",
    "omega3": "omega3",
    "psi": "psi",
    "we": "width_extensible",
    "ic": "interleaving_consistent",
}
PROPERTIES = tuple(_FIELDS)


@dataclass(frozen=True)
class PropertyReport:
    """Bundle of verdicts for a state model, for CLI/JSON output."""

    omega1: Verdict | None = None
    omega2: Verdict | None = None
    omega3: Verdict | None = None
    psi: Verdict | None = None
    width_extensible: Verdict | None = None
    interleaving_consistent: Verdict | None = None

    def as_json(self) -> dict:
        verdicts = ((name, getattr(self, f)) for name, f in _FIELDS.items())
        return {name: v.as_json() for name, v in verdicts if v is not None}


def run_property_checks(sm: StateModel, properties: Iterable[str]) -> PropertyReport:
    """Run the requested subset of :data:`PROPERTIES` on *sm*.

    ``omega1``, ``omega2``, ``omega3`` and ``psi`` are checked on the model's
    own chains, each at most once.  Those chains can only pass ``we`` (all
    three omegas hold) and ``ic`` (``psi`` holds too); every failing verdict
    is the poset's (module docstring), found on Kuhn's partition, built at
    most once: ``we`` by :func:`check_width_extensible`'s scans, and ``ic``
    by ``psi`` when ``we`` holds, else by enumerating the maximum antichains
    (:func:`interleaving_consistent_bruteforce`, subject to the oracle
    bound).

    Raises:
        UsageError: a name outside :data:`PROPERTIES`.
        OracleBoundExceeded: ``ic`` needs the enumeration beyond the oracle
            bound.
    """
    wanted = set(properties)
    unknown = sorted(wanted - set(PROPERTIES))
    if unknown:
        raise UsageError(f"unknown properties {unknown}")
    checks = {
        "omega1": check_omega1,
        "omega2": check_omega2,
        "omega3": check_omega3,
        "psi": check_psi,
    }
    verdicts = {name: check(sm) for name, check in checks.items() if name in wanted}

    def own(name: str) -> Verdict:
        if name not in verdicts:
            verdicts[name] = checks[name](sm)
        return verdicts[name]

    if wanted & {"we", "ic"}:
        omegas = own("omega1") and own("omega2") and own("omega3")
        kuhn = None if omegas else minimum_view(sm.poset)
        we = Verdict(True) if omegas else _width_extensible(kuhn)
        if "ic" in wanted:
            if omegas and own("psi"):
                verdicts["ic"] = Verdict(True)
            elif we:
                verdicts["ic"] = check_psi(kuhn or minimum_view(sm.poset))
            else:
                verdicts["ic"] = interleaving_consistent_bruteforce(sm.poset)
        verdicts["we"] = we
    return PropertyReport(**{_FIELDS[n]: v for n, v in verdicts.items() if n in wanted})
