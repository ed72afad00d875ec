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
once per model): per state and chain, the highest position below the state
and the lowest above it.  With ``n`` chains, ``omega3``, ``psi`` and
width-extensibility each cost O(states x n) bitset operations.

Width-extensibility and interleaving-consistency are defined against a
minimum chain partition, and one policy picks it (:func:`minimum_view`): a
model's own chains when its initial states are pairwise concurrent
(``omega1``), else, and for a bare poset, Kuhn's partition
(:func:`~posetdual.poset.minimum_chain_partition`, O(states^2) search steps
in the worst case).  ``omega1`` makes the initial states an antichain as
large as the chain count, so by Dilworth the own chains are minimum.
Conversely, a width-extensible model whose own chains are minimum satisfies
``omega1``: an initial state below another chain's initial state is below
that whole chain, so no maximum antichain holds it.  Both verdicts are the
same on any minimum partition, but a failure's witness names the
partition's chains, so only a failure on the model's own chains is decided
again on Kuhn's partition.  :func:`require_width_extensible` gives the
partitioned view of a width-extensible model to enumeration and detection.

All checks are pure functions over immutable models and safe to call from
multiple threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import (
    ModelError,
    NotTotallyOrdered,
    NotWidthAntichain,
    NotWidthExtensible,
    UnknownElement,
    UsageError,
)
from .poset import (
    ChainPartition,
    Comparability,
    Poset,
    chain_clocks,
    comparable,
    enumerate_antichains,
    incomparable_interval,
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

    def partition(self) -> ChainPartition:
        return ChainPartition(self.chains)

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
    seen: set[str] = set()
    for i, chain in enumerate(chs, start=1):
        if not chain:
            raise ModelError(f"chain {i} is empty; every process has an initial state")
        for s in chain:
            if s not in poset:
                raise UnknownElement(f"chain {i} names unknown state {s!r}")
            if s in seen:
                raise ModelError(f"state {s!r} appears on more than one chain")
            seen.add(s)
        for a, b in zip(chain, chain[1:]):
            if not poset.less(a, b):
                raise NotTotallyOrdered(
                    i, f"chain {i} is not ascending at {a!r} -> {b!r}"
                )
    if len(seen) != len(poset.elements):
        missing = sorted(set(poset.elements) - seen)
        raise ModelError(f"states {missing} are not assigned to any chain")
    bad_attrs = sorted(set(attrs or ()) - seen)
    if bad_attrs:
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
    initials = [chain[0] for chain in sm.chains]
    for a, b in itertools.combinations(initials, 2):
        if comparable(sm.poset, a, b) is not Comparability.CONCURRENT:
            return Verdict(False, (a, b), "initial states are ordered")
    return Verdict(True)


def check_omega2(sm: StateModel) -> Verdict:
    """All final states pairwise concurrent."""
    finals = [chain[-1] for chain in sm.chains]
    for a, b in itertools.combinations(finals, 2):
        if comparable(sm.poset, a, b) is not Comparability.CONCURRENT:
            return Verdict(False, (a, b), "final states are ordered")
    return Verdict(True)


def check_omega3(sm: StateModel) -> Verdict:
    """Cross-chain transitivity through the predecessor state.

    For all chains ``i != j`` and ``j != k`` (``i == k`` allowed):
    ``[i,s] < [j,t]`` and ``[j,t-1] < [k,u]`` imply ``[i,s] < [k,u]``.
    The conclusion only weakens as ``u`` rises, so per ``(j,t)`` it suffices
    to take, on each chain ``k``, the lowest ``[k,u]`` above ``[j,t-1]``
    (its chain clock), and to ask that the down-set of ``[j,t]`` lie inside
    the down-set of each: O(states x chains) bitset operations.  (Its
    states on chain ``j`` are at most ``[j,t-1]`` and pass; on chain ``j``
    the lowest state is ``[j,t]`` itself.)  Only the first failing
    ``(j,t)`` is scanned state by state, for the witness: the first failing
    ``(i,s,k,u)`` in lexicographic order.
    """
    clocks = sm.clocks()
    chains = sm.chains
    p = sm.poset
    down = [[p.down_mask(s) for s in chain] for chain in chains]
    for j, chain in enumerate(chains):
        for t in range(1, len(chain)):
            below = down[j][t]
            above = clocks[chain[t - 1]][1]
            if any(
                below & ~down[k][u]
                for k, u in enumerate(above)
                if u < len(chains[k])
            ):
                return _omega3_witness(sm, j, t)
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
    since ``[j,t-1] < [i,s]`` holds for a prefix of ``t``: O(states x chains).
    """
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
    intersection extends the antichain.  Raises :class:`NotWidthExtensible`
    with the stuck sub-antichain when no extension exists: the first member,
    in sorted order, with no run on the chain, else the whole antichain.
    """
    current = set(members)
    if not is_antichain(p, current):
        raise NotWidthAntichain(f"{sorted(current)} is not an antichain")
    cp = minimum_chain_partition(p)
    for ci, chain in enumerate(cp.chains):
        if any(cp.position(s)[0] == ci for s in current):
            continue
        lo, hi = 0, len(chain) - 1
        for s in sorted(current):
            run = incomparable_interval(p, cp, s, ci)
            if not run:
                raise NotWidthExtensible(frozenset({s}))
            lo, hi = max(lo, run.lo), min(hi, run.hi)
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


def _decide(
    target: StateModel | Poset,
    view: StateModel,
    check: Callable[[StateModel], Verdict],
    verdict: Verdict | None = None,
) -> Verdict:
    """*check* on ``view = minimum_view(target)``, or the *verdict* it gave.

    A failure on the model's own chains is decided again on Kuhn's
    partition, whose chains its witness names.
    """
    if verdict is None:
        verdict = check(view)
    if verdict.ok or view is not target:
        return verdict
    return check(minimum_view(view.poset))


def check_width_extensible(p: Poset) -> Verdict:
    """Decide whether every antichain extends to a maximum antichain.

    It suffices to check antichains of size at most two: singletons need a
    nonempty incomparable run on every other chain of a minimum chain
    partition, and incomparable pairs need those runs to intersect on every
    chain containing neither element (runs on a chain obey the Helly
    property, so pairwise intersection lifts to any antichain).  The run of
    ``s`` on chain ``c`` is ``down[c]+1 .. up[c]-1`` of its chain clock, and
    another element misses it iff it lies below the run's first element or
    above its last, so each element's failing partners are one OR of two
    bitsets per chain: O(states x chains) bitset operations after Kuhn's
    matching, which finds the partition.  On failure the witness is the
    offending antichain; among several failures the lexicographically
    greatest is reported.  :func:`require_width_extensible` and
    :func:`run_property_checks` skip the matching for state models whose
    initial states are concurrent.
    """
    return _width_extensible(minimum_view(p))


def _width_extensible(sm: StateModel) -> Verdict:
    """:func:`check_width_extensible` on ``sm.chains``, a minimum partition."""
    p, clocks = sm.poset, sm.clocks()
    # An element's run on its own chain is the element itself (up - down is
    # 2), so a singleton fails iff some chain leaves it an empty run.  The
    # last failure in sorted order is the greatest.
    for s in reversed(p.elements):
        down, up = clocks[s]
        if any(u - d < 2 for d, u in zip(down, up)):
            return Verdict(False, frozenset({s}), "no maximum antichain contains it")

    # Pairs: b misses a's run [lo,hi] on chain c iff b < chain_c[lo] or
    # b > chain_c[hi].  OR those partners over all chains and keep the ones
    # incomparable to a and after it (the partners on chain c itself, and all
    # on a's own chain, whose run is a alone, are ordered with a).  The
    # greatest failing pair has the last such a and its last partner.
    els, up, down = p.elements, p._up, p._down
    ids = [[p.index(e) for e in chain] for chain in sm.chains]
    for a in range(len(els) - 1, -1, -1):
        da, ua = clocks[els[a]]
        failing = 0
        for chain, below, above in zip(ids, da, ua):
            failing |= down[chain[below + 1]] | up[chain[above - 1]]
        failing = (failing & ~(up[a] | down[a])) >> (a + 1)
        if failing:
            b = a + failing.bit_length()
            return Verdict(
                False, frozenset({els[a], els[b]}), "no maximum antichain contains both"
            )
    return Verdict(True)


def require_width_extensible(target: StateModel | Poset) -> StateModel:
    """:func:`minimum_view` of *target*, which must be width-extensible.

    Raises:
        NotWidthExtensible: with the witness of :func:`check_width_extensible`.
    """
    view = minimum_view(target)
    verdict = _decide(target, view, _width_extensible)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    return view


def width_extensible_bruteforce(p: Poset, *, bound: int | None = None) -> bool:
    """Definition-level oracle: every antichain lies in some maximum one."""
    w, _ = width(p)
    width_antichains = [
        a for a in enumerate_antichains(p, size_filter=w, bound=bound)
    ]
    for a in enumerate_antichains(p, bound=bound):
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


def interleaving_consistent_bruteforce(
    p: Poset, *, bound: int | None = None
) -> Verdict:
    """Definition-level check over the enumerated maximum antichains."""
    w, _ = width(p)
    if w == 0:
        return Verdict(True)
    family = list(enumerate_antichains(p, size_filter=w, bound=bound))
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


def check_interleaving_consistent(
    p: Poset, *, bound: int | None = None
) -> Verdict:
    """Decide interleaving-consistency.

    Fast path: on a width-extensible poset (with a minimum chain partition)
    the property is equivalent to ``psi``, so the crossing scan decides it.
    Otherwise the definition is checked by enumerating maximum antichains,
    subject to the oracle bound.
    """
    view = minimum_view(p)
    return _interleaving_consistent(p, view, _width_extensible(view), bound)


def _interleaving_consistent(
    target: StateModel | Poset,
    view: StateModel,
    we: Verdict,
    bound: int | None,
    psi: Verdict | None = None,
) -> Verdict:
    """Interleaving-consistency given the width-extensibility verdict *we*
    and, when already found, the ``psi`` verdict on *view*."""
    if we.ok:
        return _decide(target, view, check_psi, psi)
    return interleaving_consistent_bruteforce(view.poset, bound=bound)


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
        names = {
            "omega1": self.omega1,
            "omega2": self.omega2,
            "omega3": self.omega3,
            "psi": self.psi,
            "we": self.width_extensible,
            "ic": self.interleaving_consistent,
        }
        return {k: v.as_json() for k, v in names.items() if v is not None}


#: The property names :func:`run_property_checks` accepts, in report order.
PROPERTIES = ("omega1", "omega2", "omega3", "psi", "we", "ic")


def run_property_checks(
    sm: StateModel, properties: Iterable[str], *, bound: int | None = None
) -> PropertyReport:
    """Run the requested subset of {omega1,omega2,omega3,psi,we,ic}.

    Raises:
        UsageError: a name outside :data:`PROPERTIES`.
    """
    wanted = list(properties)
    unknown = sorted(set(wanted) - set(PROPERTIES))
    if unknown:
        raise UsageError(f"unknown properties {unknown}")
    kw: dict[str, Verdict] = {}
    if "omega1" in wanted:
        kw["omega1"] = check_omega1(sm)
    if "omega2" in wanted:
        kw["omega2"] = check_omega2(sm)
    if "omega3" in wanted:
        kw["omega3"] = check_omega3(sm)
    if "psi" in wanted:
        kw["psi"] = check_psi(sm)
    if "we" in wanted or "ic" in wanted:
        view = minimum_view(sm)
        we = _decide(sm, view, _width_extensible)
    if "we" in wanted:
        kw["width_extensible"] = we
    if "ic" in wanted:
        psi = kw.get("psi") if view is sm else None
        kw["interleaving_consistent"] = _interleaving_consistent(sm, view, we, bound, psi)
    return PropertyReport(**kw)
