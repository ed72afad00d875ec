"""Event-side model of a concurrent computation.

An :class:`EventModel` is a poset of events under happened-before together
with a label map assigning each event one slot ``(process, index)`` per
process the event is shared with.  Per process, the labeled events must be
totally ordered and indexed exactly ``1..n_i`` in causal order.  A barrier or
synchronous message is a single event carrying one slot on each participant.

Models are immutable after validation and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import (
    EmptyProcess,
    IndexGap,
    ModelError,
    NotConsistent,
    NotTotallyOrdered,
    UnknownElement,
)
from .poset import Poset, chain_break, is_downset

Slot = tuple[int, int]


@dataclass(frozen=True)
class EventModel:
    """Validated event-based model; build via :func:`build_event_model`."""

    poset: Poset
    n: int
    labels: Mapping[str, frozenset[Slot]]
    # chain i (1-based) -> events ordered by index 1..n_i
    proc_events: tuple[tuple[str, ...], ...] = field(repr=False)

    def chain_length(self, proc: int) -> int:
        """Number of events carrying a slot on process *proc* (1-based)."""
        return len(self.proc_events[proc - 1])

    def event_at(self, proc: int, idx: int) -> str:
        """Event carrying slot ``(proc, idx)``; idx is 1-based."""
        return self.proc_events[proc - 1][idx - 1]

    def state_less(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Order between induced states ``[i,r]`` and ``[j,s]``.

        ``[i,r] < [j,s]`` iff same chain with ``r < s``, or the event entering
        ``[i,r+1]`` happened before (or is) the event entering ``[j,s]``.
        """
        (i, r), (j, s) = a, b
        if i == j:
            return r < s
        if r + 1 > self.chain_length(i) or s < 1:
            return False
        e, f = self.event_at(i, r + 1), self.event_at(j, s)
        return e == f or self.poset.less(e, f)


def build_event_model(
    poset: Poset,
    n: int,
    labels: Mapping[str, Iterable[Slot]],
    *,
    allow_empty_process: bool = False,
    _per_proc: Mapping[int, list[tuple[int, str]]] | None = None,
) -> EventModel:
    """Validate and freeze an event model.

    ``_per_proc`` is a private path with two callers, the loader
    (:func:`~posetdual.traces.parse_event`) and
    :func:`~posetdual.transforms.se_transform`, which have each just built
    the labels: the sorted ``(index, event)`` list of each process, one
    entry per slot as listed, for *labels* that map exactly the poset's
    elements to nonempty sets of ``int`` pairs.
    When those lists show that every slot passes the per-event checks
    below, the labels are frozen as given and the lists used as they are;
    otherwise the labels are checked one event at a time, as without them.

    Raises:
        NotTotallyOrdered: two events labeled with the same process are
            concurrent (or their index order contradicts happened-before).
        IndexGap: the indices on some process are not exactly ``1..n_i``.
        EmptyProcess: a process in ``1..n`` has no events and
            ``allow_empty_process`` is false.
        ModelError: labels missing/malformed.
    """
    if _per_proc is not None and _slots_pass(n, _per_proc):
        norm = {e: frozenset(labels[e]) for e in poset.elements}
        per_proc = _per_proc
    else:
        norm, per_proc = _normalize(poset, n, labels)

    index = poset._index
    chains: list[tuple[str, ...]] = []
    for i in range(1, n + 1):
        entries = per_proc.get(i)
        if not entries:
            if not allow_empty_process:
                raise EmptyProcess(i)
            chains.append(())
            continue
        indices = [k for k, _ in entries]
        if indices != list(range(1, len(entries) + 1)):
            # Exactly 1..n_i repeats no index, so only a failing list is
            # scanned for repeats, which take precedence over gaps.
            for (k1, e1), (k2, e2) in zip(entries, entries[1:]):
                if k1 == k2:
                    # Two events at the same position: concurrent unless the
                    # caller ordered them explicitly (then the indexing is off).
                    if poset.less(e1, e2) or poset.less(e2, e1):
                        raise IndexGap(i, f"process {i} repeats index {k1}")
                    raise NotTotallyOrdered(i)
            raise IndexGap(i, f"process {i} indices {indices} are not 1..n_i")
        ordered = tuple(e for _, e in entries)
        k = chain_break(poset, [index[e] for e in ordered])
        if k >= 0:
            if poset.less(ordered[k + 1], ordered[k]):
                raise IndexGap(i, f"process {i} index order contradicts causal order")
            raise NotTotallyOrdered(i)
        chains.append(ordered)

    return EventModel(poset=poset, n=n, labels=norm, proc_events=tuple(chains))


def _slots_pass(n: int, per_proc: Mapping[int, list[tuple[int, str]]]) -> bool:
    """True when every listed slot names a process in ``1..n`` and a
    positive index, and no event is listed twice on one process."""
    return n >= 0 and all(
        1 <= i <= n
        and entries[0][0] >= 1
        and len(set(map(itemgetter(1), entries))) == len(entries)
        for i, entries in per_proc.items()
    )


def _normalize(
    poset: Poset, n: int, labels: Mapping[str, Iterable[Slot]]
) -> tuple[dict[str, frozenset[Slot]], dict[int, list[tuple[int, str]]]]:
    """The labels as frozen sets of int pairs, checked one event at a time,
    and each process's ``(index, event)`` list, sorted."""
    if n < 0:
        raise ModelError("process count must be non-negative")
    norm: dict[str, frozenset[Slot]] = {}
    for e in poset.elements:
        if e not in labels:
            raise ModelError(f"event {e!r} has no label")
        slots = frozenset((int(i), int(k)) for i, k in labels[e])
        if not slots:
            raise ModelError(f"event {e!r} has an empty label set")
        procs = [i for i, _ in slots]
        if len(procs) != len(set(procs)):
            raise ModelError(f"event {e!r} carries two slots on one process")
        for i, k in slots:
            if not 1 <= i <= n:
                raise ModelError(f"event {e!r} labeled with unknown process {i}")
            if k < 1:
                raise IndexGap(i, f"event {e!r} has non-positive index {k}")
        norm[e] = slots
    for e in labels:
        if e not in poset:
            raise UnknownElement(f"label for undeclared event {e!r}")

    # Keyed by process, so that a huge declared n costs nothing before the
    # first empty process stops the loop that reads them.
    per_proc: dict[int, list[tuple[int, str]]] = {}
    for e, slots in norm.items():
        for i, k in slots:
            per_proc.setdefault(i, []).append((k, e))
    for entries in per_proc.values():
        entries.sort()
    return norm, per_proc


def is_asc(m: EventModel) -> bool:
    """True iff no event is shared, i.e. every label set is a singleton."""
    return all(len(slots) == 1 for slots in m.labels.values())


def is_consistent_cut(m: EventModel, cut: Iterable[str]) -> bool:
    """True iff *cut* is downward closed under happened-before."""
    events = set(cut)
    for e in events:
        if e not in m.poset:
            raise UnknownElement(f"unknown event {e!r}")
    return is_downset(m.poset, events)


def require_consistent_cut(m: EventModel, cut: Iterable[str]) -> frozenset[str]:
    events = frozenset(cut)
    if not is_consistent_cut(m, events):
        raise NotConsistent(f"{sorted(events)} is not downward closed")
    return events
