"""Seeded inputs for the benchmark, and the benchmark's own view of them.

Everything here is independent of posetdual: a run is generated as a list of
events in one global order (a linear extension), vector clocks are computed
over that order, and the state order, the cover relations, the consistent
cuts and the checkpoint verdicts the benchmark expects are all derived from
those clocks.  The trace files handed to posetdual are written from the same
data, so a given seed yields byte-identical inputs whatever posetdual does.

Coordinates: processes are 1-based; event ``(i, k)`` is the k-th event of
process i (1-based); state ``[i, r]`` is the state of process i after r
events (``r = 0`` is the initial state) and is named ``"i.r"``.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field

Slot = tuple[int, int]


def dumps_canonical(data) -> str:
    """Canonical JSON text as documented in docs/formats.md."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@dataclass
class Run:
    """A generated computation: events in global order plus message edges."""

    n: int
    events: list[tuple[Slot, ...]]  # slots of each event, sorted
    messages: list[tuple[int, int]]  # (sender, receiver) event positions
    lengths: list[int] = field(init=False)  # events per process
    at: dict[Slot, int] = field(init=False)  # slot -> event position
    clocks: list[tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        self.lengths = [0] * self.n
        self.at = {}
        for pos, slots in enumerate(self.events):
            for i, k in slots:
                self.at[(i, k)] = pos
                self.lengths[i - 1] = max(self.lengths[i - 1], k)
        self.clocks = self._vector_clocks()

    def _vector_clocks(self) -> list[tuple[int, ...]]:
        """``clocks[e][i-1]`` = number of events of process i at or before e."""
        incoming: dict[int, list[int]] = {}
        for a, b in self.messages:
            incoming.setdefault(b, []).append(a)
        clocks: list[tuple[int, ...]] = []
        for pos, slots in enumerate(self.events):
            c = [0] * self.n
            preds = list(incoming.get(pos, ()))
            preds += [self.at[(i, k - 1)] for i, k in slots if k > 1]
            for q in preds:
                c = [max(x, y) for x, y in zip(c, clocks[q])]
            for i, k in slots:
                c[i - 1] = k
            clocks.append(tuple(c))
        return clocks

    def event_id(self, pos: int) -> str:
        slots = self.events[pos]
        if len(slots) == 1:
            i, k = slots[0]
            return f"e{i}.{k}"
        return "shared(" + ",".join(f"{i}.{k}" for i, k in slots) + ")"

    @property
    def shared_events(self) -> list[int]:
        return [p for p, slots in enumerate(self.events) if len(slots) > 1]

    # --- order ------------------------------------------------------------

    def event_less(self, a: int, b: int) -> bool:
        if a == b:
            return False
        i, k = self.events[a][0]
        return self.clocks[b][i - 1] >= k

    def state_down(self) -> dict[Slot, list[int]]:
        """Per state, the highest index below it on every chain (-1: none)."""
        down: dict[Slot, list[int]] = {}
        for i in range(1, self.n + 1):
            for r in range(self.lengths[i - 1] + 1):
                if r == 0:
                    d = [-1] * self.n
                else:
                    d = [c - 1 for c in self.clocks[self.at[(i, r)]]]
                d[i - 1] = r - 1
                down[(i, r)] = d
        return down

    def event_covers(self) -> list[tuple[int, int]]:
        """Cover pairs of happened-before, as event positions."""
        out = []
        for f, slots in enumerate(self.events):
            mine = dict(slots)
            cands = set()
            for i in range(1, self.n + 1):
                k = mine[i] - 1 if i in mine else self.clocks[f][i - 1]
                if k >= 1:
                    cands.add(self.at[(i, k)])
            for e in cands:
                if not any(self.event_less(e, g) for g in cands if g != e):
                    out.append((e, f))
        return out

    # --- cuts ---------------------------------------------------------------

    def _tables(self):
        """Per-process clocks by index, and the bounds they put on the others.

        ``clock_at[j][k]`` is the clock of event ``(j+1, k)`` (None for k=0);
        ``cap[j][i][v]`` is the highest k on process j+1 whose clock has at
        most v on process i+1.  A frontier is consistent iff for all j, i:
        ``clock_at[j][k_j][i] <= k_i``, i.e. ``k_j <= cap[j][i][k_i]``.
        """
        n, lengths = self.n, self.lengths
        clock_at = [
            [None] + [self.clocks[self.at[(j, k)]] for k in range(1, lengths[j - 1] + 1)]
            for j in range(1, n + 1)
        ]
        cap = []
        for j in range(n):
            per_i = []
            for i in range(n):
                row, k = [], 0
                for v in range(lengths[i] + 1):
                    while k < lengths[j] and clock_at[j][k + 1][i] <= v:
                        k += 1
                    row.append(k)
                per_i.append(row)
            cap.append(per_i)
        return clock_at, cap

    def _narrow(self, j, k, lo, hi, clock_at, cap):
        """Bounds of the later processes once process j+1 has k events."""
        lo2, hi2 = lo[:], hi[:]
        c = clock_at[j][k]
        for i in range(j + 1, self.n):
            if c is not None and c[i] > lo2[i]:
                lo2[i] = c[i]
            if cap[i][j][k] < hi2[i]:
                hi2[i] = cap[i][j][k]
            if lo2[i] > hi2[i]:
                return None
        return lo2, hi2

    def frontiers(self):
        """Yield every consistent cut as its frontier (events per process)."""
        n = self.n
        tables = self._tables()

        def rec(j, lo, hi, prefix):
            for k in range(lo[j], hi[j] + 1):
                if j == n - 1:
                    yield prefix + (k,)
                    continue
                bounds = self._narrow(j, k, lo, hi, *tables)
                if bounds:
                    yield from rec(j + 1, *bounds, prefix + (k,))

        yield from rec(0, [0] * n, list(self.lengths), ())

    def count_cuts(self) -> int:
        """Number of consistent cuts, without visiting the last process."""
        n = self.n
        tables = self._tables()

        def rec(j, lo, hi):
            if j == n - 1:
                return hi[j] - lo[j] + 1
            total = 0
            for k in range(lo[j], hi[j] + 1):
                bounds = self._narrow(j, k, lo, hi, *tables)
                if bounds:
                    total += rec(j + 1, *bounds)
            return total

        return rec(0, [0] * n, list(self.lengths))

    # --- trace documents ----------------------------------------------------

    def event_doc(self) -> dict:
        """Canonical event trace (edges are the covers, as posetdual emits)."""
        events = [
            {"id": self.event_id(p), "slots": [{"proc": i, "idx": k} for i, k in s]}
            for p, s in enumerate(self.events)
        ]
        events.sort(key=lambda e: e["id"])
        edges = sorted([self.event_id(a), self.event_id(b)] for a, b in self.event_covers())
        return {"kind": "event", "version": 1, "n": self.n, "events": events, "edges": edges}


def state_covers(down: dict[Slot, list[int]]) -> list[tuple[Slot, Slot]]:
    """Cover pairs of a chain-structured order given by its down vectors."""
    out = []
    for (j, s), d in down.items():
        cands = [(i + 1, r) for i, r in enumerate(d) if r >= 0]
        for x in cands:
            xi, xr = x
            if not any(down[y][xi - 1] >= xr for y in cands if y != x):
                out.append((x, (j, s)))
    return out


def crossing_pairs(down: dict[Slot, list[int]], n: int) -> int:
    """Pairs (x, y) with x < [j,t] and [j,t-1] < y, x and y off chain j.

    Summed over all non-initial states [j,t]: the pairs the omega3 property
    quantifies over, a measure of how densely the chains cross.
    """
    total = 0
    for j in range(1, n + 1):
        # per state off chain j, the highest state of chain j below it
        values = sorted(d[j - 1] for (i, _), d in down.items() if i != j)
        for (i, t), d in down.items():
            if i != j or t == 0:
                continue
            below = sum(r + 1 for c, r in enumerate(d) if c != j - 1)
            above = len(values) - bisect.bisect_left(values, t - 1)
            total += below * above
    return total


def sid(state: Slot) -> str:
    return f"{state[0]}.{state[1]}"


def state_doc(down: dict[Slot, list[int]], lengths: list[int], attrs=None) -> dict:
    """Canonical state trace for an order given by down vectors."""
    elements = sorted(sid(s) for s in down)
    relations = sorted([sid(a), sid(b)] for a, b in state_covers(down))
    chains = [[f"{i}.{r}" for r in range(lengths[i - 1] + 1)] for i in range(1, len(lengths) + 1)]
    doc = {"kind": "state", "version": 1, "elements": elements, "relations": relations, "chains": chains}
    if attrs:
        doc["attrs"] = {sid(s): dict(sorted(a.items())) for s, a in sorted(attrs.items(), key=lambda kv: sid(kv[0]))}
    return doc


def add_pinch(down: dict[Slot, list[int]], n: int) -> tuple[dict[Slot, list[int]], list[Slot]]:
    """Compose an order in parallel with the pinch gadget.

    The gadget is the one of fixtures/pinch_state.json: chains a<b<c and d<e
    with d<b<e, so b is comparable to every gadget state and no maximum
    antichain contains it.  Its chains become n+1 (a, b, c) and n+2 (d, e).
    """
    p, q = n + 1, n + 2
    width = n + 2
    out = {s: d + [-1, -1] for s, d in down.items()}
    gadget = {
        (p, 0): {},
        (p, 1): {q: 0},
        (p, 2): {q: 0},
        (q, 0): {},
        (q, 1): {p: 1},
    }
    for (i, r), below in gadget.items():
        d = [-1] * width
        d[i - 1] = r - 1
        for chain, idx in below.items():
            d[chain - 1] = idx
        out[(i, r)] = d
    pinched = [(p, 1), (p, 2), (q, 1)]  # the tentative events forming one cycle
    return out, pinched


def less(down: dict[Slot, list[int]], x: Slot, y: Slot) -> bool:
    """``x < y`` in an order given by down vectors."""
    return down[y][x[0] - 1] >= x[1]


def concurrent(down, x: Slot, y: Slot) -> bool:
    return x != y and not less(down, x, y) and not less(down, y, x)


# --- generators -------------------------------------------------------------


def gen_run(
    rng: random.Random,
    n: int,
    k: int,
    messages: int,
    shared_frac: float = 0.0,
    window: int | None = None,
) -> Run:
    """n processes with k events each; a share of events is shared (barriers).

    Messages go from an event to a later one in the global order, at most
    ``window`` positions ahead, and never between events on one process.
    """
    remaining = [k] * n
    events: list[tuple[Slot, ...]] = []
    while any(remaining):
        avail = [i for i in range(n) if remaining[i]]
        if len(avail) >= 2 and rng.random() < shared_frac:
            procs = rng.sample(avail, min(len(avail), rng.choice((2, 2, 3))))
        else:
            procs = [rng.choice(avail)]
        slots = []
        for i in procs:
            slots.append((i + 1, k - remaining[i] + 1))
            remaining[i] -= 1
        events.append(tuple(sorted(slots)))
    window = window or 4 * n
    msgs: list[tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(msgs) < messages and len(events) > 1 and attempts < 100 * messages:
        attempts += 1
        a = rng.randrange(len(events) - 1)
        b = min(len(events) - 1, a + rng.randint(1, window))
        pa = {i for i, _ in events[a]}
        if pa & {i for i, _ in events[b]} or (a, b) in seen:
            continue
        seen.add((a, b))
        msgs.append((a, b))
    return Run(n, events, msgs)


def gen_marks(rng: random.Random, lengths: list[int], density: float) -> list[list[int]]:
    """Checkpoint marks: endpoints plus each interior state with *density*."""
    return [
        [0] + [r for r in range(1, top) if rng.random() < density] + [top]
        for top in lengths
    ]


def useful_checkpoints(down, marks: list[list[int]]) -> dict[Slot, bool]:
    """Whether each marked state lies in a global checkpoint of marked states.

    For each state s this runs the weak-conjunctive-predicate detection of
    Garg and Waldecker: on every other chain pick the lowest marked state
    concurrent with s, and while a pick lies below another pick, advance it
    past the highest state below the others.  Picks only move up, so a pick
    below another pick can never be used; the picks end up pairwise
    concurrent (a global checkpoint) or some chain runs out.
    """
    n = len(marks)
    out = {}
    for i, idxs in enumerate(marks, start=1):
        for r in idxs:
            below_s = down[(i, r)]
            cands = {
                j: [t for t in marks[j - 1] if t > below_s[j - 1] and down[(j, t)][i - 1] < r]
                for j in range(1, n + 1)
                if j != i
            }
            pos = dict.fromkeys(cands, 0)
            ok = all(cands.values())
            moved = True
            while ok and moved:
                moved = False
                for j, row in cands.items():
                    top = max(
                        (down[(h, cands[h][pos[h]])][j - 1] for h in cands if h != j),
                        default=-1,
                    )
                    while row[pos[j]] <= top:
                        pos[j] += 1
                        moved = True
                        if pos[j] == len(row):
                            ok = False
                            break
                    if not ok:
                        break
            out[(i, r)] = ok
    return out
