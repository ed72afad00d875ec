"""Bitset kernels of closure, matching and width-extensibility against
element-at-a-time references.

Closure and covers are compared with ``reference.closure_and_covers``, the
covers found by testing every closure pair, Kuhn's matching with
``reference.kuhn``, which scans neighbour lists in sorted-id order with a
visited set, and width-extensibility with ``reference.width_extensible``,
the pair loop over chain clocks.  The Koenig antichain transcribes the
earlier implementation.  Orders, matchings, partitions, witnesses and
verdicts must agree exactly.  The matching is compared on families where
sorted-id order crosses chain order (``i.k`` ids with ``1.10`` before
``1.2``, ``perfbench/gen.py`` runs with shared events, and copies renamed
to escaped and non-ASCII ids), where Kuhn's searches take long augmenting
paths.
"""

import random
import sys
from pathlib import Path

from posetdual import build_poset, check_width_extensible, es_transform
from posetdual.poset import (
    _matching_to_partition,
    _maximum_matching,
    chain_break,
    minimum_chain_partition,
    width,
)
from posetdual.traces import load_trace

import reference
from builders import (
    down_sets,
    long_chain_poset,
    random_chain_poset,
    random_event_model,
    renamed,
    triple_pinch_poset,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


def antichain_by_sets(p, mate_l, mate_r):
    """Koenig antichain with alternating reachability over element sets."""
    n = len(p.elements)
    z_left = {i for i in range(n) if mate_l[i] < 0}
    z_right = set()
    frontier = list(z_left)
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if p._up[u] >> v & 1 and v not in z_right:
                z_right.add(v)
                w = mate_r[v]
                if w >= 0 and w not in z_left:
                    z_left.add(w)
                    frontier.append(w)
    return frozenset(p.elements[i] for i in z_left - z_right)


def random_relation_list(rng):
    """Elements and a shuffled relation list with redundant and duplicate
    pairs; a third of the time composed with a pinch gadget, plus edges from
    the random part into the gadget, so width-extensibility often fails."""
    p, _ = random_chain_poset(
        rng, max_elems=rng.choice([8, 16, 24]), max_chains=rng.choice([3, 5])
    )
    elements = list(p.elements)
    closure = list(p.closure_pairs())
    pairs = list(p.covers) + rng.sample(closure, len(closure) // 3)
    pairs += rng.sample(pairs, len(pairs) // 4)
    if rng.random() < 1 / 3:
        gadget = triple_pinch_poset()
        elements += [f"g.{e}" for e in gadget.elements]
        pairs += [(f"g.{a}", f"g.{b}") for a, b in gadget.covers]
        for _ in range(rng.randint(0, 2)):
            pairs.append((rng.choice(p.elements), f"g.{rng.choice(gadget.elements)}"))
    rng.shuffle(pairs)
    return elements, pairs


def test_bitset_kernels_equal_pair_loops():
    rng = random.Random(1973)
    pair_failures = 0
    for _ in range(2000):
        elements, pairs = random_relation_list(rng)
        p = build_poset(elements, pairs)
        assert (p.elements, p._up, down_sets(p), p.covers) == reference.closure_and_covers(
            elements, pairs
        )

        mates = _maximum_matching(p)
        assert mates == reference.kuhn(p)[:2]
        assert width(p)[1] == antichain_by_sets(p, *mates)
        assert minimum_chain_partition(p) == _matching_to_partition(p, *mates)

        verdict = check_width_extensible(p).as_json()
        assert verdict == reference.width_extensible(p).as_json(), (elements, pairs)
        pair_failures += len(verdict.get("witness", ())) == 2
    # The pair phase must fail often enough for its witness to be compared.
    assert pair_failures >= 100, pair_failures


def chain_break_by_shifts(p, ids):
    """The first ``k`` with ``ids[k]`` not below ``ids[k + 1]``, or -1: one
    up-set shift per step, covers or not."""
    for k, (a, b) in enumerate(zip(ids, ids[1:])):
        if not p._up[a] >> b & 1:
            return k
    return -1


def test_chain_break_equals_the_shift_scan():
    rng = random.Random(1950)
    counts = {"passing non-cover step": 0, "break": 0, "no break": 0}
    for trial in range(1500):
        p = long_chain_poset(rng) if trial % 5 == 0 else build_poset(*random_relation_list(rng))
        n = len(p)
        ids = [rng.randrange(n)]
        for _ in range(rng.randint(0, 12)):
            a = ids[-1]
            above = [j for j in range(n) if p._up[a] >> j & 1]
            draw = rng.random()
            if draw < 0.1:
                ids.append(rng.randrange(n))  # mostly not above: a break
            elif not above:
                break
            elif draw < 0.5:
                ids.append(rng.choice(p._upper[a]))
            else:
                ids.append(rng.choice(above))
        k = chain_break(p, ids)
        assert k == chain_break_by_shifts(p, ids), (p.elements, ids)
        passed = ids[1:] if k < 0 else ids[1:k + 1]
        counts["passing non-cover step"] += any(
            b not in p._upper[a] for a, b in zip(ids, passed)
        )
        counts["break" if k >= 0 else "no break"] += len(ids) > 1
    assert min(counts.values()) >= 250, counts


# Characters that sort apart from digits and letters, escaped or non-ASCII
# in canonical text: a quote, a backslash, controls, DEL, Latin-1, the BMP
# and an astral character.
ODD = '"\\\n\x01\x7f~\u00e9\u20ac\U0001d11e'


def gen_poset(rng):
    """The state order of a ``perfbench/gen.py`` run of two to four
    processes with 5 to 30 events each and a fifth of them shared."""
    n, k = rng.randint(2, 4), rng.randint(5, 30)
    run = gen.gen_run(rng, n, k, rng.randint(0, n * k), shared_frac=0.2)
    doc = gen.state_doc(run.state_down(), run.lengths)
    return build_poset(doc["elements"], doc["relations"])


def test_matching_equals_reference_kuhn(fixtures_dir):
    rng = random.Random(1956)
    posets = [build_poset([], []), build_poset(["x"], [])]
    for trial in range(600):
        if trial % 3 == 0:
            posets.append(build_poset(*random_relation_list(rng)))
        elif trial % 3 == 1:
            posets.append(random_chain_poset(rng, max_elems=24, max_chains=5)[0])
        else:
            posets.append(es_transform(random_event_model(rng, max_events_per_proc=6)).poset)
    for kind in ("event", "state", "poset"):
        for path in sorted(fixtures_dir.glob(f"*_{kind}.json")):
            model = load_trace(path)[1]
            posets.append(model if kind == "poset" else model.poset)
    # Families where sorted-id order crosses chain order.
    for trial in range(240):
        p = long_chain_poset(rng) if trial % 2 else gen_poset(rng)
        posets.append(p)
        if trial % 3 == 0:
            posets.append(renamed(rng, p, ODD))
    assert len(posets) >= 930, len(posets)
    matched = long_paths = 0
    for p in posets:
        mate_l, mate_r, longest = reference.kuhn(p)
        assert _maximum_matching(p) == (mate_l, mate_r), p.elements
        matched += any(x >= 0 for x in mate_l)
        long_paths += longest >= 20
    assert matched >= 800, matched
    assert long_paths >= 200, long_paths
