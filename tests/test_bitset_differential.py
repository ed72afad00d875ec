"""Bitset kernels of closure, matching and width-extensibility against the
element-at-a-time loops they replaced.

The reference functions transcribe the earlier implementations: the cover
relation found by testing every closure pair, Kuhn's matching over explicit
neighbour lists and over bitsets with partners in dicts, the
width-extensibility pair loop over chain clocks, and the checkpoint
restriction built from every closure pair between marked states.  Orders,
matchings, partitions, witnesses and verdicts must agree exactly.
"""

import itertools
import random

from posetdual import (
    Verdict,
    build_poset,
    build_state_model,
    check_width_extensible,
    es_transform,
    induced_checkpoint_model,
)
from posetdual.poset import (
    _matching_to_partition,
    _maximum_matching,
    chain_clocks,
    minimum_chain_partition,
    width,
)
from posetdual.traces import load_trace

from builders import (
    down_sets,
    random_chain_poset,
    random_event_model,
    random_marking,
    triple_pinch_poset,
)


def build_by_closure_pairs(elements, relation_pairs):
    """``(elements, up, down, covers)`` with covers tested pair by pair."""
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    n = len(els)
    adj = [0] * n
    indeg = [0] * n
    for a, b in set(relation_pairs):
        adj[index[a]] |= 1 << index[b]
        indeg[index[b]] += 1
    order = []
    ready = [i for i in range(n) if indeg[i] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for w in range(n):
            if adj[v] >> w & 1:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    up = [0] * n
    for v in reversed(order):
        up[v] = adj[v]
        for w in range(n):
            if adj[v] >> w & 1:
                up[v] |= up[w]
    down = [0] * n
    for i, j in itertools.permutations(range(n), 2):
        if up[i] >> j & 1:
            down[j] |= 1 << i
    covers = sorted(
        (els[i], els[j])
        for i, j in itertools.permutations(range(n), 2)
        if up[i] >> j & 1 and not up[i] & down[j]
    )
    return els, tuple(up), tuple(down), tuple(covers)


def kuhn_by_lists(p):
    """Kuhn's matching with per-vertex neighbour lists and a visited set."""
    n = len(p.elements)
    neighbors = [[j for j in range(n) if p._up[i] >> j & 1] for i in range(n)]
    match_l, match_r = {}, {}
    for root in range(n):
        visited = set()
        stack = [(root, iter(neighbors[root]))]
        path = []
        while stack:
            v = next((v for v in stack[-1][1] if v not in visited), None)
            if v is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            visited.add(v)
            path.append(v)
            if v in match_r:
                w = match_r[v]
                stack.append((w, iter(neighbors[w])))
                continue
            for (u, _), x in reversed(list(zip(stack, path))):
                match_l[u] = x
                match_r[x] = u
            break
    return match_l, match_r


def kuhn_by_dicts(p):
    """Kuhn's matching on up-set bitsets with partners in dicts: the loop
    before partners moved to ``-1``-filled lists."""
    up = p._up
    everything = (1 << len(up)) - 1
    match_l, match_r = {}, {}
    for root in range(len(up)):
        unvisited = everything
        stack = [root]
        path = []
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


def antichain_by_sets(p, match_l, match_r):
    """Koenig antichain with alternating reachability over element sets."""
    n = len(p.elements)
    z_left = {i for i in range(n) if i not in match_l}
    z_right = set()
    frontier = list(z_left)
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if p._up[u] >> v & 1 and v not in z_right:
                z_right.add(v)
                w = match_r.get(v)
                if w is not None and w not in z_left:
                    z_left.add(w)
                    frontier.append(w)
    return frozenset(p.elements[i] for i in z_left - z_right)


def we_by_pair_loop(p):
    """Width-extensibility testing every incomparable pair on every chain."""
    if not p.elements:
        return Verdict(True)
    cp = minimum_chain_partition(p)
    clocks = chain_clocks(p, cp.chains)
    failing = None
    for s in p.elements:
        down, up = clocks[s]
        own = cp.position(s)[0]
        if any(up[ci] - down[ci] < 2 for ci in range(cp.n) if ci != own):
            failing = s
    if failing is not None:
        return Verdict(False, frozenset({failing}), "no maximum antichain contains it")
    for a, b in itertools.combinations(p.elements, 2):
        (da, ua), (db, ub) = clocks[a], clocks[b]
        cb, kb = cp.position(b)
        if not da[cb] < kb < ua[cb]:
            continue
        ca = cp.position(a)[0]
        if any(
            min(ua[ci], ub[ci]) - max(da[ci], db[ci]) < 2
            for ci in range(cp.n)
            if ci != ca and ci != cb
        ):
            failing = (a, b)
    if failing is not None:
        return Verdict(False, frozenset(failing), "no maximum antichain contains both")
    return Verdict(True)


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
        assert (p.elements, p._up, down_sets(p), p.covers) == build_by_closure_pairs(
            elements, pairs
        )

        match_l, match_r = kuhn_by_lists(p)
        assert _maximum_matching(p) == (match_l, match_r)
        assert width(p)[1] == antichain_by_sets(p, match_l, match_r)
        assert minimum_chain_partition(p) == _matching_to_partition(p, match_l)

        verdict = check_width_extensible(p).as_json()
        assert verdict == we_by_pair_loop(p).as_json(), (elements, pairs)
        pair_failures += len(verdict.get("witness", ())) == 2
    # The pair phase must fail often enough for its witness to be compared.
    assert pair_failures >= 100, pair_failures


def induced_by_closure_pairs(sm, marking):
    """The restriction to the marked states, from the filtered closure."""
    chains = [
        [sm.state_at(i, k) for k in idxs]
        for i, idxs in enumerate(marking.marks, start=1)
    ]
    kept = {s for chain in chains for s in chain}
    pairs = [(a, b) for a, b in sm.poset.closure_pairs() if a in kept and b in kept]
    return build_poset(kept, pairs), chains


def test_checkpoint_restriction_equals_filtered_closure():
    rng = random.Random(1994)
    for trial in range(600):
        if trial % 2:
            sm = es_transform(random_event_model(rng, max_events_per_proc=6))
        else:
            p, chains = random_chain_poset(rng, max_elems=16, max_chains=4)
            sm = build_state_model(p, chains)
        marking = random_marking(rng, sm, max_marks=rng.choice([3, 5, 8]))
        induced = induced_checkpoint_model(sm, marking)
        p, chains = induced_by_closure_pairs(sm, marking)
        assert (induced.poset.elements, induced.poset._up, down_sets(induced.poset)) == (
            p.elements, p._up, down_sets(p),
        )
        assert induced.poset.covers == p.covers
        assert induced.chains == tuple(tuple(c) for c in chains)


def test_list_partner_matching_equals_dict_loop(fixtures_dir):
    rng = random.Random(1956)
    posets = []
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
    assert len(posets) >= 610, len(posets)
    matched = 0
    for p in posets:
        expected = kuhn_by_dicts(p)
        assert _maximum_matching(p) == expected, p.elements
        matched += bool(expected[0])
    assert matched >= 500, matched
