"""The references of ``tests/reference.py`` against brute force.

The differential tests take these references as the meaning of their
layers, so each search in them is checked here against the plainest
statement of what it finds: Tarjan's components against the classes of
mutual reachability, the pruned search for global checkpoints against
the full product scan, and Kuhn's matching against Dilworth's theorem on
the largest antichain found by a subset scan.  The 10^5-node path and cycle of
``test_collapse_differential.py`` keep the reference Tarjan iterative.
"""

import itertools
import random

import reference

from builders import marked_models, random_chain_poset, restricted_model


def reached(nodes, succ):
    """Per node, the nodes it reaches by a path of zero or more edges."""
    out = {}
    for a in nodes:
        seen, todo = {a}, [a]
        while todo:
            for b in succ[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        out[a] = seen
    return out


def test_tarjan_components_are_the_mutual_reachability_classes():
    rng = random.Random(1972)
    counts = {"cycle": 0, "several components": 0}
    for _ in range(2500):
        n = rng.randint(1, 12)
        nodes = [(rng.randint(1, 4), k) for k in range(n)]
        rng.shuffle(nodes)
        density = rng.choice([0.05, 0.15, 0.3])
        succ = {a: [b for b in nodes if rng.random() < density] for a in nodes}
        reach = reached(nodes, succ)
        classes = {tuple(sorted(b for b in reach[a] if a in reach[b])) for a in nodes}
        comps = reference.tarjan(nodes, succ)
        assert sorted(comps) == sorted(classes), (nodes, succ)
        # Each component is listed after every component it reaches.
        position = {a: c for c, comp in enumerate(comps) for a in comp}
        assert all(position[b] <= position[a] for a in nodes for b in succ[a])
        counts["cycle"] += any(len(c) > 1 for c in comps)
        counts["several components"] += len(comps) > 1
    assert min(counts.values()) >= 1000, counts


def test_global_checkpoints_are_the_product_scan_tuples():
    rng = random.Random(1995)
    counts = {"useless": 0, "several": 0}
    for sm, marking in marked_models(rng, trials=600):
        rm = restricted_model(sm, marking)
        p = rm.poset
        scan = [
            combo
            for combo in itertools.product(*rm.chains)
            if all(reference.concurrent(p, a, b) for a, b in itertools.combinations(combo, 2))
        ]
        holding = reference.global_checkpoints(rm)
        for i, chain in enumerate(rm.chains):
            for state in chain:
                want = [combo for combo in scan if combo[i] == state]
                assert list(holding(i, state)) == want, (rm.chains, i, state)
                counts["useless"] += not want
                counts["several"] += len(want) > 1
    # Checkpoints in no global checkpoint, and in several, must be compared.
    assert min(counts.values()) >= 500, counts


def test_kuhn_matching_is_maximum():
    rng = random.Random(1955)
    counts = {"matched": 0, "rerouted": 0}
    for _ in range(800):
        p, _ = random_chain_poset(rng, max_elems=12, max_chains=rng.choice([2, 4]))
        els = p.elements
        mate_l, mate_r, longest = reference.kuhn(p)
        pairs = [(u, x) for u, x in enumerate(mate_l) if x >= 0]
        assert all(p.less(els[u], els[x]) and mate_r[x] == u for u, x in pairs)
        assert sum(x >= 0 for x in mate_r) == len(pairs)
        # Dilworth: a maximum matching leaves one chain per element of a
        # largest antichain.
        largest = max(
            r
            for r in range(len(els) + 1)
            for subset in itertools.combinations(els, r)
            if not any(p.less(a, b) or p.less(b, a) for a, b in itertools.combinations(subset, 2))
        )
        assert len(els) - len(pairs) == largest, els
        counts["matched"] += bool(pairs)
        counts["rerouted"] += longest >= 2
    assert min(counts.values()) >= 100, counts
