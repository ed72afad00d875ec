"""The block walk against the frame-by-frame walk it replaced.

``ref_walk`` transcribes ``lattice._walk`` as it was before blocks: one
stack frame per cut, carrying the cut's image and its rendered parts, one
part per byte of names (``ref_byte_fields``) or per chain for frontier
vectors.  The block walk must give the same images in the same order, the
CLI the same ``cuts`` lines and the frontier walk the same vectors, at every
block bound (0 expands every frame, as the old walk did).  While it runs,
its memo must never hold more deltas than it has emitted plus one block.
"""

import itertools
import json
import random

import pytest

from posetdual import build_poset, cli, es_transform, lattice
from posetdual.statemodel import require_width_extensible
from posetdual.transforms import se_transform

import builders

BOUNDS = [0, 1, 3, lattice._BLOCK]

# --- transcribed reference -------------------------------------------------


class RefTable(dict):
    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, value):
        part = self[value] = self.render(value)
        return part


def ref_byte_fields(items, join):
    def table(chunk):
        return RefTable(lambda byte: join([x for b, x in enumerate(chunk) if byte >> b & 1]))

    return [(b, 8, table(items[b:b + 8])) for b in range(0, len(items), 8)]


def ref_walk(p, image, toggles, fields):
    """Yields ``(image, parts)`` per downset, where the old walk yielded the
    parts alone."""
    upper, order = p._upper, p._order
    pos = [0] * len(order)
    for q, v in enumerate(order):
        pos[v] = q
    above = [0] * len(order)
    for q in reversed(range(len(order))):
        mask = 1 << q
        for w in upper[order[q]]:
            mask |= above[pos[w]]
        above[q] = mask
    keep = [~mask for mask in above]
    reads = [(f, low, (1 << bits) - 1, table) for f, (low, bits, table) in enumerate(fields)]
    field_of = [f for f, (_, bits, _) in enumerate(fields) for _ in range(bits)]
    flip = [sum(1 << b for b in toggles[v]) for v in order]
    touched = [[reads[f] for f in {field_of[b] for b in toggles[v]}] for v in order]

    parts = [table[image >> low & mask] for _, low, mask, table in reads]
    stack = [((1 << len(order)) - 1, image, parts)]
    while stack:
        avail, image, parts = stack.pop()
        while avail:
            low = avail & -avail
            q = low.bit_length() - 1
            child_image = image ^ flip[q]
            child = parts.copy()
            for f, shift, mask, table in touched[q]:
                child[f] = table[child_image >> shift & mask]
            stack.append((avail ^ low, child_image, child))
            avail &= keep[q]
        yield image, parts


def ref_encoded(names):
    return [", " + json.dumps(name) for name in names]


def ref_downsets(p):
    fields = ref_byte_fields(ref_encoded(p.elements), "".join)
    return ref_walk(p, 0, [(v,) for v in range(len(p.elements))], fields)


def ref_antichain_walk(sm, slots, fields):
    m = se_transform(sm).event_model
    toggles = [
        [b for i, k in m.labels[e] for b in slots[i - 1][k - 1:k + 1]]
        for e in m.poset.elements
    ]
    image = sum(1 << chain[0] for chain in slots)
    return ref_walk(m.poset, image, toggles, fields)


def ref_antichains(sm):
    slots = [[sm.poset.index(s) for s in chain] for chain in sm.chains]
    return ref_antichain_walk(sm, slots, ref_byte_fields(ref_encoded(sm.poset.elements), "".join))


def ref_frontiers(sm):
    slots, fields, low = [], [], 0
    position = RefTable(lambda bit: bit.bit_length() - 1)
    for chain in sm.chains:
        slots.append(range(low, low + len(chain)))
        fields.append((low, len(chain), position))
        low += len(chain)
    return [tuple(parts) for _, parts in ref_antichain_walk(sm, slots, fields)]


def ref_lines(walk):
    return ['{"cut": [' + "".join(parts)[2:] + "]}" for _, parts in walk]


# --- the walk as the CLI and the library run it ----------------------------


@pytest.fixture(params=BOUNDS, ids=[f"block{b}" for b in BOUNDS])
def bound(request, monkeypatch):
    """Runs a test at one block bound, with every walk's memo checked."""
    monkeypatch.setattr(lattice, "_BLOCK", request.param)
    monkeypatch.setattr(lattice, "_walk", checked_walk)
    return request.param


WALK = lattice._walk


def checked_walk(p, image, flips, width):
    """``lattice._walk``, asserting the memo bound at every block."""
    blocks = WALK(p, image, flips, width)
    emitted = 0
    for avail, image, deltas in blocks:
        held = sum(n for _, n in blocks.gi_frame.f_locals["memo"].values())
        assert held <= emitted + deltas[1]
        emitted += deltas[1]
        yield avail, image, deltas


def lines(names, runs, limit=None):
    """The ``cuts`` lines of *runs*, rendered a run at a time as
    ``cmd_cuts`` does, stopping at the run that reaches *limit*."""
    render, out = cli._cut_lines(names), []
    for run in runs:
        if limit is not None and len(out) >= limit:
            break
        out += render(run).splitlines()
    return out[:limit]


def images(runs, items, limit=None):
    return list(itertools.islice(lattice._images(runs, lattice._width(len(items))), limit))


def assert_downsets_equal_reference(p, limit=None):
    reference = list(itertools.islice(ref_downsets(p), limit))
    got = images(lattice._downsets(p), p.elements, limit)
    assert got == [image for image, _ in reference]
    assert lines(*cli._downset_runs(p), limit) == ref_lines(reference)


def assert_antichains_equal_reference(target):
    view = require_width_extensible(target)
    reference = list(ref_antichains(view))
    got = images(lattice._antichains(view), view.poset.elements)
    assert got == [image for image, _ in reference]
    assert lines(*cli._antichain_runs(target)) == ref_lines(reference)
    assert list(lattice._frontiers(view)) == ref_frontiers(view)


def renamed_poset(rng, p):
    """*p* under names whose sorted order differs from the original's, and
    some of which json.dumps escapes."""
    names = set()
    while len(names) < len(p.elements):
        names.add("".join(rng.choice('aBz"\\é☃ 0') for _ in range(rng.randint(1, 3))))
    name = dict(zip(p.elements, rng.sample(sorted(names), len(names))))
    return build_poset(name.values(), [(name[a], name[b]) for a, b in p.covers])


def test_downsets_equal_reference(bound):
    rng = random.Random(2501)
    for trial in range(60):
        if trial % 2:
            p, _ = builders.random_chain_poset(rng, max_elems=24, max_chains=4)
        else:
            p = builders.random_event_model(
                rng, max_procs=5, max_events_per_proc=5, max_messages=8
            ).poset
        assert_downsets_equal_reference(renamed_poset(rng, p) if trial % 3 else p)


def test_antichains_with_shared_events_equal_reference(bound):
    rng = random.Random(2502)
    shared = 0
    for _ in range(60):
        m = builders.random_event_model(rng, max_procs=5, max_events_per_proc=5, max_messages=6)
        shared += any(len(slots) > 1 for slots in m.labels.values())
        assert_antichains_equal_reference(es_transform(m))
    assert shared >= 30, shared


def test_edge_shapes_equal_reference(bound):
    empty = build_poset([], [])
    assert_downsets_equal_reference(empty)
    assert_antichains_equal_reference(empty)
    for length in (20, 300):  # 300 states need two bytes per frontier entry
        chain = [f"c{k:03d}" for k in range(length)]
        single = build_poset(chain, list(zip(chain, chain[1:])))
        assert_downsets_equal_reference(single)
        assert_antichains_equal_reference(single)
    assert_downsets_equal_reference(build_poset([f"x{i:02d}" for i in range(40)], []), 3000)


def test_first_cut_of_a_wide_antichain_builds_one_block():
    p = build_poset([f"x{i:02d}" for i in range(40)], [])
    blocks = lattice._walk(p, 0, [1 << v for v in range(40)], 6)
    _, image, (packed, count) = next(blocks)
    assert lattice._block_bytes(image, packed, count, 6)[:6] == bytes(6)  # the empty downset
    memo = blocks.gi_frame.f_locals["memo"]
    assert len(memo) == 1
    assert count == sum(n for _, n in memo.values()) == 2 ** lattice._BLOCK
