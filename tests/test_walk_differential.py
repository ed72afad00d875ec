"""The block walk against the definitional walk of ``tests/reference.py``.

``reference.downsets`` walks the include/exclude tree over the least linear
extension one frozenset per cut, and ``reference.frontiers`` maps each cut
of the event side of ``reference.se_collapse`` to its frontier vector.  At
every block bound (0 expands every frame one at a time), the images of
``lattice._downsets``, ``_antichains`` and ``_frontiers``, the public
enumerations and the ``cuts`` lines must be the reference's, in order, and
while a walk runs its memo must never hold more deltas than it has emitted
plus one block (the ``cuts`` fixture of ``tests/conftest.py``).
"""

import random

from posetdual import build_poset, es_transform, lattice

import builders

NAMES = 'aBz"\\é☃ 0'  # json.dumps escapes the quote, backslash, é and ☃


def test_downsets_equal_reference(bound, cuts):
    rng = random.Random(2501)
    for trial in range(60):
        if trial % 2:
            p, _ = builders.random_chain_poset(rng, max_elems=24, max_chains=4)
        else:
            p = builders.random_event_model(
                rng, max_procs=5, max_events_per_proc=5, max_messages=8
            ).poset
        cuts.downsets(builders.renamed(rng, p, NAMES) if trial % 3 else p)


def test_antichains_with_shared_events_equal_reference(bound, cuts):
    rng = random.Random(2502)
    shared = 0
    for _ in range(60):
        m = builders.random_event_model(rng, max_procs=5, max_events_per_proc=5, max_messages=6)
        shared += any(len(slots) > 1 for slots in m.labels.values())
        assert cuts.antichains(es_transform(m))
    assert shared >= 30, shared


def test_edge_shapes_equal_reference(bound, cuts):
    empty = build_poset([], [])
    cuts.downsets(empty)
    assert cuts.antichains(empty)
    for length in (20, 300):  # 300 states need two bytes per frontier entry
        chain = [f"c{k:03d}" for k in range(length)]
        single = build_poset(chain, list(zip(chain, chain[1:])))
        cuts.downsets(single)
        assert cuts.antichains(single)
    cuts.downsets(build_poset([f"x{i:02d}" for i in range(40)], []), 3000)


def test_first_cut_of_a_wide_antichain_builds_one_block():
    p = build_poset([f"x{i:02d}" for i in range(40)], [])
    blocks = lattice._walk(p, 0, [1 << v for v in range(40)], 6)
    _, image, (packed, count) = next(blocks)
    assert lattice._block_bytes(image, packed, count, 6)[:6] == bytes(6)  # the empty downset
    memo = blocks.gi_frame.f_locals["memo"]
    assert len(memo) == 1
    assert count == sum(n for _, n in memo.values()) == 2 ** lattice._BLOCK
