import itertools
import random

import pytest

from posetdual import (
    NotConsistent,
    NotWidthAntichain,
    NotWidthExtensible,
    antichain_to_cut,
    build_event_model,
    build_poset,
    cut_to_antichain,
    enumerate_antichains,
    enumerate_downsets_bruteforce,
    enumerate_event_cuts,
    enumerate_width_antichains,
    es_transform,
    lattice_meet_join,
    materialize_cut_lattice,
    width,
)
from posetdual.errors import GuardExceeded, UnknownElement
from posetdual.lattice import enumerate_downsets, linear_extension
from posetdual.statemodel import _antichain_leq
from posetdual.traces import load_trace

from builders import (
    MESSAGE_PAIR_ANTICHAINS,
    MESSAGE_PAIR_CUTS,
    barrier_state,
    message_pair_event,
    message_pair_state,
    pinch_poset,
    random_chain_poset,
    random_event_model,
    triple_pinch_poset,
)


def test_linear_extension_is_topological():
    p = message_pair_event().poset
    order = linear_extension(p)
    pos = {e: i for i, e in enumerate(order)}
    for a, b in p.closure_pairs():
        assert pos[a] < pos[b]


def test_message_pair_cut_family_is_exact():
    got = list(enumerate_event_cuts(message_pair_event()))
    assert len(got) == 12
    assert set(got) == {frozenset(c) for c in MESSAGE_PAIR_CUTS}


def test_enumeration_deterministic_and_duplicate_free():
    m = message_pair_event()
    first = list(enumerate_event_cuts(m))
    second = list(enumerate_event_cuts(m))
    assert first == second
    assert len(set(first)) == len(first)
    assert first[0] == frozenset() and first[-1] == frozenset(m.poset.elements)


def test_empty_model_has_single_cut():
    m = build_event_model(build_poset([], []), 0, {})
    assert list(enumerate_event_cuts(m)) == [frozenset()]


def test_barrier_cut_family_matches_oracle():
    from builders import barrier_event

    m = barrier_event()
    fast = set(enumerate_event_cuts(m))
    assert fast == set(enumerate_downsets_bruteforce(m.poset))
    assert len(fast) == 8  # frozen from the brute-force run


def test_downset_enumeration_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(40):
        p, _ = random_chain_poset(rng, max_elems=10)
        assert set(enumerate_downsets(p)) == set(enumerate_downsets_bruteforce(p))


def test_width_antichain_enumeration_message_pair():
    got = list(enumerate_width_antichains(message_pair_state()))
    assert len(got) == 12
    assert set(got) == {frozenset(a) for a in MESSAGE_PAIR_ANTICHAINS}


def test_width_antichain_enumeration_barrier_count():
    got = list(enumerate_width_antichains(barrier_state()))
    oracle = set(
        enumerate_antichains(barrier_state().poset, size_filter=2)
    )
    assert len(got) == 8 and set(got) == oracle


def test_width_antichain_enumeration_single_chain():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    got = list(enumerate_width_antichains(p))
    assert got == [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]


def test_width_antichain_enumeration_rejects_pinch():
    with pytest.raises(NotWidthExtensible) as info:
        list(enumerate_width_antichains(pinch_poset()))
    assert info.value.witness == frozenset({"b"})
    with pytest.raises(NotWidthExtensible):
        list(enumerate_width_antichains(triple_pinch_poset()))


def test_bijection_maps_listed_families_pairwise():
    m = message_pair_event()
    sm = message_pair_state()
    for cut, antichain in zip(MESSAGE_PAIR_CUTS, MESSAGE_PAIR_ANTICHAINS):
        image = cut_to_antichain(m, cut)
        named = {sm.state_at(int(i), int(k)) for i, k in (s.split(".") for s in image)}
        assert named == antichain
        assert antichain_to_cut(m, image) == frozenset(cut)


def test_bijection_edge_cases():
    m = message_pair_event()
    assert cut_to_antichain(m, set()) == {"1.0", "2.0"}
    assert cut_to_antichain(m, {"a"}) == {"1.1", "2.0"}
    assert antichain_to_cut(m, {"1.0", "2.0"}) == frozenset()
    assert antichain_to_cut(m, {"1.3", "2.3"}) == frozenset("abcefg")
    with pytest.raises(NotConsistent):
        cut_to_antichain(m, {"f"})
    with pytest.raises(NotWidthAntichain):
        antichain_to_cut(m, {"1.0", "2.2"})  # ordered pair, not an antichain
    with pytest.raises(NotWidthAntichain):
        antichain_to_cut(m, {"1.0", "1.1"})


@pytest.mark.parametrize(
    "ids",
    [{"1.00", "2.0"}, {" 1.0", "2.0 "}, {"1.0", "2.0_0"}, {"+1.0", "2.-0"}, {"1.01", "2.1"}],
)
def test_antichain_to_cut_rejects_ids_that_name_no_state(fixtures_dir, ids):
    _, m = load_trace(fixtures_dir / "message_pair_event.json")
    with pytest.raises(UnknownElement, match="is not an i.k state id"):
        antichain_to_cut(m, ids)


def test_bijection_is_inverse_on_random_models():
    rng = random.Random(32)
    for _ in range(30):
        m = random_event_model(rng)
        cuts = list(enumerate_event_cuts(m))
        images = set()
        for cut in cuts:
            t = cut_to_antichain(m, cut)
            images.add(t)
            assert antichain_to_cut(m, t) == cut
        assert len(images) == len(cuts)
        # counts agree across the duality
        sm = es_transform(m)
        w, _ = width(sm.poset)
        assert w == m.n
        oracle = set(enumerate_antichains(sm.poset, size_filter=w))
        assert len(oracle) == len(cuts)


def test_bijection_is_monotone():
    m = message_pair_event()
    p = es_transform(m).poset
    cuts = list(enumerate_event_cuts(m))
    for g, h in itertools.combinations(cuts, 2):
        a, b = cut_to_antichain(m, g), cut_to_antichain(m, h)
        assert (g <= h) == (_antichain_leq(p, a, b))


def test_meet_join_examples():
    sm = message_pair_state()
    p = sm.poset
    meet, join = lattice_meet_join(p, {"b'", "e'"}, {"a'", "e'"})
    assert (meet, join) == (frozenset({"a'", "e'"}), frozenset({"b'", "e'"}))
    meet, join = lattice_meet_join(p, {"a0", "e0"}, {"c'", "g'"})
    assert meet == {"a0", "e0"} and join == {"c'", "g'"}
    same = frozenset({"b'", "f'"})
    assert lattice_meet_join(p, same, same) == (same, same)
    with pytest.raises(NotWidthAntichain):
        lattice_meet_join(p, {"a0"}, {"c'", "g'"})


def test_meet_join_distributive_on_enumerated_family():
    sm = barrier_state()
    p = sm.poset
    family = list(enumerate_width_antichains(sm))
    for a, b, c in itertools.islice(itertools.product(family, repeat=3), 600):
        ab_meet, _ = lattice_meet_join(p, a, b)
        ac_meet, _ = lattice_meet_join(p, a, c)
        _, bc_join = lattice_meet_join(p, b, c)
        left, _ = lattice_meet_join(p, a, bc_join)
        _, right = lattice_meet_join(p, ab_meet, ac_meet)
        assert left == right


def test_meet_join_mirrors_cut_union_intersection():
    m = message_pair_event()
    p = es_transform(m).poset
    cuts = list(enumerate_event_cuts(m))
    for g, h in itertools.combinations(cuts, 2):
        a, b = cut_to_antichain(m, g), cut_to_antichain(m, h)
        meet, join = lattice_meet_join(p, a, b)
        assert join == cut_to_antichain(m, g | h)
        assert meet == cut_to_antichain(m, g & h)


def test_materialized_lattice_links():
    m = message_pair_event()
    lat = materialize_cut_lattice(m)
    assert len(lat.cuts) == 12
    for cut, nexts in lat.successors.items():
        for nxt in nexts:
            assert len(nxt - cut) == 1 and cut < nxt
    # bottom has the two initial events available
    assert set(lat.successors[frozenset()]) == {frozenset({"a"}), frozenset({"e"})}
    with pytest.raises(GuardExceeded):
        materialize_cut_lattice(m, max_cuts=5)


def ref_materialize_cut_lattice(m, max_cuts=None):
    """Transcription of the earlier per-cut, per-event successor scan."""
    cuts = []
    for cut in enumerate_event_cuts(m):
        cuts.append(cut)
        if max_cuts is not None and len(cuts) > max_cuts:
            raise GuardExceeded(f"cut count exceeds cap {max_cuts}")
    succ = {}
    for cut in cuts:
        mask = m.poset.set_to_mask(cut)
        nexts = []
        for e in m.poset.elements:
            if e in cut:
                continue
            if m.poset.down_mask(e) & ~mask:
                continue
            nexts.append(cut | {e})
        succ[cut] = tuple(nexts)
    return cuts, succ


def test_materialized_lattice_equals_reference():
    rng = random.Random(8)
    for _ in range(300):
        m = random_event_model(rng, max_procs=4, max_events_per_proc=4)
        cuts, succ = ref_materialize_cut_lattice(m)
        lat = materialize_cut_lattice(m)
        assert list(lat.cuts) == cuts
        assert list(lat.successors) == cuts
        assert all(lat.successors[c] == succ[c] for c in cuts)
        # the links are the cut objects themselves, not copies
        ids = {id(c) for c in lat.cuts}
        assert all(id(n) in ids for nexts in lat.successors.values() for n in nexts)
        cap = rng.randrange(len(cuts))
        with pytest.raises(GuardExceeded, match=f"^cut count exceeds cap {cap}$"):
            materialize_cut_lattice(m, max_cuts=cap)
        assert materialize_cut_lattice(m, max_cuts=len(cuts)).cuts == lat.cuts


def test_per_cut_delay_stays_modest():
    # loose sanity bound on amortized work, not a hard benchmark
    import time

    rng = random.Random(33)
    m = random_event_model(rng, max_procs=3, max_events_per_proc=6, max_messages=2)
    start = time.monotonic()
    n_cuts = sum(1 for _ in enumerate_event_cuts(m))
    elapsed = time.monotonic() - start
    assert n_cuts >= 1
    assert elapsed / n_cuts < 0.001  # far below any quadratic budget at this size
