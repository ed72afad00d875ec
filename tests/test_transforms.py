import random

from posetdual import (
    build_event_model,
    build_poset,
    build_state_model,
    check_omega1,
    check_omega2,
    check_omega3,
    check_psi,
    es_transform,
    is_asc,
    roundtrip_es_se,
    roundtrip_se_es,
    se_transform,
)
from posetdual.statemodel import check_interleaving_consistent, check_width_extensible
from posetdual.transforms import event_signature, state_signature

from builders import (
    barrier_event,
    barrier_state,
    indexed_pair_event,
    message_pair_event,
    message_pair_state,
    pinch_state,
    random_asc,
    random_chain_poset,
    random_event_model,
)


def test_es_message_pair_matches_hand_built_state_view():
    generated = es_transform(message_pair_event())
    assert state_signature(generated) == state_signature(message_pair_state())
    # the single cross cover edge is [1,1] < [2,2]
    cross = [
        (a, b)
        for a, b in generated.poset.covers
        if a.split(".")[0] != b.split(".")[0]
    ]
    assert cross == [("1.1", "2.2")]


def test_es_barrier_has_both_cross_edges():
    sm = barrier_state()
    cross = {
        (a, b)
        for a, b in sm.poset.covers
        if a.split(".")[0] != b.split(".")[0]
    }
    assert cross == {("1.1", "2.2"), ("2.1", "1.2")}


def test_es_single_process():
    p = build_poset(["x", "y"], [("x", "y")])
    m = build_event_model(p, 1, {"x": {(1, 1)}, "y": {(1, 2)}})
    sm = es_transform(m)
    assert sm.chains == (("1.0", "1.1", "1.2"),)
    assert list(sm.poset.closure_pairs()) == [
        ("1.0", "1.1"), ("1.0", "1.2"), ("1.1", "1.2")
    ]


def test_es_output_satisfies_omegas():
    rng = random.Random(21)
    for _ in range(40):
        sm = es_transform(random_event_model(rng))
        assert check_omega1(sm).ok and check_omega2(sm).ok and check_omega3(sm).ok


def test_es_of_asc_satisfies_psi_and_interleaving():
    rng = random.Random(22)
    for _ in range(40):
        sm = es_transform(random_asc(rng))
        assert check_psi(sm).ok
        assert check_interleaving_consistent(sm.poset).ok


def test_se_barrier_collapses_two_cycle():
    out = se_transform(barrier_state())
    assert out.ok
    edges = set(out.temp_edges)
    assert ((1, 2), (2, 2)) in edges and ((2, 2), (1, 2)) in edges
    assert event_signature(out.event_model) == event_signature(barrier_event())
    assert not is_asc(out.event_model)


def test_se_pinch_reports_same_chain_cycle():
    out = se_transform(pinch_state())
    assert not out.ok
    assert len(out.report.components) == 1
    comp = out.report.components[0]
    assert set(comp.nodes) == {(1, 1), (1, 2), (2, 1)}
    assert comp.chain == 1
    # the tentative graph carries the event cycle
    edges = set(out.temp_edges)
    assert ((1, 2), (2, 1)) in edges and ((2, 1), (1, 1)) in edges


def test_se_reports_every_offending_component_in_order():
    # Half of the models carry a pinch gadget next to the random part, so
    # reports with two or more offending components are common.
    rng = random.Random(2014)
    gadget = pinch_state()
    several = 0
    for _ in range(3000):
        p, chains = random_chain_poset(
            rng, max_elems=rng.choice([12, 24]), max_chains=rng.choice([4, 8])
        )
        elements, pairs = list(p.elements), list(p.covers)
        if rng.random() < 0.5:
            elements += [f"g{s}" for s in gadget.poset.elements]
            pairs += [(f"g{a}", f"g{b}") for a, b in gadget.poset.covers]
            chains = chains + [[f"g{s}" for s in c] for c in gadget.chains]
        out = se_transform(build_state_model(build_poset(elements, pairs), chains))
        if out.ok:
            continue
        comps = out.report.components
        assert [c.nodes for c in comps] == sorted(c.nodes for c in comps)
        for c in comps:
            assert sum(i == c.chain for i, _ in c.nodes) >= 2
        several += len(comps) >= 2
    assert several >= 20, several


def test_se_message_pair_has_no_nontrivial_component():
    out = se_transform(es_transform(indexed_pair_event()))
    assert out.ok
    assert all(len(slots) == 1 for slots in out.event_model.labels.values())
    assert event_signature(out.event_model) == event_signature(indexed_pair_event())


def test_roundtrip_named_models():
    assert roundtrip_es_se(message_pair_event())
    assert roundtrip_es_se(barrier_event())
    assert roundtrip_es_se(indexed_pair_event())
    empty = build_event_model(build_poset([], []), 0, {})
    assert roundtrip_es_se(empty)


def test_roundtrip_random_models():
    rng = random.Random(23)
    for _ in range(60):
        m = random_event_model(rng)
        assert roundtrip_es_se(m)
        assert roundtrip_se_es(es_transform(m))


def test_se_then_es_on_extensible_chain_partitions():
    # a width-extensible poset with its minimum chain partition converts and
    # comes back unchanged
    rng = random.Random(24)
    from posetdual.poset import minimum_chain_partition, width
    from builders import random_chain_poset

    done = 0
    while done < 30:
        p, _ = random_chain_poset(rng, max_elems=9, max_chains=3)
        if not check_width_extensible(p).ok:
            continue
        done += 1
        sm = build_state_model(p, minimum_chain_partition(p).chains)
        assert width(p)[0] == sm.n
        assert roundtrip_se_es(sm)


def test_empty_process_roundtrip():
    p = build_poset(["x"], [])
    m = build_event_model(p, 2, {"x": {(1, 1)}}, allow_empty_process=True)
    sm = es_transform(m)
    assert sm.chains == (("1.0", "1.1"), ("2.0",))
    assert roundtrip_es_se(m)
