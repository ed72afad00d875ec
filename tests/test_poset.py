import itertools
import random
import sys

import pytest
from hypothesis import given, strategies as st

from posetdual import (
    BadChainIndex,
    ChainPartition,
    Comparability,
    CycleError,
    OracleBoundExceeded,
    UnknownElement,
    build_poset,
    chain_clocks,
    comparable,
    enumerate_antichains,
    enumerate_downsets_bruteforce,
    incomparable_interval,
    minimum_chain_partition,
    width,
)
from posetdual.poset import is_antichain, is_downset

from builders import (
    down_sets,
    message_pair_event,
    pinch_poset,
    random_chain_poset,
    triple_pinch_poset,
)


@st.composite
def posets(draw, max_elems=9):
    n = draw(st.integers(min_value=0, max_value=max_elems))
    names = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a, b in itertools.combinations(names, 2)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return build_poset(names, edges)


def test_build_closure_matches_expected():
    p = message_pair_event().poset
    base = {("a", "b"), ("b", "c"), ("e", "f"), ("f", "g"), ("b", "f")}
    extra = {("a", "c"), ("e", "g"), ("a", "f"), ("a", "g"), ("b", "g")}
    assert set(p.closure_pairs()) == base | extra


def test_build_accepts_non_transitive_input_and_reduces_covers():
    p = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert p.covers == (("x", "y"), ("y", "z"))


def test_singleton_poset():
    p = build_poset(["x"], [])
    assert list(p.closure_pairs()) == []
    assert width(p) == (1, frozenset({"x"}))


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(CycleError):
        build_poset(["x"], [("x", "x")])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElement):
        build_poset(["x"], [("x", "y")])
    p = build_poset(["x"], [])
    with pytest.raises(UnknownElement):
        comparable(p, "x", "q")


def test_comparable_verdicts():
    p = message_pair_event().poset
    assert comparable(p, "a", "f") is Comparability.LESS
    assert comparable(p, "f", "a") is Comparability.GREATER
    assert comparable(p, "c", "e") is Comparability.CONCURRENT
    assert comparable(p, "a", "a") is Comparability.EQUAL


def test_width_pinch():
    w, witness = width(pinch_poset())
    assert w == 2
    assert is_antichain(pinch_poset(), witness) and len(witness) == 2


def test_width_triple_pinch():
    p = triple_pinch_poset()
    w, witness = width(p)
    assert w == 3
    assert is_antichain(p, witness) and len(witness) == 3
    # the three rows are all maximum antichains
    for row in ({"a", "d", "g"}, {"b", "e", "h"}, {"c", "f", "i"}):
        assert is_antichain(p, row)


def test_width_single_chain():
    p = build_poset("wxyz", [("w", "x"), ("x", "y"), ("y", "z")])
    assert width(p)[0] == 1
    assert minimum_chain_partition(p).chains == (("w", "x", "y", "z"),)


def test_min_chain_partition_sizes():
    assert minimum_chain_partition(triple_pinch_poset()).n == 3
    assert minimum_chain_partition(message_pair_event().poset).n == 2
    iso = build_poset(["p", "q", "r"], [])
    assert minimum_chain_partition(iso).chains == (("p",), ("q",), ("r",))


def test_antichain_enumeration_pinch():
    # oracle-computed: a<e and d<c through b, so only two size-2 antichains
    got = sorted(sorted(a) for a in enumerate_antichains(pinch_poset(), size_filter=2))
    assert got == [["a", "d"], ["c", "e"]]
    assert all("b" not in a for a in enumerate_antichains(pinch_poset()) if a != {"b"})


def test_antichain_enumeration_counts_against_powerset():
    p = pinch_poset()
    expected = [
        set(c)
        for r in range(len(p.elements) + 1)
        for c in itertools.combinations(p.elements, r)
        if is_antichain(p, c)
    ]
    got = list(enumerate_antichains(p))
    assert len(got) == len(expected)
    assert {frozenset(e) for e in expected} == set(got)
    assert len(set(got)) == len(got)


def test_antichain_enumeration_empty_poset():
    p = build_poset([], [])
    assert list(enumerate_antichains(p)) == [frozenset()]


def test_width_filter_yields_state_cuts():
    # state view of the message pair: exactly the twelve size-2 antichains
    from builders import MESSAGE_PAIR_ANTICHAINS, message_pair_state

    p = message_pair_state().poset
    got = set(enumerate_antichains(p, size_filter=2))
    assert got == {frozenset(a) for a in MESSAGE_PAIR_ANTICHAINS}


def test_restrict_inherits_order():
    p = pinch_poset()
    sub = p.restrict(["a", "c", "d", "e"])
    assert sub.less("a", "c") and sub.less("d", "e") and sub.less("a", "e")
    assert comparable(sub, "c", "e") is Comparability.CONCURRENT
    with pytest.raises(UnknownElement):
        p.restrict(["a", "zz"])
    # The first unknown id in sorted order is named, as the pair scan did.
    with pytest.raises(UnknownElement, match="'yy'"):
        p.restrict(["zz", "a", "yy"])


def test_restrict_equals_pairwise_restriction():
    rng = random.Random(1979)
    for _ in range(500):
        p, _ = random_chain_poset(rng, max_elems=16, max_chains=4)
        keep = rng.sample(p.elements, rng.randint(0, len(p)))
        pairs = [(a, b) for a in keep for b in keep if a != b and p.less(a, b)]
        expected = build_poset(keep, pairs)
        sub = p.restrict(keep + keep[:2])
        assert (sub.elements, sub._up, down_sets(sub), sub.covers) == (
            expected.elements, expected._up, down_sets(expected), expected.covers
        )


def test_downset_oracle_counts():
    assert sum(1 for _ in enumerate_downsets_bruteforce(message_pair_event().poset)) == 12
    chain3 = build_poset("abc", [("a", "b"), ("b", "c")])
    assert sum(1 for _ in enumerate_downsets_bruteforce(chain3)) == 4
    anti3 = build_poset("abc", [])
    assert sum(1 for _ in enumerate_downsets_bruteforce(anti3)) == 8


def test_oracle_bound_enforced(monkeypatch):
    p = build_poset([f"x{i:02}" for i in range(6)], [])
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", "5")
    with pytest.raises(OracleBoundExceeded):
        list(enumerate_downsets_bruteforce(p))
    with pytest.raises(OracleBoundExceeded):
        list(enumerate_antichains(p))
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", "6")
    assert sum(1 for _ in enumerate_downsets_bruteforce(p)) == 64


def test_oracle_bound_env_override(monkeypatch):
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", "3")
    p = build_poset(["a", "b", "c", "d"], [])
    with pytest.raises(OracleBoundExceeded):
        list(enumerate_downsets_bruteforce(p))


def test_incomparable_interval_examples():
    p = pinch_poset()
    cp = ChainPartition((("a", "b", "c"), ("d", "e")))
    # b is pinched: d < b < e leaves nothing concurrent on the other chain
    assert incomparable_interval(p, cp, "b", 1).elements == ()
    # own chain is empty by convention
    assert incomparable_interval(p, cp, "b", 0).elements == ()
    iv = incomparable_interval(p, cp, "a", 1)
    assert iv.elements == ("d",) and (iv.lo, iv.hi) == (0, 0)


def test_incomparable_interval_full_run():
    # the second chain of the message-pair state view is fully concurrent to b'
    chains = [["a0", "a'", "b'", "c'"], ["e0", "e'", "f'", "g'"]]
    rel = [("a'", "f'")] + [e for c in chains for e in zip(c, c[1:])]
    p = build_poset([s for c in chains for s in c], rel)
    cp = ChainPartition(tuple(tuple(c) for c in chains))
    iv = incomparable_interval(p, cp, "b'", 1)
    assert iv.elements == ("e0", "e'", "f'", "g'")
    assert (iv.lo, iv.hi) == (0, 3)


def test_incomparable_interval_bad_chain():
    p = pinch_poset()
    cp = ChainPartition((("a", "b", "c"), ("d", "e")))
    with pytest.raises(BadChainIndex):
        incomparable_interval(p, cp, "b", 7)
    with pytest.raises(UnknownElement):
        incomparable_interval(p, cp, "zz", 0)


# --- invariants -----------------------------------------------------------

@given(posets())
def test_closure_idempotent(p):
    again = build_poset(p.elements, list(p.closure_pairs()))
    assert set(again.closure_pairs()) == set(p.closure_pairs())
    assert again.covers == p.covers


@given(posets())
def test_dilworth_consistency(p):
    w, witness = width(p)
    cp = minimum_chain_partition(p)
    assert len(witness) == w == cp.n
    assert is_antichain(p, witness)
    # partition really partitions, chains really ascend
    flat = [e for c in cp.chains for e in c]
    assert sorted(flat) == list(p.elements)
    for chain in cp.chains:
        for a, b in zip(chain, chain[1:]):
            assert p.less(a, b)
    # oracle: no antichain beats the matching bound
    best = max((len(a) for a in enumerate_antichains(p)), default=0)
    assert best == w


@given(posets())
def test_interval_contiguity(p):
    cp = minimum_chain_partition(p)
    for s in p.elements:
        for ci, chain in enumerate(cp.chains):
            if s in chain:
                continue
            run = incomparable_interval(p, cp, s, ci)
            direct = [
                t for t in chain if comparable(p, s, t) is Comparability.CONCURRENT
            ]
            assert list(run.elements) == direct  # raises internally if torn


@given(posets(max_elems=7))
def test_downset_family_closed_under_union_intersection(p):
    family = list(enumerate_downsets_bruteforce(p))
    assert len(set(family)) == len(family)
    for d in family:
        assert is_downset(p, d)
    fam = set(family)
    for a, b in itertools.combinations(family, 2):
        assert a | b in fam
        assert a & b in fam


def test_random_chain_posets_have_valid_partitions():
    rng = random.Random(20240811)
    for _ in range(50):
        p, chains = random_chain_poset(rng)
        assert sorted(s for c in chains for s in c) == list(p.elements)
        for chain in chains:
            for a, b in zip(chain, chain[1:]):
                assert p.less(a, b)


def test_width_does_not_depend_on_recursion_limit():
    chain = [f"1.{k}" for k in range(300)]
    p = build_poset(chain, list(zip(chain, chain[1:])))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        w, antichain = width(p)
    finally:
        sys.setrecursionlimit(limit)
    assert w == 1 and len(antichain) == 1
    assert minimum_chain_partition(p).chains == (tuple(chain),)


def test_chain_clocks_match_pairwise_order():
    rng = random.Random(23)
    for _ in range(100):
        p, chains = random_chain_poset(rng, max_elems=14, max_chains=4)
        clocks = chain_clocks(p, chains)
        for e in p.elements:
            down, up = clocks[e]
            for c, chain in enumerate(chains):
                below = [k for k, x in enumerate(chain) if p.less(x, e)]
                above = [k for k, x in enumerate(chain) if p.less(e, x)]
                assert down[c] == max(below, default=-1)
                assert up[c] == min(above, default=len(chain))
