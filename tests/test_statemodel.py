import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetdual
from posetdual import (
    Comparability,
    ModelError,
    NotTotallyOrdered,
    NotWidthAntichain,
    NotWidthExtensible,
    build_poset,
    build_state_model,
    check_interleaving_consistent,
    check_omega1,
    check_omega2,
    check_omega3,
    check_psi,
    check_width_extensible,
    compare_width_antichains,
    es_transform,
    extend_to_width_antichain,
    width,
)
from posetdual.errors import UsageError
from posetdual.poset import incomparable_interval, is_antichain, minimum_chain_partition
from posetdual.statemodel import (
    interleaving_consistent_bruteforce,
    minimum_view,
    run_property_checks,
    width_extensible_bruteforce,
)

from test_omega_differential import random_models

from builders import (
    barrier_state,
    message_pair_event,
    message_pair_state,
    pinch_poset,
    pinch_state,
    random_chain_poset,
    triple_pinch_poset,
)


def test_build_state_model_validation():
    p = build_poset(["a", "b"], [("a", "b")])
    sm = build_state_model(p, [["a", "b"]])
    assert sm.n == 1 and sm.coords("b") == (1, 1)
    with pytest.raises(NotTotallyOrdered):
        build_state_model(p, [["b", "a"]])
    with pytest.raises(ModelError):
        build_state_model(p, [["a"]])  # b unassigned
    with pytest.raises(ModelError):
        build_state_model(p, [["a", "b"], []])


def test_omega1_omega2_positive():
    sm = message_pair_state()
    assert check_omega1(sm).ok
    assert check_omega2(sm).ok
    sm2 = pinch_state()
    assert check_omega1(sm2).ok  # a || d
    assert check_omega2(sm2).ok  # c || e, confirmed by direct comparability


def test_omega1_constructed_violation():
    p = build_poset(["a", "b", "x"], [("a", "b"), ("a", "x")])
    sm = build_state_model(p, [["a", "b"], ["x"]])
    v = check_omega1(sm)
    assert not v.ok and set(v.witness) == {"a", "x"}


def test_omega2_constructed_violation():
    # same shape as the pinch model plus c -> e: finals become ordered
    p = build_poset(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("d", "e"), ("d", "b"), ("b", "e"), ("c", "e")],
    )
    sm = build_state_model(p, [["a", "b", "c"], ["d", "e"]])
    v = check_omega2(sm)
    assert not v.ok and set(v.witness) == {"c", "e"}


def test_omega2_single_chain_vacuous():
    p = build_poset(["a", "b"], [("a", "b")])
    sm = build_state_model(p, [["a", "b"]])
    assert check_omega2(sm).ok


def test_omega3_from_transform_and_pinch():
    assert check_omega3(es_transform(message_pair_event())).ok
    assert check_omega3(barrier_state()).ok
    v = check_omega3(pinch_state())
    assert not v.ok
    # scan finds b < e with d < b but no b < b
    assert v.witness is not None


def test_psi_verdicts():
    assert check_psi(es_transform(message_pair_event())).ok
    v = check_psi(barrier_state())
    assert not v.ok
    assert v.witness == ("1.1", "2.2", "2.1", "1.2")
    two = build_poset(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
    sm = build_state_model(two, [["a", "b"], ["x", "y"]])
    assert check_psi(sm).ok


def test_extend_to_width_antichain():
    from posetdual import NotWidthExtensible, extend_to_width_antichain

    sm = message_pair_state()
    grown = extend_to_width_antichain(sm.poset, {"b'"})
    assert "b'" in grown and len(grown) == 2
    full = extend_to_width_antichain(sm.poset, set())
    assert len(full) == 2
    with pytest.raises(NotWidthExtensible):
        extend_to_width_antichain(pinch_poset(), {"b"})
    with pytest.raises(NotWidthAntichain):
        extend_to_width_antichain(sm.poset, {"a0", "a'"})


_EXTEND_SCRIPT = """
import json, sys
from posetdual import NotWidthExtensible, build_poset, extend_to_width_antichain
case = json.load(sys.stdin)
try:
    extend_to_width_antichain(build_poset(case["elements"], case["relations"]), case["members"])
except NotWidthExtensible as exc:
    print(json.dumps(sorted(exc.witness)))
"""


def test_extension_witness_does_not_depend_on_hash_seed():
    # Minimal elements of which several have no incomparable run on the first
    # chain they leave unrepresented, so the member order picks the witness.
    rng = random.Random(14)
    for _ in range(1000):
        p, _ = random_chain_poset(rng, max_elems=40, max_chains=8)
        cp = minimum_chain_partition(p)
        members = p.minimal_elements()
        coords = minimum_view(p).coords
        owned = {coords(s)[0] - 1 for s in members}
        free = next((ci for ci in range(cp.n) if ci not in owned), None)
        if free is None:
            continue
        stuck = [s for s in members if not incomparable_interval(p, cp, s, free)]
        if len(stuck) >= 4:
            break
    else:
        pytest.fail("no model with four stuck minimal elements")
    case = json.dumps(
        {"elements": p.elements, "relations": p.covers, "members": members}
    )
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    witnesses = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _EXTEND_SCRIPT],
            input=case, capture_output=True, text=True, env=env, check=True,
        )
        witnesses.append(json.loads(run.stdout))
    assert witnesses[0] == witnesses[1] == [min(stuck)]


def extend_by_intervals(p, members):
    """Transcription of the extension that read each member's run with one
    ``incomparable_interval`` per member and chain."""
    current = set(members)
    cp = minimum_chain_partition(p)
    coords = minimum_view(p).coords
    for ci, chain in enumerate(cp.chains):
        if any(coords(s)[0] - 1 == ci for s in current):
            continue
        lo, hi = 0, len(chain) - 1
        for s in sorted(current):
            run = incomparable_interval(p, cp, s, ci)
            if not run:
                raise NotWidthExtensible(frozenset({s}))
            lo, hi = max(lo, run.lo), min(hi, run.hi)
        if lo > hi:
            raise NotWidthExtensible(frozenset(current))
        current.add(chain[lo])
    return frozenset(current)


def test_extension_from_clocks_equals_interval_reads():
    rng = random.Random(16)
    seen = {"grown": 0, "stuck member": 0, "stuck antichain": 0}
    for sm in random_models(rng, 1500, 14):
        p = sm.poset
        # A random antichain, or one the width-extensibility check names.
        members, size = [], rng.randint(0, 4)
        for s in rng.sample(p.elements, len(p)):
            if len(members) < size and is_antichain(p, members + [s]):
                members.append(s)
        witness = check_width_extensible(p).witness or ()
        if len(witness) == 2:
            members = sorted(witness)
        results = []
        for extend in (extend_to_width_antichain, extend_by_intervals):
            try:
                results.append(("grown", extend(p, members)))
            except NotWidthExtensible as exc:
                results.append(("stuck", exc.witness))
        assert results[0] == results[1], (p.covers, members)
        kind, value = results[0]
        seen["grown" if kind == "grown" else
             "stuck member" if len(value) == 1 else "stuck antichain"] += 1
    # Grown antichains and both kinds of witness are compared often.
    assert min(seen.values()) >= 100, seen


def test_debug_mode_verifies_extensions():
    rng = random.Random(15)
    for _ in range(30):
        p, _ = random_chain_poset(rng, max_elems=9, max_chains=3)
        if not check_width_extensible(p).ok:
            continue
        w, _ = width(p)
        for s in p.elements:
            grown = extend_to_width_antichain(p, {s})
            assert len(grown) == w and is_antichain(p, grown), s


def test_width_extensible_verdicts():
    v = check_width_extensible(pinch_poset())
    assert not v.ok and v.witness == frozenset({"b"})
    v = check_width_extensible(triple_pinch_poset())
    assert not v.ok and v.witness == frozenset({"b", "i"})
    assert check_width_extensible(message_pair_state().poset).ok
    assert check_width_extensible(build_poset([], [])).ok


def test_triple_pinch_singletons_all_extend():
    p = triple_pinch_poset()
    w, _ = width(p)
    from posetdual import enumerate_antichains

    widest = list(enumerate_antichains(p, size_filter=w))
    for s in p.elements:
        assert any(s in a for a in widest)


def test_interleaving_consistency_verdicts():
    assert check_interleaving_consistent(es_transform(message_pair_event()).poset).ok
    v = check_interleaving_consistent(barrier_state().poset)
    assert not v.ok
    single = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert check_interleaving_consistent(single).ok


def test_interleaving_fallback_on_non_extensible_posets():
    # not width-extensible, so the definition-level enumeration decides
    v = check_interleaving_consistent(pinch_poset())
    direct = interleaving_consistent_bruteforce(pinch_poset())
    assert v.ok == direct.ok


def test_compare_width_antichains():
    sm = message_pair_state()
    p = sm.poset
    assert compare_width_antichains(p, {"a0", "e0"}, {"c'", "g'"}) is Comparability.LESS
    assert compare_width_antichains(p, {"c'", "g'"}, {"a0", "e0"}) is Comparability.GREATER
    assert compare_width_antichains(p, {"b'", "e'"}, {"b'", "e'"}) is Comparability.EQUAL
    bp = barrier_state().poset
    assert (
        compare_width_antichains(bp, {"1.1", "2.0"}, {"1.0", "2.1"})
        is Comparability.CONCURRENT
    )
    with pytest.raises(NotWidthAntichain):
        compare_width_antichains(p, {"a0", "a'"}, {"c'", "g'"})


def test_property_report_selection():
    sm = message_pair_state()
    report = run_property_checks(sm, ["we", "ic"])
    data = report.as_json()
    assert data == {"ic": {"ok": True}, "we": {"ok": True}}
    with pytest.raises(UsageError):
        run_property_checks(sm, ["bogus"])


# --- randomized equivalences (small-scale; acceptance runs the big sweep) --

def test_fast_we_matches_definition():
    rng = random.Random(11)
    for _ in range(60):
        p, _ = random_chain_poset(rng, max_elems=9, max_chains=3)
        assert check_width_extensible(p).ok == width_extensible_bruteforce(p)


def test_omega_conjunction_iff_we_for_width_partitions():
    rng = random.Random(12)
    seen = 0
    while seen < 40:
        p, chains = random_chain_poset(rng, max_elems=9, max_chains=3)
        sm = build_state_model(p, chains)
        omega = (
            check_omega1(sm).ok and check_omega2(sm).ok and check_omega3(sm).ok
        )
        w, _ = width(p)
        assert omega == (check_width_extensible(p).ok and w == sm.n)
        if w == sm.n:
            seen += 1
            assert omega == check_width_extensible(p).ok


def test_psi_iff_interleaving_for_extensible_width_partitions():
    rng = random.Random(13)
    seen = 0
    while seen < 30:
        p, chains = random_chain_poset(rng, max_elems=9, max_chains=3)
        w, _ = width(p)
        if w != len(chains) or not check_width_extensible(p).ok:
            continue
        seen += 1
        sm = build_state_model(p, chains)
        assert check_psi(sm).ok == interleaving_consistent_bruteforce(p).ok


def test_width_antichain_family_closed_under_minmax():
    rng = random.Random(14)
    from posetdual import enumerate_antichains
    from posetdual.poset import is_antichain, minimum_chain_partition

    checked = 0
    while checked < 25:
        p, _ = random_chain_poset(rng, max_elems=8, max_chains=3)
        if not check_width_extensible(p).ok:
            continue
        checked += 1
        w, _ = width(p)
        family = list(enumerate_antichains(p, size_filter=w))
        cp = minimum_chain_partition(p)
        for a, b in itertools.combinations(family, 2):
            for pick in (min, max):
                combined = set()
                for chain in cp.chains:
                    ka = chain.index(next(s for s in chain if s in a))
                    kb = chain.index(next(s for s in chain if s in b))
                    combined.add(chain[pick(ka, kb)])
                assert is_antichain(p, combined) and len(combined) == w


def test_false_verdict_witnesses_recheck():
    for p in (pinch_poset(), triple_pinch_poset()):
        v = check_width_extensible(p)
        assert not v.ok
        w, _ = width(p)
        from posetdual import enumerate_antichains

        widest = list(enumerate_antichains(p, size_filter=w))
        assert not any(v.witness <= wa for wa in widest)
    sm = barrier_state()
    psi = check_psi(sm)
    a, b, c, d = psi.witness
    assert sm.poset.less(a, b) and sm.poset.less(c, d)
