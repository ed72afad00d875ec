"""Verdicts from the omega conditions against the bitset scans they replaced.

``check_omega3`` compares one pair of up-clocks per cover; the reference
below transcribes the scan it replaced, which asked, per ``(j,t)``, that the
down-set bitset of ``[j,t]`` lie inside that of the lowest state above
``[j,t-1]`` on every chain.  Width-extensibility on a chain partition is
now ``omega1 and omega2 and omega3``; the reference is the singleton and
pair scan over bitsets that decided it before, and which still names the
witness of a failure.  Verdicts, witnesses and detail strings must agree, on
each model's own chains and on Kuhn's partition, and the verdict must match
the definition-level brute force.
"""

import random
from collections import Counter

from posetdual import statemodel
from posetdual.statemodel import (
    Verdict,
    _omega3_witness,
    _width_extensible,
    check_omega3,
    check_width_extensible,
    minimum_view,
    run_property_checks,
    width_extensible_bruteforce,
)

from builders import down_sets, omega_models
from reference import chain_clocks


def omega3_by_bitsets(sm):
    clocks = chain_clocks(sm.poset, sm.chains)
    chains = sm.chains
    p = sm.poset
    down = [[p.down_mask(s) for s in chain] for chain in chains]
    for j, chain in enumerate(chains):
        for t in range(1, len(chain)):
            below = down[j][t]
            above = clocks[chain[t - 1]][1]
            if any(
                below & ~down[k][u]
                for k, u in enumerate(above)
                if u < len(chains[k])
            ):
                return _omega3_witness(sm, j, t)
    return Verdict(True)


def width_extensible_by_pair_scan(sm):
    p, clocks = sm.poset, chain_clocks(sm.poset, sm.chains)
    for s in reversed(p.elements):
        down, up = clocks[s]
        if any(u - d < 2 for d, u in zip(down, up)):
            return Verdict(False, frozenset({s}), "no maximum antichain contains it")
    els, up, down = p.elements, p._up, down_sets(p)
    ids = [[p.index(e) for e in chain] for chain in sm.chains]
    for a in range(len(els) - 1, -1, -1):
        da, ua = clocks[els[a]]
        failing = 0
        for chain, below, above in zip(ids, da, ua):
            failing |= down[chain[below + 1]] | up[chain[above - 1]]
        failing = (failing & ~(up[a] | down[a])) >> (a + 1)
        if failing:
            b = a + failing.bit_length()
            return Verdict(
                False, frozenset({els[a], els[b]}), "no maximum antichain contains both"
            )
    return Verdict(True)


def test_omega3_on_covers_equals_bitset_scan():
    rng = random.Random(2017)
    outcomes = Counter()
    for sm in omega_models(rng, 3000, 24):
        want = omega3_by_bitsets(sm).as_json()
        assert check_omega3(sm).as_json() == want, sm.chains
        outcomes[want["ok"]] += 1
    # Failing verdicts must be common enough for their witnesses to count.
    assert outcomes[False] >= 500 and outcomes[True] >= 1000, outcomes


def test_width_extensible_by_omegas_equals_pair_scan_and_bruteforce():
    rng = random.Random(2029)
    views = Counter()
    for sm in omega_models(rng, 4000, 14):
        for kind, view in (("own", sm), ("kuhn", minimum_view(sm.poset))):
            want = width_extensible_by_pair_scan(view).as_json()
            assert _width_extensible(view).as_json() == want, (kind, view.chains)
            views[kind, want["ok"]] += 1
        verdict = check_width_extensible(sm.poset)
        assert verdict.ok == width_extensible_bruteforce(sm.poset), sm.poset.covers
    # Both views fail and pass often; the own chains are not always minimum.
    assert min(views.values()) >= 800, views


def test_property_reports_equal_pair_scan_reports(monkeypatch):
    """``run_property_checks`` passes ``we`` on the own chains by their
    omega verdicts; the report must be the one the pair scan gives."""
    rng = random.Random(2039)
    models = list(omega_models(rng, 1500, 14))
    got = [run_property_checks(sm, statemodel.PROPERTIES).as_json() for sm in models]
    monkeypatch.setattr(
        statemodel,
        "_width_extensible",
        lambda sm: width_extensible_by_pair_scan(sm),
    )
    want = [run_property_checks(sm, statemodel.PROPERTIES).as_json() for sm in models]
    failing = 0
    for sm, report, expected in zip(models, got, want):
        assert report == expected, sm.chains
        failing += not report["we"]["ok"]
    assert failing >= 300, failing
