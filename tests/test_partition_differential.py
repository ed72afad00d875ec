"""Property checks on the model's own chains against the always-Kuhn path.

Width-extensibility and interleaving-consistency are decided on the model's
process chains whenever its initial states are pairwise concurrent, and
``omega3`` is a subset test of down-set bitsets.  The reference below
transcribes the path that always takes the minimum chain partition from
Kuhn's matching, without the library's partition policy: the pair-loop
width-extensibility kernel, ``psi`` on the Kuhn-partitioned model and brute
force when the poset is not width-extensible; ``omega3`` is scanned state by
state on the chain clocks.  Reports, witnesses, detail strings and the
chains that enumeration indexes must agree exactly.
"""

import random

import pytest

from posetdual import (
    NotWidthExtensible,
    OracleBoundExceeded,
    Verdict,
    build_poset,
    build_state_model,
    check_omega1,
    check_omega2,
    check_psi,
    es_transform,
)
from posetdual import poset as poset_module
from posetdual.analysis import first_width_predicate, predicate_from_json
from posetdual.cli import main
from posetdual.lattice import width_frontiers
from posetdual.poset import chain_clocks, minimum_chain_partition, width
from posetdual.statemodel import (
    check_width_extensible,
    interleaving_consistent_bruteforce,
    run_property_checks,
)

from builders import (
    pinch_state,
    random_chain_poset,
    random_event_model,
    triple_pinch_state,
)
from test_bitset_differential import we_by_pair_loop

# Interleaving-consistency of a poset that is not width-extensible is decided
# by enumeration on both paths; the bound keeps that enumeration small.
BOUND = 12

SUBSETS = [
    ("omega1", "omega2", "omega3", "psi", "we", "ic"),
    ("we",),
    ("ic",),
    ("we", "ic"),
    ("psi", "ic"),
]


def omega3_by_clock_scan(sm):
    """``omega3`` testing every ``(i, below[i])`` against every chain."""
    clocks = chain_clocks(sm.poset, sm.chains)
    chains = sm.chains

    def less(i, s, k, u):
        return s < u if i == k else u >= clocks[chains[i][s]][1][k]

    for j, chain in enumerate(chains):
        for t in range(1, len(chain)):
            below = clocks[chain[t]][0]
            above = clocks[chain[t - 1]][1]
            ks = [k for k in range(sm.n) if k != j and above[k] < len(chains[k])]

            def fails(i, s):
                return not all(less(i, s, k, above[k]) for k in ks)

            for i in range(sm.n):
                if i == j or below[i] < 0 or not fails(i, below[i]):
                    continue
                s = next(s for s in range(below[i] + 1) if fails(i, s))
                k = next(k for k in ks if not less(i, s, k, above[k]))
                u = above[k]
                return Verdict(
                    False,
                    (chains[i][s], chain[t], chains[k][u]),
                    f"[{i + 1},{s}] < [{j + 1},{t}] and [{j + 1},{t - 1}] < "
                    f"[{k + 1},{u}] but not [{i + 1},{s}] < [{k + 1},{u}]",
                )
    return Verdict(True)


def ic_on_kuhn_partition(sm):
    """``psi`` on Kuhn's partition of a width-extensible poset, else the
    definition by enumeration."""
    p = sm.poset
    if we_by_pair_loop(p).ok:
        return check_psi(build_state_model(p, minimum_chain_partition(p).chains))
    return interleaving_consistent_bruteforce(p, bound=BOUND)


REFERENCE = {
    "omega1": check_omega1,
    "omega2": check_omega2,
    "omega3": omega3_by_clock_scan,
    "psi": check_psi,
    "we": lambda sm: we_by_pair_loop(sm.poset),
    "ic": ic_on_kuhn_partition,
}


def reference_verdicts(sm):
    """Each property's verdict JSON, or the OracleBoundExceeded it raised."""
    out = {}
    for name, check in REFERENCE.items():
        try:
            out[name] = check(sm).as_json()
        except OracleBoundExceeded as exc:
            out[name] = exc
    return out


def reference_chains(sm):
    """The chains enumeration indexes: the model's own when their count is
    the width, else Kuhn's partition."""
    if sm.n == width(sm.poset)[0]:
        return sm.chains
    return minimum_chain_partition(sm.poset).chains


def pinch_composition(rng):
    """A random chain-partitioned poset beside a pinch gadget, with a few
    edges from the random part into the gadget."""
    p, chains = random_chain_poset(rng, max_elems=11, max_chains=3)
    gadget = rng.choice([pinch_state, triple_pinch_state])()
    elements = list(p.elements) + [f"g{s}" for s in gadget.poset.elements]
    pairs = list(p.covers) + [(f"g{a}", f"g{b}") for a, b in gadget.poset.covers]
    for _ in range(rng.randint(0, 2)):
        pairs.append((rng.choice(p.elements), f"g{rng.choice(gadget.poset.elements)}"))
    chains = chains + [[f"g{s}" for s in c] for c in gadget.chains]
    return build_state_model(build_poset(elements, pairs), chains)


def random_models(rng, count):
    for trial in range(count):
        kind = trial % 3
        if kind == 0:
            p, chains = random_chain_poset(
                rng, max_elems=rng.choice([8, 14, 20]), max_chains=rng.choice([3, 5])
            )
            yield build_state_model(p, chains)
        elif kind == 1:
            yield es_transform(random_event_model(rng, max_events_per_proc=4))
        else:
            yield pinch_composition(rng)


def test_own_chain_decisions_equal_kuhn_path():
    rng = random.Random(1950)
    concurrent_not_we = we_not_ic = own_minimum = 0
    pred = predicate_from_json({"op": "index", "proc": 1, "cmp": ">=", "value": 1})
    for sm in random_models(rng, 3000):
        ref = reference_verdicts(sm)
        for sub in SUBSETS:
            if any(isinstance(ref[name], OracleBoundExceeded) for name in sub):
                with pytest.raises(OracleBoundExceeded):
                    run_property_checks(sm, sub, bound=BOUND)
            else:
                report = run_property_checks(sm, sub, bound=BOUND).as_json()
                assert report == {name: ref[name] for name in sub}, (sm, sub)

        we = ref["we"]
        concurrent_not_we += ref["omega1"]["ok"] and not we["ok"]
        we_not_ic += we["ok"] and not ref["ic"]["ok"]
        if we["ok"]:
            assert width_frontiers(sm)[0].chains == reference_chains(sm)
            # The converse of Dilworth's argument for omega1: the own chains
            # of a width-extensible model are minimum only under omega1.
            if sm.n == width(sm.poset)[0]:
                assert ref["omega1"]["ok"], sm
                own_minimum += 1
            else:
                assert first_width_predicate(sm, pred) is None
        else:
            for detect in (width_frontiers, lambda m: first_width_predicate(m, pred)):
                with pytest.raises(NotWidthExtensible) as err:
                    detect(sm)
                assert sorted(err.value.witness) == we["witness"]
    # Both partition-dependent witnesses must have been compared often.
    assert concurrent_not_we >= 50, concurrent_not_we
    assert we_not_ic >= 500, we_not_ic
    assert own_minimum >= 1000, own_minimum


def test_check_runs_no_matching_on_concurrent_initial_states(
    capsys, monkeypatch, fixtures_dir, goldens_dir
):
    def no_matching(p):
        raise AssertionError("Kuhn's matching ran")

    monkeypatch.setattr(poset_module, "_maximum_matching", no_matching)
    runs = [
        (["check", str(fixtures_dir / "sessions_state.json")],
         "sessions_state.check.json"),
        (["analyze", "predicate", "--model", str(fixtures_dir / "sessions_state.json"),
          "--pred", str(fixtures_dir / "permits_pred.json")],
         "sessions_permits.json"),
        (["cuts", str(fixtures_dir / "message_pair_state.json"),
          "--family", "antichains"],
         "message_pair_state.antichains.jsonl"),
    ]
    for argv, golden in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out == (goldens_dir / golden).read_text(), argv
    # A bare poset has no chains of its own, so it still takes the matching.
    with pytest.raises(AssertionError, match="matching ran"):
        check_width_extensible(pinch_state().poset)
