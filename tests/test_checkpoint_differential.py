"""Checkpoint analysis on the model's own tentative graph against the
restricted model it replaced.

Both checkpoint engines once ran on a second state model, the restriction
to the marked states: its order closed by ``build_poset`` from one pair per
marked state and chain, read off the chain clocks, and validated by
``build_state_model``.  That builder and the engines that read it are
transcribed below.  The library now groups the nodes of the full model's
graph by checkpoint interval and runs the oracle on the full order; every
report, witnesses, engine and agreement included, and every
``OracleBoundExceeded`` must be the same.
"""

import itertools
import random
from bisect import bisect_left

import pytest

from posetdual import (
    Comparability,
    OracleBoundExceeded,
    build_poset,
    build_state_model,
    check_omega1,
    check_omega2,
    comparable,
    es_transform,
)
from posetdual import analysis, statemodel
from posetdual.analysis import (
    CheckpointReport,
    CheckpointVerdict,
    find_useless_checkpoints,
)
from posetdual.poset import oracle_bound
from posetdual.traces import state_to_json
from posetdual.transforms import strongly_connected_components, transition_graph

from builders import (
    crossing_event,
    crossing_marking,
    pinch_state,
    random_asc,
    random_chain_poset,
    random_event_model,
    random_marking,
    zigzag_marking,
    zigzag_state,
)
from test_clock_differential import chain_poset_model


def induced_checkpoint_model(sm, marking):
    """The restriction to the marked states (order inherited, re-indexed)."""
    marking.validate(sm)
    chains = [
        [sm.state_at(i, k) for k in idxs]
        for i, idxs in enumerate(marking.marks, start=1)
    ]
    kept = [s for chain in chains for s in chain]
    clocks = sm.clocks()
    pairs = []
    for s in kept:
        for idxs, chain, u in zip(marking.marks, chains, clocks[s][1]):
            r = bisect_left(idxs, u)
            if r < len(idxs):
                pairs.append((s, chain[r]))
    poset = build_poset(kept, pairs)
    attrs = {s: sm.attrs[s] for s in kept if s in sm.attrs}
    return build_state_model(poset, chains, attrs)


def oracle_usefulness(induced, bound):
    combos = 1
    for chain in induced.chains:
        combos *= len(chain)
    limit = oracle_bound(bound)
    if combos.bit_length() > limit:
        cap = 1 << limit
        if combos > cap:
            raise OracleBoundExceeded(f"{combos} tuples exceed oracle cap {cap}")
    witness = {s: None for chain in induced.chains for s in chain}
    p = induced.poset
    for combo in itertools.product(*induced.chains):
        ok = all(
            comparable(p, a, b) is Comparability.CONCURRENT
            for a, b in itertools.combinations(combo, 2)
        )
        if ok:
            mark = frozenset(combo)
            for s in combo:
                if witness[s] is None:
                    witness[s] = mark
    return witness


def fast_usefulness(induced):
    if not check_omega1(induced).ok or not check_omega2(induced).ok:
        return None
    nodes, succ = transition_graph(induced)
    comps = strongly_connected_components(nodes, succ)
    comp_index = {node: ci for ci, comp in enumerate(comps) for node in comp}
    tops = [[0] * induced.n for _ in comps]
    for ci in reversed(range(len(comps))):
        top = tops[ci]
        for i, k in comps[ci]:
            top[i - 1] = max(top[i - 1], k)
        for node in comps[ci]:
            for nxt in succ[node]:
                cj = comp_index[nxt]
                if cj != ci:
                    tops[cj] = list(map(max, tops[cj], top))

    chains = induced.chains
    base = frozenset(chain[0] for chain in chains)
    out = {}
    for i, chain in enumerate(chains, start=1):
        out[chain[0]] = base
        for k in range(1, len(chain)):
            ci = comp_index[(i, k)]
            if k < len(chain) - 1 and ci == comp_index[(i, k + 1)]:
                out[chain[k]] = None
            else:
                out[chain[k]] = frozenset(map(tuple.__getitem__, chains, tops[ci]))
    return out


def checkpoints_on_restriction(sm, marking, engine, bound):
    induced = induced_checkpoint_model(sm, marking)
    fast = fast_usefulness(induced) if engine in ("fast", "both") else None
    oracle = None
    if engine in ("oracle", "both") or fast is None:
        oracle = oracle_usefulness(induced, bound)
    if engine == "oracle":
        used = "oracle"
    elif fast is None:
        used = "oracle-fallback"
    else:
        used = engine
    primary = fast if fast is not None else oracle
    agree = None
    if engine == "both" and fast is not None:
        agree = all((fast[s] is None) == (oracle[s] is None) for s in fast)
    verdicts = []
    for i, idxs in enumerate(marking.marks, start=1):
        for orig_k, state in zip(idxs, induced.chains[i - 1]):
            w = primary[state]
            verdicts.append(CheckpointVerdict(state, i, orig_k, w is not None, w))
    return CheckpointReport(tuple(verdicts), used, agree)


def outcome(find, sm, marking, engine):
    try:
        return find(sm, marking, engine, bound=14).as_json()
    except OracleBoundExceeded as exc:
        return str(exc)


def marked_models(rng):
    """Marked es models of event and ASC computations, chain posets and
    chain posets beside the pinch gadget."""
    gadget = pinch_state()
    for trial in range(3000):
        kind = trial % 4
        if kind < 2:
            make = random_event_model if kind else random_asc
            sm = es_transform(make(
                rng, max_procs=rng.choice([3, 5]), max_events_per_proc=8, max_messages=20
            ))
            max_marks = rng.choice([5, 6])
        else:
            if kind == 2:
                sm = build_state_model(*random_chain_poset(
                    rng, max_elems=14, max_chains=rng.choice([3, 5])
                ))
            else:
                sm = chain_poset_model(rng, gadget, rng.choice([8, 14]))
            max_marks = rng.choice([4, 5])
        yield sm, random_marking(rng, sm, max_marks=max_marks)


def test_grouped_graph_reports_equal_the_restricted_model():
    rng = random.Random(1995)
    engines = {}
    useless = 0
    for sm, marking in marked_models(rng):
        for engine in ("fast", "oracle", "both"):
            got = outcome(find_useless_checkpoints, sm, marking, engine)
            want = outcome(checkpoints_on_restriction, sm, marking, engine)
            assert got == want, (state_to_json(sm), marking.as_json(), engine)
            used = got["engine"] if isinstance(got, dict) else "bound exceeded"
            engines[used] = engines.get(used, 0) + 1
            if used == "fast":
                useless += sum(not v["useful"] for v in got["verdicts"])
    # Enough reports of each engine, and useless verdicts of the fast
    # engine, must be compared.
    assert engines.get("fast", 0) >= 2000, engines
    assert engines.get("oracle-fallback", 0) >= 400, engines
    assert useless >= 500, useless


@pytest.mark.parametrize("engine", ["fast", "oracle", "both"])
@pytest.mark.parametrize(
    "model, marking",
    [(zigzag_state, zigzag_marking), (lambda: es_transform(crossing_event()), crossing_marking)],
    ids=["zigzag", "crossing"],
)
def test_no_restricted_model_is_built(monkeypatch, model, marking, engine):
    sm, marks = model(), marking()
    calls = []

    def recording(module, name):
        fn = getattr(module, name)

        def record(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    recording(analysis, "build_poset")
    recording(analysis, "build_state_model")
    recording(statemodel, "chain_clocks")
    find_useless_checkpoints(sm, marks, engine)
    assert calls == []
