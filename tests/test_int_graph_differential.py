"""The tentative event graph on integer node ids against the tuple-keyed
graph it replaced.

``se_transform`` and the fast checkpoint engine once built the tentative
graph as dicts keyed by ``(i, k)`` nodes and grouped the nodes by checkpoint
interval with one bisection per node.  That graph and that engine are
transcribed below; the tuple-keyed Tarjan pass and ``se`` collapse are the
collapse test's references, fed from that graph.  The library now numbers
node ``(i, k)`` as ``base[i] + k - 1`` and runs one Tarjan kernel over
list-indexed arrays for both.  On random models with no chains, one-state
chains, virtual-node relays, shared events and pinch compositions, under
markings of every density, the graphs, the component lists, ``temp_edges``,
the ``se`` output bytes and exit codes of the CLI, and the checkpoint report
bytes must be the same.
"""

from __future__ import annotations

import contextlib
import io
import random
from bisect import bisect_left

from posetdual import analysis, build_poset, build_state_model, cli
from posetdual.analysis import CheckpointMarking, find_useless_checkpoints
from posetdual.statemodel import check_omega1, check_omega2
from posetdual.traces import dumps_canonical, state_to_json
from posetdual.transforms import (
    _components,
    _nodes,
    _tentative_graph,
    se_transform,
    strongly_connected_components,
    transition_graph,
)

from test_collapse_differential import (
    has_relay,
    outcome_bytes,
    random_models,
    tarjan_with_on_stack,
    two_walk_se_transform,
)


def tuple_transition_graph(sm):
    p = sm.poset
    coords = sm._coords()
    at = [coords[e] for e in p.elements]
    upper, index = p._upper, p._index
    nodes = []
    succ = {}
    for i, chain in enumerate(sm.chains, start=1):
        top = len(chain)
        for k, state in enumerate(chain, start=1):
            out = [(i, k + 1)] if k < top else []
            for w in upper[index[state]]:
                j, s = at[w]
                if j != i:
                    out.append((j, s or 1))
            nodes.append((i, k))
            succ[(i, k)] = out
    return nodes, succ


def tuple_fast_usefulness(sm, marks, chains):
    if not check_omega1(sm).ok or not check_omega2(sm).ok:
        return None
    full_nodes, full_succ = tuple_transition_graph(sm)
    group = {(i, k): (i, bisect_left(marks[i - 1], k)) for i, k in full_nodes}
    succ = {}
    for node, g in group.items():
        succ.setdefault(g, []).extend(
            h for h in map(group.__getitem__, full_succ[node]) if h != g
        )
    comps = tarjan_with_on_stack(list(succ), succ)
    comp_index = {node: ci for ci, comp in enumerate(comps) for node in comp}
    tops = [[0] * sm.n for _ in comps]
    for ci in reversed(range(len(comps))):
        top = tops[ci]
        for i, k in comps[ci]:
            top[i - 1] = max(top[i - 1], k)
        for node in comps[ci]:
            for nxt in succ[node]:
                cj = comp_index[nxt]
                if cj != ci:
                    tops[cj] = list(map(max, tops[cj], top))

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


def models(seed, count):
    """The collapse test's random models, after the model with no chains."""
    return [build_state_model(build_poset([], []), [])] + random_models(
        random.Random(seed), count
    )


def marking(rng, sm, density):
    """Each middle state of each chain marked with probability *density*."""
    marks = []
    for chain in sm.chains:
        top = len(chain) - 1
        middle = [k for k in range(1, top) if rng.random() < density]
        marks.append(tuple([0, *middle] + ([top] if top else [])))
    return CheckpointMarking(tuple(marks))


def test_graph_and_components_equal_tuple_keyed():
    counts = {"no chains": 0, "one-state chain": 0, "relay": 0, "cycle": 0}
    for sm in models(2131, 2500):
        nodes, succ = tuple_transition_graph(sm)
        assert transition_graph(sm) == (nodes, succ)
        want = tarjan_with_on_stack(nodes, succ)
        assert strongly_connected_components(nodes, succ) == want
        names = _nodes(sm.chains)
        comps, comp_of = _components(_tentative_graph(sm))
        assert [tuple(map(names.__getitem__, c)) for c in comps] == want
        assert all(comps[c][0] <= v for v, c in enumerate(comp_of))
        assert sorted(v for c in comps for v in c) == list(range(len(names)))
        assert all(v in comps[c] for v, c in enumerate(comp_of))
        counts["no chains"] += not sm.chains
        counts["one-state chain"] += any(len(c) == 1 for c in sm.chains)
        counts["relay"] += has_relay(sm)
        counts["cycle"] += any(len(c) > 1 for c in want)
    assert counts["no chains"] == 1, counts
    assert min(counts["one-state chain"], counts["relay"], counts["cycle"]) >= 400, counts


def run_se(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["transform", str(path), "--direction", "se"])
    return code, out.getvalue()


def test_se_stdout_exit_codes_and_edges_equal_tuple_keyed(tmp_path):
    counts = {"offending": 0, "shared": 0, "relay": 0}
    path = tmp_path / "model.json"
    for sm in models(2137, 1500):
        want = two_walk_se_transform(sm, tuple_transition_graph)
        assert se_transform(sm).temp_edges == want.temp_edges
        path.write_text(dumps_canonical(state_to_json(sm)))
        if want.ok:
            labels = want.event_model.labels.values()
            counts["shared"] += any(len(s) > 1 for s in labels)
        else:
            counts["offending"] += 1
        code = 0 if want.ok else 2
        assert run_se(path) == (code, outcome_bytes(want)), state_to_json(sm)
        counts["relay"] += has_relay(sm)
    # Failing transforms, shared events and relays must all be compared often.
    assert min(counts.values()) >= 150, counts


def reports(cases, engine):
    return [
        dumps_canonical(find_useless_checkpoints(sm, m, engine=engine).as_json())
        for sm, m in cases
    ]


def test_checkpoint_reports_equal_tuple_keyed(monkeypatch):
    rng = random.Random(2141)
    cases = [
        (sm, marking(rng, sm, rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])))
        for sm in models(2143, 2500)
    ]
    counts = {"fast": 0, "oracle-fallback": 0, "useless": 0, "shared witness": 0}
    for sm, m in cases:
        report = find_useless_checkpoints(sm, m)
        witnesses = [v.witness for v in report.verdicts if v.witness is not None and v.index]
        counts["shared witness"] += len(set(map(id, witnesses))) < len(witnesses)
    got = {engine: reports(cases, engine) for engine in ("fast", "both")}
    monkeypatch.setattr(analysis, "_fast_usefulness", tuple_fast_usefulness)
    for engine in ("fast", "both"):
        want = reports(cases, engine)
        for k, (sm, m) in enumerate(cases):
            assert got[engine][k] == want[k], (state_to_json(sm), m.as_json())
    for text in got["fast"]:
        counts["fast"] += '"engine": "fast"' in text
        counts["oracle-fallback"] += '"engine": "oracle-fallback"' in text
        counts["useless"] += text.count('"useful": false')
    # The fast engine, its fallback, useless checkpoints and witnesses that
    # several checkpoints share must all be compared often.
    assert min(counts.values()) >= 400, counts
