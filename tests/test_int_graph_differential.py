"""The tentative event graph on integer node ids against the tuple-keyed
reference graph.

The library numbers node ``(i, k)`` as ``base[i] + k - 1`` and runs one
Tarjan kernel over list-indexed arrays for ``se_transform`` and the fast
checkpoint engine.  The reference (``tests/reference.py``) builds the graph
as the library defines it from the covers, keyed by ``(i, k)`` nodes, and
runs the textbook Tarjan pass and the two-walk ``se`` collapse on it.  On
random models with no chains, one-state chains, virtual-node relays, shared
events and pinch compositions, the graphs, the component lists,
``temp_edges``, and the ``se`` output bytes and exit codes of the CLI must
be the same.
"""

from __future__ import annotations

import contextlib
import io

import reference
from posetdual import cli
from posetdual.traces import dumps_canonical, state_to_json
from posetdual.transforms import (
    _components,
    _nodes,
    _tentative_graph,
    se_transform,
    strongly_connected_components,
    transition_graph,
)

from builders import models


def test_graph_and_components_equal_tuple_keyed():
    counts = {"no chains": 0, "one-state chain": 0, "relay": 0, "cycle": 0}
    for sm in models(2131, 2500):
        nodes, succ = reference.cover_graph(sm)
        assert transition_graph(sm) == (nodes, succ)
        want = reference.tarjan(nodes, succ)
        assert strongly_connected_components(nodes, succ) == want
        names = _nodes(sm.chains)
        comps, comp_of = _components(_tentative_graph(sm))
        assert [tuple(map(names.__getitem__, c)) for c in comps] == want
        assert all(comps[c][0] <= v for v, c in enumerate(comp_of))
        assert sorted(v for c in comps for v in c) == list(range(len(names)))
        assert all(v in comps[c] for v, c in enumerate(comp_of))
        counts["no chains"] += not sm.chains
        counts["one-state chain"] += any(len(c) == 1 for c in sm.chains)
        counts["relay"] += reference.has_relay(sm)
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
        want = reference.se_collapse(sm)
        assert se_transform(sm).temp_edges == want.temp_edges
        path.write_text(dumps_canonical(state_to_json(sm)))
        if want.ok:
            labels = want.event_model.labels.values()
            counts["shared"] += any(len(s) > 1 for s in labels)
        else:
            counts["offending"] += 1
        code = 0 if want.ok else 2
        assert run_se(path) == (code, reference.se_text(want)), state_to_json(sm)
        counts["relay"] += reference.has_relay(sm)
    # Failing transforms, shared events and relays must all be compared often.
    assert min(counts.values()) >= 150, counts
