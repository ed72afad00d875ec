"""``se_transform`` and the library's Tarjan kernel against the
references of their layers (``tests/reference.py``).

``se_transform`` maps every node of a component with a real node to its
event, expands a lone virtual node into the events of its successors, which
Tarjan lists earlier, and keeps ``low`` entries only for nodes on the stack.
The reference collapses the cover graph in two walks: the components with
their virtual nodes dropped, and a second, memoised walk that carries each
edge into a virtual node on to the real nodes it reaches through virtual
nodes alone.  Every emitted event trace and report byte, every
``temp_edges`` tuple and every component list must be the same as the
reference's, and so must the components of the textbook Tarjan pass on
random graphs and on a 10^5-node path and cycle.  The text ``event_text``
writes for an ``se`` result must be the definition of canonical text,
``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, of the reference's
event document.
"""

import random

import reference
from posetdual import build_event_model
from posetdual import transforms
from posetdual.traces import event_text, state_to_json
from posetdual.transforms import _components, se_transform, strongly_connected_components

from builders import beside, pinch_state, random_models


def kernel_components(nodes, succ):
    """``_components`` on the positions of *nodes*, named back."""
    ids = {node: v for v, node in enumerate(nodes)}
    comps, _ = _components([[ids[w] for w in succ[a]] for a in nodes])
    return [tuple(sorted(nodes[v] for v in comp)) for comp in comps]


def test_one_pass_collapse_equals_two_walk_collapse():
    rng = random.Random(1972)
    counts = {"relay": 0, "offending": 0, "shared": 0}
    models = random_models(rng, 5200)
    for sm in models:
        got, want = se_transform(sm), reference.se_collapse(sm)
        text = reference.se_text(want)
        assert reference.se_text(got) == text, state_to_json(sm)
        if got.ok:
            assert event_text(got.event_model) == text
        assert got.temp_edges == want.temp_edges
        counts["relay"] += reference.has_relay(sm)
        counts["offending"] += not got.ok
        counts["shared"] += got.ok and any(
            len(slots) > 1 for slots in got.event_model.labels.values()
        )
    # Relays, failing transforms and shared events must all be compared often.
    assert counts["relay"] >= 1000, counts
    assert counts["offending"] >= 50, counts
    assert counts["shared"] >= 1000, counts


def test_components_equal_on_random_graphs():
    rng = random.Random(1972)
    for _ in range(3000):
        n = rng.randint(1, 30)
        nodes = [(rng.randint(1, 4), k) for k in range(n)]
        rng.shuffle(nodes)
        density = rng.choice([0.02, 0.08, 0.2])
        succ = {
            a: [b for b in nodes if rng.random() < density] for a in nodes
        }
        want = reference.tarjan(nodes, succ)
        assert strongly_connected_components(nodes, succ) == want
        assert kernel_components(nodes, succ) == want


def test_components_equal_on_a_long_path_and_cycle():
    n = 100_000
    nodes = [(1, k) for k in range(n)]
    path = {(1, k): [(1, k + 1)] if k + 1 < n else [] for k in range(n)}
    got = strongly_connected_components(nodes, path)
    assert got == reference.tarjan(nodes, path)
    assert len(got) == n
    cycle = {**path, (1, n - 1): [(1, 0)]}
    got = strongly_connected_components(nodes, cycle)
    assert got == reference.tarjan(nodes, cycle) == [tuple(nodes)]


def test_se_hand_off_equals_a_fresh_build():
    # se_transform hands build_event_model the per-process slot lists it
    # filled while naming the events (the loader's path).  The model must
    # be the one built from the same poset and labels with every label
    # checked one event at a time, and the one the reference collapse built.
    rng = random.Random(1979)
    counts = {"shared": 0, "empty": 0}
    for sm in random_models(rng, 1500):
        outcome = se_transform(sm)
        if not outcome.ok:
            continue
        m = outcome.event_model
        fresh = build_event_model(
            m.poset, sm.n, {e: set(slots) for e, slots in m.labels.items()},
            allow_empty_process=True,
        )
        want = reference.se_collapse(sm).event_model
        for other in (fresh, want):
            assert m.n == other.n
            assert list(m.labels.items()) == list(other.labels.items())
            assert m.proc_events == other.proc_events
            assert m.poset.covers == other.poset.covers
        counts["shared"] += any(len(slots) > 1 for slots in m.labels.values())
        counts["empty"] += any(not events for events in m.proc_events)
    assert min(counts.values()) >= 100, counts


def test_a_failing_se_names_no_event(monkeypatch):
    # The components are screened before any event is named, so a model
    # that is reported builds no shared id and no event model.
    def unreachable(*args, **kwargs):
        raise AssertionError("a failing se named an event")

    gadget = pinch_state()
    models = [
        beside(sm, gadget)
        for sm in random_models(random.Random(1980), 300)
        if "ga" not in sm.poset  # not a pinch composition yet
    ]
    reports = [reference.se_collapse(sm).report for sm in models]
    monkeypatch.setattr(transforms, "_shared_id", unreachable)
    monkeypatch.setattr(transforms, "build_event_model", unreachable)
    monkeypatch.setattr(transforms, "build_poset", unreachable)
    for sm, report in zip(models, reports):
        assert se_transform(sm).report == report
    assert len(models) >= 200
