"""Checkpoint analysis on the model's own tentative graph against the
checkpoint oracle on the restriction to the marked states.

The library groups the nodes of the full model's graph by checkpoint
interval for its fast engine and runs its oracle on the full order; it
builds no second model.  The reference (``tests/reference.py``) restricts
the model to the marked states (``builders.restricted_model``) and names,
for each checkpoint, the first one-per-chain tuple of pairwise concurrent
marked states that holds it, in product order.  Every report, with its
witnesses, engine and agreement, and every ``OracleBoundExceeded`` must be
the reference's, for each engine.  The text ``checkpoint_report_text``
writes must be the definition of canonical text, ``json.dumps(doc,
indent=2, sort_keys=True) + "\n"``, of the reference's report document,
for each engine and for the oracle fallback.
"""

import itertools
import json
import random
from collections import Counter

import pytest

import reference
from posetdual import OracleBoundExceeded, es_transform
from posetdual import analysis, statemodel
from posetdual.analysis import checkpoint_report_text, find_useless_checkpoints
from posetdual.traces import dumps_canonical, state_to_json

from builders import (
    crossing_event,
    crossing_marking,
    marked_models,
    marking,
    models,
    restricted_model,
    zigzag_marking,
    zigzag_state,
)


def outcome(call, sm, marks, engine, *writers):
    """Each writer's text of what *call* returns, or for each the
    OracleBoundExceeded message."""
    try:
        report = call(sm, marks, engine)
    except OracleBoundExceeded as exc:
        return [str(exc)] * len(writers)
    return [write(report) for write in writers]


def canonical(report):
    return dumps_canonical(report.as_json())


def defined(report):
    """The report as the definition of canonical text."""
    return json.dumps(report.as_json(), indent=2, sort_keys=True) + "\n"


def compare(sm, marks, engines, counts):
    """Assert each engine's report bytes, and the text
    ``checkpoint_report_text`` writes, are the reference's, and count the
    fallbacks and useless verdicts compared; *engines* starts with
    ``fast``.  Returns the fast engine's report, or None where it defers to
    the oracle."""
    for engine in engines:
        [got] = outcome(find_useless_checkpoints, sm, marks, engine, canonical)
        [text] = outcome(checkpoint_report_text, sm, marks, engine, str)
        want = outcome(reference.checkpoint_report, sm, marks, engine, canonical, defined)
        assert [got, text] == want, (state_to_json(sm), marks.as_json(), engine)
        if engine == "fast":
            counts["oracle-fallback"] += '"engine": "oracle-fallback"' in got
            counts["useless"] += got.count('"useful": false')
    report = find_useless_checkpoints(sm, marks, "fast")
    if report.engine != "fast":
        return None
    counts["fast engine"] += 1
    return report


def test_grouped_graph_reports_equal_the_restricted_model(monkeypatch):
    # At an oracle bound of 14, so that the oracle's bound is met too.
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", "14")
    counts = Counter()
    for sm, marks in marked_models(random.Random(1995)):
        report = compare(sm, marks, ("fast", "oracle", "both"), counts)
        if report is None:
            continue
        counts["fast useless"] += len(report.useless)
        counts["fast useful"] += len(report.verdicts) - len(report.useless)
        holding = reference.global_checkpoints(restricted_model(sm, marks))
        counts["ambiguous"] += sum(
            len(list(itertools.islice(holding(v.proc - 1, v.state), 2))) > 1
            for v in report.verdicts
        )
    # Enough reports of the fast engine and of its fallback, useless and
    # useful verdicts, and checkpoints that lie in more than one global
    # checkpoint (where a witness could be chosen otherwise) must be
    # compared.
    assert counts["fast engine"] >= 2000 and counts["oracle-fallback"] >= 400, counts
    assert counts["fast useless"] >= 500 and counts["fast useful"] >= 6000, counts
    assert counts["ambiguous"] >= 500, counts


def test_reports_under_markings_of_every_density_equal_the_reference():
    rng = random.Random(2141)
    counts = Counter()
    for sm in models(2143, 2500):
        marks = marking(rng, sm, rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]))
        report = compare(sm, marks, ("fast", "both"), counts)
        if report is not None:
            witnesses = [v.witness for v in report.verdicts if v.witness is not None and v.index]
            counts["shared witness"] += len(set(map(id, witnesses))) < len(witnesses)
    # The fast engine, its fallback, useless checkpoints and witnesses that
    # several checkpoints share must all be compared often.
    assert min(counts[k] for k in ("fast engine", "oracle-fallback", "shared witness")) >= 400, counts
    assert counts["useless"] >= 400, counts


@pytest.mark.parametrize("engine", ["fast", "oracle", "both"])
@pytest.mark.parametrize(
    "model, marks",
    [(zigzag_state, zigzag_marking), (lambda: es_transform(crossing_event()), crossing_marking)],
    ids=["zigzag", "crossing"],
)
def test_no_restricted_model_is_built(monkeypatch, model, marks, engine):
    sm, marks = model(), marks()
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
