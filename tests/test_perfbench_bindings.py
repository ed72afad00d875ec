"""The benchmark's traced run against the library bindings it rebinds.

``perfbench/tracing.py`` wraps posetdual functions by the names the calling
modules bind (``WRAPPED``) and replays each workload command through the
layers' public functions.  A binding dropped from a module, or a replay that
no longer matches the CLI, would otherwise only show in a ``--trace 1`` run.
"""

import io
import sys
from pathlib import Path

import pytest

from posetdual.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

# One invocation per command and branch the benchmark workloads run.
COMMANDS = [
    ["check", "{f}/barrier_state.json"],
    ["transform", "{f}/barrier_event.json", "--direction", "es"],
    ["transform", "{f}/barrier_state.json", "--direction", "se"],
    ["transform", "{f}/pinch_state.json", "--direction", "se"],
    ["analyze", "checkpoints", "--model", "{f}/zigzag_state.json",
     "--marks", "{f}/zigzag_marks.json", "--engine", "fast"],
    ["cuts", "{f}/message_pair_event.json", "--family", "downsets"],
    ["cuts", "{f}/message_pair_state.json", "--family", "antichains"],
    ["analyze", "predicate", "--model", "{f}/sessions_state.json",
     "--pred", "{f}/permits_pred.json", "--count"],
    ["analyze", "predicate", "--model", "{f}/sessions_state.json",
     "--pred", "{f}/permits_pred.json", "--first"],
]


def test_wrapped_bindings_resolve():
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_traced_and_counted_replays_match_the_cli(command, capsys, fixtures_dir):
    argv = [arg.format(f=fixtures_dir) for arg in command]
    main(argv)
    want = capsys.readouterr().out

    tracer = tracing.Tracer()
    sink = io.StringIO()
    with tracer.install():
        tracing.replay(argv, sink, tracer)
    assert sink.getvalue() == want
    assert tracer.spans

    counter = tracing.Counter()
    sink = io.StringIO()
    with counter.install():
        tracing.replay(argv, sink)
    assert sink.getvalue() == want
