"""``cli.main`` pauses the cyclic garbage collector for one command.

The pause rests on a premise: a command builds no reference cycles, so
everything it allocates is freed by reference counting and the collector
would find nothing.  The first test runs every command on the fixture
corpus and on random models from ``builders`` with the collector off and
asserts that ``gc.collect()`` then finds nothing.  The second asserts that
``main`` leaves the caller's setting as it found it, on every exit.
"""

import gc
import os
import random
import sys

import pytest

from posetdual import build_state_model, es_transform
from posetdual import cli
from posetdual.cli import main
from posetdual.traces import event_to_json, state_to_json, write_trace

import builders
from conftest import FIXTURES


def fixture(name):
    return str(FIXTURES / name)


def marks_file(path, marking):
    write_trace(path, {"kind": "marks", "version": 1, "marks": [list(m) for m in marking.marks]})
    return str(path)


def corpus_commands():
    """(argv, exit code) for every command on the fixture corpus."""
    events = ["message_pair_event.json", "indexed_pair_event.json", "barrier_event.json"]
    states = [
        "message_pair_state.json", "indexed_pair_state.json", "barrier_state.json",
        "zigzag_state.json", "sessions_state.json",
    ]
    pinches = ["pinch_state.json", "triple_pinch_state.json"]
    posets = ["pinch_poset.json", "triple_pinch_poset.json"]
    commands = []
    for name in events + states + pinches + posets:
        commands.append((["validate", fixture(name)], 0))
    for name in events:
        commands.append((["transform", fixture(name), "--direction", "es"], 0))
        commands.append((["cuts", fixture(name), "--family", "downsets"], 0))
    for name in states:
        commands.append((["transform", fixture(name), "--direction", "se"], 0))
        commands.append((["cuts", fixture(name), "--family", "antichains"], 0))
    for name in states + pinches:
        commands.append((["check", fixture(name)], 0))
    for name in posets:
        commands.append((["cuts", fixture(name), "--family", "downsets"], 0))
    # The pinch models fail se and have no maximum antichain to enumerate.
    commands.append((["transform", fixture("pinch_state.json"), "--direction", "se"], 2))
    commands.append((["cuts", fixture("pinch_state.json"), "--family", "antichains"], 2))
    commands.append((["cuts", fixture("message_pair_event.json"), "--family", "downsets",
                      "--max-cuts", "3"], 5))
    for pred in ("barrier_pred.json", "forks_pred.json", "permits_pred.json"):
        base = ["analyze", "predicate", "--model", fixture("sessions_state.json"),
                "--pred", fixture(pred)]
        for mode in ([], ["--count"], ["--first"]):
            commands.append((base + mode, 0))
    for engine in ("fast", "oracle", "both"):
        commands.append((["analyze", "checkpoints", "--model", fixture("zigzag_state.json"),
                          "--marks", fixture("zigzag_marks.json"), "--engine", engine], 0))
    return commands


def builder_commands(tmp_path):
    """(argv, exit code or None for any) for every command on random models."""
    rng = random.Random(2024)
    commands = []
    pred = fixture("barrier_pred.json")
    for t in range(12):
        m = builders.random_event_model(rng, max_procs=4, max_events_per_proc=4, max_messages=6)
        sm = es_transform(m)
        ev, st, marks = (tmp_path / f"{t}.{kind}.json" for kind in ("event", "state", "marks"))
        write_trace(ev, event_to_json(m))
        write_trace(st, state_to_json(sm))
        marks_file(marks, builders.random_marking(rng, sm))
        commands += [
            (["validate", str(ev)], 0),
            (["transform", str(ev), "--direction", "es"], 0),
            (["transform", str(st), "--direction", "se"], 0),
            (["check", str(st)], 0),
            (["cuts", str(ev), "--family", "downsets"], 0),
            (["cuts", str(st), "--family", "antichains"], 0),
        ]
        commands += [
            (["analyze", "checkpoints", "--model", str(st), "--marks", str(marks),
              "--engine", engine], 0)
            for engine in ("fast", "oracle", "both")
        ]
        p, chains = builders.random_chain_poset(rng, max_elems=12, max_chains=3)
        chained = tmp_path / f"{t}.chain.json"
        write_trace(chained, state_to_json(build_state_model(p, chains)))
        # A random chain poset may fail se, width-extensibility or every
        # predicate's attributes; only the absence of cycles is asserted.
        commands += [
            (["transform", str(chained), "--direction", "se"], None),
            (["check", str(chained)], 0),
            (["cuts", str(chained), "--family", "antichains"], None),
        ]
    gadget = tmp_path / "crossing.state.json"
    write_trace(gadget, state_to_json(es_transform(builders.crossing_event())))
    commands.append((["analyze", "checkpoints", "--model", str(gadget), "--marks",
                      marks_file(tmp_path / "crossing.marks.json", builders.crossing_marking()),
                      "--engine", "both"], 0))
    commands.append((["analyze", "predicate", "--model", str(gadget), "--pred", pred,
                      "--count"], None))
    return commands


def run_without_collector(capsys, argv):
    """Exit code of *argv* run with the collector off, and what the
    collector then finds.  main builds its parser before the pause, once
    per process, and argparse leaves cycles while building one."""
    cli._parser()
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    return code, found


def test_commands_leave_no_cycles(capsys, tmp_path):
    codes = set()
    for argv, expected in corpus_commands() + builder_commands(tmp_path):
        code, found = run_without_collector(capsys, argv)
        assert expected is None or code == expected, argv
        assert found == 0, (argv, found)
        codes.add(code)
    # successes, reports of models that model no computation, and the guard
    assert codes == {0, 2, 5}


def test_errors_at_the_boundary_leave_no_cycles(capsys, monkeypatch):
    # A check above the oracle bound and a kind mismatch end in exceptions
    # caught at main's error boundary.
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", "2")
    argv = ["check", fixture("triple_pinch_state.json")]
    assert run_without_collector(capsys, argv) == (2, 0)
    argv = ["check", fixture("barrier_event.json")]
    assert run_without_collector(capsys, argv) == (4, 0)


def closed_stdout(argv):
    """main on a stdout whose reader has gone, as an in-process caller sees it."""
    read, write = os.pipe()
    os.close(read)
    saved = sys.stdout
    sys.stdout = pipe = open(write, "w")
    try:
        return main(argv)
    finally:
        sys.stdout = saved
        pipe.close()


def answer(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector_setting(capsys, tmp_path, enabled):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    event = fixture("message_pair_event.json")
    runs = [
        (lambda: answer(["validate", event]), 0),
        (lambda: answer(["transform", fixture("pinch_state.json"), "--direction", "se"]), 2),
        (lambda: answer(["validate", str(broken)]), 3),
        (lambda: answer(["check", event]), 4),
        (lambda: answer(["cuts", event, "--family", "downsets", "--max-cuts", "0"]), 5),
        (lambda: closed_stdout(["transform", fixture("barrier_event.json"), "--direction", "es"]), 4),
        # argparse exits before the pause begins
        (lambda: answer(["transform", event, "--direction", "sideways"]), 4),
        (lambda: answer(["--help"]), 0),
    ]
    was = gc.isenabled()
    try:
        for run, expected in runs:
            (gc.enable if enabled else gc.disable)()
            assert run() == expected
            assert gc.isenabled() is enabled, expected
            capsys.readouterr()
    finally:
        (gc.enable if was else gc.disable)()
