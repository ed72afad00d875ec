import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetdual
from posetdual import SchemaError, build_poset, build_state_model, cli, es_transform, lattice
from posetdual import analysis, traces, transforms
from posetdual.cli import main
from posetdual.errors import ModelError
from posetdual.lattice import enumerate_event_cuts
from posetdual.traces import (
    dumps_canonical,
    event_to_json,
    load_marks,
    load_trace,
    state_to_json,
    write_trace,
)
from posetdual.transforms import event_signature, state_signature

import builders


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- schema handling -------------------------------------------------------

def test_load_event_fixture_round_trips_bytes(fixtures_dir):
    path = fixtures_dir / "message_pair_event.json"
    kind, model = load_trace(path)
    assert kind == "event"
    assert dumps_canonical(event_to_json(model)) == path.read_text()


def test_load_state_fixture_round_trips_bytes(fixtures_dir):
    path = fixtures_dir / "sessions_state.json"
    kind, model = load_trace(path)
    assert kind == "state"
    assert dumps_canonical(state_to_json(model)) == path.read_text()


def test_fixture_corpus_in_sync(fixtures_dir):
    pairs = [
        ("message_pair_event.json", event_to_json(builders.message_pair_event())),
        ("message_pair_state.json", state_to_json(builders.message_pair_state())),
        ("indexed_pair_event.json", event_to_json(builders.indexed_pair_event())),
        (
            "indexed_pair_state.json",
            state_to_json(es_transform(builders.indexed_pair_event())),
        ),
        ("barrier_event.json", event_to_json(builders.barrier_event())),
        ("barrier_state.json", state_to_json(builders.barrier_state())),
        ("zigzag_state.json", state_to_json(builders.zigzag_state())),
        ("sessions_state.json", state_to_json(builders.sessions_model())),
    ]
    for name, data in pairs:
        assert (fixtures_dir / name).read_text() == dumps_canonical(data), name


def test_unknown_field_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "poset", "version": 1, "elements": [], "relations": [],
        "surprise": True,
    }))
    with pytest.raises(SchemaError):
        load_trace(bad)


def test_version_mandatory(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "poset", "elements": []}))
    with pytest.raises(SchemaError):
        load_trace(bad)


def test_marks_loader(fixtures_dir):
    assert load_marks(fixtures_dir / "zigzag_marks.json") == [[0, 1, 2], [0, 2, 3]]


def test_implicit_chain_edges_from_indices(tmp_path):
    path = tmp_path / "ev.json"
    path.write_text(json.dumps({
        "kind": "event", "version": 1, "n": 1,
        "events": [
            {"id": "y", "slots": [{"proc": 1, "idx": 2}]},
            {"id": "x", "slots": [{"proc": 1, "idx": 1}]},
        ],
        "edges": [],
    }))
    _, model = load_trace(path)
    assert model.poset.less("x", "y")


@pytest.mark.parametrize("kind", ["poset", "state"])
def test_duplicate_element_ids_rejected(tmp_path, kind):
    bad = tmp_path / "dup.json"
    data = {"kind": kind, "version": 1, "elements": ["a", "a", "b"], "relations": []}
    if kind == "state":
        data["chains"] = [["a"], ["b"]]
    bad.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="duplicate element ids"):
        load_trace(bad)


@pytest.mark.parametrize("kind", ["poset", "state"])
@pytest.mark.parametrize("chains", [5, None, "ab"])
def test_chains_must_be_a_list_of_lists(tmp_path, kind, chains):
    bad = tmp_path / "chains.json"
    data = {"kind": kind, "version": 1, "elements": ["a", "b"], "chains": chains}
    bad.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_trace(bad)


def _event_trace(n=1, proc=1, idx=1):
    return {
        "kind": "event", "version": 1, "n": n,
        "events": [{"id": "x", "slots": [{"proc": proc, "idx": idx}]}],
        "edges": [],
    }


@pytest.mark.parametrize(
    "data",
    [
        _event_trace(proc=True),
        _event_trace(idx=True),
        _event_trace(n=True),
        {"kind": "poset", "version": True, "elements": []},
    ],
    ids=["slot-proc", "slot-idx", "n", "version"],
)
def test_boolean_is_not_an_integer(tmp_path, data):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_trace(bad)


def test_boolean_mark_rejected(tmp_path):
    bad = tmp_path / "marks.json"
    bad.write_text(json.dumps({"kind": "marks", "version": 1, "marks": [[0, True]]}))
    with pytest.raises(SchemaError):
        load_marks(bad)


# --- CLI -------------------------------------------------------------------

def test_validate_ok(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "validate", str(fixtures_dir / "message_pair_event.json"))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_semantic_failure(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "kind": "event", "version": 1, "n": 1,
        "events": [
            {"id": "x", "slots": [{"proc": 1, "idx": 2}]},
            {"id": "y", "slots": [{"proc": 1, "idx": 2}]},
        ],
        "edges": [],
    }))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    data = json.loads(out)
    assert data["error"]["type"] == "NotTotallyOrdered"
    assert data["error"]["process"] == 1


@pytest.mark.parametrize(
    "events",
    [
        [{"id": "a", "slots": [{"proc": 1, "idx": 1}, {"proc": 1, "idx": 2}]}],
        [
            {"id": "a", "slots": [{"proc": 1, "idx": 1}, {"proc": 1, "idx": 3}]},
            {"id": "b", "slots": [{"proc": 1, "idx": 2}]},
        ],
    ],
    ids=["adjacent", "event-between"],
)
@pytest.mark.parametrize(
    "command", [["validate"], ["transform", "--direction", "es"]], ids=["validate", "transform"]
)
def test_two_slots_on_one_process_are_named(capsys, tmp_path, events, command):
    # No chain edges on that process, so no cycle through the event hides
    # the fault.
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"kind": "event", "version": 1, "n": 1, "events": events}))
    code, out, _ = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert json.loads(out)["error"] == {
        "message": "event 'a' carries two slots on one process", "type": "ModelError",
    }


def test_validate_parse_failure(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3 and "parse error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "x.json", "--direction", "sideways"])
    assert info.value.code == 4


def _answer(capsys, argv):
    """Exit code, stdout and stderr of one main call, argparse's exits too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_answers_as_a_fresh_one(capsys, fixtures_dir):
    # main builds its parser once per process; a usage error and --help
    # must leave nothing behind that a later command would see.
    argvs = [
        ["transform", "x.json", "--direction", "sideways"],
        ["--help"],
        ["validate", str(fixtures_dir / "message_pair_event.json")],
    ]
    cli._parser.cache_clear()
    reused = [_answer(capsys, argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_answer(capsys, argv))
    assert [code for code, _, _ in reused] == [4, 0, 0]
    assert reused == fresh
    assert cli.build_parser() is not cli.build_parser()


def test_transform_kind_mismatch(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "transform", str(fixtures_dir / "message_pair_event.json"),
        "--direction", "se",
    )
    assert code == 4 and "needs a state trace" in err


def test_transform_es_matches_golden(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "transform", str(fixtures_dir / "indexed_pair_event.json"),
        "--direction", "es",
    )
    assert code == 0
    assert out == (fixtures_dir / "indexed_pair_state.json").read_text()


def test_transform_se_matches_golden(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "transform", str(fixtures_dir / "barrier_state.json"),
        "--direction", "se",
    )
    assert code == 0
    assert out == (fixtures_dir / "barrier_event.json").read_text()


def test_transform_se_invalid_reports(capsys, fixtures_dir, goldens_dir):
    code, out, _ = run_cli(
        capsys, "transform", str(fixtures_dir / "pinch_state.json"),
        "--direction", "se",
    )
    assert code == 2
    assert out == (goldens_dir / "pinch_state.se_report.json").read_text()
    data = json.loads(out)
    assert data["components"][0]["nodes"] == [[1, 1], [1, 2], [2, 1]]


def test_transform_se_reports_two_components(capsys, tmp_path):
    trace = {
        "kind": "state", "version": 1,
        "elements": ["1.0", "1.1", "1.2", "2.0", "2.1", "2.2", "2.3",
                     "3.0", "3.1", "4.0", "4.1", "4.2", "5.0", "5.1"],
        "relations": [
            ["1.0", "2.1"], ["1.0", "3.1"], ["1.1", "1.2"], ["2.0", "2.1"],
            ["2.1", "1.1"], ["2.1", "2.2"], ["2.1", "4.2"], ["2.2", "2.3"],
            ["2.3", "1.2"], ["3.0", "3.1"], ["4.0", "3.1"], ["4.0", "4.1"],
            ["4.1", "4.2"], ["4.1", "5.1"], ["5.0", "4.1"],
        ],
        "chains": [["1.0", "1.1", "1.2"], ["2.0", "2.1", "2.2", "2.3"],
                   ["3.0", "3.1"], ["4.0", "4.1", "4.2"], ["5.0", "5.1"]],
    }
    path = tmp_path / "two_pinches.json"
    path.write_text(json.dumps(trace))
    code, out, err = run_cli(capsys, "transform", str(path), "--direction", "se")
    assert code == 2 and err == ""
    assert json.loads(out)["components"] == [
        {"chain": 2, "nodes": [[1, 1], [2, 1], [2, 2]]},
        {"chain": 4, "nodes": [[4, 1], [4, 2], [5, 1]]},
    ]


def test_check_goldens(capsys, fixtures_dir, goldens_dir):
    code, out, _ = run_cli(
        capsys, "check", str(fixtures_dir / "triple_pinch_state.json"),
        "--properties", "we",
    )
    assert code == 0
    assert out == (goldens_dir / "triple_pinch_state.check_we.json").read_text()
    assert json.loads(out)["we"]["witness"] == ["b", "i"]

    code, out, _ = run_cli(
        capsys, "check", str(fixtures_dir / "barrier_state.json"),
        "--properties", "psi,ic",
    )
    assert code == 0
    assert out == (goldens_dir / "barrier_state.check_psi_ic.json").read_text()
    data = json.loads(out)
    assert data["psi"]["ok"] is False and data["ic"]["ok"] is False


def test_check_we_ic_true_on_message_pair_state(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "check", str(fixtures_dir / "message_pair_state.json"),
        "--properties", "we,ic",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"we": {"ok": True}, "ic": {"ok": True}}


def test_check_above_oracle_bound_reports_only_the_bound(capsys, tmp_path):
    """The pinch gadget beside a 20-state chain is not width-extensible, so
    ``ic`` falls back to the oracle, whose bound (20) the 25 states exceed:
    the default ``check`` reports only that, and without ``ic`` it passes."""
    gadget = builders.pinch_state()
    third = [f"x{k:02}" for k in range(20)]
    poset = build_poset(
        list(gadget.poset.elements) + third,
        list(gadget.poset.covers) + list(zip(third, third[1:])),
    )
    path = tmp_path / "pinch_chain.json"
    write_trace(path, state_to_json(build_state_model(poset, [*gadget.chains, third])))

    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 2
    assert json.loads(out) == {
        "error": {"message": "25 elements exceed oracle bound 20", "type": "OracleBoundExceeded"},
        "ok": False,
    }

    code, out, _ = run_cli(
        capsys, "check", str(path), "--properties", "omega1,omega2,omega3,psi,we"
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["omega1", "omega2", "omega3", "psi", "we"]
    assert data["omega3"]["ok"] is False and data["we"] == {
        "detail": "no maximum antichain contains it", "ok": False, "witness": ["b"],
    }


def test_cuts_downsets_golden(capsys, fixtures_dir, goldens_dir):
    code, out, _ = run_cli(
        capsys, "cuts", str(fixtures_dir / "message_pair_event.json"),
        "--family", "downsets",
    )
    assert code == 0
    assert out == (goldens_dir / "message_pair_event.downsets.jsonl").read_text()
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 12}


def test_cuts_antichains_golden(capsys, fixtures_dir, goldens_dir):
    code, out, _ = run_cli(
        capsys, "cuts", str(fixtures_dir / "message_pair_state.json"),
        "--family", "antichains",
    )
    assert code == 0
    assert out == (goldens_dir / "message_pair_state.antichains.jsonl").read_text()


def test_cuts_guard_exit(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys, "cuts", str(fixtures_dir / "message_pair_event.json"),
        "--family", "downsets", "--max-cuts", "5",
    )
    assert code == 5
    assert len(out.strip().splitlines()) == 5
    assert "guard" in err


def _many_cuts_traces(tmp_path):
    """An event trace with more than 300 cuts, and its state trace."""
    rng = random.Random(7301)
    while True:
        m = builders.random_event_model(rng, max_procs=4, max_events_per_proc=8, max_messages=6)
        if 300 < sum(1 for _ in enumerate_event_cuts(m)) < 2000:
            break
    event, state = tmp_path / "many_event.json", tmp_path / "many_state.json"
    write_trace(event, event_to_json(m))
    write_trace(state, state_to_json(es_transform(m)))
    return {"downsets": event, "antichains": state}


@pytest.mark.parametrize("family", ["downsets", "antichains"])
def test_cuts_guard_boundaries(capsys, tmp_path, family):
    path = str(_many_cuts_traces(tmp_path)[family])
    code, full, _ = run_cli(capsys, "cuts", path, "--family", family)
    lines = full.splitlines(keepends=True)
    n = len(lines) - 1
    assert code == 0 and n > 300 and lines[-1] == json.dumps({"count": n}) + "\n"
    # 256 lines make one write; 300 and n - 1 cross a chunk boundary.
    for cap in (0, 1, 255, 256, 257, 300, n - 1, n, n + 1):
        code, out, err = run_cli(
            capsys, "cuts", path, "--family", family, "--max-cuts", str(cap)
        )
        assert code == (5 if n > cap else 0), cap
        if code == 0:
            assert out == full and err == ""
        else:
            assert out == "".join(lines[:cap]), cap
            assert '"count"' not in out and "guard" in err


def test_cuts_lines_before_an_error_are_written(capsys, monkeypatch, fixtures_dir):
    def failing(poset):
        def runs():
            for _ in range(300):
                yield bytes(2)  # a run of one empty cut
            raise ModelError("stream broke")

        return (), runs()

    monkeypatch.setattr(cli, "_downset_runs", failing)
    path = str(fixtures_dir / "message_pair_event.json")
    code, out, _ = run_cli(capsys, "cuts", path, "--family", "downsets")
    written = '{"cut": []}\n' * 300
    assert code == 2 and out.startswith(written)
    assert json.loads(out[len(written):])["error"]["message"] == "stream broke"


def test_cuts_chunks_may_start_with_the_empty_cut(capsys, monkeypatch, fixtures_dir):
    # Cuts 0, _CHUNK and 2 * _CHUNK are empty: each opens a chunk, and the
    # last is a chunk of its own.  The others hold zero to three names, two
    # of which json.dumps escapes.
    names = []
    for k in range(2 * lattice._CHUNK + 1):
        names.append([] if k % lattice._CHUNK == 0 else [f"s{k}", 'q"', "é"][: k % 4])

    def cuts(poset):
        items = [f"s{k}" for k in range(len(names))] + ['q"', "é"]
        index = {name: i for i, name in enumerate(items)}
        width = lattice._width(len(items))
        bitsets = [sum(1 << index[name] for name in cut).to_bytes(width, "little") for cut in names]
        step = lattice._CHUNK
        return items, (b"".join(bitsets[s:s + step]) for s in range(0, len(bitsets), step))

    monkeypatch.setattr(cli, "_downset_runs", cuts)
    path = str(fixtures_dir / "message_pair_event.json")
    code, out, _ = run_cli(capsys, "cuts", path, "--family", "downsets")
    assert code == 0
    assert out == "".join(json.dumps({"cut": cut}) + "\n" for cut in names) + (
        json.dumps({"count": len(names)}) + "\n"
    )


EMPTY_TRACES = {
    "poset": {"kind": "poset", "version": 1, "elements": [], "relations": []},
    "state": {"kind": "state", "version": 1, "chains": [], "elements": [], "relations": []},
}


@pytest.mark.parametrize(
    "kind, family",
    [("poset", "downsets"), ("poset", "antichains"), ("state", "antichains")],
)
def test_cuts_of_an_empty_trace_is_the_empty_cut(capsys, tmp_path, kind, family):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(EMPTY_TRACES[kind]))
    code, out, err = run_cli(capsys, "cuts", str(path), "--family", family)
    assert (code, out, err) == (0, '{"cut": []}\n{"count": 1}\n', "")


@pytest.mark.parametrize(
    "mode, want",
    [
        (["--count"], '{\n  "count": 1\n}\n'),
        ([], '{\n  "count": 1,\n  "cuts": [\n    []\n  ]\n}\n'),
        (["--first"], '{\n  "found": []\n}\n'),
    ],
    ids=["count", "list", "first"],
)
def test_predicate_on_an_empty_state_trace(capsys, tmp_path, mode, want):
    model, pred = tmp_path / "state.json", tmp_path / "pred.json"
    model.write_text(json.dumps(EMPTY_TRACES["state"]))
    expr = {"op": "const", "value": True}
    pred.write_text(json.dumps({"kind": "predicate", "version": 1, "expr": expr}))
    code, out, err = run_cli(
        capsys, "analyze", "predicate", "--model", str(model), "--pred", str(pred), *mode
    )
    assert (code, out, err) == (0, want, "")


def test_cuts_antichains_rejects_pinch(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "cuts", str(fixtures_dir / "pinch_state.json"),
        "--family", "antichains",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotWidthExtensible"


def test_analyze_checkpoints_golden(capsys, fixtures_dir, goldens_dir):
    code, out, _ = run_cli(
        capsys, "analyze", "checkpoints",
        "--model", str(fixtures_dir / "zigzag_state.json"),
        "--marks", str(fixtures_dir / "zigzag_marks.json"),
        "--engine", "both",
    )
    assert code == 0
    assert out == (goldens_dir / "zigzag_checkpoints.json").read_text()
    data = json.loads(out)
    assert data["useless"] == ["1.1"] and data["engines_agree"] is True


def test_analyze_predicate_golden(capsys, fixtures_dir, goldens_dir):
    code, out, _ = run_cli(
        capsys, "analyze", "predicate",
        "--model", str(fixtures_dir / "sessions_state.json"),
        "--pred", str(fixtures_dir / "permits_pred.json"),
    )
    assert code == 0
    assert out == (goldens_dir / "sessions_permits.json").read_text()
    data = json.loads(out)
    assert data["count"] == len(data["cuts"]) > 0


def test_analyze_predicate_first_and_count(capsys, fixtures_dir):
    base = [
        "analyze", "predicate",
        "--model", str(fixtures_dir / "sessions_state.json"),
        "--pred", str(fixtures_dir / "barrier_pred.json"),
    ]
    code, out, _ = run_cli(capsys, *base, "--count")
    assert code == 0
    n = json.loads(out)["count"]
    code, out, _ = run_cli(capsys, *base, "--first")
    assert code == 0
    assert (json.loads(out)["found"] is not None) == (n > 0)


def test_cli_output_is_stable_across_runs(fixtures_dir):
    cmd = [
        sys.executable, "-m", "posetdual", "cuts",
        str(fixtures_dir / "message_pair_event.json"), "--family", "downsets",
    ]
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    a = subprocess.run(cmd, capture_output=True, text=True, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_transform_roundtrip_through_files(tmp_path, capsys, fixtures_dir):
    out_state = tmp_path / "state.json"
    code, _, _ = run_cli(
        capsys, "transform", str(fixtures_dir / "barrier_event.json"),
        "--direction", "es", "-o", str(out_state),
    )
    assert code == 0
    out_event = tmp_path / "event.json"
    code, _, _ = run_cli(
        capsys, "transform", str(out_state), "--direction", "se",
        "-o", str(out_event),
    )
    assert code == 0
    assert out_event.read_text() == (fixtures_dir / "barrier_event.json").read_text()
    _, model = load_trace(out_event)
    assert event_signature(model) == event_signature(builders.barrier_event())
    _, sm = load_trace(out_state)
    assert state_signature(sm) == state_signature(builders.barrier_state())


def defined_text(doc):
    """The definition of canonical text."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Non-ASCII, astral, control, lone-surrogate, quote and backslash ids, and
# "~" and DEL, which sort before "é" raw but after its "\u00e9" escape.
ODD = ["\u00e9t\u00e9", "\U0001f600", "\x01", "\ud800", 'q"', "b\\s", "~", "\x7f"]


def test_texts_written_from_models_are_their_documents_text(capsys, tmp_path):
    a, b, c, d, e, f, g, h = ODD
    # Four processes, the third empty; b and f are shared, f by three.
    labels = {
        b: {(1, 1), (2, 1)}, e: {(1, 2)}, f: {(1, 3), (2, 3), (4, 3)},
        c: {(2, 2)}, a: {(4, 1)}, d: {(4, 2)}, g: {(1, 4)}, h: {(4, 4)},
    }
    pairs = [(b, e), (e, f), (b, c), (c, f), (a, d), (d, f), (f, g), (f, h), (a, e)]
    events = posetdual.build_event_model(
        build_poset(ODD, pairs), 4, labels, allow_empty_process=True
    )
    # The zigzag of the checkpoint fixtures: d < b < g makes b useless.
    chains = [[e, b, a], [d, c, g, h], [f]]
    steps = [pair for chain in chains for pair in zip(chain, chain[1:])]
    order = build_poset(ODD, [*steps, (d, b), (b, g)])
    states = build_state_model(order, chains)
    attrs = {a: {"z": [1, {"y": None}], "b\\": 1.5}, g: {}, h: {"\ud800": "\U0001f600"}}
    event_models = [
        events,
        posetdual.build_event_model(build_poset([], []), 0, {}),
        posetdual.build_event_model(
            build_poset([a], []), 2, {a: {(2, 1)}}, allow_empty_process=True
        ),
    ]
    state_models = [
        states,
        build_state_model(order, chains, attrs),
        build_state_model(build_poset([d, a], []), [[d], [a]]),  # no relations
        build_state_model(build_poset([], []), []),
        es_transform(events),
    ]
    for m in event_models:
        assert traces.event_text(m) == defined_text(event_to_json(m))
    for sm in state_models:
        assert traces.state_text(sm) == defined_text(state_to_json(sm))
    marks = analysis.CheckpointMarking(((0, 1, 2), (0, 2, 3), (0,)))
    for engine in ("fast", "oracle", "both"):
        report = analysis.find_useless_checkpoints(states, marks, engine)
        text = analysis.checkpoint_report_text(states, marks, engine)
        assert text == defined_text(report.as_json())
    assert any(v.witness for v in report.verdicts)
    assert not all(v.useful for v in report.verdicts)

    # Through the CLI, -o writes the bytes stdout prints.
    for doc, direction in ((event_to_json(events), "es"), (state_to_json(states), "se")):
        path, out = tmp_path / f"{direction}.json", tmp_path / f"{direction}.out.json"
        write_trace(path, doc)
        argv = ["transform", str(path), "--direction", direction]
        code, text, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *argv, "-o", str(out)) == (0, "", "")
        assert out.read_text() == text
    assert text == traces.event_text(transforms.se_transform(states).event_model)


@pytest.mark.parametrize(
    "expr",
    [
        {"op": "attr", "proc": "x", "attr": "session", "cmp": "==", "value": 1},
        {"op": "and", "args": 5},
        {"op": "attr", "proc": True, "attr": "session", "cmp": "==", "value": 1},
        {"op": "index", "proc": 1, "cmp": "==", "value": True},
        {"op": "index", "proc": 1, "cmp": ["=="], "value": 1},
        {"op": "const", "value": "false"},
        {"op": "attr", "proc": 1, "attr": {"x": 1}, "cmp": "==", "value": 1},
        {"op": "agg", "fn": "sum", "attr": {"x": 1}, "cmp": "==", "value": 1},
        {"op": "index", "proc": 1, "cmp": "==", "value": 1, "extra": "x"},
        {"op": "and", "args": [{"op": "const", "value": True}], "extra": "x"},
        {"op": ["and"], "args": []},
    ],
    ids=[
        "proc-string", "args-number", "proc-bool", "index-value-bool", "cmp-list",
        "const-value-string", "attr-object", "agg-attr-object", "leaf-unknown-field",
        "and-unknown-field", "op-list",
    ],
)
def test_malformed_predicate_is_a_parse_error(capsys, tmp_path, fixtures_dir, expr):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"kind": "predicate", "version": 1, "expr": expr}))
    code, out, err = run_cli(
        capsys, "analyze", "predicate",
        "--model", str(fixtures_dir / "sessions_state.json"), "--pred", str(pred),
    )
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["--count", "--first"])
def test_deeply_nested_predicate_is_a_parse_error(capsys, tmp_path, fixtures_dir, mode):
    depth = 5000
    expr = '{"op": "not", "arg": ' * depth + '{"op": "const", "value": true}' + "}" * depth
    pred = tmp_path / "pred.json"
    pred.write_text('{"kind": "predicate", "version": 1, "expr": ' + expr + "}")
    code, out, err = run_cli(
        capsys, "analyze", "predicate",
        "--model", str(fixtures_dir / "sessions_state.json"), "--pred", str(pred), mode,
    )
    assert code == 3 and out == ""
    assert err == f"parse error: {pred} is nested too deeply\n"


@pytest.mark.parametrize("op", ["and", "or", "not"])
def test_deepest_parsed_connective_chain_runs_in_every_mode(capsys, tmp_path, fixtures_dir, op):
    # Compiling must take no more stack per level than parsing: the deepest
    # one-argument chain that is not a parse error runs in all three modes.
    model = str(fixtures_dir / "sessions_state.json")
    pred = tmp_path / "pred.json"
    leaf = '{"op": "attr", "proc": 1, "attr": "session", "cmp": "==", "value": 1}'
    opening, closing = (
        ('{"op": "not", "arg": ', "}") if op == "not" else (f'{{"op": "{op}", "args": [', "]}")
    )

    def run(depth, *mode):
        expr = opening * depth + leaf + closing * depth
        pred.write_text('{"kind": "predicate", "version": 1, "expr": ' + expr + "}")
        return run_cli(capsys, "analyze", "predicate", "--model", model, "--pred", str(pred), *mode)

    lo, hi = 1, 5000  # parsed, parse error
    while hi - lo > 1:
        mid = (lo + hi) // 2
        code, _, err = run(mid, "--count")
        if code == 3:
            assert err == f"parse error: {pred} is nested too deeply\n"
            hi = mid
        else:
            lo = mid
    for mode in (["--count"], ["--first"], []):
        code, out, err = run(lo, *mode)
        assert code == 0 and out and "Traceback" not in err, (lo, mode)


def test_deeply_nested_attrs_are_a_parse_error(capsys, tmp_path):
    depth = 3000
    path = tmp_path / "state.json"
    path.write_text(
        '{"kind": "state", "version": 1, "elements": ["a"], "chains": [["a"]], '
        '"attrs": {"a": {"x": ' + "[" * depth + "]" * depth + "}}}"
    )
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 3 and out == ""
    assert err == f"parse error: {path} is nested too deeply\n"


def analyze_argv(fixtures_dir, loader, edit, path):
    """Arguments of an ``analyze`` command that reads *path* through
    *loader*; *path* gets that loader's fixture bytes passed through *edit*."""
    files = {
        "model": fixtures_dir / "zigzag_state.json",
        "marks": fixtures_dir / "zigzag_marks.json",
        "predicate": fixtures_dir / "permits_pred.json",
    }
    path.write_bytes(edit(files[loader].read_bytes()))
    files[loader] = path
    if loader == "predicate":
        argv = ["analyze", "predicate", "--model", str(fixtures_dir / "sessions_state.json")]
        argv += ["--pred", str(files["predicate"])]
    else:
        argv = ["analyze", "checkpoints", "--model", str(files["model"])]
        argv += ["--marks", str(files["marks"])]
    return argv


@pytest.mark.parametrize("loader", ["model", "marks", "predicate"])
def test_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, fixtures_dir, loader):
    # Files are decoded as UTF-8 whatever the locale; a byte 0xff is no
    # UTF-8 and must not escape as a UnicodeDecodeError.
    bad = tmp_path / f"{loader}.json"
    argv = analyze_argv(fixtures_dir, loader, lambda data: b"\xff" + data, bad)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"parse error: {bad} is not UTF-8: ") and err.count("\n") == 1


@pytest.mark.parametrize("loader", ["model", "marks", "predicate"])
def test_integer_too_long_to_convert_is_a_parse_error(capsys, tmp_path, fixtures_dir, loader):
    # json raises a plain ValueError, not a JSONDecodeError, for an integer
    # of more digits than int() converts (4,300 by default).
    bad = tmp_path / f"{loader}.json"
    def edit(data):
        return data.replace(b'"version": 1', b'"version": ' + b"9" * 5000)

    argv = analyze_argv(fixtures_dir, loader, edit, bad)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"parse error: {bad} has an integer of more than ") and err.count("\n") == 1


def test_cuts_into_a_closed_pipe_is_an_output_error(tmp_path):
    # Six processes of seven events and no messages have 8**6 cuts, far
    # more than a pipe holds, so the writer meets the pipe closed after
    # one line: exit 4 with one line on stderr, and no traceback, not even
    # from the flush at interpreter exit.
    path = tmp_path / "grid.json"
    ids = [[f"p{i}e{k}" for k in range(1, 8)] for i in range(1, 7)]
    path.write_text(json.dumps({
        "kind": "event", "version": 1, "n": 6,
        "events": [
            {"id": e, "slots": [{"proc": i, "idx": k}]}
            for i, chain in enumerate(ids, start=1) for k, e in enumerate(chain, start=1)
        ],
        "edges": [pair for chain in ids for pair in zip(chain, chain[1:])],
    }))
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "posetdual", "cuts", str(path), "--family", "downsets"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b'{"cut": []}\n'
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (code, err) == (4, "error: stdout was closed by its reader\n")


def test_document_into_a_closed_pipe_is_an_output_error(fixtures_dir):
    # A single document sits in stdout's buffer until it is flushed; the
    # flush inside main meets the closed pipe, not the one at exit.
    read, write = os.pipe()
    os.close(read)
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "posetdual", "validate", str(fixtures_dir / "zigzag_state.json")]
    try:
        run = subprocess.run(cmd, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (4, b"error: stdout was closed by its reader\n")


def test_closed_stdout_leaks_no_descriptor(fixtures_dir, capsys):
    # In process, as tests and the benchmark call main: pointing stdout's
    # descriptor at the null device must leave no other descriptor open.
    def lowest_free_descriptor():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    read, write = os.pipe()
    os.close(read)
    before = lowest_free_descriptor()
    saved = sys.stdout
    sys.stdout = pipe = open(write, "w")
    try:
        code = main(["cuts", str(fixtures_dir / "message_pair_event.json"), "--family", "downsets"])
    finally:
        sys.stdout = saved
        pipe.close()
    assert (code, capsys.readouterr().err) == (4, "error: stdout was closed by its reader\n")
    assert lowest_free_descriptor() == before


def test_huge_declared_process_count_fails_at_the_first_empty_process(tmp_path):
    # The loader must not allocate per declared process: run in a child
    # with a 1 GB address-space cap, so a regression fails instead of
    # exhausting memory.
    path = tmp_path / "event.json"
    path.write_text(json.dumps({
        "kind": "event", "version": 1, "n": 10**12,
        "events": [{"id": "a", "slots": [{"proc": 1, "idx": 1}]}],
    }))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from posetdual.cli import main\n"
        f"sys.exit(main(['validate', {str(path)!r}]))\n"
    )
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 2, run.stderr
    error = json.loads(run.stdout)["error"]
    assert error == {"type": "EmptyProcess", "message": "process 2 has no events", "process": 2}


def test_huge_oracle_bound_allocates_no_cap(capsys, tmp_path, fixtures_dir):
    # 2 ** 10**12 does not fit in 1 GB: the child fails unless the oracle
    # compares the tuple count with the bound before it builds the cap.
    argv = [
        "analyze", "checkpoints", "--engine", "oracle",
        "--model", str(fixtures_dir / "zigzag_state.json"),
        "--marks", str(fixtures_dir / "zigzag_marks.json"),
    ]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from posetdual.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(posetdual.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, POSETDUAL_ORACLE_BOUND=str(10**12))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == expected


def test_unknown_property_is_a_usage_error(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys, "check", str(fixtures_dir / "sessions_state.json"),
        "--properties", "we,bogus",
    )
    assert code == 4 and out == ""
    assert err == "error: unknown properties ['bogus']\n"


@pytest.mark.parametrize(
    "chains, error",
    [
        ([["zzz"], ["b", "a"], ["a"]], "UnknownElement"),
        ([["b", "a"], ["c"]], "NotTotallyOrdered"),
        ([["a", "b"], ["b", "c"]], "ModelError"),
        ([["a", "b"]], "ModelError"),
        ([["a", "b"], [], ["c"]], "ModelError"),
    ],
    ids=["unknown", "descending", "overlap", "uncovered", "empty"],
)
@pytest.mark.parametrize(
    "command", [["validate"], ["cuts", "--family", "antichains"]], ids=["validate", "cuts"]
)
def test_poset_chains_are_validated(capsys, tmp_path, chains, error, command):
    path = tmp_path / "poset.json"
    data = {
        "kind": "poset", "version": 1, "elements": ["a", "b", "c"],
        "relations": [["a", "b"]], "chains": chains,
    }
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert json.loads(out)["error"]["type"] == error
    data["chains"] = [["a", "b"], ["c"]]
    path.write_text(json.dumps(data))
    assert run_cli(capsys, command[0], str(path), *command[1:])[0] == 0


@pytest.mark.parametrize(
    "value", ["abc", "-1", "", "9" * 5000], ids=["abc", "negative", "empty", "5000-digits"]
)
def test_bad_oracle_bound_is_a_usage_error(capsys, monkeypatch, fixtures_dir, value):
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", value)
    code, out, err = run_cli(capsys, "check", str(fixtures_dir / "pinch_state.json"))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "POSETDUAL_ORACLE_BOUND" in err


def test_negative_max_cuts_is_a_usage_error(capsys, fixtures_dir):
    code, out, err = run_cli(
        capsys, "cuts", str(fixtures_dir / "message_pair_event.json"),
        "--family", "downsets", "--max-cuts", "-1",
    )
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "--max-cuts" in err


def test_unwritable_output_is_a_usage_error(capsys, tmp_path, fixtures_dir):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "transform", str(fixtures_dir / "message_pair_event.json"),
        "--direction", "es", "-o", str(target),
    )
    assert code == 4 and out == "" and not target.exists()
    assert err.count("\n") == 1 and str(target) in err


@pytest.mark.parametrize("mode", ["--first", "--count", None])
@pytest.mark.parametrize(
    "expr",
    [
        {"op": "attr", "proc": 99, "attr": "x", "cmp": "==", "value": 1},
        {"op": "and", "args": [
            {"op": "index", "proc": 1, "cmp": ">=", "value": 0},
            {"op": "index", "proc": 99, "cmp": "==", "value": 0},
        ]},
    ],
    ids=["attr", "index"],
)
def test_predicate_process_out_of_range_is_a_parse_error(
    capsys, tmp_path, fixtures_dir, expr, mode
):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"kind": "predicate", "version": 1, "expr": expr}))
    argv = [
        "analyze", "predicate",
        "--model", str(fixtures_dir / "message_pair_state.json"), "--pred", str(pred),
    ]
    code, out, err = run_cli(capsys, *argv, *([mode] if mode else []))
    assert code == 3 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "process 99" in err and "Traceback" not in err
