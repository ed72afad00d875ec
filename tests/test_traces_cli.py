import json
import subprocess
import sys

import pytest

from posetdual import SchemaError, es_transform
from posetdual.cli import main
from posetdual.traces import (
    dumps_canonical,
    event_to_json,
    load_marks,
    load_trace,
    state_to_json,
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


def test_validate_parse_failure(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3 and "parse error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "x.json", "--direction", "sideways"])
    assert info.value.code == 4


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
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
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


@pytest.mark.parametrize(
    "expr",
    [
        {"op": "attr", "proc": "x", "attr": "session", "cmp": "==", "value": 1},
        {"op": "and", "args": 5},
        {"op": "attr", "proc": True, "attr": "session", "cmp": "==", "value": 1},
        {"op": "index", "proc": 1, "cmp": "==", "value": True},
        {"op": "index", "proc": 1, "cmp": ["=="], "value": 1},
    ],
    ids=["proc-string", "args-number", "proc-bool", "index-value-bool", "cmp-list"],
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


def test_bad_oracle_bound_is_a_usage_error(capsys, monkeypatch, fixtures_dir):
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", "abc")
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
