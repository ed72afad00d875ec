"""Trace file schemas: strict parsing and canonical JSON emission.

Three kinds of model files share one envelope: ``kind`` ("poset", "event" or
"state"), a mandatory integer ``version`` (currently 1), and the payload
fields listed in ``docs/formats.md``.  Unknown fields are rejected.  Emission
is canonical (sorted keys, sorted element/relation lists, two-space indent),
so dumping a loaded canonical file reproduces it byte for byte.

Event files list per-event slots; same-process ordering is implied by the
slot indices (the loader inserts the chain edges), while cross-process
causality must be given as explicit edges.  State files list explicit chains
whose order defines the per-process state indices.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Mapping

from .errors import SchemaError
from .eventmodel import EventModel, build_event_model
from .poset import Poset, build_poset
from .statemodel import StateModel, build_state_model

VERSION = 1

_ENVELOPE = {"kind", "version"}
_FIELDS = {
    "poset": {"elements", "relations", "chains"},
    "state": {"elements", "relations", "chains", "attrs"},
    "event": {"n", "events", "edges", "allow_empty_process"},
    "marks": {"marks"},
    "predicate": {"expr"},
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_int(value: Any) -> bool:
    # bool is an int subclass, but JSON true/false is not a number.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_envelope(data: Any, kinds: tuple[str, ...]) -> str:
    _require(isinstance(data, dict), "top level must be a JSON object")
    _require("version" in data, "missing mandatory 'version' field")
    version = data.get("version")
    _require(
        _is_int(version) and version == VERSION, f"unsupported version {version!r}"
    )
    kind = data.get("kind")
    _require(kind in kinds, f"expected kind in {sorted(kinds)}, got {kind!r}")
    allowed = _ENVELOPE | _FIELDS[kind]
    unknown = sorted(set(data) - allowed)
    _require(not unknown, f"unknown fields {unknown} for kind {kind!r}")
    return kind


def _string_list(value: Any, what: str) -> list[str]:
    _require(isinstance(value, list), f"{what} must be a list")
    _require(all(isinstance(v, str) for v in value), f"{what} entries must be strings")
    return value


def _pair_list(value: Any, what: str) -> list[tuple[str, str]]:
    _require(isinstance(value, list), f"{what} must be a list")
    out = []
    for entry in value:
        _require(
            isinstance(entry, list) and len(entry) == 2
            and all(isinstance(v, str) for v in entry),
            f"{what} entries must be [from, to] string pairs",
        )
        out.append((entry[0], entry[1]))
    return out


def _element_list(data: Mapping[str, Any]) -> list[str]:
    elements = _string_list(data.get("elements", []), "'elements'")
    dupes = sorted(e for e, count in Counter(elements).items() if count > 1)
    _require(not dupes, f"duplicate element ids {dupes}")
    return elements


def _chain_lists(value: Any) -> list[list[str]]:
    _require(isinstance(value, list), "'chains' must be a list")
    return [_string_list(c, "chain") for c in value]


def parse_poset(data: Mapping[str, Any]) -> tuple[Poset, list[list[str]] | None]:
    elements = _element_list(data)
    relations = _pair_list(data.get("relations", []), "'relations'")
    chains = _chain_lists(data["chains"]) if "chains" in data else None
    poset = build_poset(elements, relations)
    if chains is not None:  # checked as a state trace's chains are
        build_state_model(poset, chains)
    return poset, chains


def parse_state(data: Mapping[str, Any]) -> StateModel:
    _require("chains" in data, "state traces require 'chains'")
    elements = _element_list(data)
    relations = _pair_list(data.get("relations", []), "'relations'")
    chains = _chain_lists(data["chains"])
    for chain in chains:
        relations.extend(zip(chain, chain[1:]))
    attrs = data.get("attrs", {})
    _require(isinstance(attrs, dict), "'attrs' must map state ids to objects")
    for state, mapping in attrs.items():
        _require(isinstance(state, str), "'attrs' keys must be state ids")
        _require(isinstance(mapping, dict), f"attrs for {state!r} must be an object")
    poset = build_poset(elements, relations)
    return build_state_model(poset, chains, attrs)


def parse_event(data: Mapping[str, Any]) -> EventModel:
    _require("n" in data, "event traces require 'n'")
    n = data["n"]
    _require(_is_int(n) and n >= 0, "'n' must be a non-negative integer")
    raw_events = data.get("events", [])
    _require(isinstance(raw_events, list), "'events' must be a list")
    labels: dict[str, set[tuple[int, int]]] = {}
    per_proc: dict[int, list[tuple[int, str]]] = {}
    for entry in raw_events:
        _require(isinstance(entry, dict), "event entries must be objects")
        unknown = sorted(set(entry) - {"id", "slots"})
        _require(not unknown, f"unknown event fields {unknown}")
        eid = entry.get("id")
        _require(isinstance(eid, str), "event 'id' must be a string")
        _require(eid not in labels, f"duplicate event id {eid!r}")
        slots = entry.get("slots")
        _require(isinstance(slots, list) and slots, f"event {eid!r} needs slots")
        parsed = set()
        for slot in slots:
            _require(isinstance(slot, dict), "slots must be objects")
            bad = sorted(set(slot) - {"proc", "idx"})
            _require(not bad, f"unknown slot fields {bad}")
            proc, idx = slot.get("proc"), slot.get("idx")
            _require(
                _is_int(proc) and _is_int(idx),
                "slot 'proc' and 'idx' must be integers",
            )
            parsed.add((proc, idx))
            per_proc.setdefault(proc, []).append((idx, eid))
        labels[eid] = parsed
    edges = _pair_list(data.get("edges", []), "'edges'")
    # Same-process ordering is implicit in the indices.
    for entries in per_proc.values():
        entries.sort()
        for (k1, e1), (k2, e2) in zip(entries, entries[1:]):
            if k1 < k2:
                edges.append((e1, e2))
    allow_empty = data.get("allow_empty_process", False)
    _require(isinstance(allow_empty, bool), "'allow_empty_process' must be a boolean")
    poset = build_poset(labels.keys(), edges)
    return build_event_model(poset, n, labels, allow_empty_process=allow_empty)


def load_trace(path: str | Path):
    """Load a model file; returns ``(kind, model)``.

    Raises SchemaError for malformed JSON or schema violations; model
    validation errors propagate as their own types.
    """
    data = _read_json(path)
    kind = _check_envelope(data, ("poset", "event", "state"))
    if kind == "poset":
        return kind, parse_poset(data)
    if kind == "state":
        return kind, parse_state(data)
    return kind, parse_event(data)


def load_marks(path: str | Path) -> list[list[int]]:
    data = _read_json(path)
    _check_envelope(data, ("marks",))
    marks = data.get("marks")
    _require(isinstance(marks, list), "'marks' must be a list of index lists")
    out = []
    for i, idxs in enumerate(marks, start=1):
        _require(
            isinstance(idxs, list) and all(_is_int(k) for k in idxs),
            f"marks for process {i} must be a list of integers",
        )
        out.append(list(idxs))
    return out


def load_predicate_data(path: str | Path) -> dict:
    data = _read_json(path)
    _check_envelope(data, ("predicate",))
    expr = data.get("expr")
    _require(isinstance(expr, dict), "'expr' must be a predicate object")
    return expr


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def poset_to_json(p: Poset, chains: list[list[str]] | None = None) -> dict:
    data: dict[str, Any] = {
        "kind": "poset",
        "version": VERSION,
        "elements": sorted(p.elements),
        "relations": [list(c) for c in sorted(p.covers)],
    }
    if chains is not None:
        data["chains"] = [list(c) for c in chains]
    return data


def state_to_json(sm: StateModel) -> dict:
    data: dict[str, Any] = {
        "kind": "state",
        "version": VERSION,
        "elements": sorted(sm.poset.elements),
        "relations": [list(c) for c in sorted(sm.poset.covers)],
        "chains": [list(c) for c in sm.chains],
    }
    if sm.attrs:
        data["attrs"] = {
            s: dict(sorted(sm.attrs[s].items())) for s in sorted(sm.attrs)
        }
    return data


def event_to_json(m: EventModel) -> dict:
    events = [
        {
            "id": e,
            "slots": [
                {"proc": i, "idx": k} for i, k in sorted(m.labels[e])
            ],
        }
        for e in sorted(m.poset.elements)
    ]
    data: dict[str, Any] = {
        "kind": "event",
        "version": VERSION,
        "n": m.n,
        "events": events,
        "edges": [list(c) for c in sorted(m.poset.covers)],
    }
    if any(m.chain_length(i) == 0 for i in range(1, m.n + 1)):
        data["allow_empty_process"] = True
    return data


def dumps_canonical(data: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_trace(path: str | Path, data: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps_canonical(data))
