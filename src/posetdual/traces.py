"""Trace file schemas: strict parsing and canonical JSON emission.

Three kinds of model files share one envelope: ``kind`` ("poset", "event" or
"state"), a mandatory integer ``version`` (currently 1), and the payload
fields listed in ``docs/formats.md``.  Unknown fields are rejected.  Emission
is canonical (sorted keys, sorted element/relation lists, two-space indent),
so dumping a loaded canonical file reproduces it byte for byte.

A document's canonical text is ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline.  :func:`state_to_json` and :func:`event_to_json` build the
model documents, and :func:`dumps_canonical` writes any document a value at
a time, for the CLI's small documents (reports, diagnostics, counts).
:func:`state_text` and :func:`event_text` write the same text of a model
straight from it, for the CLI's ``transform``: each name escaped once, each
cover pair, chain, event and slot through one fixed template, one join per
list, and no document built.

Event files list per-event slots; same-process ordering is implied by the
slot indices (the loader inserts the chain edges), while cross-process
causality must be given as explicit edges.  State files list explicit chains
whose order defines the per-process state indices.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import chain, repeat
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
_EVENT_FIELDS = frozenset({"id", "slots"})
_SLOT_FIELDS = frozenset({"proc", "idx"})


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


# The entry checks below run as C-level passes (``map`` over ``isinstance``
# and ``len``); a failure does not say which entry, so none is looked for.


def _string_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list")
    if not all(map(isinstance, value, repeat(str))):
        raise SchemaError(f"{what} entries must be strings")
    return value


def _pair_list(value: Any, what: str) -> list[list[str]]:
    """A copy of the ``[from, to]`` pairs, which the caller may extend."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list")
    if not (
        all(map(isinstance, value, repeat(list)))
        and all(map((2).__eq__, map(len, value)))
        and all(map(isinstance, chain.from_iterable(value), repeat(str)))
    ):
        raise SchemaError(f"{what} entries must be [from, to] string pairs")
    return value.copy()


def _element_list(data: Mapping[str, Any]) -> list[str]:
    elements = _string_list(data.get("elements", []), "'elements'")
    if len(set(elements)) != len(elements):
        dupes = sorted(e for e, count in Counter(elements).items() if count > 1)
        raise SchemaError(f"duplicate element ids {dupes}")
    return elements


def _chain_lists(value: Any) -> list[list[str]]:
    _require(isinstance(value, list), "'chains' must be a list")
    return [_string_list(c, "chain") for c in value]


def parse_poset(data: Mapping[str, Any]) -> Poset:
    elements = _element_list(data)
    relations = _pair_list(data.get("relations", []), "'relations'")
    chains = _chain_lists(data["chains"]) if "chains" in data else None
    poset = build_poset(elements, relations)
    if chains is not None:  # checked as a state trace's chains are, then dropped
        build_state_model(poset, chains)
    return poset


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
    twice: set[int] = set()  # processes on which some event has two slots
    for entry in raw_events:
        if not isinstance(entry, dict):
            raise SchemaError("event entries must be objects")
        if not _EVENT_FIELDS.issuperset(entry):
            unknown = sorted(set(entry) - _EVENT_FIELDS)
            raise SchemaError(f"unknown event fields {unknown}")
        eid = entry.get("id")
        if not isinstance(eid, str):
            raise SchemaError("event 'id' must be a string")
        if eid in labels:
            raise SchemaError(f"duplicate event id {eid!r}")
        slots = entry.get("slots")
        if not (isinstance(slots, list) and slots):
            raise SchemaError(f"event {eid!r} needs slots")
        parsed = set()
        at: dict[int, int] = {}
        for slot in slots:
            if not isinstance(slot, dict):
                raise SchemaError("slots must be objects")
            if not _SLOT_FIELDS.issuperset(slot):
                bad = sorted(set(slot) - _SLOT_FIELDS)
                raise SchemaError(f"unknown slot fields {bad}")
            proc, idx = slot.get("proc"), slot.get("idx")
            if not (_is_int(proc) and _is_int(idx)):
                raise SchemaError("slot 'proc' and 'idx' must be integers")
            parsed.add((proc, idx))
            per_proc.setdefault(proc, []).append((idx, eid))
            if at.setdefault(proc, idx) != idx:
                twice.add(proc)
        labels[eid] = parsed
    edges = _pair_list(data.get("edges", []), "'edges'")
    # Same-process ordering is implicit in the indices.  A process on which
    # an event has two slots gets no chain edges: they would order the event
    # before itself, and build_event_model names the fault.
    for proc, entries in per_proc.items():
        entries.sort()
        if proc in twice:
            continue
        for (k1, e1), (k2, e2) in zip(entries, entries[1:]):
            if k1 < k2:
                edges.append((e1, e2))
    allow_empty = data.get("allow_empty_process", False)
    _require(isinstance(allow_empty, bool), "'allow_empty_process' must be a boolean")
    poset = build_poset(labels.keys(), edges)
    return build_event_model(
        poset, n, labels, allow_empty_process=allow_empty, _per_proc=per_proc
    )


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
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError:  # an integer beyond sys.get_int_max_str_digits()
        raise SchemaError(
            f"{path} has an integer of more than"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise SchemaError(f"{path} is nested too deeply") from None


def state_to_json(sm: StateModel) -> dict:
    data: dict[str, Any] = {
        "kind": "state",
        "version": VERSION,
        "elements": sorted(sm.poset.elements),
        "relations": [list(c) for c in sm.poset.covers],
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
        "edges": [list(c) for c in m.poset.covers],
    }
    if any(m.chain_length(i) == 0 for i in range(1, m.n + 1)):
        data["allow_empty_process"] = True
    return data


# Canonical text is ``json.dumps(data, indent=2, sort_keys=True) + "\n"``.
# json writes an indented document in its pure-Python encoder, whose nested
# closures leave reference cycles behind on every call.  dumps_canonical
# writes the same text a value at a time off one explicit stack, without
# recursion and without closures, so it leaves nothing to the cyclic
# collector that ``cli.main`` pauses.

_ESCAPE = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# The scalars by exact type, each rendered as json renders it.
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}

# A document nested deeper than this goes to json.dumps whole, so that it
# meets json's own recursion limit, and a circular one meets json's check.
# The documents posetdual builds nest five deep, plus what nesting
# ``attrs`` values bring from the input.
_DEEPEST = 100
_NEWLINE = ["\n" + "  " * level for level in range(_DEEPEST + 1)]


class _Unsupported(Exception):
    """Something dumps_canonical leaves to json.dumps: a value other than
    str, exact int, float, bool, None, list, tuple and dict with str keys,
    or a container nested deeper than ``_DEEPEST``."""


def dumps_canonical(data: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Exactly ``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, with its
    ensure_ascii escapes and its ``NaN`` and ``Infinity``.  What this writer
    does not render goes to json.dumps whole, so every document gets json's
    text or json's exception.
    """
    try:
        return _render(data)
    except (_Unsupported, ValueError):  # ValueError: an int of too many digits
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _render(data: Any) -> str:
    # The stack holds what is still to be written, the next on top, as
    # (text before the value, value, its indent level), or as (a closing
    # bracket's text, None, None).
    parts: list[str] = []
    stack: list[tuple[str, Any, int | None]] = [("", data, 0)]
    pop = stack.pop
    while stack:
        head, value, level = pop()
        parts.append(head)
        if level is None:
            continue
        kind = type(value)
        render = _SCALARS.get(kind)
        if render is not None:
            parts.append(render(value))
            continue
        if level >= _DEEPEST:
            raise _Unsupported
        inner = _NEWLINE[level + 1]
        if kind is dict and {str}.issuperset(map(type, value)):
            keys = sorted(value)
            items = list(map(value.__getitem__, keys))
            heads = [",%s%s: " % (inner, key) for key in map(_ESCAPE, keys)]
            start, end = "{", "}"
        elif kind is list or kind is tuple:
            items = value
            heads = ["," + inner] * len(items)
            start, end = "[", "]"
        else:
            raise _Unsupported
        if not items:
            parts.append(start + end)
            continue
        heads[0] = start + heads[0][1:]
        end = _NEWLINE[level] + end
        kinds = set(map(type, items))
        render = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if render is not None:  # scalars of one type: all at once
            parts += map(str.__add__, heads, map(render, items))
            parts.append(end)
        else:
            stack.append((end, None, None))
            stack.extend(zip(reversed(heads), reversed(items), repeat(level + 1)))
    parts.append("\n")
    return "".join(parts)


# The canonical text of the two model documents, written straight from the
# model: each name is escaped once, each entry goes through one fixed
# template at its indent, and each list is one join.
_PAIR = "    [\n      %s,\n      %s\n    ]"
_NAMES = "    [\n      %s\n    ]"  # a list of names in a top-level list
_EVENT = '    {\n      "id": %s,\n      "slots": [\n%s\n      ]\n    }'
_SLOT = '        {\n          "idx": %d,\n          "proc": %d\n        }'
_ONE_SLOT_EVENT = _EVENT % ("%s", _SLOT)


def _items(body: str) -> str:
    """A list at the top level of a document, from its entries' joined text."""
    return "[\n" + body + "\n  ]" if body else "[]"


def state_text(sm: StateModel) -> str:
    """``dumps_canonical(state_to_json(sm))``, without building the document.

    A model with ``attrs`` (arbitrary JSON values) goes through the
    document.
    """
    if sm.attrs:
        return dumps_canonical(state_to_json(sm))
    p = sm.poset
    names = list(map(_ESCAPE, p.elements))
    name = dict(zip(p.elements, names)).__getitem__
    chains = [_NAMES % ",\n      ".join(map(name, chain)) for chain in sm.chains]
    elements = "    " + ",\n    ".join(names) if names else ""
    return (
        '{\n  "chains": %s,\n  "elements": %s,\n  "kind": "state",\n'
        '  "relations": %s,\n  "version": %d\n}\n'
        % (_items(",\n".join(chains)), _items(elements), _items(_pairs(p, names)), VERSION)
    )


def event_text(m: EventModel) -> str:
    """``dumps_canonical(event_to_json(m))``, without building the document."""
    p = m.poset
    names = list(map(_ESCAPE, p.elements))
    labels = m.labels
    events = []
    for e, name in zip(p.elements, names):
        label = labels[e]
        if len(label) == 1:  # most events: one template, no sort
            [(i, k)] = label
            events.append(_ONE_SLOT_EVENT % (name, k, i))
        else:
            events.append(_EVENT % (name, ",\n".join([_SLOT % (k, i) for i, k in sorted(label)])))
    return (
        '{\n%s  "edges": %s,\n  "events": %s,\n  "kind": "event",\n'
        '  "n": %s,\n  "version": %d\n}\n'
        % ("" if all(m.proc_events) else '  "allow_empty_process": true,\n',
           _items(_pairs(p, names)), _items(",\n".join(events)), json.dumps(m.n), VERSION)
    )


def _pairs(p: Poset, names: list[str]) -> str:
    """The joined cover pairs of *p*, its escaped *names* by index."""
    return ",\n".join([_PAIR % (names[v], names[w]) for v, ws in enumerate(p._upper) for w in ws])


def write_trace(path: str | Path, data: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps_canonical(data))
