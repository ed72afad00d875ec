"""The workloads: seeded input files, the CLI ops run on them, and the check
each op's output must pass.

Each workload puts a different layer of posetdual on the critical path:

* ``verify``   - ``check`` with the six default properties on large state
  traces: statemodel checks and poset comparisons/width dominate.
* ``convert``  - ``transform`` both ways and fast checkpoint analysis on
  mid-size traces, plus non-convertible traces (pinch compositions) that
  take the failure branch of ``se``: closure, the tentative event graph and
  its SCCs, and canonical emission dominate; no property check runs.
* ``enumerate`` - ``cuts`` and ``analyze predicate`` on small-width traces
  with tens of thousands of global states: per-state work in lattice,
  analysis and the CLI's per-cut lines dominates.

Expected outputs come from the benchmark's own clocks (see gen.py), never
from posetdual.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

PROPERTIES = ("omega1", "omega2", "omega3", "psi", "we", "ic")


@dataclass
class Output:
    """What one op produced; stdout text is kept only for ops with keep=True."""

    rc: int | None
    seconds: float
    digest: str
    out_bytes: int
    lines: int
    tail: str
    text: str | None
    stderr: str


@dataclass
class Op:
    name: str
    kind: str  # metric group, e.g. "check" or "transform_es"
    argv: list[str]
    rc: int
    check: Callable[[Output], str | None]
    keep: bool = False  # retain stdout text (bounded single documents only)
    items: int = 0  # cut lines expected, for the per-line rates


@dataclass
class Workload:
    name: str
    ops: list[Op]
    traces: list[str]  # model trace files, loaded by the set-up step


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def coords(state_id: str) -> gen.Slot:
    i, r = state_id.split(".")
    return int(i), int(r)


def _write(path: Path, doc: dict) -> str:
    text = gen.dumps_canonical(doc)
    path.write_text(text)
    return text


def _median_run(rng: random.Random, candidates: int, **kw) -> gen.Run:
    """Of several runs drawn for one shape, the one of median crossing density.

    The cost of the state-side checks follows how densely the chains cross,
    so this keeps a workload's cost steady from seed to seed.
    """
    runs = [gen.gen_run(rng, **kw) for _ in range(candidates)]
    density = [gen.crossing_pairs(run.state_down(), run.n) for run in runs]
    return runs[sorted(range(candidates), key=density.__getitem__)[candidates // 2]]


def _expect_bytes(text: str) -> Callable[[Output], str | None]:
    want, size = digest(text), len(text.encode())

    def check(out: Output) -> str | None:
        if out.digest != want:
            return f"output differs from the expected document ({out.out_bytes} vs {size} bytes)"
        return None

    return check


def _expect_doc(doc: dict) -> Callable[[Output], str | None]:
    def check(out: Output) -> str | None:
        got = json.loads(out.text)
        return None if got == doc else f"got {json.dumps(got)[:200]}"

    return check


# --- verify -----------------------------------------------------------------

VERIFY_SHAPES = [
    # name, processes, events per process, messages, share of shared events
    ("asc-8x60", 8, 60, 150, 0.0),
    ("barrier-8x60", 8, 60, 150, 0.2),
    ("asc-16x40", 16, 40, 200, 0.0),
]


def _check_verdicts(run: gen.Run, down) -> Callable[[Output], str | None]:
    """An ASC run passes all six properties; a barrier run fails exactly
    psi and ic, with witnesses that the benchmark's clocks confirm."""
    failing = {"psi", "ic"} if run.shared_events else set()

    def lt(a, b):
        return gen.less(down, a, b)

    def check(out: Output) -> str | None:
        doc = json.loads(out.text)
        if sorted(doc) != sorted(PROPERTIES):
            return f"properties {sorted(doc)}"
        for prop in PROPERTIES:
            if doc[prop]["ok"] != (prop not in failing):
                return f"{prop} verdict {doc[prop]['ok']}"
        if not failing:
            return None
        a, b, c, d = (coords(s) for s in doc["psi"]["witness"])
        (i, s), (j, t) = d, b
        if a != (i, s - 1) or c != (j, t - 1) or not (lt(a, b) and lt(c, d)):
            return f"psi witness {doc['psi']['witness']} is not a lockstep crossing"
        if run.at.get((i, s)) != run.at.get((j, t)):
            return f"psi witness {doc['psi']['witness']} is not a shared event"
        a, b, c, d = (coords(s) for s in doc["ic"]["witness"])
        if len({a, b, c, d}) != 4 or not (lt(a, b) and lt(c, d) and lt(a, d) and lt(c, b)):
            return f"ic witness {doc['ic']['witness']} is not a lockstep crossing"
        return None

    return check


def build_verify(rng: random.Random, out_dir: Path) -> Workload:
    ops, traces = [], []
    for name, n, k, m, shared in VERIFY_SHAPES:
        run = _median_run(rng, 25, n=n, k=k, messages=m, shared_frac=shared)
        down = run.state_down()
        path = out_dir / f"{name}.state.json"
        _write(path, gen.state_doc(down, run.lengths))
        traces.append(str(path))
        ops.append(
            Op(f"check/{name}", "check", ["check", str(path)], 0, _check_verdicts(run, down), keep=True)
        )
    return Workload("verify", ops, traces)


# --- convert ----------------------------------------------------------------

CONVERT_SHAPES = [
    # name, share of shared events, composed with the pinch gadget too
    ("asc-a", 0.0, True),
    ("asc-b", 0.0, False),
    ("barrier-a", 0.2, True),
    ("barrier-b", 0.2, False),
]
CONVERT_SIZE = dict(n=8, k=60, messages=150)
MARK_DENSITY = 0.75


def _check_checkpoints(down, marks, useful) -> Callable[[Output], str | None]:
    n = len(marks)
    marked = {(i, r) for i, idxs in enumerate(marks, start=1) for r in idxs}

    def check(out: Output) -> str | None:
        doc = json.loads(out.text)
        if doc.get("engine") != "fast":
            return f"engine {doc.get('engine')!r}"
        seen = set()
        for v in doc["verdicts"]:
            s = (v["proc"], v["index"])
            seen.add(s)
            if v["state"] != gen.sid(s) or v["useful"] != useful.get(s):
                return f"verdict {v['state']} useful={v['useful']}"
            if not v["useful"]:
                continue
            w = sorted(coords(x) for x in v["witness"])
            if (
                [x[0] for x in w] != list(range(1, n + 1))
                or s not in w
                or not set(w) <= marked
                or any(not gen.concurrent(down, x, y) for x in w for y in w if x < y)
            ):
                return f"witness {v['witness']} of {v['state']} is not a global checkpoint"
        if seen != marked:
            return "verdicts do not cover the marks"
        useless = sorted(gen.sid(s) for s, ok in useful.items() if not ok)
        if doc["useless"] != useless:
            return f"useless {doc['useless'][:8]}"
        return None

    return check


def build_convert(rng: random.Random, out_dir: Path) -> Workload:
    ops, traces = [], []
    for name, shared, pinch in CONVERT_SHAPES:
        run = _median_run(rng, 25, shared_frac=shared, **CONVERT_SIZE)
        down = run.state_down()
        event_path, state_path = out_dir / f"{name}.event.json", out_dir / f"{name}.state.json"
        event_text = _write(event_path, run.event_doc())
        state_text = _write(state_path, gen.state_doc(down, run.lengths))
        marks = gen.gen_marks(rng, run.lengths, MARK_DENSITY)
        marks_path = out_dir / f"{name}.marks.json"
        _write(marks_path, {"kind": "marks", "version": 1, "marks": marks})
        traces += [str(event_path), str(state_path)]
        ops.append(
            Op(f"es/{name}", "transform_es", ["transform", str(event_path), "--direction", "es"],
               0, _expect_bytes(state_text))
        )
        ops.append(
            Op(f"se/{name}", "transform_se", ["transform", str(state_path), "--direction", "se"],
               0, _expect_bytes(event_text))
        )
        ops.append(
            Op(f"checkpoints/{name}", "checkpoints",
               ["analyze", "checkpoints", "--model", str(state_path), "--marks", str(marks_path),
                "--engine", "fast"],
               0, _check_checkpoints(down, marks, gen.useful_checkpoints(down, marks)), keep=True)
        )
        if pinch:
            pinched_down, cycle = gen.add_pinch(down, run.n)
            pinch_path = out_dir / f"{name}.pinch.state.json"
            _write(pinch_path, gen.state_doc(pinched_down, run.lengths + [2, 1]))
            traces.append(str(pinch_path))
            report = {
                "error": "not-width-extensible",
                "components": [{"chain": run.n + 1, "nodes": [list(x) for x in cycle]}],
            }
            ops.append(
                Op(f"se/{name}+pinch", "transform_se",
                   ["transform", str(pinch_path), "--direction", "se"],
                   2, _expect_doc(report), keep=True)
            )
    return Workload("convert", ops, traces)


# --- enumerate --------------------------------------------------------------

ENUMERATE_SHAPES = [
    # name, processes, events per process, target number of global states
    ("6x12", 6, 12, 12_000),
    ("5x12", 5, 12, 25_000),
    ("6x11", 6, 11, 50_000),
]
ENUMERATE_SHARED = 0.06  # a few barriers
COUNT_TOLERANCE = 0.03


def _run_with_cuts(rng: random.Random, n: int, k: int, target: int) -> gen.Run:
    """A run whose number of consistent cuts is within 3% of *target*.

    Messages only remove cuts, so the shortest prefix of a drawn message
    list that brings the count down to the target is found by bisection;
    the draw is repeated until that count lands in the window.
    """
    best = None
    for _ in range(200):
        base = gen.gen_run(rng, n, k, 60, shared_frac=ENUMERATE_SHARED, window=2 * n)
        lo, hi = 0, len(base.messages)
        while lo < hi:
            mid = (lo + hi) // 2
            if gen.Run(n, base.events, base.messages[:mid]).count_cuts() <= target * (1 + COUNT_TOLERANCE):
                hi = mid
            else:
                lo = mid + 1
        run = gen.Run(n, base.events, base.messages[:lo])
        miss = abs(run.count_cuts() - target) / target
        if best is None or miss < best[0]:
            best = (miss, run)
        if miss <= COUNT_TOLERANCE:
            break
    return best[1]


_CMP = {">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b}


def _holds(expr: dict, chosen: list[dict]) -> bool:
    """The clause semantics of docs/formats.md for the clauses used here."""
    op = expr["op"]
    if op == "and":
        return all(_holds(a, chosen) for a in expr["args"])
    if op == "attr":
        return _CMP[expr["cmp"]](chosen[expr["proc"] - 1][expr["attr"]], expr["value"])
    if op == "agg":
        return _CMP[expr["cmp"]](sum(c[expr["attr"]] for c in chosen), expr["value"])
    raise ValueError(op)


def build_enumerate(rng: random.Random, out_dir: Path) -> Workload:
    ops, traces = [], []
    for name, n, k, target in ENUMERATE_SHAPES:
        run = _run_with_cuts(rng, n, k, target)
        down = run.state_down()
        attrs = {s: {"load": rng.randint(0, 9), "progress": s[1]} for s in down}
        event_path, state_path = out_dir / f"{name}.event.json", out_dir / f"{name}.state.json"
        _write(event_path, run.event_doc())
        _write(state_path, gen.state_doc(down, run.lengths, attrs))
        traces += [str(event_path), str(state_path)]
        count_expr = {"op": "and", "args": [
            {"op": "attr", "proc": 1, "attr": "load", "cmp": ">=", "value": 3},
            {"op": "agg", "fn": "sum", "attr": "load", "cmp": "<=", "value": 5 * n},
        ]}
        # Every process in its final state: only the top global state
        # matches, the last state an enumeration from the bottom reaches.
        first_expr = {"op": "and", "args": [
            {"op": "attr", "proc": i, "attr": "progress", "cmp": ">=", "value": top}
            for i, top in enumerate(run.lengths, start=1)
        ]}
        paths = {}
        for tag, expr in (("count", count_expr), ("first", first_expr)):
            paths[tag] = out_dir / f"{name}.{tag}.pred.json"
            _write(paths[tag], {"kind": "predicate", "version": 1, "expr": expr})
        cuts = matches = 0
        for frontier in run.frontiers():
            cuts += 1
            matches += _holds(count_expr, [attrs[(i, r)] for i, r in enumerate(frontier, start=1)])

        def check_lines(out: Output, cuts=cuts) -> str | None:
            if out.lines != cuts + 1 or out.tail != json.dumps({"count": cuts}) + "\n":
                return f"{out.lines - 1} cut lines, tail {out.tail.strip()!r}; expected {cuts}"
            return None

        ops += [
            Op(f"downsets/{name}", "downsets", ["cuts", str(event_path), "--family", "downsets"],
               0, check_lines, items=cuts),
            Op(f"antichains/{name}", "antichains", ["cuts", str(state_path), "--family", "antichains"],
               0, check_lines, items=cuts),
            Op(f"predicate-count/{name}", "predicate_count",
               ["analyze", "predicate", "--model", str(state_path), "--pred", str(paths["count"]), "--count"],
               0, _expect_doc({"count": matches}), keep=True),
            Op(f"predicate-first/{name}", "predicate_first",
               ["analyze", "predicate", "--model", str(state_path), "--pred", str(paths["first"]), "--first"],
               0, _expect_doc({"found": sorted(f"{i}.{top}" for i, top in enumerate(run.lengths, 1))}),
               keep=True),
        ]
    return Workload("enumerate", ops, traces)


BUILDERS = {"verify": build_verify, "convert": build_convert, "enumerate": build_enumerate}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    out_dir.mkdir(parents=True, exist_ok=True)
    # The workload name is mixed into the seed so workloads draw independently.
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, out_dir)
