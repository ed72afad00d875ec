"""Every command against the generator's own truth.

``perfbench/gen.py`` (imported read only, as CI's scale smokes do) draws a
computation as events in one global order, computes its vector clocks, and
derives from those clocks alone the canonical state and event documents,
the number of consistent cuts (``count_cuts``), their frontiers
(``frontiers``), the useful checkpoints of a marking
(``useful_checkpoints``) and concurrency (``concurrent``).  It shares no
code with posetdual: no loader, no ``build_poset``, no ``Poset``.  So this
module is the whole-command oracle; the per-layer references are in
``tests/reference.py``.

Runs: for ``t`` in ``0 .. 399``, ``rng = Random(f"truth:{t}")`` draws 1 to
5 processes, 1 to 7 events on each, 0 to ``2nk`` messages and a shared
fraction of 0, 0.2 or 0.5; then ``gen.gen_run(rng, n, k, messages,
shared)`` and ``gen.gen_marks(rng, lengths, 0.5)``.  Through ``cli.main``,
for every run:

* ``transform --direction es`` of gen's event document prints gen's state
  document, and ``--direction se`` of the state document prints the event
  document, byte for byte, with exit 0;
* ``cuts --family downsets`` on the event document and ``cuts --family
  antichains`` on the state document each print ``count_cuts()`` lines and
  that count; the antichains, as sets of states, are the frontiers
  ``[1,k_1] .. [n,k_n]`` of ``frontiers()``;
* ``analyze checkpoints`` names a state useful iff ``useful_checkpoints``
  does, with every witness one marked state per process, holding the
  state, pairwise ``concurrent`` under gen's clocks;
* ``check --properties we`` holds, as it must on every computation.

Floors: at least 150 runs with shared events, 250 with two or more
processes and a message, 100 with a useless checkpoint, and 50,000 cuts
in all (177, 282, 129 and 74,461 are compared).

Predicates, on the same 400 runs with a load of 0 to 9 drawn for every
state from ``Random(f"truth-pred:{t}")``, which also draws the clauses:

* ``analyze predicate --count`` of an ``and`` of an ``attr`` clause and a
  ``sum`` (counted a block of the cut walk at a time) and of an ``or``
  with a ``not`` (counted one global state at a time) prints the number of
  ``frontiers()`` on which :func:`holds`, an evaluator of the clause
  language written here, holds;
* ``--first`` of an ``and`` of one to three ``attr`` and ``index`` clauses
  on distinct processes prints the least frontier on which it holds, the
  per-process minimum of those frontiers, which must itself hold (such
  predicates are closed under meets), or null when none does.

Floors: at least 200 counts strictly between 0 and the number of cuts for
each of the two counted predicates, and at least 200 first matches and 80
runs without one (252, 246, 274 and 126 are compared).

Time budget: 60 s for each of the two tests; the module takes about 4 s
on a 2-CPU VM.
"""

import json
import operator
import random
import sys
import time
from pathlib import Path

from posetdual.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

RUNS = 400
BUDGET_S = 60.0


def gen_case(t):
    """The run and the marks of seed *t*."""
    rng = random.Random(f"truth:{t}")
    n, k = rng.randint(1, 5), rng.randint(1, 7)
    run = gen.gen_run(rng, n, k, rng.randint(0, 2 * n * k), rng.choice((0.0, 0.2, 0.5)))
    return run, gen.gen_marks(rng, run.lengths, 0.5)


def write(path, doc):
    text = gen.dumps_canonical(doc)
    path.write_text(text)
    return text


def slot(name):
    i, r = name.split(".")
    return int(i), int(r)


def test_commands_equal_the_generators_truth(tmp_path, capsys):
    event_path, state_path = tmp_path / "event.json", tmp_path / "state.json"
    marks_path = tmp_path / "marks.json"

    def run_cli(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    counts = {"shared": 0, "messages": 0, "useless": 0, "cuts": 0}
    start = time.perf_counter()
    for t in range(RUNS):
        run, marks = gen_case(t)
        down = run.state_down()
        event_text = write(event_path, run.event_doc())
        state_text = write(state_path, gen.state_doc(down, run.lengths))
        write(marks_path, {"kind": "marks", "version": 1, "marks": marks})

        assert run_cli("transform", event_path, "--direction", "es") == (0, state_text), t
        assert run_cli("transform", state_path, "--direction", "se") == (0, event_text), t

        cuts = run.count_cuts()
        tail = json.dumps({"count": cuts}) + "\n"
        code, out = run_cli("cuts", event_path, "--family", "downsets")
        assert (code, out.count("\n"), out[-len(tail):]) == (0, cuts + 1, tail), t
        code, out = run_cli("cuts", state_path, "--family", "antichains")
        assert (code, out.count("\n"), out[-len(tail):]) == (0, cuts + 1, tail), t
        got = {frozenset(json.loads(line)["cut"]) for line in out.splitlines()[:-1]}
        want = {frozenset(f"{i}.{k}" for i, k in enumerate(f, start=1)) for f in run.frontiers()}
        assert got == want, t

        code, out = run_cli("analyze", "checkpoints", "--model", state_path, "--marks", marks_path)
        assert code == 0, t
        useful = gen.useful_checkpoints(down, marks)
        verdicts = json.loads(out)["verdicts"]
        assert {(v["proc"], v["index"]): v["useful"] for v in verdicts} == useful, t
        for v in verdicts:
            if v["useful"]:
                w = sorted(map(slot, v["witness"]))
                assert [i for i, _ in w] == list(range(1, run.n + 1)), (t, v)
                assert (v["proc"], v["index"]) in w, (t, v)
                assert all(r in marks[i - 1] for i, r in w), (t, v)
                assert all(gen.concurrent(down, x, y) for x in w for y in w if x < y), (t, v)

        assert run_cli("check", state_path, "--properties", "we") == (
            0, gen.dumps_canonical({"we": {"ok": True}})
        ), t

        counts["shared"] += bool(run.shared_events)
        counts["messages"] += run.n > 1 and bool(run.messages)
        counts["useless"] += not all(useful.values())
        counts["cuts"] += cuts
    elapsed = time.perf_counter() - start
    # Shared events, messages between processes, useless checkpoints and
    # enough cuts must all be compared.
    assert counts["shared"] >= 150 and counts["messages"] >= 250, counts
    assert counts["useless"] >= 100 and counts["cuts"] >= 50_000, counts
    assert elapsed < BUDGET_S, elapsed


CMP = {"<": operator.lt, "<=": operator.le, "==": operator.eq, "!=": operator.ne,
       ">=": operator.ge, ">": operator.gt}


def holds(expr, frontier, load):
    """The clause language on a frontier (one state index per process),
    *load* the attribute ``load`` of each state ``(i, k)``."""
    op = expr["op"]
    if op == "and":
        return all(holds(arg, frontier, load) for arg in expr["args"])
    if op == "or":
        return any(holds(arg, frontier, load) for arg in expr["args"])
    if op == "not":
        return not holds(expr["arg"], frontier, load)
    if op == "agg":  # a sum of loads
        got = sum(load[i, k] for i, k in enumerate(frontier, start=1))
    elif op == "attr":
        got = load[expr["proc"], frontier[expr["proc"] - 1]]
    else:  # index
        got = frontier[expr["proc"] - 1]
    return CMP[expr["cmp"]](got, expr["value"])


def predicates(rng, n, k):
    """Two predicates to count, one of each way of counting, and a local
    conjunction to find the least match of."""
    def attr(proc):
        return {"op": "attr", "proc": proc, "attr": "load",
                "cmp": rng.choice(sorted(CMP)), "value": rng.randint(0, 9)}

    def index(proc):
        return {"op": "index", "proc": proc, "cmp": rng.choice(sorted(CMP)),
                "value": rng.randint(0, k)}

    procs = range(1, n + 1)
    by_blocks = {"op": "and", "args": [
        attr(rng.choice(procs)),
        {"op": "agg", "fn": "sum", "attr": "load", "cmp": rng.choice(("<=", ">=")),
         "value": rng.randint(3 * n, 6 * n)},
    ]}
    by_states = {"op": "or", "args": [
        attr(rng.choice(procs)), {"op": "not", "arg": index(rng.choice(procs))},
    ]}
    local = {"op": "and", "args": [
        rng.choice((attr, index))(proc)
        for proc in rng.sample(procs, rng.randint(1, min(3, n)))
    ]}
    return by_blocks, by_states, local


def test_predicates_equal_the_generators_truth(tmp_path, capsys):
    state_path, pred_path = tmp_path / "state.json", tmp_path / "pred.json"

    def run_cli(expr, mode):
        write(pred_path, {"kind": "predicate", "version": 1, "expr": expr})
        code = main(["analyze", "predicate", "--model", str(state_path),
                     "--pred", str(pred_path), mode])
        return code, json.loads(capsys.readouterr().out)

    counts = {"by blocks": 0, "by states": 0, "found": 0, "none": 0}
    start = time.perf_counter()
    for t in range(RUNS):
        run, _ = gen_case(t)
        down = run.state_down()
        rng = random.Random(f"truth-pred:{t}")
        load = {s: rng.randint(0, 9) for s in sorted(down)}
        attrs = {s: {"load": v} for s, v in load.items()}
        write(state_path, gen.state_doc(down, run.lengths, attrs))
        by_blocks, by_states, local = predicates(rng, run.n, max(run.lengths))
        frontiers = list(run.frontiers())

        for name, expr in (("by blocks", by_blocks), ("by states", by_states)):
            want = sum(holds(expr, f, load) for f in frontiers)
            assert run_cli(expr, "--count") == (0, {"count": want}), (t, expr)
            counts[name] += 0 < want < len(frontiers)

        matches = [f for f in frontiers if holds(local, f, load)]
        found = None
        if matches:
            least = tuple(map(min, zip(*matches)))
            assert least in matches, (t, local)
            found = sorted(f"{i}.{k}" for i, k in enumerate(least, start=1))
        assert run_cli(local, "--first") == (0, {"found": found}), (t, local)
        counts["found" if matches else "none"] += 1
    elapsed = time.perf_counter() - start
    # Both ways of counting must meet counts that are neither 0 nor all,
    # and --first must meet runs with a match and runs without one.
    assert counts["by blocks"] >= 200 and counts["by states"] >= 200, counts
    assert counts["found"] >= 200 and counts["none"] >= 80, counts
    assert elapsed < BUDGET_S, elapsed
