"""Command-line front end.

Exit codes: 0 ok, 2 semantic failure (invalid model, failed conversion),
3 parse/schema error, 4 usage, kind mismatch, a bad POSETDUAL_ORACLE_BOUND
or output error, 5 enumeration guard.
All structured output goes to stdout and is byte-deterministic for a given
input file; human-oriented notes go to stderr.

``main`` pauses Python's cyclic garbage collector for the one command it
runs and restores the caller's setting on every exit.  A command builds
acyclic data only (posets, clocks, graphs, documents), which reference
counting frees as it goes, so the collector's passes over it would find
nothing; the only cycle seen, a chained exception from a file that is not
JSON, is freed once the collector resumes.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import operator
import os
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import analysis, lattice, statemodel, traces, transforms
from .errors import (
    ConfigError,
    GuardExceeded,
    PosetDualError,
    PredicateError,
    SchemaError,
    UsageError,
)
from .poset import oracle_bound

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_PARSE = 3
EXIT_USAGE = 4
EXIT_GUARD = 5

# The error boundary of main: the first class an error is an instance of
# gives its exit code and stderr prefix.  Any other PosetDualError is a
# semantic failure, reported as a JSON diagnostic on stdout with exit 2.
_EXITS = (
    (SchemaError, EXIT_PARSE, "parse error"),
    (PredicateError, EXIT_PARSE, "parse error"),
    (UsageError, EXIT_USAGE, "error"),
    (ConfigError, EXIT_USAGE, "error"),
    (GuardExceeded, EXIT_GUARD, "guard"),
)

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(data) -> None:
    sys.stdout.write(traces.dumps_canonical(data))


def _diagnostic(exc: PosetDualError) -> dict:
    info: dict = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("process", "witness"):
        value = getattr(exc, attr, None)
        if value is not None:
            info[attr] = sorted(value) if isinstance(value, frozenset) else value
    report = getattr(exc, "report", None)
    if report is not None:
        info["report"] = report.as_json()
    return info


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def cmd_validate(args) -> int:
    kind, model = traces.load_trace(args.path)
    summary: dict = {"ok": True, "kind": kind}
    if kind == "event":
        summary["events"] = len(model.poset.elements)
        summary["n"] = model.n
    elif kind == "state":
        summary["states"] = len(model.poset.elements)
        summary["n"] = model.n
    else:
        summary["elements"] = len(model.elements)
    _emit(summary)
    return EXIT_OK


def cmd_transform(args) -> int:
    kind, model = traces.load_trace(args.path)
    want = "event" if args.direction == "es" else "state"
    _need(kind == want, f"--direction {args.direction} needs a {want} trace, got {kind}")
    if args.direction == "es":
        text = traces.state_text(transforms.es_transform(model))
    else:
        outcome = transforms.se_transform(model)
        if not outcome.ok:
            _emit(outcome.report.as_json())
            return EXIT_SEMANTIC
        text = traces.event_text(outcome.event_model)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    kind, model = traces.load_trace(args.path)
    _need(kind == "state", f"check needs a state trace, got {kind}")
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    _emit(statemodel.run_property_checks(model, props).as_json())
    return EXIT_OK


def _downset_runs(poset) -> tuple[tuple[str, ...], Iterator[bytes]]:
    """The names of a poset and its downsets in runs of bitsets
    (:func:`posetdual.lattice._downsets`)."""
    return poset.elements, lattice._downsets(poset)


def _antichain_runs(target) -> tuple[tuple[str, ...], Iterator[bytes]]:
    """The state names of a width-extensible poset and its maximum
    antichains in runs of bitsets (:func:`posetdual.lattice._antichains`)."""
    sm = statemodel.require_width_extensible(target)
    return sm.poset.elements, lattice._antichains(sm)


# What goes between the names of two ``cuts`` lines.
_SEP = ']}\n{"cut": ['


def _cut_lines(names) -> Callable[[bytes], str]:
    """The function from a run of bitsets over *names* to their ``cuts``
    lines, in one string.

    Each name is encoded once, with the ", " it takes after another name,
    and each 16-bit column of the run is looked up in its field's table.
    The parts of all lines go into one list, a column at a time, and one
    join makes the text.  No part may start a line with ", ": where the
    anchor column (the first one not all zero) has no zero entry, every
    cut's first name lies in it (:mod:`posetdual.lattice`), and the anchor
    is read from a table without the leading ", "; otherwise each cut's
    names are joined and their first separator cut off.
    """
    later = lattice._tables([", " + json.dumps(name) for name in names], "".join)
    first = [lattice._Table(lambda value, t=t: t[value][2:]) for t in later]
    fields = len(later)

    def lines(run) -> str:
        columns = lattice._columns(run, fields)
        count = len(columns[0])
        anchor = next((f for f, column in enumerate(columns) if any(column)), fields)
        if anchor == fields:  # every cut is empty
            return '{"cut": []}\n' * count
        heads = list(map(first[anchor].__getitem__, columns[anchor]))
        if "" in heads:  # "" is the part of 0 alone
            cuts = zip(*[map(t.__getitem__, column) for t, column in zip(later, columns)])
            text = _SEP.join(map(operator.itemgetter(slice(2, None)), map("".join, cuts)))
            return '{"cut": [' + text + "]}\n"
        parts = ([_SEP] + [""] * fields) * count
        parts[0] = '{"cut": ['
        parts[anchor + 1::fields + 1] = heads
        for f in range(anchor + 1, fields):
            parts[f + 1::fields + 1] = map(later[f].__getitem__, columns[f])
        parts.append("]}\n")
        return "".join(parts)

    return lines


def cmd_cuts(args) -> int:
    _need(args.max_cuts >= 0, f"--max-cuts must be non-negative, got {args.max_cuts}")
    kind, model = traces.load_trace(args.path)
    if args.family == "downsets":
        _need(kind in ("event", "poset"), "downsets need an event or poset trace")
        names, runs = _downset_runs(model.poset if kind == "event" else model)
    else:
        _need(kind in ("state", "poset"), "antichains need a state or poset trace")
        names, runs = _antichain_runs(model)

    lines, width = _cut_lines(names), lattice._width(len(names))
    room = args.max_cuts * width  # bytes of runs still within the cap
    for run in runs:  # each run's lines are written before the next is read
        if len(run) > room:
            if room:
                sys.stdout.write(lines(run[:room]))
            raise GuardExceeded(f"more than {args.max_cuts} cuts")
        sys.stdout.write(lines(run))
        room -= len(run)
    count = args.max_cuts - room // width
    sys.stdout.write(json.dumps({"count": count}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_analyze_predicate(args) -> int:
    kind, model = traces.load_trace(args.model)
    expr = traces.load_predicate_data(args.pred)
    _need(kind == "state", "predicate detection needs a state trace")
    pred = analysis.predicate_from_json(expr)
    if not (args.first or args.count):
        sys.stdout.write(analysis.predicate_listing_text(model, pred))
        return EXIT_OK
    warnings: list = []
    if args.first:
        found = analysis.first_width_predicate(model, pred, warnings)
        out = {"found": sorted(found) if found is not None else None}
    else:
        out = {"count": analysis.count_width_predicate(model, pred, warnings)}
    if warnings:
        out["warnings"] = sorted(set(warnings))
    _emit(out)
    return EXIT_OK


def cmd_analyze_checkpoints(args) -> int:
    kind, model = traces.load_trace(args.model)
    marks = traces.load_marks(args.marks)
    _need(kind == "state", "checkpoint analysis needs a state trace")
    marking = analysis.CheckpointMarking(tuple(tuple(m) for m in marks))
    sys.stdout.write(analysis.checkpoint_report_text(model, marking, engine=args.engine))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="posetdual", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a trace file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transform", help="convert between event and state models")
    p.add_argument("path")
    p.add_argument("--direction", choices=("es", "se"), required=True)
    p.add_argument("-o", "--output", help="write the result to a file")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check", help="run property checks on a state model")
    p.add_argument("path")
    p.add_argument(
        "--properties",
        default=",".join(statemodel.PROPERTIES),
        help="comma-separated subset of " + ",".join(statemodel.PROPERTIES),
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cuts", help="stream consistent cuts or maximum antichains")
    p.add_argument("path")
    p.add_argument("--family", choices=("downsets", "antichains"), required=True)
    p.add_argument("--max-cuts", type=int, default=10**6)
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("analyze", help="predicate detection and checkpoint analysis")
    asub = p.add_subparsers(dest="analysis", required=True)

    q = asub.add_parser("predicate", help="find global states satisfying a predicate")
    q.add_argument("--model", required=True)
    q.add_argument("--pred", required=True)
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--first", action="store_true")
    mode.add_argument("--count", action="store_true")
    q.set_defaults(func=cmd_analyze_predicate)

    q = asub.add_parser("checkpoints", help="classify checkpoints as useful/useless")
    q.add_argument("--model", required=True)
    q.add_argument("--marks", required=True)
    q.add_argument("--engine", choices=("fast", "oracle", "both"), default="fast")
    q.set_defaults(func=cmd_analyze_checkpoints)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main uses: built on the first call, then reused, because
    building one costs far more than parsing with it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The cyclic collector is paused for the command (module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader that has gone is met here, not at exit
    except BrokenPipeError:
        # What stdout still buffers would fail again when the interpreter
        # flushes it at exit, so it goes to the null device; a caller's own
        # stdout object is left in place.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        print("error: stdout was closed by its reader", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()
    return code


def _run(args) -> int:
    try:
        oracle_bound()
        return args.func(args)
    except PosetDualError as exc:
        for cls, code, prefix in _EXITS:
            if isinstance(exc, cls):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
