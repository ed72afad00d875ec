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
import itertools
import json
import operator
import os
import sys
from typing import Iterator

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

# Cut lines go to stdout in chunks of this many: one write per chunk, and a
# chunk stays a few tens of kB however many cuts there are.
_CHUNK = 256


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
        out = traces.state_to_json(transforms.es_transform(model))
    else:
        outcome = transforms.se_transform(model)
        if not outcome.ok:
            _emit(outcome.report.as_json())
            return EXIT_SEMANTIC
        out = traces.event_to_json(outcome.event_model)
    if args.output:
        try:
            traces.write_trace(args.output, out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        _emit(out)
    return EXIT_OK


def cmd_check(args) -> int:
    kind, model = traces.load_trace(args.path)
    _need(kind == "state", f"check needs a state trace, got {kind}")
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    _emit(statemodel.run_property_checks(model, props).as_json())
    return EXIT_OK


def _between(bitsets, names) -> Iterator[str]:
    """Per bitset over *names*, its members as they stand between the
    brackets of a ``cuts`` line: JSON-encoded, comma-separated, in order.

    Each name is encoded once, with the ", " it takes after another name,
    and the first separator of a cut is cut off.
    """
    fields = lattice._named(bitsets, [", " + json.dumps(name) for name in names], "".join)
    return map(operator.itemgetter(slice(2, None)), map("".join, fields))


def _downset_cuts(poset) -> Iterator[str]:
    """Per downset, its names between the brackets of a ``cuts`` line."""
    return _between(lattice._downsets(poset), poset.elements)


def _antichain_cuts(target) -> Iterator[str]:
    """Per maximum antichain, its names between the brackets of a ``cuts`` line."""
    sm = statemodel.require_width_extensible(target)
    return _between(lattice._antichains(sm), sm.poset.elements)


def _cut_lines(cuts: list[str]) -> str:
    """The ``cuts`` lines of a nonempty chunk of cuts, in one string.

    One join puts the line breaks and brackets between the cuts' names.
    The chunk is emptied, so a chunk whose write fails is not written again.
    """
    names = ']}\n{"cut": ['.join(cuts)
    cuts.clear()
    return '{"cut": [' + names + "]}\n"


def cmd_cuts(args) -> int:
    _need(args.max_cuts >= 0, f"--max-cuts must be non-negative, got {args.max_cuts}")
    kind, model = traces.load_trace(args.path)
    if args.family == "downsets":
        _need(kind in ("event", "poset"), "downsets need an event or poset trace")
        cuts = _downset_cuts(model.poset if kind == "event" else model)
    else:
        _need(kind in ("state", "poset"), "antichains need a state or poset trace")
        cuts = _antichain_cuts(model)

    cap, count = args.max_cuts, 0
    chunk: list[str] = []
    try:
        while True:
            # extend keeps the cuts taken before an error in the stream
            chunk.extend(itertools.islice(cuts, min(_CHUNK, cap - count)))
            if not chunk:
                break
            count += len(chunk)
            sys.stdout.write(_cut_lines(chunk))
        if next(cuts, None) is not None:
            raise GuardExceeded(f"more than {cap} cuts")
    finally:  # the lines before a guard or an error are still written
        if chunk:
            sys.stdout.write(_cut_lines(chunk))
    sys.stdout.write(json.dumps({"count": count}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_analyze_predicate(args) -> int:
    kind, model = traces.load_trace(args.model)
    expr = traces.load_predicate_data(args.pred)
    _need(kind == "state", "predicate detection needs a state trace")
    pred = analysis.predicate_from_json(expr)
    warnings: list = []
    if args.first:
        found = analysis.first_width_predicate(model, pred, warnings)
        out = {"found": sorted(found) if found is not None else None}
    elif args.count:
        out = {"count": analysis.count_width_predicate(model, pred, warnings)}
    else:
        cuts = [sorted(c) for c in analysis.detect_width_predicate(model, pred, warnings)]
        out = {"cuts": cuts, "count": len(cuts)}
    if warnings:
        out["warnings"] = sorted(set(warnings))
    _emit(out)
    return EXIT_OK


def cmd_analyze_checkpoints(args) -> int:
    kind, model = traces.load_trace(args.model)
    marks = traces.load_marks(args.marks)
    _need(kind == "state", "checkpoint analysis needs a state trace")
    marking = analysis.CheckpointMarking(tuple(tuple(m) for m in marks))
    report = analysis.find_useless_checkpoints(model, marking, engine=args.engine)
    _emit(report.as_json())
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
