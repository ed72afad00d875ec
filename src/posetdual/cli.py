"""Command-line front end.

Exit codes: 0 ok, 2 semantic failure (invalid model, failed conversion),
3 parse/schema error, 4 usage or kind mismatch, 5 enumeration guard.
All structured output goes to stdout and is byte-deterministic for a given
input file; human-oriented notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
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
from .poset import bitset_decoder, oracle_bound

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
        poset, _ = model
        summary["elements"] = len(poset.elements)
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


def _cut_line(members: str) -> str:
    return '{"cut": [' + members + "]}\n"


def _downset_lines(poset) -> Iterator[str]:
    """One ``cuts`` line per downset, from a table of JSON-encoded names."""
    members = bitset_decoder([json.dumps(e) for e in poset.elements], ", ".join)
    for mask in lattice.downset_masks(poset):
        yield _cut_line(", ".join(members(mask)))


def _antichain_lines(target) -> Iterator[str]:
    """One ``cuts`` line per maximum antichain, from its frontier vector."""
    sm, vectors = lattice.width_frontiers(target)
    names = sm.poset.elements  # sorted, so sorting indices sorts the names
    encoded = [json.dumps(s) for s in names]
    columns = [[sm.poset.index(s) for s in chain] for chain in sm.chains]
    for vector in vectors:
        chosen = sorted([col[k] for col, k in zip(columns, vector)])
        yield _cut_line(", ".join([encoded[j] for j in chosen]))


def cmd_cuts(args) -> int:
    _need(args.max_cuts >= 0, f"--max-cuts must be non-negative, got {args.max_cuts}")
    kind, model = traces.load_trace(args.path)
    if args.family == "downsets":
        _need(kind in ("event", "poset"), "downsets need an event or poset trace")
        lines = _downset_lines(model.poset if kind == "event" else model[0])
    else:
        _need(kind in ("state", "poset"), "antichains need a state or poset trace")
        lines = _antichain_lines(model if kind == "state" else model[0])

    count = 0
    chunk: list[str] = []
    try:
        for line in lines:
            if count >= args.max_cuts:
                raise GuardExceeded(f"more than {args.max_cuts} cuts")
            chunk.append(line)
            count += 1
            if len(chunk) == _CHUNK:
                sys.stdout.write("".join(chunk))
                chunk.clear()
    finally:  # the lines before a guard or an error are still written
        sys.stdout.write("".join(chunk))
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
        out = {"count": sum(1 for _ in analysis.satisfying_frontiers(model, pred, warnings))}
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
