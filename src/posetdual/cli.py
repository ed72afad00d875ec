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

from . import analysis, lattice, statemodel, traces, transforms
from .errors import (
    ConfigError,
    GuardExceeded,
    ModelError,
    NotWidthExtensible,
    PosetDualError,
    SchemaError,
)
from .poset import Poset, oracle_bound
from .statemodel import StateModel

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_PARSE = 3
EXIT_USAGE = 4
EXIT_GUARD = 5


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


def _load(path: str):
    return traces.load_trace(path)


def cmd_validate(args) -> int:
    try:
        kind, model = _load(args.path)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
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
    try:
        kind, model = _load(args.path)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    want = "event" if args.direction == "es" else "state"
    if kind != want:
        print(
            f"error: --direction {args.direction} needs a {want} trace, got {kind}",
            file=sys.stderr,
        )
        return EXIT_USAGE
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
            print(
                f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr
            )
            return EXIT_USAGE
    else:
        _emit(out)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        kind, model = _load(args.path)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    if kind != "state":
        print(f"error: check needs a state trace, got {kind}", file=sys.stderr)
        return EXIT_USAGE
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    try:
        report = statemodel.run_property_checks(model, props)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PosetDualError as exc:  # e.g. enumeration fallback over the bound
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    _emit(report.as_json())
    return EXIT_OK


def cmd_cuts(args) -> int:
    if args.max_cuts < 0:
        print(
            f"error: --max-cuts must be non-negative, got {args.max_cuts}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        kind, model = _load(args.path)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC

    if args.family == "downsets":
        if kind == "event":
            stream = lattice.enumerate_event_cuts(model)
        elif kind == "poset":
            stream = lattice.enumerate_downsets(model[0])
        else:
            print("error: downsets need an event or poset trace", file=sys.stderr)
            return EXIT_USAGE
    else:
        if kind == "state":
            target: StateModel | Poset = model
        elif kind == "poset":
            target = model[0]
        else:
            print("error: antichains need a state or poset trace", file=sys.stderr)
            return EXIT_USAGE
        stream = lattice.enumerate_width_antichains(target)

    count = 0
    try:
        for cut in stream:
            if count >= args.max_cuts:
                raise GuardExceeded(f"more than {args.max_cuts} cuts")
            sys.stdout.write(
                json.dumps({"cut": sorted(cut)}, sort_keys=True) + "\n"
            )
            count += 1
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PosetDualError as exc:  # lazy streams fail on first pull
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    sys.stdout.write(json.dumps({"count": count}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_analyze_predicate(args) -> int:
    try:
        kind, model = _load(args.model)
        expr = traces.load_predicate_data(args.pred)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    if kind != "state":
        print("error: predicate detection needs a state trace", file=sys.stderr)
        return EXIT_USAGE
    try:
        pred = analysis.predicate_from_json(expr)
    except ModelError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    warnings: list = []
    try:
        stream = analysis.detect_width_predicate(model, pred, warnings)
        if args.first:
            found = next(stream, None)
            out = {"found": sorted(found) if found is not None else None}
        elif args.count:
            out = {"count": sum(1 for _ in stream)}
        else:
            cuts = [sorted(c) for c in stream]
            out = {"cuts": cuts, "count": len(cuts)}
    except NotWidthExtensible as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    if warnings:
        out["warnings"] = sorted(set(warnings))
    _emit(out)
    return EXIT_OK


def cmd_analyze_checkpoints(args) -> int:
    try:
        kind, model = _load(args.model)
        marks = traces.load_marks(args.marks)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
    if kind != "state":
        print("error: checkpoint analysis needs a state trace", file=sys.stderr)
        return EXIT_USAGE
    marking = analysis.CheckpointMarking(tuple(tuple(m) for m in marks))
    try:
        report = analysis.find_useless_checkpoints(model, marking, engine=args.engine)
    except PosetDualError as exc:
        _emit({"ok": False, "error": _diagnostic(exc)})
        return EXIT_SEMANTIC
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
        default="omega1,omega2,omega3,psi,we,ic",
        help="comma-separated subset of omega1,omega2,omega3,psi,we,ic",
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
