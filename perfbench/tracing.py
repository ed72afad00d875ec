"""The traced run: spans and counters recorded from the benchmark's side.

Each op is replayed as the calls its CLI command makes into the layers'
public functions (``replay``).  Spans go around those calls; calls that a
layer makes into another layer (``build_poset`` inside ``load_trace``,
``transition_graph`` inside ``se_transform``, ...) get spans by rebinding
the callee's name in the calling module for the duration of the traced run
(``Tracer.install``).  No posetdual file changes.

A span records its name, start, end, busy time, parent and op id.  For a
generator (the lattice enumerators and predicate detection) the busy time
is the time spent inside its ``next()`` calls, and the spans opened inside
them are its children.  A layer's self time is its busy time minus its
children's.

Counts come from a second replay with counting wrappers only
(``Counter.install``), so that counting ``Poset.less`` and ``comparable``
calls does not inflate the span times.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

from posetdual import analysis, cli, eventmodel, lattice, poset, statemodel, traces, transforms

# (module, attribute, span name): every binding through which one layer
# calls another.  statemodel's own bindings stay unwrapped, so the ic check
# keeps the we and psi work it repeats (ic_s ~ we_s + psi_s).
WRAPPED = [
    (traces, "load_trace", "traces.load_trace"),
    (traces, "load_marks", "traces.load_marks"),
    (traces, "load_predicate_data", "traces.load_predicate_data"),
    (traces, "state_to_json", "traces.state_to_json"),
    (traces, "event_to_json", "traces.event_to_json"),
    (traces, "dumps_canonical", "traces.dumps_canonical"),
    (traces, "build_poset", "poset.build_poset"),
    (transforms, "build_poset", "poset.build_poset"),
    (analysis, "build_poset", "poset.build_poset"),
    (poset, "width", "poset.width"),
    (lattice, "width", "poset.width"),
    (analysis, "width", "poset.width"),
    (traces, "build_event_model", "eventmodel.build_event_model"),
    (transforms, "build_event_model", "eventmodel.build_event_model"),
    (traces, "build_state_model", "statemodel.build_state_model"),
    (transforms, "build_state_model", "statemodel.build_state_model"),
    (analysis, "build_state_model", "statemodel.build_state_model"),
    (lattice, "check_width_extensible", "statemodel.check_width_extensible"),
    (analysis, "check_width_extensible", "statemodel.check_width_extensible"),
    (transforms, "es_transform", "transforms.es_transform"),
    (transforms, "se_transform", "transforms.se_transform"),
    (lattice, "se_transform", "transforms.se_transform"),
    (transforms, "transition_graph", "transforms.transition_graph"),
    (analysis, "transition_graph", "transforms.transition_graph"),
    (transforms, "strongly_connected_components", "transforms.strongly_connected_components"),
    (analysis, "strongly_connected_components", "transforms.strongly_connected_components"),
    (lattice, "enumerate_downsets", "lattice.enumerate_downsets"),
    (lattice, "enumerate_width_antichains", "lattice.enumerate_width_antichains"),
    (analysis, "enumerate_width_antichains", "lattice.enumerate_width_antichains"),
    (analysis, "detect_width_predicate", "analysis.detect_width_predicate"),
    (analysis, "find_useless_checkpoints", "analysis.find_useless_checkpoints"),
]
GENERATORS = {
    "lattice.enumerate_downsets",
    "lattice.enumerate_width_antichains",
    "analysis.detect_width_predicate",
}


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "busy", "items", "first")

    def __init__(self, sid, name, parent, op):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.start = self.end = None
        self.busy = 0.0
        self.items = 0
        self.first = None  # busy time until the first item (generators)

    def as_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: str | None = None
        self._patches = _Patches()

    def _new(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.op)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        s = self._new(name)
        self.stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.busy = s.end - s.start
            self.stack.pop()

    def _wrap(self, fn, name):
        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                return _TimedIter(self, self._new(name), fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def install(self):
        try:
            for module, attr, name in WRAPPED:
                self._patches.set(module, attr, self._wrap(getattr(module, attr), name))
            yield self
        finally:
            self._patches.restore()

    def self_times(self) -> dict[int, float]:
        own = {s.id: s.busy for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.busy
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_json()) + "\n")


class _TimedIter:
    """Wraps a generator; its span is busy only inside ``next()``."""

    def __init__(self, tracer: Tracer, span: Span, it):
        self.tracer, self.span, self.it = tracer, span, it

    def __iter__(self):
        return self

    def __next__(self):
        span, stack = self.span, self.tracer.stack
        stack.append(span)
        t0 = time.perf_counter()
        if span.start is None:
            span.start = t0
        try:
            item = next(self.it)
        finally:
            span.end = time.perf_counter()
            span.busy += span.end - t0
            stack.pop()
        span.items += 1
        if span.first is None:
            span.first = span.busy
        return item

    def close(self):
        self.it.close()


class Counter:
    """Deterministic work counts, taken in a replay of their own."""

    NAMES = (
        "poset.less_calls",
        "poset.comparable_calls",
        "poset.closure_pairs",
        "poset.covers",
        "eventmodel.state_less_calls",
        "transforms.tentative_edges",
        "transforms.sccs",
        "transforms.shared_events",
        "transforms.offending_components",
    )

    def __init__(self):
        self.counts = dict.fromkeys(self.NAMES, 0)
        self._patches = _Patches()

    def _bump(self, name, by=1):
        self.counts[name] += by

    @contextmanager
    def install(self):
        c = self._bump
        less, state_less = poset.Poset.less, eventmodel.EventModel.state_less
        comparable = poset.comparable

        def counted_less(p, a, b):
            c("poset.less_calls")
            return less(p, a, b)

        def counted_comparable(p, a, b):
            c("poset.comparable_calls")
            return comparable(p, a, b)

        def counted_state_less(m, a, b):
            c("eventmodel.state_less_calls")
            return state_less(m, a, b)

        def after(fn, record):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                record(result)
                return result
            return wrapper

        def on_poset(p):
            c("poset.covers", len(p.covers))
            c("poset.closure_pairs", sum(1 for _ in p.closure_pairs()))

        def on_graph(result):
            c("transforms.tentative_edges", sum(len(v) for v in result[1].values()))

        def on_outcome(outcome):
            if outcome.ok:
                shared = sum(1 for s in outcome.event_model.labels.values() if len(s) > 1)
                c("transforms.shared_events", shared)
            else:
                c("transforms.offending_components", len(outcome.report.components))

        hooks = {
            "poset.build_poset": on_poset,
            "transforms.transition_graph": on_graph,
            "transforms.strongly_connected_components": lambda comps: c("transforms.sccs", len(comps)),
            "transforms.se_transform": on_outcome,
        }
        try:
            self._patches.set(poset.Poset, "less", counted_less)
            self._patches.set(eventmodel.EventModel, "state_less", counted_state_less)
            for module in (poset, statemodel, analysis):
                self._patches.set(module, "comparable", counted_comparable)
            for module, attr, name in WRAPPED:
                if name in hooks:
                    self._patches.set(module, attr, after(getattr(module, attr), hooks[name]))
            yield self
        finally:
            self._patches.restore()


# --- the replay -------------------------------------------------------------


def replay(argv: list[str], sink, tracer: Tracer | None = None) -> dict:
    """Run the calls the CLI makes for *argv*, writing stdout to *sink*.

    Mirrors the ``cmd_*`` functions of posetdual.cli for the commands the
    workloads use; returns facts the per-layer metrics need.
    """
    args = cli.build_parser().parse_args(argv)
    command = args.func.__name__
    facts: dict = {}

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    if command == "cmd_check":
        _, sm = traces.load_trace(args.path)
        verdicts = {}
        with span("statemodel.check_omega1"):
            verdicts["omega1"] = statemodel.check_omega1(sm)
        with span("statemodel.check_omega2"):
            verdicts["omega2"] = statemodel.check_omega2(sm)
        with span("statemodel.check_omega3"):
            verdicts["omega3"] = statemodel.check_omega3(sm)
        with span("statemodel.check_psi"):
            verdicts["psi"] = statemodel.check_psi(sm)
        with span("statemodel.check_width_extensible"):
            verdicts["width_extensible"] = statemodel.check_width_extensible(sm.poset)
        with span("statemodel.check_interleaving_consistent"):
            verdicts["interleaving_consistent"] = statemodel.check_interleaving_consistent(sm.poset)
        sink.write(traces.dumps_canonical(statemodel.PropertyReport(**verdicts).as_json()))
    elif command == "cmd_transform":
        _, model = traces.load_trace(args.path)
        if args.direction == "es":
            sink.write(traces.dumps_canonical(traces.state_to_json(transforms.es_transform(model))))
        else:
            outcome = transforms.se_transform(model)
            if outcome.ok:
                sink.write(traces.dumps_canonical(traces.event_to_json(outcome.event_model)))
            else:
                sink.write(traces.dumps_canonical(outcome.report.as_json()))
    elif command == "cmd_cuts":
        kind, model = traces.load_trace(args.path)
        if args.family == "downsets":
            stream = lattice.enumerate_event_cuts(model)
        else:
            stream = lattice.enumerate_width_antichains(model)
        count = 0
        for cut in stream:
            sink.write(json.dumps({"cut": sorted(cut)}, sort_keys=True) + "\n")
            count += 1
        sink.write(json.dumps({"count": count}, sort_keys=True) + "\n")
    elif command == "cmd_analyze_predicate":
        _, model = traces.load_trace(args.model)
        pred = analysis.predicate_from_json(traces.load_predicate_data(args.pred))
        stream = analysis.detect_width_predicate(model, pred, [])
        if args.first:
            found = next(stream, None)
            stream.close()
            out = {"found": sorted(found) if found is not None else None}
        else:
            out = {"count": sum(1 for _ in stream)}
        sink.write(traces.dumps_canonical(out))
    elif command == "cmd_analyze_checkpoints":
        _, model = traces.load_trace(args.model)
        marking = analysis.CheckpointMarking(tuple(tuple(m) for m in traces.load_marks(args.marks)))
        report = analysis.find_useless_checkpoints(model, marking, engine=args.engine)
        facts["engine"] = report.engine
        sink.write(traces.dumps_canonical(report.as_json()))
    else:
        raise ValueError(f"no replay for {command}")
    return facts
