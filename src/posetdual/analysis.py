"""Application layer: global predicate detection and checkpoint analysis.

Predicates here are *frontier-spanning*: they are evaluated on global states
that pick exactly one local state per process, i.e. on the maximum antichains
of the state model.  The clause language is a small closed AST (per-process
attribute and index comparisons, sum/count aggregates, boolean connectives)
serialized as JSON; library callers may instead pass a plain callable.

Detection runs on frontier vectors (one state index per process) from the
cut enumeration of :mod:`posetdual.lattice`.  A predicate is compiled once
into per-process columns of verdicts, values and warnings, so evaluating it
on a global state costs O(clauses) lookups and builds no names.  The first
match of a conjunction of per-process clauses (Garg & Waldecker, 1994) is
found without enumerating: it is the least global state all of whose states
pass their clauses, found by advancing per-process indices along the chain
clocks in O(states x n^2) steps.  The definitional evaluation on named
states (``_evaluate``) stays as the reference the fast paths are tested
against.

Checkpoint analysis takes a marking of local states (initial and final state
of every process must be marked), restricts the model to the marked states,
and classifies each checkpoint as useful (member of some global checkpoint,
i.e. of some size-n antichain of the restriction) or useless.  Two engines
are provided: a definitional oracle that scans all one-per-process tuples,
and a fast engine that reads the verdicts off the cycle structure of the
tentative event graph of the restriction - a checkpoint is useless exactly
when the transitions entering and leaving it are strongly connected.  The
fast engine runs in time linear in that graph and must agree with the oracle
everywhere; disagreement is a bug by definition.  The restriction's order is
closed from one pair per marked state and chain, read off the chain clocks.
"""

from __future__ import annotations

import itertools
import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    BadMarking,
    ModelError,
    OracleBoundExceeded,
    PredicateError,
)

# enumerate_width_antichains is not called here any more; the name stays bound
# in this module because perfbench/tracing.py wraps it by this binding.
from .lattice import enumerate_width_antichains, frontier_vectors  # noqa: F401

# width and check_width_extensible are not called here any more; the names
# stay bound in this module because perfbench/tracing.py wraps them by these
# bindings.
from .poset import Comparability, build_poset, comparable, oracle_bound, width  # noqa: F401
from .statemodel import (  # noqa: F401
    StateModel,
    build_state_model,
    check_omega1,
    check_omega2,
    check_width_extensible,
    require_width_extensible,
)
from .transforms import strongly_connected_components, transition_graph

log = logging.getLogger(__name__)

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


Warn = Callable[[str], None]
#: A compiled predicate: (frontier vector, warning sink) -> verdict.
Test = Callable[[Sequence[int], Warn], bool]


class Predicate:
    """Base class of the closed predicate AST.

    ``evaluate`` runs on one global state given by name (the reference
    semantics); ``compile`` turns the predicate into a :data:`Test` on the
    frontier vectors of one model, with the same verdicts and warnings.
    """

    def evaluate(self, ctx: "EvalContext") -> bool:
        raise NotImplementedError

    def compile(self, sm: StateModel) -> Test:
        raise NotImplementedError

    def as_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class EvalContext:
    sm: StateModel
    chosen: Mapping[int, str]  # process -> chosen state id
    warnings: list = field(default_factory=list)

    def attr(self, proc: int, name: str):
        state = self.chosen[proc]
        attrs = self.sm.attrs.get(state, {})
        if name not in attrs:
            self.warn(f"state {state!r} has no attribute {name!r}")
            return None
        return attrs[name]

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)
        log.warning(msg)

    def compare(self, cmp: str, got, value) -> bool:
        return _compare(cmp, got, value, self.warn)


class _Probe(EvalContext):
    """A context that collects warnings without logging them.

    Compiling evaluates every state up front; a compiled predicate logs a
    warning only when it replays it for a global state it evaluates.
    """

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)


def _probe(sm: StateModel, proc: int, state: str, fn: Callable[[EvalContext], object]):
    """``fn`` on a context that chooses *state* for *proc*, and its warnings."""
    ctx = _Probe(sm=sm, chosen={proc: state})
    return fn(ctx), tuple(ctx.warnings)


def _compare(cmp: str, got, value, warn: Warn) -> bool:
    try:
        return _CMP[cmp](got, value)
    except TypeError:
        warn(f"cannot compare {got!r} {cmp} {value!r}")
        return False


def _check_proc(proc: int) -> int:
    if proc < 1:
        raise PredicateError(f"process numbers are 1-based, got {proc}")
    return proc


class _LocalClause(Predicate):
    """A clause on the chosen state of one process ``proc``."""

    proc: int

    def column(self, sm: StateModel) -> list[tuple[object, tuple[str, ...]]]:
        """Verdict and warnings of the clause for each state of its process.

        Raises PredicateError when *sm* has no process ``proc``.
        """
        if not 1 <= self.proc <= sm.n:
            raise PredicateError(
                f"predicate names process {self.proc}, but the model has "
                f"{sm.n} processes"
            )
        return [
            _probe(sm, self.proc, s, self.evaluate) for s in sm.chains[self.proc - 1]
        ]

    def compile(self, sm):
        col, i = self.column(sm), self.proc - 1

        def test(vector, warn):
            truth, msgs = col[vector[i]]
            for msg in msgs:
                warn(msg)
            return truth

        return test


@dataclass(frozen=True)
class AttrCmp(_LocalClause):
    """Compare an attribute of the chosen state of one process."""

    proc: int
    attr: str
    cmp: str
    value: object

    def evaluate(self, ctx):
        got = ctx.attr(self.proc, self.attr)
        if got is None:
            return False
        return ctx.compare(self.cmp, got, self.value)

    def as_json(self):
        return {
            "op": "attr",
            "proc": self.proc,
            "attr": self.attr,
            "cmp": self.cmp,
            "value": self.value,
        }


@dataclass(frozen=True)
class IndexCmp(_LocalClause):
    """Compare the chain index of the chosen state of one process."""

    proc: int
    cmp: str
    value: int

    def evaluate(self, ctx):
        _, k = ctx.sm.coords(ctx.chosen[self.proc])
        return ctx.compare(self.cmp, k, self.value)

    def as_json(self):
        return {"op": "index", "proc": self.proc, "cmp": self.cmp, "value": self.value}


@dataclass(frozen=True)
class AggCmp(Predicate):
    """Aggregate an attribute over all chosen states and compare.

    ``fn`` is ``sum`` (numeric total) or ``count`` (number of truthy values).
    A chosen state missing the attribute makes the clause false.
    """

    fn: str
    attr: str
    cmp: str
    value: object

    def evaluate(self, ctx):
        values = []
        for proc in sorted(ctx.chosen):
            got = ctx.attr(proc, self.attr)
            if got is None:
                return False
            values.append(got)
        return self._holds(values, ctx.warn)

    def _holds(self, values: list, warn: Warn) -> bool:
        try:
            agg = sum(values) if self.fn == "sum" else sum(1 for v in values if v)
        except TypeError:
            warn(f"cannot aggregate {self.attr!r} values {values!r}")
            return False
        return _compare(self.cmp, agg, self.value, warn)

    def compile(self, sm):
        # Per process and state: the attribute value (None when missing or
        # null, which makes the clause false) and the missing-attribute warning.
        cols = [
            [_probe(sm, i, s, lambda ctx: ctx.attr(i, self.attr)) for s in chain]
            for i, chain in enumerate(sm.chains, start=1)
        ]
        holds = self._holds

        def test(vector, warn):
            values = []
            for col, k in zip(cols, vector):
                got, msgs = col[k]
                for msg in msgs:
                    warn(msg)
                if got is None:
                    return False
                values.append(got)
            return holds(values, warn)

        return test

    def as_json(self):
        return {
            "op": "agg",
            "fn": self.fn,
            "attr": self.attr,
            "cmp": self.cmp,
            "value": self.value,
        }


@dataclass(frozen=True)
class And(Predicate):
    args: tuple[Predicate, ...]

    def evaluate(self, ctx):
        return all(a.evaluate(ctx) for a in self.args)

    def compile(self, sm):
        tests = [a.compile(sm) for a in self.args]

        def test(vector, warn):
            for t in tests:
                if not t(vector, warn):
                    return False
            return True

        return test

    def as_json(self):
        return {"op": "and", "args": [a.as_json() for a in self.args]}


@dataclass(frozen=True)
class Or(Predicate):
    args: tuple[Predicate, ...]

    def evaluate(self, ctx):
        return any(a.evaluate(ctx) for a in self.args)

    def compile(self, sm):
        tests = [a.compile(sm) for a in self.args]

        def test(vector, warn):
            for t in tests:
                if t(vector, warn):
                    return True
            return False

        return test

    def as_json(self):
        return {"op": "or", "args": [a.as_json() for a in self.args]}


@dataclass(frozen=True)
class Not(Predicate):
    arg: Predicate

    def evaluate(self, ctx):
        return not self.arg.evaluate(ctx)

    def compile(self, sm):
        inner = self.arg.compile(sm)
        return lambda vector, warn: not inner(vector, warn)

    def as_json(self):
        return {"op": "not", "arg": self.arg.as_json()}


@dataclass(frozen=True)
class Const(Predicate):
    value: bool

    def evaluate(self, ctx):
        return self.value

    def compile(self, sm):
        return lambda vector, warn: self.value

    def as_json(self):
        return {"op": "const", "value": self.value}


def predicate_from_json(data: dict) -> Predicate:
    """Parse the JSON clause language into the AST; raises PredicateError."""
    if not isinstance(data, dict) or "op" not in data:
        raise PredicateError("predicate node must be an object with an 'op'")
    op = data["op"]
    try:
        if op == "attr":
            return AttrCmp(
                _check_proc(_field(data, "proc", int)),
                _field(data, "attr", str),
                _cmp_name(data["cmp"]),
                data["value"],
            )
        if op == "index":
            return IndexCmp(
                _check_proc(_field(data, "proc", int)),
                _cmp_name(data["cmp"]),
                _field(data, "value", int),
            )
        if op == "agg":
            fn = data["fn"]
            if fn not in ("sum", "count"):
                raise PredicateError(f"unknown aggregate {fn!r}")
            return AggCmp(fn, _field(data, "attr", str), _cmp_name(data["cmp"]), data["value"])
        if op == "and":
            return And(_args(data))
        if op == "or":
            return Or(_args(data))
        if op == "not":
            return Not(predicate_from_json(data["arg"]))
        if op == "const":
            return Const(_field(data, "value", bool))
    except KeyError as exc:
        raise PredicateError(f"predicate op {op!r} is missing field {exc}") from None
    raise PredicateError(f"unknown predicate op {op!r}")


def _args(data: dict) -> tuple[Predicate, ...]:
    args = data["args"]
    if not isinstance(args, list):
        raise PredicateError(f"predicate field 'args' must be a list, got {args!r}")
    return tuple(predicate_from_json(a) for a in args)


_KINDS = {int: "an integer", str: "a string", bool: "a boolean"}


def _field(data: dict, key: str, kind: type):
    """``data[key]``, which must be a JSON value of *kind*."""
    value = data[key]
    # bool is an int subclass, but JSON true/false is not a number.
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise PredicateError(f"predicate field {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def _cmp_name(name: str) -> str:
    if not isinstance(name, str) or name not in _CMP:
        raise PredicateError(f"unknown comparator {name!r}")
    return name


PredicateLike = Predicate | Callable[[StateModel, frozenset[str]], bool]


def _evaluate(
    sm: StateModel,
    pred: PredicateLike,
    antichain: frozenset[str],
    warnings: list,
) -> bool:
    if isinstance(pred, Predicate):
        chosen = {sm.coords(s)[0]: s for s in antichain}
        ctx = EvalContext(sm=sm, chosen=chosen, warnings=warnings)
        return pred.evaluate(ctx)
    return pred(sm, antichain)


def compile_predicate(sm: StateModel, pred: PredicateLike) -> Test:
    """A :data:`Test` on the frontier vectors of *sm* (entry ``i - 1`` is the
    index of process ``i``'s state).

    AST predicates are compiled once into per-process columns: a verdict and
    any warnings per state for ``attr`` and ``index`` clauses, a value per
    state for ``agg``; the verdict and the warnings of each global state are
    those of the reference evaluation.  A callable is called on the named
    antichain.

    Raises:
        PredicateError: a clause names a process *sm* does not have.
    """
    if isinstance(pred, Predicate):
        return pred.compile(sm)
    chains = sm.chains
    return lambda vector, warn: pred(sm, frozenset(map(tuple.__getitem__, chains, vector)))


def _spans_processes(sm: StateModel) -> bool:
    """Decide the detection precondition once.

    Raises NotWidthExtensible when the poset is not width-extensible; False
    (and a log line) when its width is below the process count, so that no
    global state spans every process.  That is when the minimum view is not
    *sm* itself, since a width-extensible model's own chains are a minimum
    partition iff its initial states are concurrent.
    """
    view = require_width_extensible(sm)
    if view is not sm:
        log.info(
            "width %d < process count %d: no frontier-spanning global states",
            view.n,
            sm.n,
        )
    return view is sm


def satisfying_frontiers(
    sm: StateModel,
    pred: PredicateLike,
    warnings: list | None = None,
) -> Iterator[tuple[int, ...]]:
    """:func:`detect_width_predicate` as frontier vectors of ``sm.chains``.

    Each global state costs one compiled evaluation on a vector read off the
    cut enumeration by one popcount per process; no state names are built.
    """
    test = compile_predicate(sm, pred)
    if not _spans_processes(sm):
        return
    sink = warnings if warnings is not None else []

    def warn(msg: str) -> None:
        sink.append(msg)
        log.warning(msg)

    for vector in frontier_vectors(sm):
        if test(vector, warn):
            yield vector


def detect_width_predicate(
    sm: StateModel,
    pred: PredicateLike,
    warnings: list | None = None,
) -> Iterator[frozenset[str]]:
    """Yield the maximum antichains of *sm* on which the predicate holds.

    The model's poset must be width-extensible.  When the poset width is
    smaller than the process count no global state spans every process, so
    the stream is empty.  Count mode is ``sum(1 for ...)`` over the stream;
    :func:`first_width_predicate` gives its first item.  A clause naming a
    process the model lacks raises PredicateError before any enumeration.
    """
    for vector in satisfying_frontiers(sm, pred, warnings):
        yield frozenset(map(tuple.__getitem__, sm.chains, vector))


def _conjuncts(pred: PredicateLike) -> list[_LocalClause] | None:
    """The clauses of an ``and`` (nested or not) of per-process clauses."""
    if isinstance(pred, _LocalClause):
        return [pred]
    if not isinstance(pred, And):
        return None
    out: list[_LocalClause] = []
    for arg in pred.args:
        sub = _conjuncts(arg)
        if sub is None:
            return None
        out += sub
    return out


def _admissible_states(sm: StateModel, pred: PredicateLike) -> list[list[bool]] | None:
    """Per process and state, whether every clause on that process holds.

    None unless the predicate is conjunctive and no state can warn: then
    its verdict on a global state is the conjunction of these flags, and no
    evaluation has a side effect.
    """
    clauses = _conjuncts(pred)
    if clauses is None:
        return None
    admissible = [[True] * len(chain) for chain in sm.chains]
    for clause in clauses:
        col = clause.column(sm)
        if any(msgs for _, msgs in col):
            return None
        row = admissible[clause.proc - 1]
        for k, (truth, _) in enumerate(col):
            if not truth:
                row[k] = False
    return admissible


def _least_frontier(
    sm: StateModel, admissible: list[list[bool]]
) -> tuple[int, ...] | None:
    """Garg & Waldecker's conjunctive-predicate detection on chain clocks.

    Starts every process at its first admissible state.  While some state
    ``[i, g_i]`` lies below ``[j, g_j]``, no satisfying global state at or
    above the current one keeps ``[i, g_i]`` or anything else on chain ``i``
    below ``[j, g_j]``, so ``g_i`` moves to the first admissible state past
    ``down[j][g_j][i]``.  It ends with the least frontier whose states are
    admissible and pairwise concurrent, or None when a chain runs out: each
    state is passed at most once, O(states x n^2) steps.
    """
    clocks = sm.clocks()
    below = [[clocks[s][0] for s in chain] for chain in sm.chains]
    tops = [len(chain) for chain in sm.chains]
    # first[i][k]: the first admissible position >= k on chain i (tops[i]: none)
    first = []
    for row, top in zip(admissible, tops):
        col = [top] * (top + 1)
        for k in range(top - 1, -1, -1):
            col[k] = k if row[k] else col[k + 1]
        first.append(col)
    g = [col[0] for col in first]
    if any(x == top for x, top in zip(g, tops)):
        return None
    moved = True
    while moved:
        moved = False
        for j, down in enumerate(below):
            d = down[g[j]]
            for i, x in enumerate(g):
                if x <= d[i]:
                    g[i] = first[i][d[i] + 1]
                    if g[i] == tops[i]:
                        return None
                    moved = True
    return tuple(g)


def first_width_predicate(
    sm: StateModel,
    pred: PredicateLike,
    warnings: list | None = None,
) -> frozenset[str] | None:
    """The first antichain :func:`detect_width_predicate` yields, or None.

    A predicate that is an ``and`` of ``attr``/``index`` clauses, none of
    which can warn on any state, holds on a meet-closed family of global
    states; its least member is a subset, as a cut, of every other one, so
    it comes first in the enumeration, and :func:`_least_frontier` finds it
    without enumerating.  Any other predicate takes the enumeration.
    """
    admissible = _admissible_states(sm, pred)
    if admissible is None:
        return next(detect_width_predicate(sm, pred, warnings), None)
    if not _spans_processes(sm):
        return None
    least = _least_frontier(sm, admissible)
    if least is None:
        return None
    return frozenset(map(tuple.__getitem__, sm.chains, least))


@dataclass(frozen=True)
class CheckpointMarking:
    """Per-process increasing checkpoint indices, endpoints included."""

    marks: tuple[tuple[int, ...], ...]

    def validate(self, sm: StateModel) -> None:
        if len(self.marks) != sm.n:
            raise BadMarking(
                f"marking covers {len(self.marks)} processes, model has {sm.n}"
            )
        for i, idxs in enumerate(self.marks, start=1):
            top = sm.chain_top_index(i)
            if list(idxs) != sorted(set(idxs)):
                raise BadMarking(f"process {i} indices must be strictly increasing")
            if any(k < 0 or k > top for k in idxs):
                raise BadMarking(f"process {i} has an out-of-range index")
            if not idxs or idxs[0] != 0 or idxs[-1] != top:
                raise BadMarking(
                    f"process {i} must mark its initial (0) and final ({top}) state"
                )

    def as_json(self) -> dict:
        return {"marks": [list(m) for m in self.marks]}


def induced_checkpoint_model(sm: StateModel, marking: CheckpointMarking) -> StateModel:
    """Restrict the model to the marked states (order inherited, re-indexed)."""
    marking.validate(sm)
    chains = [
        [sm.state_at(i, k) for k in idxs]
        for i, idxs in enumerate(marking.marks, start=1)
    ]
    kept = [s for chain in chains for s in chain]
    # One pair per kept state and chain: to the lowest kept state above it
    # there, found from the state's chain clock.  The kept states above it on
    # that chain follow by chain pairs, so the closure is the inherited order.
    clocks = sm.clocks()
    pairs = []
    for s in kept:
        for idxs, chain, up in zip(marking.marks, chains, clocks[s][1]):
            r = bisect_left(idxs, up)
            if r < len(idxs):
                pairs.append((s, chain[r]))
    poset = build_poset(kept, pairs)
    attrs = {s: sm.attrs[s] for s in kept if s in sm.attrs}
    return build_state_model(poset, chains, attrs)


@dataclass(frozen=True)
class CheckpointVerdict:
    state: str
    proc: int
    index: int  # original index in the full model
    useful: bool
    witness: frozenset[str] | None

    def as_json(self) -> dict:
        out = {
            "state": self.state,
            "proc": self.proc,
            "index": self.index,
            "useful": self.useful,
        }
        if self.witness is not None:
            out["witness"] = sorted(self.witness)
        return out


@dataclass(frozen=True)
class CheckpointReport:
    induced: StateModel
    verdicts: tuple[CheckpointVerdict, ...]
    engine: str
    engines_agree: bool | None = None

    @property
    def useless(self) -> frozenset[str]:
        return frozenset(v.state for v in self.verdicts if not v.useful)

    def as_json(self) -> dict:
        out = {
            "engine": self.engine,
            "useless": sorted(self.useless),
            "verdicts": [v.as_json() for v in self.verdicts],
        }
        if self.engines_agree is not None:
            out["engines_agree"] = self.engines_agree
        return out


def _oracle_usefulness(
    induced: StateModel, *, bound: int | None = None
) -> dict[str, frozenset[str] | None]:
    """Definition scan: witness per state, from all one-per-chain tuples."""
    combos = 1
    for chain in induced.chains:
        combos *= len(chain)
    cap = 2 ** oracle_bound(bound)
    if combos > cap:
        raise OracleBoundExceeded(f"{combos} tuples exceed oracle cap {cap}")
    witness: dict[str, frozenset[str] | None] = {
        s: None for chain in induced.chains for s in chain
    }
    p = induced.poset
    for combo in itertools.product(*induced.chains):
        ok = all(
            comparable(p, a, b) is Comparability.CONCURRENT
            for a, b in itertools.combinations(combo, 2)
        )
        if ok:
            mark = frozenset(combo)
            for s in combo:
                if witness[s] is None:
                    witness[s] = mark
    return witness


def _fast_usefulness(
    induced: StateModel,
) -> dict[str, frozenset[str] | None] | None:
    """Cycle-structure engine; returns None when its preconditions fail.

    Valid whenever all initial states and all final states of the restriction
    are pairwise concurrent (always true for markings of real computations,
    since endpoints are marked).  A checkpoint ``[i,k]`` is useless iff the
    tentative events ``(i,k)`` and ``(i,k+1)`` are strongly connected; a
    witness for a useful checkpoint is the frontier of the ancestor set of
    ``(i,k)``.
    """
    if not check_omega1(induced).ok or not check_omega2(induced).ok:
        return None
    nodes, succ = transition_graph(induced)
    comp_index: dict[tuple[int, int], int] = {}
    for ci, comp in enumerate(strongly_connected_components(nodes, succ)):
        for node in comp:
            comp_index[node] = ci
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {n: [] for n in nodes}
    for a in nodes:
        for b in succ[a]:
            preds[b].append(a)

    def frontier_witness(anchor: tuple[int, int] | None) -> frozenset[str]:
        tops = [0] * induced.n
        if anchor is not None:
            seen = {anchor}
            queue = [anchor]
            while queue:
                node = queue.pop()
                for prev in preds[node]:
                    if prev not in seen:
                        seen.add(prev)
                        queue.append(prev)
            for i, k in seen:
                if k > tops[i - 1]:
                    tops[i - 1] = k
        return frozenset(
            induced.state_at(i + 1, k) for i, k in enumerate(tops)
        )

    out: dict[str, frozenset[str] | None] = {}
    for i in range(1, induced.n + 1):
        top = induced.chain_top_index(i)
        for k in range(top + 1):
            state = induced.state_at(i, k)
            if 1 <= k <= top - 1 and comp_index[(i, k)] == comp_index[(i, k + 1)]:
                out[state] = None
            else:
                out[state] = frontier_witness((i, k) if k >= 1 else None)
    return out


def find_useless_checkpoints(
    sm: StateModel,
    marking: CheckpointMarking,
    engine: str = "fast",
    *,
    bound: int | None = None,
) -> CheckpointReport:
    """Classify every marked checkpoint as useful or useless.

    ``engine`` selects ``fast`` (cycle structure, linear in the restriction's
    tentative graph), ``oracle`` (definition scan), or ``both`` (run both and
    record agreement).  The fast engine silently defers to the oracle when
    the restriction's endpoints are not pairwise concurrent, which cannot
    happen for models of actual computations.
    """
    if engine not in ("fast", "oracle", "both"):
        raise ModelError(f"unknown engine {engine!r}")
    induced = induced_checkpoint_model(sm, marking)

    fast = _fast_usefulness(induced) if engine in ("fast", "both") else None
    oracle = None
    if engine in ("oracle", "both") or fast is None:
        oracle = _oracle_usefulness(induced, bound=bound)

    if engine == "oracle":
        used = "oracle"
    elif fast is None:
        used = "oracle-fallback"
    else:
        used = engine
    primary = fast if fast is not None else oracle
    agree = None
    if engine == "both" and fast is not None:
        agree = all((fast[s] is None) == (oracle[s] is None) for s in fast)

    verdicts = []
    for i, idxs in enumerate(marking.marks, start=1):
        for orig_k, state in zip(idxs, induced.chains[i - 1]):
            w = primary[state]
            verdicts.append(
                CheckpointVerdict(
                    state=state,
                    proc=i,
                    index=orig_k,
                    useful=w is not None,
                    witness=w,
                )
            )
    return CheckpointReport(
        induced=induced,
        verdicts=tuple(verdicts),
        engine=used,
        engines_agree=agree,
    )
