"""Application layer: global predicate detection and checkpoint analysis.

Predicates here are *frontier-spanning*: they are evaluated on global states
that pick exactly one local state per process, i.e. on the maximum antichains
of the state model.  The clause language is a small closed AST (per-process
attribute and index comparisons, sum/count aggregates, boolean connectives)
serialized as JSON; library callers may instead pass a plain callable.
The language is declared once, in the table ``_OPS``: per op, the AST
class and its fields in constructor order, each with the JSON type of its
value and the parser of that value.  Parsing (:func:`predicate_from_json`)
and emission (:meth:`Predicate.as_json`) both read it, so they cannot
drift apart, and a field outside its op's row is rejected.

Detection runs on frontier vectors (one state index per process) from the
cut enumeration of :mod:`posetdual.lattice`, tested as the walk's own lists.
A predicate is compiled once into per-process columns of verdicts, values
and warnings, so evaluating it on a global state costs O(clauses) lookups
and builds no names.  A clause no state of whose columns warns compiles to
a lean closure: a verdict lookup, or for ``agg`` one ``sum`` of per-state
contributions; the others replay each state's warnings.  The first
match of a conjunction of per-process clauses (Garg & Waldecker, 1994) is
found without enumerating: it is the least global state all of whose states
pass their clauses, found by advancing per-process indices along the chain
clocks in O(states x n^2) steps.

A count (:func:`count_width_predicate`) takes a block of the cut walk at a
time when the predicate is an ``and`` (nested or not) of ``attr`` and
``index`` clauses, constants and at most one ``agg`` whose per-state
contributions are exact ints (a ``sum`` of ints and bools, or a
``count``) compared with an int, and no state warns on any clause: the
chains a block leaves untouched give it a constant part of the aggregate,
and the sums over the other chains, sorted once per block shape, are
bisected.  Any other predicate is counted one global state at a time:
``or``, ``not``, a ``sum`` that meets a float (whose total depends on the
order of addition), a ``value`` that is not an int, a null or missing
value under an ``agg``, two ``agg`` clauses, and a clause on which some
state warns.  Both give the same count and the same warnings.  In a
conjunction, for the count and the first match alike, ``const true`` is
dropped and ``const false`` means that no global state matches.  The
definitional evaluation on named states (``_evaluate``) stays as the
reference the fast paths are tested against.

Checkpoint analysis takes a marking of local states (initial and final state
of every process must be marked) and classifies each checkpoint as useful
(member of some global checkpoint, i.e. of some size-n antichain of the
restriction to the marked states) or useless.  The restriction inherits the
model's order, so no second model is built.  Two engines are provided: a
definitional oracle that scans all one-per-process tuples of marked states
under the model's order, and a fast engine that reads the verdicts off the
cycle structure of the restriction's tentative event graph - a checkpoint is
useless exactly when the transitions entering and leaving it are strongly
connected.  That graph is the model's own, read off its covers with one
edge per cover and chain step, with the nodes grouped by checkpoint
interval (the intervals of Netzer & Xu's zigzag paths), so the fast engine
finds its components in O(covers) and reads no chain clocks.  The grouped
graph is built on integer node ids and runs through the reverse
transform's Tarjan kernel (Tarjan, 1972).  It then names every useful
checkpoint's witness, the least global checkpoint that contains it, in
one sweep over the components in topological order, O(covers x n) after
the graph.  It must agree with the oracle everywhere; disagreement is a
bug by definition.
"""

from __future__ import annotations

import itertools
import logging
import operator
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    BadMarking,
    ModelError,
    OracleBoundExceeded,
    PredicateError,
)

# Nothing here calls build_poset, build_state_model, check_width_extensible,
# comparable, enumerate_width_antichains, strongly_connected_components,
# transition_graph or width; they stay bound in this module because
# perfbench/tracing.py wraps them by these bindings.
from .lattice import _block_bytes, _frontier_walk, _frontiers, enumerate_width_antichains  # noqa: F401
from .poset import build_poset, comparable, is_antichain, oracle_bound, width  # noqa: F401
from .statemodel import (  # noqa: F401
    StateModel,
    build_state_model,
    check_omega1,
    check_omega2,
    check_width_extensible,
    require_width_extensible,
)
from .transforms import (  # noqa: F401
    _components,
    _tentative_graph,
    strongly_connected_components,
    transition_graph,
)

log = logging.getLogger(__name__)

_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}


Warn = Callable[[str], None]
#: A compiled predicate: (frontier vector, warning sink) -> verdict.  A
#: vector is any sequence of state indices, a tuple when it comes from the walk.
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
        """The node in the JSON clause language, fields in :data:`_OPS` order.

        Nodes become objects and tuples lists, each written in place of
        the value it came from, off an explicit stack: any predicate that
        parses can be emitted, however deep.
        """
        root = [self]
        todo = [(root, 0)]
        while todo:
            into, at = todo.pop()
            value = into[at]
            if isinstance(value, Predicate):
                op = _OP_NAMES[type(value)]
                fields = _OPS[op][1]
                into[at] = out = {"op": op, **{key: getattr(value, key) for key in fields}}
                todo.extend((out, key) for key in fields)
            elif isinstance(value, tuple):
                into[at] = out = list(value)
                todo.extend((out, k) for k in range(len(out)))
        return root[0]


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
        if not any(msgs for _, msgs in col):  # no state warns: a verdict lookup
            truth = [verdict for verdict, _ in col]

            def lean(vector, warn):
                return truth[vector[i]]

            return lean

        def replay(vector, warn):
            truth, msgs = col[vector[i]]
            for msg in msgs:
                warn(msg)
            return truth

        return replay


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


@dataclass(frozen=True)
class IndexCmp(_LocalClause):
    """Compare the chain index of the chosen state of one process."""

    proc: int
    cmp: str
    value: int

    def evaluate(self, ctx):
        _, k = ctx.sm.coords(ctx.chosen[self.proc])
        return ctx.compare(self.cmp, k, self.value)


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

    def _values(self, sm: StateModel) -> list[list[tuple[object, tuple[str, ...]]]]:
        """Per process and state: the attribute value (None when missing or
        null, which makes the clause false) and the missing-attribute warning."""
        return [
            [_probe(sm, i, s, lambda ctx: ctx.attr(i, self.attr)) for s in chain]
            for i, chain in enumerate(sm.chains, start=1)
        ]

    def exact_contributions(self, sm: StateModel) -> list[list[int]] | None:
        """Per process and state, its contribution to the aggregate, when
        every one is an exact int and the comparison is with an int.

        None when a state lacks the value or holds null (the clause is then
        false there, and a missing value warns), when a ``sum`` meets a
        float (whose total depends on the order of addition) or anything
        else that is not an int or a bool, or when ``value`` is not an int.
        """
        if not isinstance(self.value, int):
            return None
        values = [[got for got, _ in col] for col in self._values(sm)]
        if any(got is None for col in values for got in col):
            return None
        if self.fn == "count":
            return [[1 if got else 0 for got in col] for col in values]
        if not all(type(got) in (int, bool) for col in values for got in col):
            return None
        return [list(map(int, col)) for col in values]

    def compile(self, sm):
        cols = self._values(sm)
        if self.fn == "sum":
            contrib = [[got for got, _ in col] for col in cols]
            summable = all(type(v) in (int, float, bool) for row in contrib for v in row)
        else:
            contrib = [[1 if got else 0 for got, _ in col] for col in cols]
            summable = all(got is not None for col in cols for got, _ in col)
        if summable:
            # Every state has a value (so none warns) and the sum cannot fail:
            # the aggregate is one sum of per-state contributions, in chain
            # order as in _holds.
            cmp, value = self.cmp, self.value

            def lean(vector, warn):
                return _compare(cmp, sum(map(operator.getitem, contrib, vector)), value, warn)

            return lean
        holds = self._holds

        def replay(vector, warn):
            values = []
            for col, k in zip(cols, vector):
                got, msgs = col[k]
                for msg in msgs:
                    warn(msg)
                if got is None:
                    return False
                values.append(got)
            return holds(values, warn)

        return replay


@dataclass(frozen=True)
class And(Predicate):
    args: tuple[Predicate, ...]

    def evaluate(self, ctx):
        return all(a.evaluate(ctx) for a in self.args)

    def compile(self, sm):
        # A loop, not a comprehension: one stack frame per level, so any
        # nesting the parser accepts compiles.
        tests = []
        for a in self.args:
            tests.append(a.compile(sm))

        def test(vector, warn):
            for t in tests:
                if not t(vector, warn):
                    return False
            return True

        return test


@dataclass(frozen=True)
class Or(Predicate):
    args: tuple[Predicate, ...]

    def evaluate(self, ctx):
        return any(a.evaluate(ctx) for a in self.args)

    def compile(self, sm):
        # A loop, as in And.compile.
        tests = []
        for a in self.args:
            tests.append(a.compile(sm))

        def test(vector, warn):
            for t in tests:
                if t(vector, warn):
                    return True
            return False

        return test


@dataclass(frozen=True)
class Not(Predicate):
    arg: Predicate

    def evaluate(self, ctx):
        return not self.arg.evaluate(ctx)

    def compile(self, sm):
        # A chain of nots folds into one parity, so neither compiling it nor
        # testing it takes a stack frame per level.
        arg, negate = self.arg, True
        while isinstance(arg, Not):
            arg, negate = arg.arg, not negate
        inner = arg.compile(sm)
        if not negate:
            return inner
        return lambda vector, warn: not inner(vector, warn)


@dataclass(frozen=True)
class Const(Predicate):
    value: bool

    def evaluate(self, ctx):
        return self.value

    def compile(self, sm):
        return lambda vector, warn: self.value


def predicate_from_json(data: dict) -> Predicate:
    """Parse the JSON clause language into the AST; raises PredicateError.

    The node's ``op`` picks its row of :data:`_OPS`.  No field outside the
    row may be present; each field of the row must be, with a value of the
    row's JSON type that passes the row's parser, checked in row order.
    """
    if not isinstance(data, dict) or "op" not in data:
        raise PredicateError("predicate node must be an object with an 'op'")
    op = data["op"]
    if not isinstance(op, str) or op not in _OPS:  # op may be unhashable
        raise PredicateError(f"unknown predicate op {op!r}")
    cls, fields = _OPS[op]
    unknown = [key for key in data if key != "op" and key not in fields]
    if unknown:
        raise PredicateError(f"unknown fields {unknown} for predicate op {op!r}")
    # A loop, not a comprehension: a `not` costs one stack frame per level,
    # so any nesting the JSON decoder accepts parses.
    values = []
    for key, (kind, parse) in fields.items():
        if key not in data:
            raise PredicateError(f"predicate op {op!r} is missing field {key!r}")
        value = data[key]
        # bool is an int subclass, but JSON true/false is not a number.
        if not isinstance(value, kind) or kind is int and isinstance(value, bool):
            raise PredicateError(f"predicate field {key!r} must be {_KINDS[kind]}, got {value!r}")
        values.append(value if parse is None else parse(value))
    return cls(*values)


_KINDS = {int: "an integer", str: "a string", bool: "a boolean", list: "a list"}


def _proc(proc: int) -> int:
    if proc < 1:
        raise PredicateError(f"process numbers are 1-based, got {proc}")
    return proc


def _cmp_name(name) -> str:
    if not isinstance(name, str) or name not in _CMP:
        raise PredicateError(f"unknown comparator {name!r}")
    return name


def _aggregate(fn) -> str:
    if fn not in ("sum", "count"):
        raise PredicateError(f"unknown aggregate {fn!r}")
    return fn


def _nodes(args: list) -> tuple[Predicate, ...]:
    return tuple(map(predicate_from_json, args))


# A field: the JSON type its value must have (object: any) and the parser
# of that value (None: kept as it is).
_PROC, _CMP_FIELD, _ANY = (int, _proc), (object, _cmp_name), (object, None)

#: The clause language, declared once: per op, the AST class and its fields
#: in constructor order.  :func:`predicate_from_json` and
#: :meth:`Predicate.as_json` both read it.
_OPS: dict[str, tuple[type, dict[str, tuple[type, Callable | None]]]] = {
    "attr": (AttrCmp, {"proc": _PROC, "attr": (str, None), "cmp": _CMP_FIELD, "value": _ANY}),
    "index": (IndexCmp, {"proc": _PROC, "cmp": _CMP_FIELD, "value": (int, None)}),
    "agg": (
        AggCmp,
        {"fn": (object, _aggregate), "attr": (str, None), "cmp": _CMP_FIELD, "value": _ANY},
    ),
    "and": (And, {"args": (list, _nodes)}),
    "or": (Or, {"args": (list, _nodes)}),
    "not": (Not, {"arg": (object, predicate_from_json)}),
    "const": (Const, {"value": (bool, None)}),
}
_OP_NAMES = {cls: op for op, (cls, _) in _OPS.items()}


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
    those of the reference evaluation.  A clause on which no state warns
    keeps only its verdicts, and an ``agg`` whose values are all present
    (and, for ``sum``, all numbers) only each state's contribution to the
    sum.  A callable is called on the named antichain.

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

    Each global state costs one compiled evaluation on the vector the cut
    walk unpacks from its image (:func:`~posetdual.lattice._frontiers`); no
    state names are built.
    """
    test = compile_predicate(sm, pred)
    if not _spans_processes(sm):
        return
    sink = warnings if warnings is not None else []

    def warn(msg: str) -> None:
        sink.append(msg)
        log.warning(msg)

    for vector in _frontiers(sm):
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


# Per comparator, how many entries of a sorted list compare so to a value.
_SORTED_COUNT: dict[str, Callable[[list, object], int]] = {
    "<": bisect_left,
    "<=": bisect_right,
    "==": lambda s, t: bisect_right(s, t) - bisect_left(s, t),
    "!=": lambda s, t: len(s) - bisect_right(s, t) + bisect_left(s, t),
    ">=": lambda s, t: len(s) - bisect_left(s, t),
    ">": lambda s, t: len(s) - bisect_right(s, t),
}


def count_width_predicate(
    sm: StateModel,
    pred: PredicateLike,
    warnings: list | None = None,
) -> int:
    """``sum(1 for _ in satisfying_frontiers(sm, pred, warnings))``, with the
    same warnings, counted a block of the cut walk at a time for the
    predicates the module docstring names.

    In a block ``(avail, image, deltas)`` of
    :func:`~posetdual.lattice._frontier_walk`, the chains no delta moves
    keep their states in ``image``, and the states of the others depend on
    ``avail`` and the delta alone (the module docstring of
    :mod:`posetdual.lattice`).  So the first give the block a constant part
    ``C`` of the aggregate, or rule it out where a clause fails, and the
    sums of the others are sorted once per ``avail`` (:func:`_block_sums`):
    the block's count is one or two bisections of them against ``value - C``.
    """
    clauses = _conjuncts(pred)
    table = None if clauses is None else _state_table(sm, clauses)
    if table is None:
        return sum(1 for _ in satisfying_frontiers(sm, pred, warnings))
    if not _spans_processes(sm) or _FALSE in clauses:
        return 0
    # With no agg every entry of a passing state is 0: count the sums <= 0.
    agg = next((c for c in clauses if isinstance(c, AggCmp)), None)
    count, value = _SORTED_COUNT[agg.cmp if agg else "<="], agg.value if agg else 0
    vector, blocks = _frontier_walk(sm)
    known: dict[int, tuple[list, list[int]]] = {}  # avail -> _block_sums
    total = 0
    for avail, image, deltas in blocks:
        entry = known.get(avail)
        if entry is None:
            entry = known[avail] = _block_sums(vector, table, image, *deltas)
        fixed, sums = entry
        v = vector.unpack(image.to_bytes(vector.size, "little"))
        parts = [col[v[i]] for i, col in fixed]
        if None not in parts:
            total += count(sums, value - sum(parts))
    return total


def _block_sums(
    vector: struct.Struct, table: list[list[int | None]], image: int, packed: int, n: int
) -> tuple[list[tuple[int, list]], list[int]]:
    """The chains of a block ``(avail, image, (packed, n))`` that no delta
    moves, as ``(i, table[i])``, and the sorted sums of the other chains'
    entries on the images of the block where none of those entries is None.

    The block's vectors come from one ``iter_unpack`` of its bytes, and the
    entries are summed a chain column at a time.  A block with no touched
    chain is the frame alone (n is 1), whose sum over no chains is 0.
    """
    columns = list(zip(*vector.iter_unpack(_block_bytes(image, packed, n, vector.size))))
    moved = [min(col) != max(col) for col in columns]
    touched = [map(table[i].__getitem__, col) for i, col in enumerate(columns) if moved[i]]
    rows = zip(*touched) if touched else repeat((), n)
    sums = sorted(map(sum, itertools.filterfalse(_HAS_NONE, rows)))
    return [(i, table[i]) for i, field in enumerate(moved) if not field], sums


_HAS_NONE = operator.methodcaller("__contains__", None)


_FALSE = Const(False)


def _conjuncts(pred: PredicateLike) -> list[Predicate] | None:
    """The conjuncts of an ``and`` (nested or not), in the order its
    compiled test meets them: ``attr``, ``index`` and ``agg`` clauses, and
    ``const false``, which no global state satisfies.  ``const true`` holds
    on every state and is dropped.  None when a conjunct is an ``or``, a
    ``not`` or a callable."""
    out: list[Predicate] = []
    todo = [pred]
    while todo:
        node = todo.pop()
        if isinstance(node, And):
            todo += reversed(node.args)
        elif isinstance(node, (_LocalClause, AggCmp)):
            out.append(node)
        elif not isinstance(node, Const):
            return None
        elif not node.value:
            out.append(_FALSE)
    return out


def _state_table(sm: StateModel, clauses: list[Predicate]) -> list[list[int | None]] | None:
    """Per process and state: None where an ``attr`` or ``index`` clause
    among *clauses* fails on the state, else its contribution to their
    ``agg`` (0 when there is none).

    None when a state warns on a clause, when there are two ``agg``
    clauses, or when the ``agg`` has no exact contributions
    (:meth:`AggCmp.exact_contributions`).  Otherwise the verdict of the
    conjunction of *clauses* on a global state with no ``const false`` among
    them is that no entry of its states is None and, with an ``agg``, that
    the sum of their entries compares to its value; no evaluation has a
    side effect.
    """
    table: list[list[int | None]] = [[0] * len(chain) for chain in sm.chains]
    aggs = []
    for clause in clauses:
        if isinstance(clause, AggCmp):
            aggs.append(clause)
        elif isinstance(clause, _LocalClause):
            col = clause.column(sm)
            if any(msgs for _, msgs in col):
                return None
            row = table[clause.proc - 1]
            for k, (truth, _) in enumerate(col):
                if not truth:
                    row[k] = None
    if len(aggs) > 1:
        return None
    for agg in aggs:
        contributions = agg.exact_contributions(sm)
        if contributions is None:
            return None
        for row, col in zip(table, contributions):
            row[:] = [None if x is None else c for x, c in zip(row, col)]
    return table


def _admissible_states(sm: StateModel, clauses: list[Predicate]) -> list[list[bool]] | None:
    """Per process and state, whether every clause on that process holds.

    None unless *clauses* (:func:`_conjuncts`) hold no ``agg`` and no state
    can warn: then the verdict of a conjunction without ``const false`` on
    a global state is the conjunction of these flags, and no evaluation has
    a side effect.
    """
    if any(isinstance(clause, AggCmp) for clause in clauses):
        return None
    table = _state_table(sm, clauses)
    return None if table is None else [[x is not None for x in row] for row in table]


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

    A predicate that is an ``and`` of ``attr``/``index`` clauses and
    constants, none of which can warn on any state, holds on a meet-closed
    family of global states; its least member is a subset, as a cut, of
    every other one, so it comes first in the enumeration, and
    :func:`_least_frontier` finds it without enumerating (a ``const false``
    conjunct: none).  Any other predicate takes the enumeration.
    """
    clauses = _conjuncts(pred)
    admissible = None if clauses is None else _admissible_states(sm, clauses)
    if admissible is None:
        return next(detect_width_predicate(sm, pred, warnings), None)
    if not _spans_processes(sm) or _FALSE in clauses:
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
    sm: StateModel, chains: tuple[tuple[str, ...], ...]
) -> dict[str, frozenset[str] | None]:
    """Definition scan over *sm*'s order: witness per state, from all
    one-per-chain tuples of the marked *chains*."""
    combos = 1
    for chain in chains:
        combos *= len(chain)
    # The cap is 2 ** bound.  It is built only when combos is at least that
    # large, so a huge bound allocates nothing.
    limit = oracle_bound()
    if combos.bit_length() > limit:
        cap = 1 << limit
        if combos > cap:
            raise OracleBoundExceeded(f"{combos} tuples exceed oracle cap {cap}")
    witness: dict[str, frozenset[str] | None] = {
        s: None for chain in chains for s in chain
    }
    p = sm.poset
    for combo in itertools.product(*chains):
        if is_antichain(p, combo):
            mark = frozenset(combo)
            for s in combo:
                if witness[s] is None:
                    witness[s] = mark
    return witness


def _fast_usefulness(
    sm: StateModel,
    marks: tuple[tuple[int, ...], ...],
    chains: tuple[tuple[str, ...], ...],
) -> dict[str, frozenset[str] | None] | None:
    """Cycle-structure engine; returns None when its preconditions fail.

    Valid whenever all initial states and all final states are pairwise
    concurrent (always true for markings of real computations, and the
    same on *sm* as on the restriction to the marked states *chains*,
    since endpoints are marked).  A checkpoint ``[i,k]`` of the restriction
    is useless iff its tentative events ``(i,k)`` and ``(i,k+1)`` are
    strongly connected in the restriction's tentative graph; a witness for
    a useful checkpoint is the frontier of the ancestor set of ``(i,k)``,
    the least global checkpoint that contains it.

    That graph is the quotient of *sm*'s own graph by checkpoint intervals.
    Let ``m_0 < ... < m_R`` be the marks of chain ``i``; node ``(i,k)`` of
    *sm* goes to group ``(i,r)`` when ``m_{r-1} < k <= m_r``, and the
    virtual node ``(i,len)`` to the restriction's virtual node ``(i,R+1)``.
    Every edge ``(i,a) -> (j,b)`` of the full graph between groups ``r``
    and ``s`` gives ``[i,m_{r-1}] <= [i,a-1] < [j,b] <= [j,m_s]``, the
    restriction's edge ``(i,r) -> (j,s)``; every restriction edge comes
    from the full edge ``(i,m_{r-1}+1) -> (j,m_s)``.  The cover graph has
    the full graph's reachability, so its quotient, self-loops dropped, has
    the restriction's components and ancestors.

    Both graphs are on integer ids, the groups numbered chain by chain;
    ``group`` maps each node of *sm*'s graph to its group.  Tarjan lists a
    component after every component it reaches, so in reverse each comes
    after all its ancestors: one pass in that order carries each
    component's frontier, per chain the top index among its ancestors, to
    its successors with one ``max`` per chain and edge.  The graph has one
    edge per cover and chain step, so that is O(covers x n).  Each
    component's witness is built once, for every checkpoint it names.
    Under the precondition no cover enters an initial state or leaves a
    final one, so each chain's virtual node is a sink entered only by its
    chain edge: it raises no witness.
    """
    if not check_omega1(sm).ok or not check_omega2(sm).ok:
        return None
    full = _tentative_graph(sm)
    group: list[int] = []  # per node of the full graph, its group
    at: list[tuple[int, int]] = []  # per group, its chain (from 0) and r
    for i, idxs in enumerate(marks):
        g = len(at)
        for a, b in zip(idxs, idxs[1:]):
            group += [g] * (b - a)
            g += 1
        group.append(g)  # the virtual node
        at += zip(repeat(i), range(1, len(idxs) + 1))
    succ: list[list[int]] = [[] for _ in at]
    for g, out in zip(group, full):
        row = succ[g]
        for h in map(group.__getitem__, out):
            if h != g:
                row.append(h)
    comps, comp_of = _components(succ)

    # Most components are entered from one component only and take its
    # vector as it is, so the vectors are shared until a component raises
    # its own: that skips most ``max`` passes.
    zero = [0] * sm.n
    tops = [zero] * len(comps)
    for c in reversed(range(len(comps))):
        top = tops[c][:]
        # Sorted, so the last node on a chain is its highest.  No ancestor
        # outside the component is higher on that chain: the chain edges
        # would put it in the component.
        for g in comps[c]:
            i, r = at[g]
            top[i] = r
        tops[c] = top
        for g in comps[c]:
            for h in succ[g]:
                d = comp_of[h]
                if d != c:
                    other = tops[d]
                    if other is zero:
                        tops[d] = top
                    elif other is not top:
                        tops[d] = list(map(max, other, top))

    base = frozenset(chain[0] for chain in chains)
    witness: list[frozenset[str] | None] = [None] * len(comps)
    out: dict[str, frozenset[str] | None] = {}
    g = 0
    for chain in chains:
        out[chain[0]] = base
        for k in range(1, len(chain)):
            c = comp_of[g]
            if k < len(chain) - 1 and c == comp_of[g + 1]:
                out[chain[k]] = None
            else:
                if witness[c] is None:
                    witness[c] = frozenset(map(tuple.__getitem__, chains, tops[c]))
                out[chain[k]] = witness[c]
            g += 1
        g += 1  # the virtual node
    return out


def find_useless_checkpoints(
    sm: StateModel, marking: CheckpointMarking, engine: str = "fast"
) -> CheckpointReport:
    """Classify every marked checkpoint as useful or useless.

    ``engine`` selects ``fast`` (cycle structure of the model's sparse
    tentative graph, grouped by checkpoint interval), ``oracle``
    (definition scan over the marked states), or ``both`` (run both and
    record agreement).  The restriction to the marked states inherits the
    model's order, so both engines read *sm* and build no second model.
    The fast engine silently defers to the oracle when the endpoints are
    not pairwise concurrent, which cannot happen for models of actual
    computations.  The oracle raises OracleBoundExceeded when the marked
    chains have more than ``2 ** oracle_bound()`` one-per-chain tuples.
    """
    if engine not in ("fast", "oracle", "both"):
        raise ModelError(f"unknown engine {engine!r}")
    marking.validate(sm)
    chains = tuple(
        tuple(map(chain.__getitem__, idxs))
        for chain, idxs in zip(sm.chains, marking.marks)
    )

    fast = oracle = None
    if engine in ("fast", "both"):
        fast = _fast_usefulness(sm, marking.marks, chains)
    if engine in ("oracle", "both") or fast is None:
        oracle = _oracle_usefulness(sm, chains)

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
    for i, (idxs, chain) in enumerate(zip(marking.marks, chains), start=1):
        for orig_k, state in zip(idxs, chain):
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
        verdicts=tuple(verdicts),
        engine=used,
        engines_agree=agree,
    )
