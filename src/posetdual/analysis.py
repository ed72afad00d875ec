"""Application layer: global predicate detection and checkpoint analysis.

Predicates here are *frontier-spanning*: they are evaluated on global states
that pick exactly one local state per process, i.e. on the maximum antichains
of the state model.  The clause language is a small closed AST (per-process
attribute and index comparisons, sum/count aggregates, boolean connectives)
serialized as JSON; library callers may instead pass a plain callable.

Checkpoint analysis takes a marking of local states (initial and final state
of every process must be marked), restricts the model to the marked states,
and classifies each checkpoint as useful (member of some global checkpoint,
i.e. of some size-n antichain of the restriction) or useless.  Two engines
are provided: a definitional oracle that scans all one-per-process tuples,
and a fast engine that reads the verdicts off the cycle structure of the
tentative event graph of the restriction - a checkpoint is useless exactly
when the transitions entering and leaving it are strongly connected.  The
fast engine runs in time linear in that graph and must agree with the oracle
everywhere; disagreement is a bug by definition.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import BadMarking, ModelError, NotWidthExtensible, OracleBoundExceeded
from .lattice import enumerate_width_antichains
from .poset import Comparability, build_poset, comparable, oracle_bound, width
from .statemodel import (
    StateModel,
    build_state_model,
    check_omega1,
    check_omega2,
    check_width_extensible,
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


class Predicate:
    """Base class of the closed predicate AST."""

    def evaluate(self, ctx: "EvalContext") -> bool:
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
        try:
            return _CMP[cmp](got, value)
        except TypeError:
            self.warn(f"cannot compare {got!r} {cmp} {value!r}")
            return False


def _check_proc(proc: int) -> int:
    if proc < 1:
        raise ModelError(f"process numbers are 1-based, got {proc}")
    return proc


@dataclass(frozen=True)
class AttrCmp(Predicate):
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
class IndexCmp(Predicate):
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
        try:
            agg = sum(values) if self.fn == "sum" else sum(1 for v in values if v)
        except TypeError:
            ctx.warn(f"cannot aggregate {self.attr!r} values {values!r}")
            return False
        return ctx.compare(self.cmp, agg, self.value)

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

    def as_json(self):
        return {"op": "and", "args": [a.as_json() for a in self.args]}


@dataclass(frozen=True)
class Or(Predicate):
    args: tuple[Predicate, ...]

    def evaluate(self, ctx):
        return any(a.evaluate(ctx) for a in self.args)

    def as_json(self):
        return {"op": "or", "args": [a.as_json() for a in self.args]}


@dataclass(frozen=True)
class Not(Predicate):
    arg: Predicate

    def evaluate(self, ctx):
        return not self.arg.evaluate(ctx)

    def as_json(self):
        return {"op": "not", "arg": self.arg.as_json()}


@dataclass(frozen=True)
class Const(Predicate):
    value: bool

    def evaluate(self, ctx):
        return self.value

    def as_json(self):
        return {"op": "const", "value": self.value}


def predicate_from_json(data: dict) -> Predicate:
    """Parse the JSON clause language into the AST; raises ModelError."""
    if not isinstance(data, dict) or "op" not in data:
        raise ModelError("predicate node must be an object with an 'op'")
    op = data["op"]
    try:
        if op == "attr":
            return AttrCmp(
                _check_proc(_int_field(data, "proc")),
                str(data["attr"]),
                _cmp_name(data["cmp"]),
                data["value"],
            )
        if op == "index":
            return IndexCmp(
                _check_proc(_int_field(data, "proc")),
                _cmp_name(data["cmp"]),
                _int_field(data, "value"),
            )
        if op == "agg":
            fn = data["fn"]
            if fn not in ("sum", "count"):
                raise ModelError(f"unknown aggregate {fn!r}")
            return AggCmp(fn, str(data["attr"]), _cmp_name(data["cmp"]), data["value"])
        if op == "and":
            return And(_args(data))
        if op == "or":
            return Or(_args(data))
        if op == "not":
            return Not(predicate_from_json(data["arg"]))
        if op == "const":
            return Const(bool(data["value"]))
    except KeyError as exc:
        raise ModelError(f"predicate op {op!r} is missing field {exc}") from None
    raise ModelError(f"unknown predicate op {op!r}")


def _args(data: dict) -> tuple[Predicate, ...]:
    args = data["args"]
    if not isinstance(args, list):
        raise ModelError(f"predicate field 'args' must be a list, got {args!r}")
    return tuple(predicate_from_json(a) for a in args)


def _int_field(data: dict, key: str) -> int:
    # bool is an int subclass, but JSON true/false is not a number.
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"predicate field {key!r} must be an integer, got {value!r}")
    return value


def _cmp_name(name: str) -> str:
    if not isinstance(name, str) or name not in _CMP:
        raise ModelError(f"unknown comparator {name!r}")
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


def detect_width_predicate(
    sm: StateModel,
    pred: PredicateLike,
    warnings: list | None = None,
) -> Iterator[frozenset[str]]:
    """Yield the maximum antichains of *sm* on which the predicate holds.

    The model's poset must be width-extensible.  When the poset width is
    smaller than the process count no global state spans every process, so
    the stream is empty.  First-match and count modes are just ``next()`` and
    ``sum(1 for ...)`` over the stream.
    """
    verdict = check_width_extensible(sm.poset)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    w, _ = width(sm.poset)
    if sm.poset.elements and w != sm.n:
        log.info(
            "width %d < process count %d: no frontier-spanning global states",
            w,
            sm.n,
        )
        return
    sink = warnings if warnings is not None else []
    for antichain in enumerate_width_antichains(sm):
        if _evaluate(sm, pred, antichain, sink):
            yield antichain


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
    kept_set = set(kept)
    pairs = [
        (a, b)
        for a, b in sm.poset.closure_pairs()
        if a in kept_set and b in kept_set
    ]
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
