import itertools
import random

import pytest

from posetdual import (
    BadMarking,
    Comparability,
    NotWidthExtensible,
    OracleBoundExceeded,
    build_poset,
    build_state_model,
    comparable,
    detect_width_predicate,
    enumerate_antichains,
    es_transform,
    find_useless_checkpoints,
    width,
)
from posetdual.analysis import (
    AggCmp,
    And,
    AttrCmp,
    CheckpointMarking,
    Const,
    IndexCmp,
    Not,
    Or,
    predicate_from_json,
)
from posetdual.statemodel import StateModel

from builders import (
    barrier_predicate,
    crossing_event,
    crossing_marking,
    forks_predicate,
    message_pair_state,
    permits_predicate,
    pinch_poset,
    random_asc,
    random_event_model,
    random_marking,
    restricted_model,
    sessions_model,
    zigzag_marking,
    zigzag_state,
)


def _oracle_satisfying(sm: StateModel, pred) -> set[frozenset[str]]:
    """Independent route: brute-force antichain scan plus direct evaluation."""
    from posetdual.analysis import _evaluate

    w, _ = width(sm.poset)
    out = set()
    for antichain in enumerate_antichains(sm.poset, size_filter=w):
        if _evaluate(sm, pred, antichain, []):
            out.add(antichain)
    return out


def test_index_predicate_on_message_pair():
    sm = message_pair_state()
    pred = And((IndexCmp(1, ">=", 2), IndexCmp(2, ">=", 2)))
    got = set(detect_width_predicate(sm, pred))
    assert got == {
        frozenset({"b'", "f'"}), frozenset({"c'", "f'"}),
        frozenset({"b'", "g'"}), frozenset({"c'", "g'"}),
    }
    assert got == _oracle_satisfying(sm, pred)


def test_const_predicates():
    sm = message_pair_state()
    assert sum(1 for _ in detect_width_predicate(sm, Const(True))) == 12
    assert list(detect_width_predicate(sm, Const(False))) == []


def test_callable_predicate_and_first_match():
    sm = message_pair_state()
    stream = detect_width_predicate(sm, lambda model, cut: "c'" in cut)
    first = next(stream)
    assert "c'" in first


def test_detection_requires_width_extensibility():
    sm = build_state_model(pinch_poset(), [["a", "b", "c"], ["d", "e"]])
    with pytest.raises(NotWidthExtensible):
        list(detect_width_predicate(sm, Const(True)))


def test_detection_with_narrow_poset_yields_nothing():
    p = build_poset(["a", "b"], [("a", "b")])
    sm = build_state_model(p, [["a"], ["b"]])  # two chains, width 1
    assert list(detect_width_predicate(sm, Const(True))) == []


def test_fixture_predicates_match_oracle():
    sm = sessions_model()
    for pred in (barrier_predicate(), forks_predicate(), permits_predicate()):
        got = set(detect_width_predicate(sm, pred))
        assert got == _oracle_satisfying(sm, pred)
        assert got, "fixture predicates are satisfiable by construction"


def test_permits_threshold_changes_the_family():
    sm = sessions_model()
    loose = set(detect_width_predicate(sm, permits_predicate(cap=100)))
    tight = set(detect_width_predicate(sm, permits_predicate(cap=3)))
    assert tight < loose


def test_missing_attribute_is_false_with_warning():
    sm = message_pair_state()  # carries no attrs at all
    warnings: list = []
    got = list(detect_width_predicate(sm, AttrCmp(1, "ghost", "==", 1), warnings))
    assert got == [] and warnings


def test_uncomparable_attribute_types_are_false_with_warning():
    sm = sessions_model()
    warnings: list = []
    pred = AttrCmp(1, "session", "<", "a string")
    got = list(detect_width_predicate(sm, pred, warnings))
    assert got == [] and any("cannot compare" in w for w in warnings)


def test_predicate_json_roundtrip():
    pred = Or((
        And((AttrCmp(1, "x", ">=", 2), Not(IndexCmp(2, "==", 0)))),
        AggCmp("count", "flag", ">", 1),
        Const(False),
    ))
    data = pred.as_json()
    assert predicate_from_json(data) == pred
    with pytest.raises(Exception):
        predicate_from_json({"op": "mystery"})


# --- checkpoints -----------------------------------------------------------

def test_marking_validation():
    sm = zigzag_state()
    CheckpointMarking(((0, 1, 2), (0, 3))).validate(sm)
    with pytest.raises(BadMarking):
        CheckpointMarking(((0, 2),)).validate(sm)  # wrong process count
    with pytest.raises(BadMarking):
        CheckpointMarking(((1, 2), (0, 3))).validate(sm)  # initial missing
    with pytest.raises(BadMarking):
        CheckpointMarking(((0, 1), (0, 3))).validate(sm)  # final missing
    with pytest.raises(BadMarking):
        CheckpointMarking(((0, 2, 1), (0, 3))).validate(sm)  # not increasing
    with pytest.raises(BadMarking):
        CheckpointMarking(((0, 9, 2), (0, 3))).validate(sm)  # out of range


def test_zigzag_reports_exactly_the_pinched_checkpoint():
    sm = zigzag_state()
    rep = find_useless_checkpoints(sm, zigzag_marking(), engine="both")
    assert rep.useless == {"1.1"}
    assert rep.engines_agree is True
    for v in rep.verdicts:
        if v.useful:
            assert v.state in v.witness
            # witness re-validates as a global checkpoint of the restriction
            for a, b in itertools.combinations(v.witness, 2):
                assert comparable(sm.poset, a, b) is Comparability.CONCURRENT


@pytest.mark.parametrize(
    "marks, bound, error",
    [
        (((0, 1, 2), (0, 2, 3)), 3, "9 tuples exceed oracle cap 8"),
        (((0, 1, 2), (0, 2, 3)), 4, None),
        (((0, 2), (0, 3)), 1, "4 tuples exceed oracle cap 2"),
        (((0, 2), (0, 3)), 2, None),
    ],
)
def test_oracle_takes_at_most_two_to_the_bound_tuples(marks, bound, error):
    marking = CheckpointMarking(marks)
    if error is None:
        assert find_useless_checkpoints(zigzag_state(), marking, "oracle", bound=bound).verdicts
    else:
        with pytest.raises(OracleBoundExceeded) as exc:
            find_useless_checkpoints(zigzag_state(), marking, "oracle", bound=bound)
        assert str(exc.value) == error


def test_no_cross_edges_means_no_useless_checkpoints():
    p = build_poset(
        ["u0", "u1", "u2", "v0", "v1"],
        [("u0", "u1"), ("u1", "u2"), ("v0", "v1")],
    )
    sm = build_state_model(p, [["u0", "u1", "u2"], ["v0", "v1"]])
    rep = find_useless_checkpoints(
        sm, CheckpointMarking(((0, 1, 2), (0, 1))), engine="both"
    )
    assert rep.useless == frozenset() and rep.engines_agree


def test_full_marking_of_extensible_model_has_no_useless_checkpoints():
    sm = message_pair_state()
    marks = CheckpointMarking(((0, 1, 2, 3), (0, 1, 2, 3)))
    rep = find_useless_checkpoints(sm, marks, engine="both")
    assert rep.useless == frozenset() and rep.engines_agree


def test_crossing_model_fast_engine_agrees_despite_nonempty_runs():
    # middle checkpoint of the first process has nonempty incomparable runs
    # on both other chains yet no global checkpoint contains it
    sm = es_transform(crossing_event())
    rep = find_useless_checkpoints(sm, crossing_marking(), engine="both")
    assert rep.useless == {"1.2"}
    assert rep.engines_agree is True


def test_engines_agree_on_randomized_marked_models():
    rng = random.Random(41)
    for _ in range(60):
        sm = es_transform(random_asc(rng, max_procs=4, max_events_per_proc=4))
        marks = random_marking(rng, sm)
        rep = find_useless_checkpoints(sm, marks, engine="both")
        assert rep.engines_agree is True
        assert rep.engine == "both"


def test_usefulness_is_definitional():
    # useful iff a witness exists and re-validates; useless iff no tuple works
    rng = random.Random(42)
    for _ in range(20):
        sm = es_transform(random_asc(rng, max_procs=3, max_events_per_proc=3))
        marks = random_marking(rng, sm)
        rep = find_useless_checkpoints(sm, marks, engine="oracle")
        ind = restricted_model(sm, marks)
        for v in rep.verdicts:
            combos = [
                combo
                for combo in itertools.product(*ind.chains)
                if v.state in combo
                and all(
                    comparable(ind.poset, a, b) is Comparability.CONCURRENT
                    for a, b in itertools.combinations(combo, 2)
                )
            ]
            assert bool(combos) == v.useful


def test_fast_witness_is_the_least_global_checkpoint_containing_the_state():
    # Every global checkpoint of the restriction is enumerated, as the
    # oracle does; the fast witness must be one of them, and below every
    # other one that contains the checkpoint, chain by chain.
    rng = random.Random(44)
    checked = 0
    for _ in range(400):
        sm = es_transform(random_event_model(
            rng, max_procs=4, max_events_per_proc=5, max_messages=8
        ))
        marking = random_marking(rng, sm)
        rep = find_useless_checkpoints(sm, marking, engine="fast")
        assert rep.engine == "fast"
        ind = restricted_model(sm, marking)
        position = {s: k for chain in ind.chains for k, s in enumerate(chain)}
        checkpoints = [
            combo
            for combo in itertools.product(*ind.chains)
            if all(
                comparable(ind.poset, a, b) is Comparability.CONCURRENT
                for a, b in itertools.combinations(combo, 2)
            )
        ]
        for v in rep.verdicts:
            if not v.useful:
                continue
            least = tuple(s for chain in ind.chains for s in chain if s in v.witness)
            assert len(v.witness) == ind.n and least in checkpoints
            for combo in checkpoints:
                if v.state in combo:
                    assert all(position[a] <= position[b] for a, b in zip(least, combo))
            checked += 1
    assert checked >= 1500, checked
