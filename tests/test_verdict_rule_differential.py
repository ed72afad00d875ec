"""``we`` and ``ic`` by one rule, against a transcription of the helpers it
replaced.

A model's own chains can only pass width-extensibility and
interleaving-consistency; every failing verdict is the poset's, decided on
Kuhn's partition.  Before, ``statemodel`` reached the same reports through
helpers that handed verdicts to each other (``_decide``, the ``known``
omega verdicts of ``_width_extensible`` and ``_interleaving_consistent``),
and ran a witness scan on the model's own chains that it then discarded.
The reference below transcribes those helpers, ``run_property_checks`` and
``require_width_extensible``; reports for random property subsets (an
``OracleBoundExceeded`` counts as an outcome) and the chains or witness of
``require_width_extensible`` must agree exactly.

The public checks ``check_width_extensible`` and
``check_interleaving_consistent`` decide a state model by the same rule, so
each must give the verdict that ``check`` (``run_property_checks``) gives.
"""

import json
import random
from collections import Counter

from posetdual import statemodel
from posetdual.cli import main
from posetdual.errors import NotWidthExtensible, OracleBoundExceeded, UsageError
from posetdual.statemodel import (
    PROPERTIES,
    PropertyReport,
    Verdict,
    check_interleaving_consistent,
    check_omega1,
    check_omega2,
    check_omega3,
    check_psi,
    check_width_extensible,
    interleaving_consistent_bruteforce,
    minimum_view,
    require_width_extensible,
    run_property_checks,
)

from builders import pinch_state
from test_omega_differential import random_models as omega_models
from test_partition_differential import random_models as partition_models

BOUND = 14

# --- the transcription ---------------------------------------------------

OMEGAS = (("omega1", check_omega1), ("omega2", check_omega2), ("omega3", check_omega3))


def ref_decide(target, view, check, verdict=None):
    if verdict is None:
        verdict = check(view)
    if verdict.ok or view is not target:
        return verdict
    return check(minimum_view(view.poset))


def ref_width_extensible(sm, known=None):
    for name, check in OMEGAS:
        verdict = known[name] if known and name in known else check(sm)
        if not verdict.ok:
            return statemodel._width_extensible_witness(sm)
    return Verdict(True)


def ref_interleaving_consistent(target, view, we, psi=None):
    if we.ok:
        return ref_decide(target, view, check_psi, psi)
    return interleaving_consistent_bruteforce(view.poset)


def ref_run_property_checks(sm, properties):
    wanted = list(properties)
    unknown = sorted(set(wanted) - set(PROPERTIES))
    if unknown:
        raise UsageError(f"unknown properties {unknown}")
    kw = {}
    if "omega1" in wanted:
        kw["omega1"] = check_omega1(sm)
    if "omega2" in wanted:
        kw["omega2"] = check_omega2(sm)
    if "omega3" in wanted:
        kw["omega3"] = check_omega3(sm)
    if "psi" in wanted:
        kw["psi"] = check_psi(sm)
    if "we" in wanted or "ic" in wanted:
        view = minimum_view(sm)
        known = kw if view is sm else None
        we = ref_decide(sm, view, ref_width_extensible, ref_width_extensible(view, known))
    if "we" in wanted:
        kw["width_extensible"] = we
    if "ic" in wanted:
        psi = kw.get("psi") if view is sm else None
        kw["interleaving_consistent"] = ref_interleaving_consistent(sm, view, we, psi)
    return PropertyReport(**kw)


def ref_require_width_extensible(target):
    view = minimum_view(target)
    verdict = ref_decide(target, view, ref_width_extensible)
    if not verdict.ok:
        raise NotWidthExtensible(verdict.witness)
    return view


# --- the comparison ------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """*fn*'s JSON report, verdict or chains, or the class and payload it
    raised."""
    try:
        result = fn(*args, **kwargs)
    except (OracleBoundExceeded, NotWidthExtensible) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    if isinstance(result, (PropertyReport, Verdict)):
        return result.as_json()
    return result.chains


def models(rng):
    yield from omega_models(rng, 2000, 14)
    yield from partition_models(rng, 2000)


def test_one_rule_equals_verdict_passing_helpers(monkeypatch):
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", str(BOUND))
    rng = random.Random(1956)
    branches = Counter()
    for sm in models(rng):
        for _ in range(3):
            subset = rng.sample(PROPERTIES, rng.randint(1, len(PROPERTIES)))
            got = outcome(run_property_checks, sm, subset)
            want = outcome(ref_run_property_checks, sm, subset)
            assert got == want, (sm.chains, subset)
        assert outcome(require_width_extensible, sm) == outcome(
            ref_require_width_extensible, sm
        ), sm.chains

        own = [check(sm).ok for _, check in OMEGAS]
        we = ref_width_extensible(minimum_view(sm.poset))
        if not own[0]:
            branches["omega1 fails"] += 1
        elif not we.ok:
            branches["omega1 holds, we fails"] += 1
        elif all(own) and not check_psi(sm).ok:
            branches["only psi fails"] += 1
        branches["require raises"] += not we.ok
    # Each branch of the rule must have been compared often.
    assert branches["omega1 fails"] >= 800, branches
    assert branches["omega1 holds, we fails"] >= 400, branches
    assert branches["only psi fails"] >= 300, branches
    assert branches["require raises"] >= 1000, branches


def test_failing_verdicts_scan_kuhn_partition_once(monkeypatch):
    """On the pinch gadget omega1 holds and omega3 fails; the failing ``we``
    is named by one scan on Kuhn's partition, none on the own chains."""
    scanned = []
    scan = statemodel._width_extensible_witness

    def recording(sm):
        scanned.append(sm)
        return scan(sm)

    monkeypatch.setattr(statemodel, "_width_extensible_witness", recording)
    sm = pinch_state()
    assert check_omega1(sm).ok and not check_omega3(sm).ok
    for run in (
        lambda: run_property_checks(sm, ["we"]).width_extensible,
        lambda: require_width_extensible(sm),
    ):
        scanned.clear()
        try:
            verdict = run()
        except NotWidthExtensible as exc:
            verdict = Verdict(False, exc.witness)
        assert not verdict.ok
        assert len(scanned) == 1 and scanned[0] is not sm, scanned
        assert scanned[0].chains == minimum_view(sm.poset).chains


def test_public_checks_answer_as_check(monkeypatch):
    """Given a state model, ``check_width_extensible`` and
    ``check_interleaving_consistent`` give ``check``'s ``we`` and ``ic``:
    a failure is named on Kuhn's partition, not on the model's own chains."""
    monkeypatch.setenv("POSETDUAL_ORACLE_BOUND", str(BOUND))
    rng = random.Random(1957)
    branches = Counter()
    for sm in models(rng):
        report = outcome(run_property_checks, sm, ["we", "ic"])
        if isinstance(report, dict):
            we, ic = report["we"], report["ic"]
        else:  # ic raised; we alone still has a verdict
            we, ic = outcome(run_property_checks, sm, ["we"])["we"], report
        assert outcome(check_width_extensible, sm) == we, sm.chains
        assert outcome(check_interleaving_consistent, sm) == ic, sm.chains
        own = [check(sm).ok for _, check in OMEGAS]
        branches["we fails"] += not we["ok"]
        branches["only psi fails"] += all(own) and not check_psi(sm).ok
    assert branches["we fails"] >= 800, branches
    assert branches["only psi fails"] >= 300, branches


def test_interleaving_check_of_pinch_model_is_checks_verdict(fixtures_dir, capsys):
    """The pinch model is not width-extensible, so ``ic`` enumerates the
    maximum antichains of its poset, not of the model."""
    assert main(["check", str(fixtures_dir / "pinch_state.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert check_interleaving_consistent(pinch_state()).as_json() == report["ic"]
    assert check_width_extensible(pinch_state()).as_json() == report["we"]
