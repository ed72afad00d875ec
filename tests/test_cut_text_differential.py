"""``cuts`` lines, rendered a run at a time, against the reference walk.

The CLI renders each run of bitsets with one join (``cli._cut_lines``).  It
reads a run's anchor column, its first 16-id column that is not all zero,
from a table without the leading ", " when no entry of that column is zero,
and otherwise joins each cut's names and cuts off the first separator.
Every line must be ``reference.cut_line``, ``json.dumps({"cut":
sorted(cut)})``, of the cut that ``reference.downsets`` or
``reference.width_antichains`` gives at the same position, on every one of
those paths (counted by the ``cuts`` fixture of ``tests/conftest.py``), and
``cuts`` must stop at its cap, also inside a block of 2**16 images.
"""

import itertools
import json
import random

import pytest

import reference
from posetdual import build_poset, cli, lattice
from posetdual.errors import NotWidthExtensible
from posetdual.statemodel import require_width_extensible
from posetdual.traces import state_to_json, write_trace

from builders import random_poset, random_state_model

SIZES = [0, 1, 15, 16, 17, 31, 33]
NAMES = 'aBz"\\é☃ \n0'  # json.dumps escapes the quote, backslash, é, ☃ and newline
LIMIT = 1500  # cuts compared per walk: six runs


@pytest.mark.parametrize("n", SIZES)
def test_random_models_equal_reference(n, cuts):
    rng = random.Random(2700 + n)
    antichains = 0
    for _ in range(12):
        p = random_poset(rng, n, NAMES)
        cuts.downsets(p, LIMIT)
        antichains += cuts.antichains(p, LIMIT)
        antichains += cuts.antichains(random_state_model(rng, n, NAMES), LIMIT)
    assert antichains >= 6, antichains
    paths = cuts.paths
    if n == 0:  # the one cut is empty
        assert set(paths) == {"all empty"}, paths
        return
    # Every downset walk opens with the empty cut, so its first run is
    # joined per cut; a single field is an anchor 0 once a run has no
    # empty cut.
    assert paths["per cut"] >= 12, paths
    if n >= 15:
        assert paths["anchor 0"] >= 1, paths


def test_runs_of_every_path_equal_reference(cuts):
    """Some runs of random models with 17 to 33 ids have an anchor beyond
    field 0, and some, past the first, are joined per cut."""
    rng = random.Random(2717)
    for trial in range(40):
        p = random_poset(rng, rng.choice([17, 31, 33]), NAMES)
        cuts.downsets(p, LIMIT)
        cuts.antichains(p, LIMIT)
    paths = cuts.paths
    assert paths["anchor > 0"] >= 1 and paths["anchor 0"] >= 1, paths
    assert paths["per cut"] >= 41, paths  # more than one per downset walk


def ci_poset():
    """The 120-element poset of the CI scale cuts smoke."""
    rng = random.Random(5)
    ids = [f"y{i:03d}" for i in range(120)]
    pairs = [(ids[a], ids[b]) for a in range(120) for b in range(a + 1, 120) if rng.random() < 0.03]
    return build_poset(ids, pairs)


def test_ci_poset_first_cuts_have_an_empty_field_0(cuts):
    p = ci_poset()
    cuts.downsets(p, 3000)
    runs = itertools.islice(cli._downset_runs(p)[1], 12)  # 3,072 cuts
    assert not any(any(lattice._columns(run, 8)[0]) for run in runs)
    assert cuts.paths["anchor > 0"] >= 10 and cuts.paths["per cut"] >= 1, cuts.paths


def same_lines(got, want):
    """``got == want`` for two lists of lines, reported by the first that
    differs (a diff of thousands of lines takes minutes)."""
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, k
    assert len(got) == len(want)


def run_cuts(capsys, path, family, cap):
    code = cli.main(["cuts", str(path), "--family", family, "--max-cuts", str(cap)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("family", ["downsets", "antichains"])
def test_cuts_stop_at_the_cap(capsys, tmp_path, family):
    rng = random.Random(2720)
    for _ in range(100):  # a model with more than 600 cuts
        sm = random_state_model(rng, 24, NAMES)
        try:
            view = require_width_extensible(sm)
        except NotWidthExtensible:
            continue
        walk = reference.downsets(sm.poset) if family == "downsets" else (
            reference.width_antichains(view))
        lines = list(map(reference.cut_line, walk))
        if len(lines) > 600:
            break
    else:
        pytest.fail("no model with more than 600 cuts")
    path = tmp_path / "model.json"
    write_trace(path, state_to_json(sm) if family == "antichains" else poset_doc(sm.poset))
    for cap in (0, 1, 255, 256, 257, 513, len(lines) - 1, len(lines)):
        code, out, err = run_cuts(capsys, path, family, cap)
        if cap < len(lines):
            assert (code, err) == (5, f"guard: more than {cap} cuts\n")
            same_lines(out.split("\n"), lines[:cap] + [""])
        else:
            assert (code, err) == (0, "")
            same_lines(out.split("\n"), lines + [json.dumps({"count": cap}), ""])


def poset_doc(p):
    return {
        "kind": "poset",
        "version": 1,
        "elements": list(p.elements),
        "relations": [list(pair) for pair in p.covers],
    }


def test_cap_inside_a_block_of_2_16_images(capsys, tmp_path):
    """40 unordered ids: the walk emits blocks of 2**16 downsets, and a cap
    of 70,000 falls inside the second."""
    p = build_poset([f"x{i:02d}" for i in range(40)], [])
    path = tmp_path / "free.json"
    write_trace(path, poset_doc(p))
    code, out, err = run_cuts(capsys, path, "downsets", 70_000)
    reference_lines = map(reference.cut_line, itertools.islice(reference.downsets(p), 70_000))
    assert (code, err) == (5, "guard: more than 70000 cuts\n")
    same_lines(out.split("\n"), list(reference_lines) + [""])
