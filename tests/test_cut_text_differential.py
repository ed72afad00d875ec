"""``cuts`` lines, rendered a run at a time, against the reference walk.

The CLI renders each run of bitsets with one join (``cli._cut_lines``).  It
reads a run's anchor column, its first 16-id column that is not all zero,
from a table without the leading ", " when no entry of that column is zero,
and otherwise joins each cut's names and cuts off the first separator.
Every line must be ``json.dumps({"cut": sorted(cut)})`` of the cut that the
frame-by-frame reference walk of ``test_walk_differential`` gives at the same
position, on every one of those paths, and ``cuts`` must stop at its cap,
also inside a block of 2**16 images.
"""

import collections
import itertools
import json
import random

import pytest

from posetdual import build_poset, build_state_model, cli, lattice
from posetdual.errors import NotWidthExtensible
from posetdual.statemodel import require_width_extensible
from posetdual.traces import state_to_json, write_trace

from test_walk_differential import ref_antichains, ref_downsets

SIZES = [0, 1, 15, 16, 17, 31, 33]
ALPHABET = 'aBz"\\é☃ \n0'  # json.dumps escapes the quote, backslash, é, ☃ and newline
LIMIT = 1500  # cuts compared per walk: six runs


def ref_lines(images, items):
    """Per reference image over *items*, its ``cuts`` line."""
    return [
        json.dumps({"cut": sorted(x for i, x in enumerate(items) if image >> i & 1)})
        for image, _ in images
    ]


def assert_same_lines(got, want):
    """``got == want`` for two lists of lines, reported by the first line
    that differs (a diff of thousands of lines takes minutes)."""
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, k
    assert len(got) == len(want)


def path(run, fields):
    """The rendering path the module docstring gives for *run*."""
    for f, column in enumerate(lattice._columns(run, fields)):
        if any(column):
            return "per cut" if 0 in column else "anchor 0" if f == 0 else "anchor > 0"
    return "all empty"


def cli_lines(names, runs, paths, limit=LIMIT):
    """The first *limit* ``cuts`` lines of *runs*, rendered a run at a time,
    counting the runs per path in *paths*."""
    render, fields, lines = cli._cut_lines(names), lattice._width(len(names)) // 2, []
    for run in runs:
        if len(lines) >= limit:
            break
        paths[path(run, fields)] += 1
        lines += render(run).splitlines()
    return lines[:limit]


def random_names(rng, n):
    names = set()
    while len(names) < n:
        names.add("".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3))))
    return rng.sample(sorted(names), n)


def random_poset(rng, n):
    """A poset on *n* names whose sorted order differs from its linear
    extension's."""
    names = random_names(rng, n)
    density = rng.choice([0.0, 0.03, 0.1, 0.3])
    pairs = [
        (names[a], names[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < density
    ]
    return build_poset(names, pairs)


def random_state_model(rng, n):
    """A state model on *n* names, its chains interleaved at random, with
    forward edges between chains."""
    names = random_names(rng, n)
    k = rng.randint(1, min(n, 4)) if n else 0
    tags = [rng.randrange(k) for _ in range(n)]
    chains = [[name for name, tag in zip(names, tags) if tag == i] for i in range(k)]
    chains = [chain for chain in chains if chain]
    pairs = [pair for chain in chains for pair in zip(chain, chain[1:])]
    chain_of = {name: i for i, chain in enumerate(chains) for name in chain}
    for _ in range(rng.randint(0, 2 * k)):
        if n > 1:
            a, b = sorted(rng.sample(range(n), 2))
            if chain_of[names[a]] != chain_of[names[b]]:
                pairs.append((names[a], names[b]))
    return build_state_model(build_poset(names, pairs), chains)


def assert_downsets_equal_reference(p, paths, limit=LIMIT):
    reference = ref_lines(itertools.islice(ref_downsets(p), limit), p.elements)
    assert_same_lines(cli_lines(*cli._downset_runs(p), paths, limit), reference)


def assert_antichains_equal_reference(target, paths):
    try:
        view = require_width_extensible(target)
    except NotWidthExtensible:
        return False
    reference = ref_lines(itertools.islice(ref_antichains(view), LIMIT), view.poset.elements)
    assert_same_lines(cli_lines(*cli._antichain_runs(target), paths), reference)
    return True


@pytest.mark.parametrize("n", SIZES)
def test_random_models_equal_reference(n):
    rng = random.Random(2700 + n)
    paths, antichains = collections.Counter(), 0
    for _ in range(12):
        p = random_poset(rng, n)
        assert_downsets_equal_reference(p, paths)
        antichains += assert_antichains_equal_reference(p, paths)
        antichains += assert_antichains_equal_reference(random_state_model(rng, n), paths)
    assert antichains >= 6, antichains
    if n == 0:  # the one cut is empty
        assert set(paths) == {"all empty"}, paths
        return
    # Every downset walk opens with the empty cut, so its first run is
    # joined per cut; a single field is an anchor 0 once a run has no
    # empty cut.
    assert paths["per cut"] >= 12, paths
    if n >= 15:
        assert paths["anchor 0"] >= 1, paths


def test_runs_of_every_path_equal_reference():
    """Some runs of random models with 17 to 33 ids have an anchor beyond
    field 0, and some, past the first, are joined per cut."""
    rng = random.Random(2717)
    paths = collections.Counter()
    for trial in range(40):
        n = rng.choice([17, 31, 33])
        p = random_poset(rng, n)
        assert_downsets_equal_reference(p, paths)
        assert_antichains_equal_reference(p, paths)
    assert paths["anchor > 0"] >= 1 and paths["anchor 0"] >= 1, paths
    assert paths["per cut"] >= 41, paths  # more than one per downset walk


def ci_poset():
    """The 120-element poset of the CI scale cuts smoke."""
    rng = random.Random(5)
    ids = [f"y{i:03d}" for i in range(120)]
    pairs = [(ids[a], ids[b]) for a in range(120) for b in range(a + 1, 120) if rng.random() < 0.03]
    return build_poset(ids, pairs)


def test_ci_poset_first_cuts_have_an_empty_field_0():
    p = ci_poset()
    paths = collections.Counter()
    assert_downsets_equal_reference(p, paths, 3000)
    runs = itertools.islice(cli._downset_runs(p)[1], 12)  # 3,072 cuts
    assert not any(any(lattice._columns(run, 8)[0]) for run in runs)
    assert paths["anchor > 0"] >= 10 and paths["per cut"] >= 1, paths


def run_cuts(capsys, path, family, cap):
    code = cli.main(["cuts", str(path), "--family", family, "--max-cuts", str(cap)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("family", ["downsets", "antichains"])
def test_cuts_stop_at_the_cap(capsys, tmp_path, family):
    rng = random.Random(2720)
    for _ in range(100):  # a model with more than 513 cuts
        sm = random_state_model(rng, 24)
        try:
            view = require_width_extensible(sm)
        except NotWidthExtensible:
            continue
        walk = ref_downsets(sm.poset) if family == "downsets" else ref_antichains(view)
        items = sm.poset.elements if family == "downsets" else view.poset.elements
        lines = ref_lines(walk, items)
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
            assert_same_lines(out.split("\n"), lines[:cap] + [""])
        else:
            assert (code, err) == (0, "")
            assert_same_lines(out.split("\n"), lines + [json.dumps({"count": cap}), ""])


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
    reference = ref_lines(itertools.islice(ref_downsets(p), 70_000), p.elements)
    assert (code, err) == (5, "guard: more than 70000 cuts\n")
    assert_same_lines(out.split("\n"), reference + [""])
