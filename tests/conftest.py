from __future__ import annotations

import collections
import itertools
import signal
from pathlib import Path

import pytest

import reference
from posetdual import cli, lattice
from posetdual.errors import NotWidthExtensible
from posetdual.statemodel import require_width_extensible

try:
    import resource
except ImportError:  # not on every platform
    resource = None

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDENS = FIXTURES / "goldens"

# Seconds a test may run; the slowest takes well under 10 s.
TIME_LIMIT_S = 120

# Bytes of address space a test may map; the whole suite runs in one
# session within it.
MEMORY_LIMIT = 2 << 30


@pytest.fixture(autouse=True)
def default_oracle_bound(monkeypatch):
    """Every test starts at the default oracle bound, whatever the caller's
    environment; a test that needs another bound sets the variable itself."""
    monkeypatch.delenv("POSETDUAL_ORACLE_BOUND", raising=False)


@pytest.fixture(autouse=True)
def time_limit():
    """Every test fails once it has run ``TIME_LIMIT_S`` seconds, so code
    that loops ends the test rather than hanging the suite.  The limit is a
    real-time timer's signal, where the platform has one."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def memory_limit():
    """Every test fails with ``MemoryError`` once the process maps
    ``MEMORY_LIMIT`` bytes, so code that loops while it allocates ends the
    test rather than the machine's memory.  The limit is a soft
    ``RLIMIT_AS``, where the platform has one and no lower limit is set,
    and the old limit is back after the test."""
    if resource is None:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY and soft <= MEMORY_LIMIT:
        yield
        return
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def goldens_dir() -> Path:
    return GOLDENS


# --- the cut walk against tests/reference.py -----------------------------------

BOUNDS = [0, 1, 3, lattice._BLOCK]

WALK = lattice._walk


def checked_walk(p, image, flips, width):
    """``lattice._walk``, asserting at every block that its memo holds no
    more deltas than the walk has emitted plus one block."""
    blocks = WALK(p, image, flips, width)
    emitted = 0
    for avail, image, deltas in blocks:
        held = sum(n for _, n in blocks.gi_frame.f_locals["memo"].values())
        assert held <= emitted + deltas[1]
        emitted += deltas[1]
        yield avail, image, deltas


@pytest.fixture(params=BOUNDS, ids=[f"block{b}" for b in BOUNDS])
def bound(request, monkeypatch):
    """Runs a test at each block bound (0 expands every frame)."""
    monkeypatch.setattr(lattice, "_BLOCK", request.param)
    return request.param


def path(run, fields):
    """The path ``cli._cut_lines`` takes on *run*: its anchor column, the
    first that is not all zero, is read without the leading ", " where no
    entry of it is zero, and otherwise each cut's names are joined."""
    for f, column in enumerate(lattice._columns(run, fields)):
        if any(column):
            return "per cut" if 0 in column else "anchor 0" if f == 0 else "anchor > 0"
    return "all empty"


class CutCheck:
    """The library's cut streams against :func:`reference.downsets` and
    :func:`reference.frontiers`: the images of ``lattice._downsets``,
    ``_antichains`` and ``_frontiers``, the sets of
    ``lattice.enumerate_downsets`` and ``enumerate_width_antichains`` and the
    ``cuts`` lines of ``cli._cut_lines``, each up to *limit* cuts, in order.
    ``paths`` counts the runs rendered per :func:`path`."""

    def __init__(self):
        self.paths = collections.Counter()

    @staticmethod
    def same(got, want):
        """``got == want`` for two lists, reported by the first entry that
        differs (a diff of thousands of lines takes minutes)."""
        for k, (a, b) in enumerate(zip(got, want)):
            assert a == b, k
        assert len(got) == len(want)

    def lines(self, names, runs, limit):
        """The first *limit* ``cuts`` lines of *runs*, rendered a run at a
        time as ``cmd_cuts`` does."""
        render, fields, out = cli._cut_lines(names), lattice._width(len(names)) // 2, []
        for run in runs:
            if limit is not None and len(out) >= limit:
                break
            self.paths[path(run, fields)] += 1
            *lines, tail = render(run).split("\n")
            assert tail == ""
            out += lines
        return out[:limit]

    def compare(self, names, runs, cli_runs, want, limit):
        index = {x: i for i, x in enumerate(names)}
        images = lattice._images(runs, lattice._width(len(names)))
        masks = [sum(1 << index[x] for x in cut) for cut in want]
        self.same(list(itertools.islice(images, limit)), masks)
        self.same(self.lines(*cli_runs, limit), list(map(reference.cut_line, want)))

    def downsets(self, p, limit=None):
        want = list(itertools.islice(reference.downsets(p), limit))
        self.same(list(itertools.islice(lattice.enumerate_downsets(p), limit)), want)
        self.compare(p.elements, lattice._downsets(p), cli._downset_runs(p), want, limit)

    def antichains(self, target, limit=None):
        """Compares the maximum antichains of *target*, if it is
        width-extensible, and returns whether it is."""
        try:
            view = require_width_extensible(target)
        except NotWidthExtensible:
            return False
        vectors = list(itertools.islice(reference.frontiers(view), limit))
        self.same(list(itertools.islice(lattice._frontiers(view), limit)), vectors)
        want = [reference.width_antichain(view, tops) for tops in vectors]
        enumerated = lattice.enumerate_width_antichains(target)
        self.same(list(itertools.islice(enumerated, limit)), want)
        runs, cli_runs = lattice._antichains(view), cli._antichain_runs(target)
        self.compare(view.poset.elements, runs, cli_runs, want, limit)
        return True


@pytest.fixture
def cuts(monkeypatch):
    """A :class:`CutCheck`, with every walk's memo checked (``checked_walk``)."""
    monkeypatch.setattr(lattice, "_walk", checked_walk)
    return CutCheck()
