from __future__ import annotations

import signal
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDENS = FIXTURES / "goldens"

# Seconds a test may run; the slowest takes well under 10 s.
TIME_LIMIT_S = 120


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


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def goldens_dir() -> Path:
    return GOLDENS
