from __future__ import annotations

from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDENS = FIXTURES / "goldens"


@pytest.fixture(autouse=True)
def default_oracle_bound(monkeypatch):
    """Every test starts at the default oracle bound, whatever the caller's
    environment; a test that needs another bound sets the variable itself."""
    monkeypatch.delenv("POSETDUAL_ORACLE_BOUND", raising=False)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def goldens_dir() -> Path:
    return GOLDENS
