"""Shared fixtures of the matching-engine tests."""

import pytest

from repro.matching import fused


@pytest.fixture
def always_flush(monkeypatch):
    """Keep a full dense table flushing however few bytes each fill
    serves, so a tiny ``table_states`` budget empties and refills the
    table every few bytes instead of abandoning it at the first flush:
    the flushing tier of the corpus differentials."""
    monkeypatch.setattr(fused, "MIN_BYTES_PER_FILL", 0)
