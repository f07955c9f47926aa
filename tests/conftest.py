"""Each test starts with no shared root systems.

The ``lie`` factories share one RootSystem per root datum within a process.
Tests that corrupt a system's tables or count its memo misses then see a
fresh system, whatever ran before them."""

import pytest

from rslab import lie


@pytest.fixture(autouse=True)
def _fresh_root_systems():
    lie._kept.clear()
