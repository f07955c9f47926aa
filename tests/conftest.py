"""Each test starts with no shared root systems and no genus specs.

The ``lie`` factories share one RootSystem per root datum within a process,
and ``charclass`` keeps one log Q per genus at the highest order built.
Tests that corrupt a system's tables or count its memo misses then see a
fresh system, and a spec built at a high order by an earlier test cannot
mask an order bug, whatever ran before them."""

import pytest

from rslab import charclass, lie


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    lie._kept.clear()
    charclass._SPECS.clear()
