import pytest

from dupkit import simulate


@pytest.fixture(autouse=True)
def _stop_split_workers():
    """Stop the sampling workers after each test.

    A worker runs the code its process had when it was forked, so one kept
    into the next test would still run this test's monkeypatched modules.
    """
    yield
    simulate._stop_workers()
