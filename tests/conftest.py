import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sgmor.mor  # noqa: E402


@pytest.fixture(autouse=True)
def cold_reference_cache():
    """Each test starts without cached error references, so that what it
    counts or compares does not depend on the tests that ran before it."""
    sgmor.mor._reference_cache.clear()
