import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sgmor.bench  # noqa: E402


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts without cached projections, error references or
    technique-iii margins, so that what it counts or compares does not
    depend on the tests that ran before it.  A test that asks for this
    fixture gets the function that empties them, to start cold again."""

    def clear():
        for cache in (sgmor.bench._projection, sgmor.bench._reference,
                      sgmor.bench._margin):
            cache.cache_clear()

    clear()
    return clear
