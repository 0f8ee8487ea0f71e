import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pfkit import paperfold


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` returns ``(fn(*args), peak)``, the peak
    traced allocation of the call in bytes (numpy reports its buffers to
    tracemalloc).  A first, untraced call grows the prefix cache, so the
    peak is what the call needs beyond the symbols it reads."""

    def measure(fn, *args):
        fn(*args)
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture(scope="session")
def symbols():
    """``with symbols(arr):`` makes a read-only copy of the 0/1 array
    ``arr`` the paper-folding symbol source (``paperfold._prefix_array``),
    so every check and every word built from the prefix reads it; a
    request for more symbols than ``arr`` holds fails the test.  The
    fixture holds no state, so hypothesis tests may use it per example."""

    def install(arr):
        source = np.array(arr, dtype=np.uint8)
        source.setflags(write=False)

        def prefix(length):
            assert length <= source.size, f"{length} symbols requested from a source of {source.size}"
            return source[:length]

        return mock.patch.object(paperfold, "_prefix_array", prefix)

    return install
