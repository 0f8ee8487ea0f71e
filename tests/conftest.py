import tracemalloc

import pytest


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
