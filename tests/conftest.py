import tracemalloc

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(params=["C", "F", "view"])
def laid_out(request):
    """A function giving its matrix's values as a C-ordered array, an
    F-ordered array or a strided view into a larger array, by parameter."""

    def lay(X):
        if request.param == "C":
            return np.ascontiguousarray(X)
        if request.param == "F":
            return np.asfortranarray(X)
        parent = np.full((2 * X.shape[0], X.shape[1] + 1), -7.0)
        parent[::2, 1:] = X
        return parent[::2, 1:]

    return lay


@pytest.fixture
def traced_peak():
    """A function giving the peak bytes that ``fn(*args)`` allocates beyond
    what was live when it was called, as tracemalloc sees them."""

    def peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak
