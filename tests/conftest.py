"""One guard for every test: a test that leaves process state behind fails
itself, not a test that runs after it."""

import gc
import warnings

import pytest

from mrscene import tensor as T

# Hypothesis's pytest plugin imports this module when a property fails, and
# the import warns through mypy_extensions; under the suite's
# error::DeprecationWarning that warning replaced the falsifying example
# with an INTERNALERROR. Imported here once, the plugin finds it loaded.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def blas_thread_count():
    """The OpenBLAS thread count, or None when numpy's BLAS exports none."""
    blas = T._blas_threads()
    return blas and blas[0]()


@pytest.fixture(scope="session")
def blas_threads_at_start():
    return blas_thread_count()


@pytest.fixture(autouse=True)
def no_leaked_process_state(blas_threads_at_start):
    """After the test: collect garbage, so that an unclosed file's
    ResourceWarning or an exception raised in a finaliser is reported on
    this test; then fail it if it left the shard lock held, a gradient
    sink set or the OpenBLAS thread count changed. The sink and the count
    are put back, so the tests after it start clean."""
    yield
    gc.collect()
    leaks = []
    if T._running.locked():
        leaks.append("tensor._running is still held")
    if T._sink.get() is not None:
        T._sink.set(None)
        leaks.append("a gradient sink is still set")
    if blas_thread_count() != blas_threads_at_start:
        T._blas_threads()[1](blas_threads_at_start)
        leaks.append(f"the OpenBLAS thread count was left changed from {blas_threads_at_start}")
    assert not leaks, "; ".join(leaks)
