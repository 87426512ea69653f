import numpy as np
import pytest


@pytest.fixture(autouse=True)
def numpy_error_state():
    """Fails a test that leaves numpy's floating-point error state changed,
    and restores it: every later test would otherwise run with those
    warnings off, and its guards against them would check nothing."""
    errors = np.geterr()
    yield
    left = np.geterr()
    np.seterr(**errors)
    assert left == errors, f"numpy's error state left at {left}"
