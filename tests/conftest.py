import gc

import pytest


@pytest.fixture
def no_cycle_collector():
    """Python's cycle collector off for one test: only refcounting frees objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()
