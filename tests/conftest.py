import pytest

from triefringe import simulation


@pytest.fixture(autouse=True)
def empty_pool_slot():
    """Every test starts with no kept process pool and leaves none behind,
    so a test that stands in for the pool or patches what its workers run
    never meets workers forked before it."""
    simulation._drop_pool()
    yield
    simulation._drop_pool()
