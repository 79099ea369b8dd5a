import pytest
from hypothesis import settings

from partcat import IDENTITY, PAIR, Partition, construct_closure

FORK = Partition([1], [1, 1])
CROSSING = Partition([1, 2], [2, 1])


@pytest.fixture(scope="session")
def nc_closure_6():
    """Closure of {fork, identity, pair} at bound 6, shared across modules."""
    return construct_closure([FORK, IDENTITY, PAIR], 6)


# Property tests draw the same examples on every run and keep no example
# database, so tier-1 stays deterministic.
settings.register_profile("partcat", derandomize=True, database=None, deadline=None)
settings.load_profile("partcat")
