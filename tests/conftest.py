import pytest

from quantilab.distributions import DistributionSpec
from quantilab.solver import GridCache, SolverOpts, optimal_grid

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()


@pytest.fixture(scope="session")
def shared_cache(tmp_path_factory) -> GridCache:
    """On-disk grid cache shared by the whole session so repeated solves
    of the same (family, n, r) are paid for once."""
    return GridCache(tmp_path_factory.mktemp("grids"))


@pytest.fixture(scope="session")
def grid_of(shared_cache):
    opts = SolverOpts()

    def solve(spec, n, r):
        return optimal_grid(spec, n, r, opts, cache=shared_cache)

    return solve
