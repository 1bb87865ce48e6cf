import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from csemigroups import Cone, GapSemigroup, GenSemigroup, MonomialOrder, gaps

# the running fixture: C-semigroup of genus 4 over the cone <(3,1),(5,1)>
S1_GENS = ((5, 1), (6, 2), (9, 2), (9, 3), (10, 3), (12, 3), (13, 4), (13, 3))
S1_GAPS = ((3, 1), (4, 1), (7, 2), (8, 2))

# same cone, even multiples only on the (3,1) ray: not a C-semigroup
S2_GENS = ((5, 1), (6, 2), (8, 2), (9, 2), (12, 3))

# the 3-dimensional fixture: the orthant less (1,0,0)
D3_GENS = ((2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))


@pytest.fixture(scope="session")
def deglex():
    return MonomialOrder("deglex")


@pytest.fixture(scope="session")
def s1_gen():
    return GenSemigroup(S1_GENS)


@pytest.fixture(scope="session")
def s1(s1_gen):
    return gaps(s1_gen)


@pytest.fixture(scope="session")
def s2_gen():
    return GenSemigroup(S2_GENS)


@pytest.fixture(scope="session")
def n2():
    return GapSemigroup(Cone.from_generators([(1, 0), (0, 1)]), [])
