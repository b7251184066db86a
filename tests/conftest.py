import pytest
from scipy.optimize import brentq

import rdstab as r


@pytest.fixture(scope="session")
def grid200():
    return r.make_grid(1.0, 200)


@pytest.fixture(scope="session")
def exp1_kernel(grid200):
    return r.kernel_table(grid200, 6.0, 1.0)


@pytest.fixture(scope="session")
def exp2_kernel(grid200):
    return r.kernel_table(grid200, 15.0, 1.0)


@pytest.fixture(scope="session")
def exp1_tset(exp1_kernel):
    return r.build_transform(exp1_kernel, 1)


@pytest.fixture(scope="session")
def exp2_tset(exp2_kernel):
    return r.build_transform(exp2_kernel, 2)


@pytest.fixture(scope="session")
def fine_builds():
    """1000-node transforms for both experiment parameter sets."""
    g = r.make_grid(1.0, 1000)
    return {
        "t6": r.build_transform(r.kernel_table(g, 6.0, 1.0), 1),
        "t15": r.build_transform(r.kernel_table(g, 15.0, 1.0), 2),
    }


@pytest.fixture(scope="session")
def a1_root():
    """A mu in (25, 35) where 1 + a_1 crosses zero for nu = L = 1 on 80 nodes.

    Located by bisection on the a_1 that ``scan_admissibility`` records, which
    it keeps even in a row that is inadmissible, to 1e-10 in mu, so that
    |1 + a_1| there lies far inside ADMISSIBILITY_FLOOR.
    """

    def one_plus_a1(mu):
        row = r.scan_admissibility(1.0, 1.0, 1, (mu, mu + 1.0), 2, nx=80)[0]
        return 1.0 + row.scalars[0]

    return brentq(one_plus_a1, 25.0, 35.0, xtol=1e-10)
