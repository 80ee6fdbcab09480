import pytest

from hfpss.engine import compute
from hfpss.modules import column_table
from hfpss.targets import Target


@pytest.fixture
def cold_tables():
    """No column table kept from earlier computes: a test that counts the
    work of one compute counts a cold one, whatever ran before it."""
    column_table.cache_clear()


@pytest.fixture(scope="session")
def computed_all():
    """Full pipeline results for all five targets on their default windows."""
    return {t: compute(t) for t in Target}


@pytest.fixture(scope="session")
def computed_c2(computed_all):
    return computed_all[Target.C2]


@pytest.fixture(scope="session")
def computed_c2_v0(computed_all):
    return computed_all[Target.C2_V0]


@pytest.fixture(scope="session")
def computed_c6(computed_all):
    return computed_all[Target.C6]


@pytest.fixture(scope="session")
def computed_c6_v0(computed_all):
    return computed_all[Target.C6_V0]


@pytest.fixture(scope="session")
def computed_c6_y(computed_all):
    return computed_all[Target.C6_Y]
