import pytest

from cinfer import catalog
from cinfer.inference import ci_structure_family, semigraphoid_family
from cinfer.sets import BasicSet


@pytest.fixture(scope="session")
def base4():
    return BasicSet(("x", "y", "z", "u"))


@pytest.fixture(scope="session")
def catalog_entries():
    return catalog.entries()


@pytest.fixture(scope="session")
def sg_family():
    """All semi-graphoid bitmasks over four variables (computed once)."""
    return semigraphoid_family()


@pytest.fixture(scope="session")
def ci_family():
    """All rule-closed structure bitmasks over four variables."""
    return ci_structure_family()
