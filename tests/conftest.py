import pytest

from orbit_atlas.catalog import load_catalog
from orbit_atlas.oracle import family_table


@pytest.fixture(scope="session")
def catalogs():
    return {n: load_catalog(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def families(catalogs):
    """Each rank's group-action families, read once through its catalog."""
    return {n: family_table(cat) for n, cat in catalogs.items()}
