import json
from pathlib import Path

import pytest

import orbit_atlas
from orbit_atlas.catalog import load_catalog
from orbit_atlas.oracle import family_table

# the three malformed-input tables and their checks
pytest.register_assert_rewrite("malformed")

DATA = Path(orbit_atlas.__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def catalogs():
    return {n: load_catalog(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def families(catalogs):
    """Each rank's group-action families, read once through its catalog."""
    return {n: family_table(cat) for n, cat in catalogs.items()}


def _row(rid: str, edit):
    """A document edit that runs ``edit`` on the row of ``rid`` in place."""
    def reshape(doc):
        edit(next(row for row in doc["orbits"] if row["id"] == rid))
        return doc
    return reshape


@pytest.fixture
def catalog_copy(tmp_path, monkeypatch):
    """``write(n, edit=None)``: write ``edit`` of the shipped rank-n
    catalog document (the shipped document itself without one) as
    ``a<n>.json`` under ``tmp_path``, point ``ORBIT_ATLAS_DATA`` there and
    return the directory.  An edit is a function of the document that
    returns the document to write (``_row`` adapts one of a row).  The one
    writer of a catalog copy in the tests."""
    def write(n: int, edit=None) -> Path:
        doc = json.loads((DATA / f"a{n}.json").read_text(encoding="utf-8"))
        (tmp_path / f"a{n}.json").write_text(
            json.dumps(edit(doc) if edit else doc), encoding="utf-8")
        monkeypatch.setenv("ORBIT_ATLAS_DATA", str(tmp_path))
        return tmp_path
    return write
