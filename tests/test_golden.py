"""Outputs at every rank equal the goldens under perfbench/golden/, read
without writing them: check-all stdout, the witness report JSON, the Hasse
DOT, the oracle class sizes and the census counts."""

import json
from pathlib import Path

import pytest

from orbit_atlas.classify import partition_census
from orbit_atlas.cli import CENSUS_DEFAULT_QS, ORACLE_DEFAULT_QS, main
from orbit_atlas.oracle import enumerate_borel_orbits
from orbit_atlas.order import emit_dot, hasse
from orbit_atlas.witness import verify_rank

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_outputs_match_goldens(n, catalogs, capsys):
    golden = GOLDEN / f"A{n}"
    assert main(["check-all", "--type", f"A{n}"]) == 0
    assert capsys.readouterr().out == (golden / "check-all.txt").read_text()
    cat = catalogs[n]
    verify = json.dumps(verify_rank(cat).to_json(), indent=2) + "\n"
    assert verify == (golden / "verify.json").read_text()
    assert emit_dot(hasse(cat)) == (golden / "hasse.dot").read_text()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_and_census_match_goldens(n, catalogs):
    golden = GOLDEN / f"A{n}"
    rows = ["q,class,size"]
    for q in ORACLE_DEFAULT_QS[n]:
        part = enumerate_borel_orbits(n, q)
        rows += [f"{q},{cls},{size}" for cls, size in enumerate(part.sizes)]
    assert "\n".join(rows) + "\n" == (golden / "oracle.csv").read_text()
    rows = ["q,orbit_id,count"]
    for q in CENSUS_DEFAULT_QS[n]:
        counts = partition_census(n, q, catalogs[n])
        rows += [f"{q},{rid},{cnt}" for rid, cnt in counts.items()]
    assert "\n".join(rows) + "\n" == (golden / "census.csv").read_text()
