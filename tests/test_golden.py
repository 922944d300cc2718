"""Outputs at every rank equal the goldens under perfbench/golden/, read
without writing them: check-all stdout, the witness report JSON and the
Hasse DOT."""

import json
from pathlib import Path

import pytest

from orbit_atlas.cli import main
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
    assert emit_dot(hasse(n, cat)) == (golden / "hasse.dot").read_text()
