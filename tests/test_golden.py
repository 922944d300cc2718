"""Outputs at every rank equal the goldens under perfbench/golden/, read
without writing them: check-all stdout, the witness report JSON, the Hasse
DOT, the oracle class sizes and the census counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbit_atlas.classify import partition_census
from orbit_atlas.cli import CENSUS_DEFAULT_QS, ORACLE_DEFAULT_QS, main
from orbit_atlas.oracle import enumerate_borel_orbits
from orbit_atlas.order import emit_dot, hasse
from orbit_atlas.witness import verify_rank

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"
SRC = ROOT / "src"


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
def test_oracle_and_census_match_goldens(n, catalogs, families):
    golden = GOLDEN / f"A{n}"
    rows = ["q,class,size"]
    for q in ORACLE_DEFAULT_QS[n]:
        part = enumerate_borel_orbits(n, q, families=families[n])
        rows += [f"{q},{cls},{size}" for cls, size in enumerate(part.sizes)]
    assert "\n".join(rows) + "\n" == (golden / "oracle.csv").read_text()
    rows = ["q,orbit_id,count"]
    for q in CENSUS_DEFAULT_QS[n]:
        counts = partition_census(n, q, catalogs[n])
        rows += [f"{q},{rid},{cnt}" for rid, cnt in counts.items()]
    assert "\n".join(rows) + "\n" == (golden / "census.csv").read_text()


# Run in a child process, so that its variable registry starts empty.
REGISTRY_CHILD = r"""
import contextlib, io, json
from pathlib import Path

import orbit_atlas
from orbit_atlas import arith, catalog, lie
from orbit_atlas.arith import LaurentPoly
from orbit_atlas.cli import main

raw = json.loads((Path(orbit_atlas.__file__).parent / "data" / "a4.json")
                 .read_text(encoding="utf-8"))
names = list(dict.fromkeys(
    catalog.x_vars(4) + lie.coordinate_letters(4)
    + [f"t{k}" for k in range(1, 5)] + [f"f{k}" for k in range(1, 11)]
    + [r["name"] for row in raw["orbits"] for r in row["witness"]["radicals"]]
    + list(catalog._PRINTED_ALIASES)))
for name in reversed(names):
    LaurentPoly.var(name)
calls = [0]
mul = LaurentPoly.__mul__

def counting(self, other):
    calls[0] += 1
    return mul(self, other)

LaurentPoly.__mul__ = LaurentPoly.__rmul__ = counting
runs = []
for n in (2, 4, 2, 4):
    before, out = calls[0], io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-all", "--type", f"A{n}"])
    runs.append((n, code, out.getvalue(), calls[0] - before))
print(json.dumps({"names": names, "registry": list(arith._SHIFT),
                  "runs": runs}))
"""


def test_the_variable_registry_is_no_cache():
    # the A4 names interned in reverse order first, then check-all for A2
    # and A4, twice each, in one process: every stdout equals its golden
    # and a repeated run multiplies exactly as often as the first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", REGISTRY_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    names = result["names"]
    assert result["registry"][:len(names)] == names[::-1]
    runs = result["runs"]
    for n, code, out, _ in runs:
        assert code == 0
        assert out == (GOLDEN / f"A{n}" / "check-all.txt").read_text()
    assert runs[0][3] == runs[2][3] > 0
    assert runs[1][3] == runs[3][3] > 0
