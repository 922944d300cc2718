"""Standing mutation test of the shipped catalog data.

Each mutant makes one edit to a copy of ``data/a<n>.json``, written by
``catalog_copy`` and loaded through ``ORBIT_ATLAS_DATA``, and must make
``check-all`` exit 1 with a ``FAIL <check>`` line or a loader error.  The
families, in the order ``mutants`` makes them for each record:
- drop the record;
- drop a zero- or nonzero-set polynomial, or move it to the other set;
- add one of the rank's other set polynomials to either set;
- change ``dim`` by +1 or -1;
- set a witness factor's parameter to 0, double it, or drop the factor;
- set a torus entry to 1 or double it;
- drop a witness constraint.
A set edit also resets ``dim`` to d - |zero set|, so that the loader's count
check lets it through and the certificates decide; the ``dim`` family is
what the count check stops.

A1 and A2 run every mutant; A3 runs every ``A3_STRIDE``-th and the first
of each family, and A4 the fixed ``A4_SAMPLE``, which keeps the test near
5 s.  A mutant that changes no set is
listed in ``EQUIVALENT`` with the reason; each listed one runs whatever the
sample and must pass check-all.
"""

import json
from collections import Counter

import pytest

from conftest import DATA, _row
from orbit_atlas.cli import main
from orbit_atlas.lie import nil_dim

A3_STRIDE = 6
A4_SAMPLE = (
    "x11: factor 2 param doubled", "x22: drop constraint 1",
    "x22+x44+x34: torus 1 = 1", "x11+x24: drop the record",
    "x11+x24: move X33 from zero_set", "x11+x24: dim +1",
    "x44+x12+x23: add X44*X13 + X12*X34 to zero_set",
)

EQUIVALENT = {
    "A3 x12+x23: add X22*X13 - X12*X23 to nonzero_set":
        "on X11 = X22 = X33 = 0 it equals -X12*X23, nonzero by X12, X23 != 0",
    "A3 x33+x12: add X33 to nonzero_set":
        "on X11 = X22 = 0, X12*X33 + X11*X23 = X12*X33 != 0 implies X33 != 0",
    "A3 x33+x12: add X12 to nonzero_set":
        "on X11 = X22 = 0, X12*X33 + X11*X23 = X12*X33 != 0 implies X12 != 0",
    "A3 x11+x23: add X11 to nonzero_set":
        "on X22 = X33 = 0, X12*X33 + X11*X23 = X11*X23 != 0 implies X11 != 0",
    "A3 x11+x23: add X23 to nonzero_set":
        "on X22 = X33 = 0, X12*X33 + X11*X23 = X11*X23 != 0 implies X23 != 0",
}


def _doc(n: int) -> dict:
    return json.loads((DATA / f"a{n}.json").read_text(encoding="utf-8"))


def mutants(n: int) -> list:
    """(family, name, edit) of every mutant of the rank-n catalog, in a
    fixed order; ``edit`` changes the JSON document and returns it."""
    rows = _doc(n)["orbits"]
    pool = list(dict.fromkeys(s for row in rows
                              for s in row["zero_set"] + row["nonzero_set"]))
    out = []

    def add(family, rid, what, change, sets=False):
        def edit(doc):
            k = next(i for i, row in enumerate(doc["orbits"])
                     if row["id"] == rid)
            change(doc["orbits"], k)
            if sets:
                row = doc["orbits"][k]
                row["dim"] = nil_dim(n) - len(row["zero_set"])
            return doc
        out.append((family, f"{rid}: {what}", edit))

    for row in rows:
        rid, w = row["id"], row["witness"]
        add("record", rid, "drop the record", lambda rows, k: rows.pop(k))
        for side, other in (("zero_set", "nonzero_set"),
                            ("nonzero_set", "zero_set")):
            for i, s in enumerate(row[side]):
                add("set drop", rid, f"drop {s} from {side}",
                    lambda rows, k, side=side, i=i: rows[k][side].pop(i),
                    sets=True)
                add("set move", rid, f"move {s} from {side}",
                    lambda rows, k, side=side, other=other, i=i:
                    rows[k][other].append(rows[k][side].pop(i)), sets=True)
        for s in pool:
            if s not in row["zero_set"] + row["nonzero_set"]:
                for side in ("zero_set", "nonzero_set"):
                    add("set add", rid, f"add {s} to {side}",
                        lambda rows, k, side=side, s=s:
                        rows[k][side].append(s), sets=True)
        for delta in (1, -1):
            add("dim", rid, f"dim {delta:+d}", lambda rows, k, delta=delta:
                rows[k].update(dim=rows[k]["dim"] + delta))

        def witness(rows, k):
            return rows[k]["witness"]

        for i, f in enumerate(w.get("factors", ())):
            for what, value in (("0", "0"), ("doubled", f"2*({f['param']})")):
                add(f"factor {what}", rid, f"factor {i} param {what}",
                    lambda rows, k, i=i, value=value:
                    witness(rows, k)["factors"][i].update(param=value))
            add("factor drop", rid, f"drop factor {i}", lambda rows, k, i=i:
                witness(rows, k)["factors"].pop(i))
        for i, t in enumerate(w.get("torus", ())):
            for what, value in (("= 1", "1"), ("doubled", f"2*({t})")):
                if value != t:
                    add(f"torus {what}", rid, f"torus {i} {what}",
                        lambda rows, k, i=i, value=value:
                        witness(rows, k)["torus"].__setitem__(i, value))
        for i in range(len(w.get("constraints", ()))):
            add("constraint drop", rid, f"drop constraint {i}",
                lambda rows, k, i=i:
                witness(rows, k)["constraints"].pop(i))
    return out


def check_all(n: int, edit, catalog_copy, capsys) -> tuple:
    """(exit code, FAIL lines, stderr) of check-all on ``edit`` of the
    rank-n catalog."""
    catalog_copy(n, edit)
    code = main(["check-all", "--type", f"A{n}"])
    out = capsys.readouterr()
    fails = [line for line in out.out.splitlines() if line.startswith("FAIL ")]
    return code, fails, out.err


def _sample(n: int) -> list:
    every = mutants(n)
    if n == 3:
        # the first mutant of each family: later ones overwrite earlier
        first = {family: name for family, name, _ in reversed(every)}
        return [m for i, m in enumerate(every)
                if i % A3_STRIDE == 0 or first[m[0]] == m[1]
                or f"A3 {m[1]}" in EQUIVALENT]
    if n == 4:
        sample = [m for m in every if m[1] in A4_SAMPLE]
        assert len(sample) == len(A4_SAMPLE)
        return sample
    return every


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_catalog_mutant_fails_check_all(n, catalog_copy, capsys):
    survivors, stale = [], []
    for _, name, edit in _sample(n):
        code, fails, err = check_all(n, edit, catalog_copy, capsys)
        if f"A{n} {name}" in EQUIVALENT:
            if code != 0:
                stale.append(name)
        elif code != 1 or not (fails or err.startswith(
                f"check failed: rank {n}")):
            survivors.append((name, code, err))
        assert "Traceback" not in err, name
    assert survivors == []
    assert stale == [], "listed as equivalent but failing check-all"


def test_the_mutant_families_reach_every_kind_of_edit():
    # the counts pin the generator: a family that stops producing mutants
    # would shrink the test silently
    assert Counter(family for family, _, _ in mutants(3)) == {
        "record": 16, "set drop": 66, "set move": 66, "set add": 124,
        "dim": 32, "factor 0": 29, "factor doubled": 29, "factor drop": 29,
        "torus = 1": 26, "torus doubled": 45, "constraint drop": 2}
    assert len(mutants(1)) == 12 and len(mutants(2)) == 68
    # the A3 sample reaches every family
    assert ({family for family, _, _ in _sample(3)}
            == {family for family, _, _ in mutants(3)})


@pytest.mark.xfail(strict=True, reason="check-all does not yet compare the "
                   "printed-word verdict with one the catalog declares, so a "
                   "printed word replaced by the identity torus reads as "
                   "repaired and still certifies")
def test_a_printed_word_replaced_by_the_identity_torus_fails(catalog_copy,
                                                            capsys):
    for row in _doc(2)["orbits"]:
        if not row["as_printed"].get("word"):
            continue
        code, fails, _ = check_all(2, _row(row["id"], lambda row: row[
            "as_printed"].update(word="T(1, 1)")), catalog_copy, capsys)
        assert code == 1 and fails, row["id"]
