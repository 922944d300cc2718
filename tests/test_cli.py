"""CLI surface: dispatch, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbit_atlas
from orbit_atlas import catalog, cli
from orbit_atlas.catalog import load_catalog
from orbit_atlas.cli import main
from orbit_atlas.errors import InternalInconsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_prime_field(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A2",
                       "--point", "0,0,5", "--mod", "7")
    assert code == 0
    assert out.strip() == "x12"


def test_classify_zero_orbit(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A1", "--point", "0")
    assert code == 0
    assert out.strip() == "0"


def test_classify_rational_point(capsys):
    code, out, _ = run(capsys, "classify", "--type", "A2",
                       "--point", "1/2,0,3")
    assert code == 0
    assert out.strip() == "x11"


def test_classify_bad_point_length(capsys):
    code, _, err = run(capsys, "classify", "--type", "A2", "--point", "1,2")
    assert code == 2
    assert "coordinates" in err


def test_bad_type_flag(capsys):
    code, _, err = run(capsys, "classify", "--type", "B2", "--point", "0")
    assert code == 2


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--type", "A2", "--q", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orbit_id,q,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert sum(int(r[2]) for r in rows) == 27


def test_census_budget_refusal(capsys):
    code, _, err = run(capsys, "census", "--type", "A4", "--q", "7",
                       "--budget", "1000")
    assert code == 2
    assert "budget" in err


def test_output_determinism(capsys):
    first = run(capsys, "orbits", "--type", "A3", "--format", "json")
    second = run(capsys, "orbits", "--type", "A3", "--format", "json")
    assert first == second
    doc = json.loads(first[1])
    assert len(doc["orbits"]) == 16
    assert doc["validation"]["ok"] is True


# (set status, word status) -> records, per rank: the as_printed layer as
# orbits --format json reports it
PRINTED_TALLIES = {
    1: {("match", "absent"): 1, ("match", "parseable"): 1},
    2: {("match", "absent"): 2, ("match", "parseable"): 3},
    3: {("match", "absent"): 1, ("match", "parseable"): 15},
    4: {("diff", "parseable"): 4, ("match", "absent"): 2,
        ("match", "parseable"): 50, ("match", "unparseable"): 2,
        ("unparseable", "parseable"): 3},
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbits_json_reports_the_printed_statuses(capsys, n):
    code, out, _ = run(capsys, "orbits", "--type", f"A{n}", "--format", "json")
    assert code == 0
    records = json.loads(out)["validation"]["records"]
    assert Counter((r["printed_set_status"], r["printed_word_status"])
                   for r in records) == PRINTED_TALLIES[n]


def test_check_all_reads_no_printed_text(capsys, monkeypatch):
    # the catalog line reads only each record's failure: no printed set or
    # word is parsed for it (the witness line parses the printed words
    # through its own import of the grammar)
    def refuse(*args, **kwargs):
        raise AssertionError("printed text parsed")

    monkeypatch.setattr(catalog, "_parse_printed_set", refuse)
    monkeypatch.setattr(catalog, "parse_printed_word", refuse)
    code, out, _ = run(capsys, "check-all", "--type", "A2")
    assert code == 0
    assert "PASS catalog: 5 records" in out.splitlines()
    with pytest.raises(AssertionError, match="printed text parsed"):
        main(["orbits", "--type", "A2", "--format", "json"])


def test_hasse_dot_file(tmp_path, capsys):
    target = tmp_path / "a2.dot"
    code, out, _ = run(capsys, "hasse", "--type", "A2", "--dot", str(target))
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph closure_order {")
    assert text.count("->") == 5


@pytest.mark.parametrize("where", ["missing/x.dot", "."])
def test_hasse_unwritable_dot_is_usage_error(tmp_path, capsys, where):
    # a path under a missing directory, and a directory
    target = tmp_path / where
    code, out, err = run(capsys, "hasse", "--type", "A1", "--dot", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_hasse_json_with_dot_file_keeps_stdout_json(tmp_path, capsys):
    target = tmp_path / "a1.dot"
    code, out, err = run(capsys, "hasse", "--type", "A1", "--format", "json",
                         "--dot", str(target))
    assert code == 0
    assert json.loads(out)["covers"] == [["0", "x11"]]
    assert err == f"wrote {target}\n"
    assert target.read_text(encoding="utf-8").startswith("digraph")


def test_hasse_json(capsys):
    code, out, _ = run(capsys, "hasse", "--type", "A1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["covers"] == [["0", "x11"]]


def test_oracle_command(capsys):
    code, out, err = run(capsys, "oracle", "--type", "A1", "--q", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class_id,q,count,orbit_id"
    assert len(lines) == 4   # three rational classes


def test_dims_command(capsys):
    code, out, _ = run(capsys, "dims", "--type", "A2")
    assert code == 0
    assert "MISMATCH" not in out


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(w["status"] in ("VerifiedSymbolic", "VerifiedNumeric",
                               "RepairedAndVerified")
               for w in doc["witnesses"])


def test_check_all_rank1(capsys):
    code, out, _ = run(capsys, "check-all", "--type", "A1")
    assert code == 0
    assert out.count("PASS") == 7
    assert "FAIL" not in out


@pytest.mark.parametrize("point, mod", [("1/2,x,3", None), ("1/2,0,3", "5"),
                                        ("1/0,0,3", None),
                                        ("1e999999999,0,3", None)])
def test_classify_malformed_coordinate_is_usage_error(capsys, point, mod):
    # exponent notation is refused: before, Fraction expanded 1e999999999
    # to all of its digits and classify did not return
    argv = ["classify", "--type", "A2", "--point", point]
    code, out, err = run(capsys, *argv, *(["--mod", mod] if mod else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --point coordinates must be")


@pytest.mark.parametrize("command", ["census", "oracle"])
@pytest.mark.parametrize("q", ["0", "4", "-3"])
def test_field_flag_must_be_prime(capsys, command, q):
    code, out, err = run(capsys, command, "--type", "A2", "--q", q)
    assert code == 2
    assert out == ""                # no CSV header before the refusal
    assert f"--q {q} is not prime" in err


def test_huge_composite_field_is_a_usage_error(capsys):
    q = str(10**400)
    code, out, err = run(capsys, "census", "--type", "A2", "--q", q)
    assert (code, out) == (2, "")
    assert f"--q {q} is not prime" in err
    code, out, err = run(capsys, "classify", "--type", "A2", "--point", "1,0,1",
                         "--mod", q)
    assert (code, out) == (2, "")
    assert f"--mod {q} is not prime" in err


@pytest.mark.parametrize("argv, target", [
    (["hasse", "--type", "A1"], "orbit_atlas.order._certify"),
    (["oracle", "--type", "A1", "--q", "3"], "orbit_atlas.cli.stability_check"),
])
def test_internal_inconsistency_is_check_failure(capsys, monkeypatch, argv,
                                                 target):
    def disagree(*args, **kwargs):
        raise InternalInconsistencyError("layers disagree at F_3")

    monkeypatch.setattr(target, disagree)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "check failed: layers disagree at F_3" in err


ALLOCATION_ERROR = ("Unable to allocate 16.0 GiB for an array with shape "
                    "(2147483647,) and data type int64")


@pytest.mark.parametrize("argv, target, error, line", [
    (["oracle", "--type", "A1", "--q", "2147483647", "--budget",
      "99999999999"], "enumerate_borel_orbits", MemoryError(ALLOCATION_ERROR),
     f"error: oracle ran out of memory: {ALLOCATION_ERROR}\n"),
    (["census", "--type", "A2", "--q", "3"], "partition_census",
     MemoryError(), "error: census ran out of memory\n"),
])
def test_out_of_memory_is_a_usage_error(capsys, monkeypatch, argv, target,
                                        error, line):
    # a raised --budget can grant a field more memory than the machine has:
    # the allocation error ends the command with exit 2 and one line, not a
    # traceback (the allocation is simulated, never attempted)
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, exhausted)
    assert run(capsys, *argv) == (2, "", line)


def test_out_of_memory_in_check_all_is_a_usage_error(capsys, monkeypatch):
    # check-all reports an ordinary failure per check and goes on, but an
    # allocation failure ends it like every other command
    def exhausted(*args, **kwargs):
        raise MemoryError(ALLOCATION_ERROR)

    monkeypatch.setattr(cli, "hasse", exhausted)
    code, out, err = run(capsys, "check-all", "--type", "A2")
    assert (code, err) == (
        2, f"error: check-all ran out of memory: {ALLOCATION_ERROR}\n")
    assert out.splitlines()[-1].startswith("PASS oracle")
    assert "closure-order" not in out and "FAIL" not in out


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "orbits", "--type", "A1", "--format", "json")[0] == 0
        assert run(capsys, "dims", "--type", "A1", "--format", "json")[0] == 2
        code, out, _ = run(capsys, "orbits", "--type", "A1")
        assert (code, out.splitlines()[0].split()) == (
            0, ["id", "dim", "#Z", "#V", "defining", "set"])
    finally:
        cli._parser.cache_clear()
    assert built == [1]


@pytest.mark.parametrize("argv", [["orbits"], ["classify", "--point", "0"],
                                  ["dims"], ["hasse"], ["verify"]])
def test_budget_flag_only_where_points_are_enumerated(capsys, argv):
    code, out, err = run(capsys, *argv, "--type", "A1", "--budget", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --budget 5" in err


def test_only_catalog_and_cli_reference_load_catalog():
    # every layer takes a loaded Catalog; loading is the CLI's job alone
    package = Path(orbit_atlas.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if "load_catalog" in path.read_text(encoding="utf-8"))
    assert users == ["catalog.py", "cli.py"]


@pytest.mark.parametrize("argv", [
    ["orbits", "--type", "A2"],
    ["classify", "--type", "A2", "--point", "0,0,1"],
    ["census", "--type", "A2"],
    ["oracle", "--type", "A2"],
    ["dims", "--type", "A2"],
    ["hasse", "--type", "A2"],
    ["verify", "--type", "A2"],
    ["check-all", "--type", "A2"],
], ids=lambda argv: argv[0])
def test_each_command_loads_the_catalog_once(capsys, monkeypatch, argv):
    loads = []

    def counting(n, *args, **kwargs):
        loads.append(n)
        return load_catalog(n, *args, **kwargs)

    monkeypatch.setattr(cli, "load_catalog", counting)
    code, _, _ = run(capsys, *argv)
    assert (code, loads) == (0, [2])


@pytest.mark.parametrize("argv", [
    ["census", "--type", "A4", "--budget", "100000"],      # refuses q = 5
    ["oracle", "--type", "A4", "--budget", "10000"],       # refuses q = 3
    ["census", "--type", "A2", "--q", "1000000000000000003"],
    ["check-all", "--type", "A4", "--budget", "100000"],   # census q = 5
    ["check-all", "--type", "A1", "--budget", "10"],       # census q = 11
])
def test_budget_refusal_leaves_stdout_empty(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")           # no header and no partial rows
    assert "budget" in err


def test_check_all_runs_at_the_exact_budget(capsys):
    code, out, _ = run(capsys, "check-all", "--type", "A1", "--budget", "11")
    assert code == 0
    assert out.count("PASS") == 7


def test_large_prime_fields_are_decided_quickly(capsys):
    q = "1000000000000000003"               # prime: 10^18 + 3
    code, _, err = run(capsys, "census", "--type", "A2", "--q", q)
    assert code == 2 and "budget" in err
    code, out, _ = run(capsys, "classify", "--type", "A2", "--point", "1,0,1",
                       "--mod", q)
    assert (code, out) == (0, "x11\n")
    code, out, err = run(capsys, "classify", "--type", "A2", "--point",
                         "1,0,1", "--mod", str(2**89 - 1))
    assert (code, out) == (2, "")
    assert "too large for an exact primality test" in err


def test_check_all_pulls_back_once_per_command(capsys, monkeypatch):
    # closure-order and witnesses share one generic-vanishing table; a
    # second check-all in the process builds its own, and hasse and verify
    # on their own each build one
    from orbit_atlas import witness
    calls = []
    original = witness.generic_pullbacks

    def counting(reps, polys):
        calls.append(len(reps))
        return original(reps, polys)

    monkeypatch.setattr(witness, "generic_pullbacks", counting)
    assert run(capsys, "check-all", "--type", "A3")[0] == 0
    assert calls == [16]
    assert run(capsys, "check-all", "--type", "A3")[0] == 0
    assert calls == [16, 16]
    assert run(capsys, "hasse", "--type", "A2")[0] == 0
    assert run(capsys, "verify", "--type", "A2")[0] == 0
    assert calls == [16, 16, 5, 5]


def test_a_failed_generic_table_fails_both_checks_by_name(capsys,
                                                          monkeypatch):
    # the failed build is not kept: each check that needs it tries again
    from orbit_atlas import witness
    calls = []

    def failing(reps, polys):
        calls.append(len(reps))
        raise InternalInconsistencyError("no table")

    monkeypatch.setattr(witness, "generic_pullbacks", failing)
    code, out, _ = run(capsys, "check-all", "--type", "A2")
    assert code == 1 and calls == [5, 5]
    assert out.splitlines()[-2:] == [
        "FAIL closure-order: InternalInconsistencyError: no table",
        "FAIL witnesses: InternalInconsistencyError: no table"]


def _count_grids(monkeypatch):
    """A Counter of ``grid_signatures`` calls per field, filled as the
    slice grids are evaluated."""
    from orbit_atlas import classify
    calls = Counter()
    original = classify.grid_signatures

    def counting(polys, axes, q):
        calls[q] += 1
        return original(polys, axes, q)

    monkeypatch.setattr(classify, "grid_signatures", counting)
    return calls


def test_check_all_evaluates_each_slice_grid_once(capsys, monkeypatch):
    # census, oracle refinement and closure-order share one slice table per
    # field; every default field is a single block, so a grid evaluation
    # per field is a table build per field
    calls = _count_grids(monkeypatch)
    assert run(capsys, "check-all", "--type", "A4")[0] == 0
    assert calls == {2: 1, 3: 1, 5: 1}
    calls.clear()
    assert run(capsys, "check-all", "--type", "A3")[0] == 0
    assert calls == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}
    # a second command builds its own tables
    assert run(capsys, "check-all", "--type", "A3")[0] == 0
    assert calls == {2: 2, 3: 2, 5: 2, 7: 2, 11: 2}
    # and so does each command on its own
    calls.clear()
    assert run(capsys, "census", "--type", "A2", "--q", "3")[0] == 0
    assert calls == {3: 1}
    assert run(capsys, "oracle", "--type", "A2", "--q", "3")[0] == 0
    assert calls == {3: 2}
    assert run(capsys, "hasse", "--type", "A2")[0] == 0
    assert calls == {3: 3, 2: 1, 5: 1, 7: 1}


def _hole(cat):
    # the x12 points match nothing
    return dataclasses.replace(cat, orbits=tuple(
        r for r in cat.orbits if r.id != "x12"))


@pytest.mark.parametrize("broken, lines, grids", [
    (_hole, [
        "FAIL census: ExhaustionError: point [0, 0, 1] over F_3 matched no "
        "record",
        "FAIL oracle: ExhaustionError: point [0, 0, 1] over F_2 matched no "
        "record",
        "FAIL closure-order: ExhaustionError: point [0, 0, 1] over F_2 "
        "matched no record"], {3: 1, 2: 2}),
])
def test_a_failed_slice_table_fails_each_check_by_name(capsys, monkeypatch,
                                                       broken, lines, grids):
    # a table build that raised is not kept: closure-order builds F_2 again
    # after the oracle failed on it, and fails with the same message
    cat = broken(load_catalog(2))
    monkeypatch.setattr(cli, "load_catalog", lambda n: cat)
    calls = _count_grids(monkeypatch)
    code, out, _ = run(capsys, "check-all", "--type", "A2")
    assert code == 1
    assert [line for line in out.splitlines()
            if line.startswith(("FAIL census", "FAIL oracle",
                                "FAIL closure-order"))] == lines
    assert calls == grids


DATA = Path(orbit_atlas.__file__).resolve().parent / "data"


def _malformed(tmp_path, n: int, rid: str, edit) -> Path:
    """A directory holding a copy of the rank-n catalog JSON whose record
    ``rid`` went through ``edit``, for ``ORBIT_ATLAS_DATA``."""
    doc = json.loads((DATA / f"a{n}.json").read_text(encoding="utf-8"))
    edit(next(row for row in doc["orbits"] if row["id"] == rid))
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / f"a{n}.json").write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


def _inverse_in_nonzero_set(row):
    row["nonzero_set"][0] = "X11^-1"


def _zero_torus_entry(row):
    row["witness"]["torus"][0] = "0"


def _zero_denominator(row):
    row["witness"]["factors"][0]["param"] = "1/(q-q)"


def _zero_exponent_denominator(row):
    row["witness"]["torus"][0] = "u^(1/0)"


def _superscript_torus_entry(row):
    row["witness"]["torus"][0] = "u*\u00b2"


def _deeply_nested_torus_entry(row):
    row["witness"]["torus"][0] = "(" * 3000 + "x" + ")" * 3000


def _order_seven_radical(row):
    row["witness"]["radicals"].append(
        {"name": "R", "order": 7, "radicand": "x + z"})


@pytest.mark.parametrize("argv", [
    ["orbits"], ["classify", "--point", "0,1,0"],
    ["classify", "--point", "0,1,0", "--mod", "5"], ["verify"], ["hasse"],
    ["census"], ["check-all"]])
def test_a_negative_set_exponent_is_refused_at_load(tmp_path, monkeypatch,
                                                    capsys, argv):
    # before, the copy loaded and the evaluating commands ended in a
    # traceback
    data = _malformed(tmp_path, 2, "x11+x22", _inverse_in_nonzero_set)
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(data))
    assert run(capsys, argv[0], "--type", "A2", *argv[1:]) == (
        1, "", "check failed: rank 2 row 'x11+x22': set polynomial "
               "'X11^-1' has a negative exponent\n")


def _reshaped(tmp_path, n: int, edit) -> Path:
    """A directory holding the rank-n catalog JSON as ``edit`` returns it
    from the shipped document, for ``ORBIT_ATLAS_DATA``."""
    doc = json.loads((DATA / f"a{n}.json").read_text(encoding="utf-8"))
    (tmp_path / f"a{n}.json").write_text(json.dumps(edit(doc)),
                                         encoding="utf-8")
    return tmp_path


def _second_row_an_int(doc):
    doc["orbits"][1] = 1
    return doc


def _row(rid: str, edit):
    """``_reshaped``'s edit that runs ``edit`` on the row of ``rid``."""
    def reshape(doc):
        edit(next(row for row in doc["orbits"] if row["id"] == rid))
        return doc
    return reshape


def _x11(edit):
    return _row("x11", edit)


@pytest.mark.parametrize("edit, error", [
    (lambda doc: [1, 2], "catalog for rank 2: expected an object, got list"),
    (lambda doc: {**doc, "orbits": 5},
     "rank 2 orbits: expected a list, got int"),
    (_second_row_an_int, "rank 2 orbits[1]: expected an object, got int"),
    (_x11(lambda row: row["as_printed"].update(word=5)),
     "rank 2 row 'x11': as_printed word: expected a string, got int"),
    (_x11(lambda row: row["as_printed"].update(set=5)),
     "rank 2 row 'x11': as_printed set: expected a string, got int"),
    (_x11(lambda row: row["witness"].update(torus="x1")),
     "rank 2 row 'x11': witness torus: expected a list, got str"),
    (_x11(lambda row: row.update(zero_set="X22")),
     "rank 2 row 'x11': zero_set: expected a list, got str"),
    (_x11(lambda row: row.update(witness=5)),
     "rank 2 row 'x11': witness: expected an object, got int"),
    (_x11(lambda row: row.update(notes=[5])),
     "rank 2 row 'x11': notes[0]: expected an object, got int"),
    (_x11(lambda row: row["witness"].update(constraints=5)),
     "rank 2 row 'x11': witness constraints: expected a list, got int"),
    (_x11(lambda row: row["witness"].update(radicals=[5])),
     "rank 2 row 'x11': witness radicals[0]: expected an object, got int"),
    (_x11(lambda row: row["witness"]["factors"].append(5)),
     "rank 2 row 'x11': witness factors[1]: expected an object, got int"),
    (_x11(lambda row: row["witness"]["factors"][0].update(param=5)),
     "rank 2 row 'x11': witness factors[0] param: expected a string, "
     "got int"),
    (_x11(lambda row: row["witness"].update(torus=[1, 2])),
     "rank 2 row 'x11': witness torus[0]: expected a string, got int"),
    (_x11(lambda row: row.update(zero_set=[5])),
     "rank 2 row 'x11': zero_set[0]: expected a string, got int"),
    (_x11(lambda row: row.update(nonzero_set=["X11", 5])),
     "rank 2 row 'x11': nonzero_set[1]: expected a string, got int"),
    (_x11(lambda row: row.update(rep=5)),
     "rank 2 row 'x11': rep: expected a list, got int"),
    (_x11(lambda row: row.update(rep=[11])),
     "rank 2 row 'x11': rep[0]: expected a string, got int"),
    (_x11(lambda row: row.update(id=11)),
     "rank 2 row 11: id: expected a string, got int"),
    (_x11(lambda row: row["witness"].update(
        constraints=[{"poly": 5, "solve": "x"}])),
     "rank 2 row 'x11': witness constraints[0] poly: expected a string, "
     "got int"),
    (_x11(lambda row: row["witness"].update(
        constraints=[{"poly": "x - z", "solve": ["x"]}])),
     "rank 2 row 'x11': witness constraints[0] solve: expected a string, "
     "got list"),
    (_x11(lambda row: row["witness"].update(
        radicals=[{"name": 5, "order": 2, "radicand": "x + z"}])),
     "rank 2 row 'x11': witness radicals[0] name: expected a string, "
     "got int"),
    (_x11(lambda row: row["witness"].update(
        radicals=[{"name": "R", "order": 2, "radicand": 5}])),
     "rank 2 row 'x11': witness radicals[0] radicand: expected a string, "
     "got int"),
    (_x11(lambda row: row.update(notes=[{"field": "witness"}])),
     "rank 2 row 'x11': notes[0]: missing key 'note'"),
    (_x11(lambda row: row.update(notes=[{"field": 5, "note": 3}])),
     "rank 2 row 'x11': notes[0] field: expected a string, got int"),
    (_x11(lambda row: row.update(notes=[{"field": "witness", "note": 3}])),
     "rank 2 row 'x11': notes[0] note: expected a string, got int"),
    (_x11(lambda row: row.pop("id")), "rank 2 orbits[2]: missing key 'id'"),
    *((_x11(lambda row, key=key: row.pop(key)),
       f"rank 2 row 'x11': missing key {key!r}")
      for key in ("rep", "zero_set", "nonzero_set", "dim", "witness")),
    (_x11(lambda row: row["witness"].update(constraints=[{"poly": "y"}])),
     "rank 2 row 'x11': witness constraints[0]: missing key 'solve'"),
    (_x11(lambda row: row["witness"].update(radicals=[{"name": "R"}])),
     "rank 2 row 'x11': witness radicals[0]: missing key 'order'"),
    (_x11(lambda row: row["witness"]["factors"][0].pop("param")),
     "rank 2 row 'x11': witness factors[0]: missing key 'param'")],
    ids=["top-level-list", "orbits-int", "row-int", "printed-word-int",
         "printed-set-int", "torus-string", "zero-set-string", "witness-int",
         "note-int", "constraints-int", "radical-int", "factor-int",
         "param-int", "torus-entry-int", "zero-set-entry-int",
         "nonzero-set-entry-int", "rep-int", "rep-entry-int", "id-int",
         "constraint-poly-int", "constraint-solve-list", "radical-name-int",
         "radicand-int", "note-missing", "note-field-int", "note-text-int",
         "id-missing", "rep-missing", "zero-set-missing",
         "nonzero-set-missing", "dim-missing", "witness-missing",
         "solve-missing", "order-missing", "param-missing"])
def test_a_malformed_catalog_shape_is_refused_at_load(tmp_path, monkeypatch,
                                                      capsys, edit, error):
    # before, the first five ended check-all, orbits or verify in an
    # AttributeError or a TypeError (the row's id was read outside the
    # per-row try, and the printed texts were read as strings only when a
    # command parsed them); the torus string "x1" loaded as the two entries
    # x and 1, and the zero set "X22" was parsed letter by letter.  A
    # witness, note, constraint list, radical or factor of the wrong shape
    # ended in an AttributeError or a TypeError that named no field.  A
    # factor parameter, torus entry, constraint or radical text that was
    # not a string loaded, and verify then ended in a TypeError traceback
    # (check-all printed FAIL witnesses, naming no field); a set entry,
    # representative or id of the wrong type was refused with Python's
    # error text, naming no field.  A note without a "note" ended orbits and
    # verify in a KeyError traceback, and one whose texts were ints loaded;
    # a missing key was refused with Python's bare KeyError text ('dim')
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_reshaped(tmp_path, 2, edit)))
    for argv in (["check-all"], ["orbits", "--format", "json"], ["verify"]):
        assert run(capsys, argv[0], "--type", "A2", *argv[1:]) == (
            1, "", f"check failed: {error}\n")


def _first_factor_root(root):
    return lambda row: row["witness"]["factors"][0].update(root=root)


@pytest.mark.parametrize("n, edit, error", [
    (2, _x11(_first_factor_root([2.9, 2.9])),
     "rank 2 row 'x11': witness factors[0] root: expected two integers, "
     "got [2.9, 2.9]"),
    (2, _x11(_first_factor_root([2, 2, 7])),
     "rank 2 row 'x11': witness factors[0] root: expected two integers, "
     "got [2, 2, 7]"),
    (2, _row("0", lambda row: row.update(dim=0.5)),
     "rank 2 row '0': dim: expected an integer, got 0.5"),
    (2, _row("0", lambda row: row.update(dim="0")),
     "rank 2 row '0': dim: expected an integer, got '0'"),
    (2, _row("x12", lambda row: row.update(dim=True)),
     "rank 2 row 'x12': dim: expected an integer, got True"),
    (3, _row("x22+x13", lambda row: row["witness"]["radicals"][0].update(
        order=2.5)),
     "rank 3 row 'x22+x13': witness radicals[0] order: expected an integer, "
     "got 2.5"),
    (2, lambda doc: {**doc, "schema_version": True},
     "schema_version True unsupported"),
    (2, lambda doc: {**doc, "schema_version": 1.0},
     "schema_version 1.0 unsupported")],
    ids=["float-root", "three-entry-root", "float-dim", "string-dim",
         "bool-dim", "float-order", "bool-schema-version",
         "float-schema-version"])
def test_a_number_that_is_not_a_json_integer_is_refused_at_load(
        tmp_path, monkeypatch, capsys, n, edit, error):
    # before, each loaded coerced by int(): the root [2.9, 2.9] as (2, 2),
    # the dims 0.5, "0" and true as 0, 0 and 1, the order 2.5 as 2, and
    # the root [2, 2, 7] lost its third entry; every command then passed.
    # A schema_version of true or 1.0 equals 1 and loaded
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_reshaped(tmp_path, n, edit)))
    for argv in (["check-all"], ["orbits", "--format", "json"], ["verify"]):
        assert run(capsys, argv[0], "--type", f"A{n}", *argv[1:]) == (
            1, "", f"check failed: {error}\n")


def _with_constraint(poly: str, solve: str):
    return _row("x12", lambda row: row["witness"]["constraints"].append(
        {"poly": poly, "solve": solve}))


def _radical_named(rid: str, k: int, name: str):
    return _row(rid, lambda row: row["witness"]["radicals"][k].update(
        name=name))


@pytest.mark.parametrize("n, edit, error", [
    (4, _with_constraint("x - z", "x"),
     "rank 4 row 'x12': witness constraints[0] 'x - z' is not a zero-set "
     "polynomial up to sign"),
    (4, _with_constraint("x", "x"),
     "rank 4 row 'x12': witness constraints[0] 'x' is not a zero-set "
     "polynomial up to sign"),
    (4, _with_constraint("z - 1", "z"),
     "rank 4 row 'x12': witness constraints[0] 'z - 1' is not a zero-set "
     "polynomial up to sign"),
    (4, _radical_named("x11+x22+x44+x34", 0, "u"),
     "rank 4 row 'x11+x22+x44+x34': witness radicals[0] name 'u' is a "
     "coordinate letter"),
    (4, _radical_named("x11+x22+x44+x34", 0, "X33"),
     "rank 4 row 'x11+x22+x44+x34': witness radicals[0] name 'X33' is an X "
     "variable"),
    (4, _radical_named("x11+x33+x12+x24", 1, "A"),
     "rank 4 row 'x11+x33+x12+x24': witness radicals[1] name 'A' is "
     "repeated"),
    *((4, _radical_named("x11+x22+x44+x34", 0, name),
       f"rank 4 row 'x11+x22+x44+x34': witness radicals[0] name {name!r} is "
       f"not a variable name") for name in ("", "7", "sqrt", "R R"))],
    ids=["constraint-x-z", "constraint-x", "constraint-z-1", "radical-u",
         "radical-X33", "radical-repeated", "radical-empty", "radical-7",
         "radical-sqrt", "radical-two-names"])
def test_a_witness_of_a_special_member_is_refused_at_load(
        tmp_path, monkeypatch, capsys, n, edit, error):
    # before, each loaded.  All but the repeated name certified their
    # record's witness: the extra constraint cut x12's member down to 2
    # free letters for a set of dimension 3, the radical named u made the
    # free coordinate u a fifth root, and a name the grammar cannot read as
    # a variable ("", "7", "sqrt", "R R") was never read.  The repeated
    # name failed the verdict ("radical variable A defined twice")
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_reshaped(tmp_path, n, edit)))
    for argv in (["check-all"], ["orbits", "--format", "json"], ["verify"]):
        assert run(capsys, argv[0], "--type", f"A{n}", *argv[1:]) == (
            1, "", f"check failed: {error}\n")


@pytest.mark.parametrize("n, edit, error", [
    (3, _row("x22+x13", lambda row: row["witness"]["radicals"][0].update(
        radicand="R*v + z")),
     "rank 3 row 'x22+x13': variables ['R'] not in the allowed set"),
    (2, _row("x11+x22", lambda row: row["rep"].append("x11")),
     "rank 2 row 'x11+x22': repeated root x11 in representative"),
    (2, _row("x12", lambda row: row.update(id="x11")),
     "rank 2 row 'x11': id 'x11' does not match representative"),
    (3, _row("x22", lambda row: row["witness"]["constraints"][0].update(
        solve="a")),
     "rank 3 row 'x22': solve letter 'a' unknown"),
    (2, _row("x12", lambda row: row["witness"].update(torus=["x"])),
     "rank 2 row 'x12': torus needs 2 entries, got 1"),
    (2, _x11(_first_factor_root([1, 3])),
     "rank 2 row 'x11': factor root (1,3) outside rank 2"),
    (3, _row("x12", lambda row: row.update(rep=["x55"])),
     "rank 3 row 'x12': bad root token 'x55' for rank 3"),
    (2, lambda doc: {**doc, "type": "A3"},
     "catalog file type 'A3' != A2")],
    ids=["radicand-names-its-radical", "repeated-root", "id-of-another-rep",
         "solve-letter-unknown", "short-torus", "root-outside-rank",
         "root-token-outside-rank", "file-of-another-type"])
def test_a_row_that_breaks_a_rule_of_meaning_is_refused_at_load(
        tmp_path, monkeypatch, capsys, n, edit, error):
    # a radicand naming its own radical loaded before, and the verdict
    # failed late: "normalized template does not evaluate: variables ['R']
    # not in the allowed set"; each other refusal is pinned as it stands
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_reshaped(tmp_path, n, edit)))
    for argv in (["check-all"], ["orbits", "--format", "json"], ["verify"]):
        assert run(capsys, argv[0], "--type", f"A{n}", *argv[1:]) == (
            1, "", f"check failed: {error}\n")


def test_a_missing_catalog_file_is_refused_at_load(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(tmp_path))
    for argv in (["check-all"], ["verify"]):
        assert run(capsys, argv[0], "--type", "A2") == (
            1, "", f"check failed: cannot read catalog for rank 2: [Errno 2] "
                   f"No such file or directory: '{tmp_path / 'a2.json'}'\n")


def _unused_radical_over_the_denominator(row):
    row["witness"]["factors"].append({"root": [1, 2], "param": "1/(x+1)"})
    row["witness"]["radicals"].append(
        {"name": "S", "order": 2, "radicand": "x + 1"})


def _solved_for_y(row):
    row["witness"]["constraints"][0]["solve"] = "y"


def _solved_for_y_with_x23_nonzero(row):
    _solved_for_y(row)
    row["nonzero_set"].append("X23")


@pytest.mark.parametrize("n, rid, edit, unit", [
    (2, "x11", _unused_radical_over_the_denominator,
     "radicand 'x + 1' of S"),
    (2, "x11", lambda row: row["witness"]["factors"].append(
        {"root": [1, 2], "param": "1/z"}), "the denominator of '1/z'"),
    (3, "x22", _solved_for_y, "the denominator of the value solved for y"),
    (3, "x22", _solved_for_y_with_x23_nonzero,
     "the denominator of the value solved for y")],
    ids=["radicand-exempt", "monomial-pole", "solved-monomial-pole",
         "pole-letter-of-a-nonzero-condition"])
def test_a_template_with_a_pole_on_the_set_fails_its_record(
        tmp_path, monkeypatch, capsys, n, rid, edit, unit):
    # U_12 acts trivially on A2's nilradical, so each appended factor keeps
    # the word's value; X11 + 1 and X12 vanish on part of x11's set, and
    # y = v*z/x divides by X12, which vanishes on part of x22's.  Before,
    # each certified: the radicand x + 1 was made a nonzero condition of its
    # own, 1/z and v*z/x keep their monomial denominators in the numerator,
    # which the unit test did not read, and the condition X23 = v*z/x made
    # x a unit letter (verify passed; check-all failed on the set change)
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(tmp_path, n, rid,
                                                          edit)))
    code, _, err = run(capsys, "verify", "--type", f"A{n}")
    assert (code, err) == (1, f"# FAIL witness {rid}: FailedAsPrinted "
                              f"normalized template is not a unit on the "
                              f"set: {unit}\n")
    code, out, err = run(capsys, "check-all", "--type", f"A{n}")
    assert (code, err) == (1, "")
    assert f"FAIL witnesses: uncertified: ['{rid}']" in out.splitlines()


def _half_in_nonzero_set(row):
    row["nonzero_set"][0] = "2^-1*X11"


@pytest.mark.parametrize("argv", [
    ["classify", "--point", "0,1,0"],
    ["classify", "--point", "0,1,0", "--mod", "5"],
    ["census"], ["verify"], ["check-all"]])
def test_a_non_integer_set_coefficient_is_refused_at_load(
        tmp_path, monkeypatch, capsys, argv):
    # before, the copy loaded: classify --mod 2 exited 2 on the coefficient
    # 1/2 while the census ran; polynomials are over Z, so the parse of
    # 2^-1 refuses it
    data = _malformed(tmp_path, 2, "x11+x22", _half_in_nonzero_set)
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(data))
    assert run(capsys, argv[0], "--type", "A2", *argv[1:]) == (
        1, "", "check failed: rank 2 row 'x11+x22': (2)^-1 is not "
               "polynomial\n")


def _inhomogeneous_zero_set(row):
    row["zero_set"][0] = "X11 + X12"


@pytest.mark.parametrize("argv", [
    ["orbits"], ["classify", "--point", "0,1,0"],
    ["classify", "--point", "0,1,0", "--mod", "5"], ["census"], ["oracle"],
    ["dims"], ["verify"], ["hasse"], ["check-all"]])
def test_a_weight_inhomogeneous_set_polynomial_is_refused_at_load(
        tmp_path, monkeypatch, capsys, argv):
    # X11 + X12 weighs a1 and a1 + a2; before, classify and dims passed on
    # the copy and check-all failed its census, oracle and closure-order
    data = _malformed(tmp_path, 2, "x22", _inhomogeneous_zero_set)
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(data))
    assert run(capsys, argv[0], "--type", "A2", *argv[1:]) == (
        1, "", "check failed: rank 2: record x22 polynomial X11 + X12 is "
               "not root-weight homogeneous\n")


@pytest.mark.parametrize("n, rid, edit, detail", [
    (3, "x13", _zero_torus_entry, "torus entry evaluates to zero"),
    (4, "x11", _zero_denominator, "division by zero fraction"),
    (3, "x13", _zero_exponent_denominator,
     "zero denominator in the exponent at position 5 in 'u^(1/0)'"),
    (3, "x13", _superscript_torus_entry,
     "unexpected character '\u00b2' at position 2"),
    (2, "x11", _deeply_nested_torus_entry,
     "parentheses and unary minus nest deeper than 32 at position 32"),
    (2, "x11", _order_seven_radical, "radical order 7 outside 2..5")])
def test_a_template_that_does_not_evaluate_fails_its_record(
        tmp_path, monkeypatch, capsys, n, rid, edit, detail):
    # before, verify ended in a traceback and check-all failed the
    # witnesses without naming the record (a ZeroDivisionError, a
    # ValueError or a RecursionError, for the last three)
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(tmp_path, n, rid,
                                                          edit)))
    code, _, err = run(capsys, "verify", "--type", f"A{n}")
    assert (code, err) == (1, f"# FAIL witness {rid}: FailedAsPrinted "
                              f"normalized template does not evaluate: "
                              f"{detail}\n")
    if n < 4:
        code, out, err = run(capsys, "check-all", "--type", f"A{n}")
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == (
            f"FAIL witnesses: uncertified: ['{rid}']")
        assert out.count("FAIL") == 1


def _long_sum(text: str) -> str:
    return " + ".join([text] * 2000)


def test_a_long_sum_in_a_template_fails_its_record(tmp_path, monkeypatch,
                                                   capsys):
    # x12's first torus entry z^(1/3) added to itself 2000 times: before,
    # verify ended in a RecursionError traceback, since each + of the chain
    # nested one level deeper in the parse tree
    def long_torus_entry(row):
        row["witness"]["torus"][0] = _long_sum(row["witness"]["torus"][0])

    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(
        tmp_path, 2, "x12", long_torus_entry)))
    code, _, err = run(capsys, "verify", "--type", "A2")
    assert (code, err) == (1, "# FAIL witness x12: FailedAsPrinted "
                              "normalized template failed\n")
    code, out, err = run(capsys, "check-all", "--type", "A2")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "FAIL witnesses: uncertified: ['x12']"
    assert out.count("FAIL") == 1


def test_a_long_sum_in_a_printed_set_reads_as_a_diff(tmp_path, monkeypatch,
                                                     capsys):
    # X2 added to itself 2000 times is 2000*X22, not X11: before, orbits
    # ended in a RecursionError traceback
    def long_printed_set(row):
        row["as_printed"]["set"] = f"Z({_long_sum('X2')}) & V(X1)"

    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(
        tmp_path, 2, "x12", long_printed_set)))
    code, out, _ = run(capsys, "orbits", "--type", "A2", "--format", "json")
    statuses = {r["id"]: r["printed_set_status"]
                for r in json.loads(out)["validation"]["records"]}
    assert code == 0
    assert statuses == {"0": "match", "x12": "diff", "x11": "match",
                        "x22": "match", "x11+x22": "match"}


def test_printed_text_typos_leave_every_check_standing(tmp_path, monkeypatch,
                                                       capsys):
    # a superscript two in x13's printed word and x12's printed set, an
    # exponent past EXP_LIMIT in x23's, and 3000 nested parentheses in
    # x11's printed word and x22's printed set: before, verify, check-all
    # and orbits ended in a traceback or failed the witnesses on the printed
    # word, a provenance text that no certificate rests on
    deep = "(" * 3000 + "{}" + ")" * 3000
    typos = {"x13": ("word", "T(u*\u00b2, 1, 1) U_1(u)"),
             "x12": ("set", "Z(X11*\u00b2) & V(X12)"),
             "x23": ("set", "Z(X11^9999999) & V(X23)"),
             "x11": ("word", f"T({deep.format('u')}, 1, 1)"),
             "x22": ("set", f"Z({deep.format('X1')}) & V(X2)")}
    doc = json.loads((DATA / "a3.json").read_text(encoding="utf-8"))
    for row in doc["orbits"]:
        if row["id"] in typos:
            key, text = typos[row["id"]]
            row["as_printed"][key] = text
    (tmp_path / "a3.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(tmp_path))
    golden = (GOLDEN / "A3" / "check-all.txt").read_text(encoding="utf-8")
    assert run(capsys, "check-all", "--type", "A3") == (0, golden, "")
    code, out, _ = run(capsys, "verify", "--type", "A3", "--format", "json")
    verdicts = {v["id"]: v for v in json.loads(out)["witnesses"]}
    assert code == 0
    for rid in ("x13", "x11"):
        assert (verdicts[rid]["status"], verdicts[rid]["as_printed"]) == (
            "RepairedAndVerified", "eval-error")
    code, out, _ = run(capsys, "orbits", "--type", "A3", "--format", "json")
    statuses = {r["id"]: (r["printed_set_status"], r["printed_word_status"])
                for r in json.loads(out)["validation"]["records"]}
    assert code == 0
    assert statuses["x12"] == statuses["x23"] == ("unparseable", "parseable")
    assert statuses["x11"] == ("match", "unparseable")
    assert statuses["x22"] == ("unparseable", "parseable")
    # x13's word splits into its T(...) U_1(...) skeleton, but its torus
    # entry u*² does not parse: the word is unparseable, as verify reads it
    assert statuses["x13"] == ("match", "unparseable")


def test_a_set_polynomial_is_named_in_its_canonical_form(tmp_path,
                                                         monkeypatch, capsys):
    # X12 + X11 is X11 + X12, and is named so: before, the refusal named it
    # in the order the catalog typed it
    def reordered(row):
        row["zero_set"][0] = "X12 + X11"

    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(tmp_path, 2, "x22",
                                                          reordered)))
    assert run(capsys, "classify", "--type", "A2", "--point", "0,1,0") == (
        1, "", "check failed: rank 2: record x22 polynomial X11 + X12 is "
               "not root-weight homogeneous\n")


def test_check_all_names_the_first_record_that_fails_the_catalog_check(
        tmp_path, monkeypatch, capsys):
    # X23 of x12+x34's zero set becomes X12*X34, nonzero at the
    # representative; the generator count, and so the dimension, stays
    def nonzero_at_the_representative(row):
        row["zero_set"][row["zero_set"].index("X23")] = "X12*X34"

    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(
        tmp_path, 4, "x12+x34", nonzero_at_the_representative)))
    code, out, _ = run(capsys, "check-all", "--type", "A4")
    assert code == 1
    assert out.splitlines()[0] == (
        "FAIL catalog: x12+x34: representative is not a member")
    # on their own, the oracle and the census find a point of x12+x34 that
    # no record matches, over their first field that holds one
    for command, q in (("oracle", 2), ("census", 3)):
        assert run(capsys, command, "--type", "A4") == (
            1, "", f"check failed: point [0, 0, 0, 0, 1, 0, 1, 0, 0, 0] over "
                   f"F_{q} matched no record\n")


def test_a_template_that_does_not_evaluate_keeps_the_printed_layer(
        tmp_path, monkeypatch, capsys):
    # the printed word is checked on its own: x13's reproduces the member,
    # and a printed word with the template's failing trees is an eval-error
    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(
        tmp_path, 3, "x13", _zero_torus_entry)))
    assert main(["verify", "--type", "A3", "--format", "json"]) == 1
    x13 = next(v for v in json.loads(capsys.readouterr().out)["witnesses"]
               if v["id"] == "x13")
    assert (x13["status"], x13["as_printed"]) == ("FailedAsPrinted",
                                                  "verified")

    def printed_like_the_template(row):
        _zero_torus_entry(row)
        row["as_printed"]["word"] = "T(0, 1, z)"

    monkeypatch.setenv("ORBIT_ATLAS_DATA", str(_malformed(
        tmp_path, 3, "x13", printed_like_the_template)))
    assert main(["verify", "--type", "A3", "--format", "json"]) == 1
    x13 = next(v for v in json.loads(capsys.readouterr().out)["witnesses"]
               if v["id"] == "x13")
    assert (x13["status"], x13["as_printed"]) == ("FailedAsPrinted",
                                                  "eval-error")


def test_malformed_catalogs_print_no_traceback_through_the_entry_point(
        tmp_path):
    # through the module entry point, which runs main as the console script
    # does: exit 1 and one stderr line each
    cases = [(_malformed(tmp_path / "neg", 2, "x11+x22",
                         _inverse_in_nonzero_set),
              ["classify", "--type", "A2", "--point", "0,1,0"]),
             (_malformed(tmp_path / "torus", 3, "x13", _zero_torus_entry),
              ["verify", "--type", "A3"]),
             (_malformed(tmp_path / "weight", 2, "x22",
                         _inhomogeneous_zero_set), ["dims", "--type", "A2"])]
    for data, argv in cases:
        env = dict(os.environ, ORBIT_ATLAS_DATA=str(data),
                   PYTHONPATH=str(DATA.parent.parent))
        proc = subprocess.run([sys.executable, "-m", "orbit_atlas.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_check_all_names_what_classify_gave(capsys, monkeypatch):
    real = cli.classify

    def swapped(n, m, cat):
        got = real(n, m, cat)
        return dataclasses.replace(got, orbit_id="x11") if (
            got.orbit_id == "x22") else got

    monkeypatch.setattr(cli, "classify", swapped)
    code, out, _ = run(capsys, "check-all", "--type", "A2")
    assert code == 1
    assert "FAIL representatives: A2 x22: classify gave x11\n" in out
    assert out.count("FAIL") == 1


def test_check_all_names_the_dimension_that_differs(capsys, monkeypatch):
    real = cli.jacobian_rank_dim

    def off_by_one(rec, families):
        return real(rec, families) + (rec.id == "x12")

    monkeypatch.setattr(cli, "jacobian_rank_dim", off_by_one)
    code, out, _ = run(capsys, "check-all", "--type", "A2")
    assert code == 1
    assert ("FAIL dimensions: A2 x12: Jacobian dimension 2 != catalog dim 1\n"
            in out)
    assert out.count("FAIL") == 1
    code, out, err = run(capsys, "dims", "--type", "A2")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        "x12                            1        2  MISMATCH"]


def test_census_fails_a_field_with_an_empty_record(capsys, monkeypatch):
    real = cli.partition_census

    def emptied(n, q, cat, budget):
        counts = real(n, q, cat, budget)
        return {**counts, "x12": 0} if q == 5 else counts

    monkeypatch.setattr(cli, "partition_census", emptied)
    code, out, err = run(capsys, "census", "--type", "A2")
    assert code == 1
    assert "x12,5,0" in out.splitlines()
    assert err == "# FAIL: rank 2 q=5: 4 nonempty classes, expected 5\n"
    code, out, _ = run(capsys, "check-all", "--type", "A2")
    assert code == 1
    assert "FAIL census: q=5 gave 4 != 5\n" in out
    assert out.count("FAIL") == 1


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# Runs in a fresh interpreter: the exact commands, then check-all, each
# followed by the numpy submodules loaded so far.
_FRESH_START = """
import io, json, sys
from contextlib import redirect_stdout
from orbit_atlas import classify, cli, oracle, order

def numpy_loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

runs = [["import", 0, numpy_loaded()]]
for argv in (["classify", "--type", "A4", "--point", "1,0,1,0,0,1,0,0,0,1"],
             ["classify", "--type", "A4", "--point", "1,0,1,0,0,1,0,0,0,1",
              "--mod", "7"],
             ["verify", "--type", "A2"], ["orbits", "--type", "A2"]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    runs.append([" ".join(argv), code, numpy_loaded()])
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["check-all", "--type", "A2"])
numpy = sys.modules["numpy"]
print(json.dumps({
    "runs": runs, "check_all": [code, out.getvalue()],
    "imported": "numpy.linalg" in sys.modules,
    "one_numpy": classify.np is oracle.np is order.np is numpy}))
"""


def test_the_exact_commands_start_without_importing_numpy():
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    env.pop("ORBIT_ATLAS_DATA", None)
    proc = subprocess.run([sys.executable, "-c", _FRESH_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for argv, code, loaded in doc["runs"]:
        assert (code, loaded) == (0, []), argv
    assert doc["check_all"] == [
        0, (GOLDEN / "A2" / "check-all.txt").read_text()]
    assert doc["imported"] and doc["one_numpy"]


def test_the_kernel_modules_bind_the_one_numpy(capsys):
    from orbit_atlas import classify, oracle, order
    assert run(capsys, "hasse", "--type", "A1")[0] == 0
    assert classify.np is oracle.np is order.np is sys.modules["numpy"]


def test_a_missing_numpy_fails_at_import(monkeypatch):
    import importlib.util
    from orbit_atlas._lazy import lazy_numpy
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="numpy") as err:
        lazy_numpy()
    assert err.value.name == "numpy"
