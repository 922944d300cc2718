"""CLI surface: dispatch, determinism, exit codes."""

import ast
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

from conftest import _row
from malformed import (GOLDEN, TABLES, _zero_torus_entry,
                       inhomogeneous_zero_set, inverse_in_nonzero_set, run,
                       table_test)

SRC = Path(orbit_atlas.__file__).resolve().parent.parent

# the tests that check rows of the ``malformed`` tables
test_classify_malformed_coordinate_is_usage_error = table_test(
    "test_classify_malformed_coordinate_is_usage_error")
test_field_flag_must_be_prime = table_test("test_field_flag_must_be_prime")
test_budget_flag_only_where_points_are_enumerated = table_test(
    "test_budget_flag_only_where_points_are_enumerated")
test_budget_refusal_leaves_stdout_empty = table_test(
    "test_budget_refusal_leaves_stdout_empty")
test_a_negative_set_exponent_is_refused_at_load = table_test(
    "test_a_negative_set_exponent_is_refused_at_load")
test_a_malformed_catalog_shape_is_refused_at_load = table_test(
    "test_a_malformed_catalog_shape_is_refused_at_load")
test_a_number_that_is_not_a_json_integer_is_refused_at_load = table_test(
    "test_a_number_that_is_not_a_json_integer_is_refused_at_load")
test_a_witness_of_a_special_member_is_refused_at_load = table_test(
    "test_a_witness_of_a_special_member_is_refused_at_load")
test_a_row_that_breaks_a_rule_of_meaning_is_refused_at_load = table_test(
    "test_a_row_that_breaks_a_rule_of_meaning_is_refused_at_load")
test_a_non_integer_set_coefficient_is_refused_at_load = table_test(
    "test_a_non_integer_set_coefficient_is_refused_at_load")
test_a_weight_inhomogeneous_set_polynomial_is_refused_at_load = table_test(
    "test_a_weight_inhomogeneous_set_polynomial_is_refused_at_load")
test_a_template_with_a_pole_on_the_set_fails_its_record = table_test(
    "test_a_template_with_a_pole_on_the_set_fails_its_record")
test_a_template_that_does_not_evaluate_fails_its_record = table_test(
    "test_a_template_that_does_not_evaluate_fails_its_record")
test_classify_bad_point_length = table_test("test_classify_bad_point_length")
test_bad_type_flag = table_test("test_bad_type_flag")
test_census_budget_refusal = table_test("test_census_budget_refusal")
test_huge_composite_field_is_a_usage_error = table_test(
    "test_huge_composite_field_is_a_usage_error")
test_large_prime_fields_are_decided_quickly = table_test(
    "test_large_prime_fields_are_decided_quickly")
test_a_missing_catalog_file_is_refused_at_load = table_test(
    "test_a_missing_catalog_file_is_refused_at_load")
test_a_long_sum_in_a_template_fails_its_record = table_test(
    "test_a_long_sum_in_a_template_fails_its_record")
test_a_set_polynomial_is_named_in_its_canonical_form = table_test(
    "test_a_set_polynomial_is_named_in_its_canonical_form")


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


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--type", "A2", "--q", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orbit_id,q,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert sum(int(r[2]) for r in rows) == 27


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


def test_only_catalog_and_cli_reference_load_catalog():
    # every layer takes a loaded Catalog; loading is the CLI's job alone
    package = Path(orbit_atlas.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if "load_catalog" in path.read_text(encoding="utf-8"))
    assert users == ["catalog.py", "cli.py"]


def test_only_the_conftest_helper_writes_a_catalog_copy():
    # no other test module writes a file or sets an environment variable:
    # a malformed catalog is an edit handed to ``catalog_copy``, and a new
    # malformed input is a row of a ``malformed`` table
    writers = {path.name for path in Path(__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in (
                   "write_text", "write_bytes", "dump", "setenv", "putenv")}
    assert writers == {"conftest.py"}


def test_each_table_row_is_checked_by_the_test_it_names():
    # ``name = table_test("name")`` builds each table test, and every name
    # a row gives is built so
    built = {(node.targets[0].id, node.value.args[0].value)
             for path in Path(__file__).parent.glob("test_*.py")
             for node in ast.parse(path.read_text("utf-8")).body
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", None) == "table_test"}
    assert all(name == test for name, test in built)
    assert {test for _, test in built} == {
        row.test for table in TABLES for row in table}


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


def test_a_large_prime_field_classifies_quickly(capsys):
    # an exact primality test of 10^18 + 3, and no enumeration of F_q
    assert run(capsys, "classify", "--type", "A2", "--point", "1,0,1",
               "--mod", "1000000000000000003") == (0, "x11\n", "")


def test_check_all_runs_at_the_exact_budget(capsys):
    code, out, _ = run(capsys, "check-all", "--type", "A1", "--budget", "11")
    assert code == 0
    assert out.count("PASS") == 7


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


def _long_sum(text: str) -> str:
    return " + ".join([text] * 2000)


def test_a_long_sum_in_a_printed_set_reads_as_a_diff(catalog_copy, capsys):
    # X2 added to itself 2000 times is 2000*X22, not X11: before, orbits
    # ended in a RecursionError traceback
    catalog_copy(2, _row("x12", lambda row: row["as_printed"].update(
        set=f"Z({_long_sum('X2')}) & V(X1)")))
    code, out, _ = run(capsys, "orbits", "--type", "A2", "--format", "json")
    statuses = {r["id"]: r["printed_set_status"]
                for r in json.loads(out)["validation"]["records"]}
    assert code == 0
    assert statuses == {"0": "match", "x12": "diff", "x11": "match",
                        "x22": "match", "x11+x22": "match"}


def test_printed_text_typos_leave_every_check_standing(catalog_copy, capsys):
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

    def typed(doc):
        for row in doc["orbits"]:
            if row["id"] in typos:
                key, text = typos[row["id"]]
                row["as_printed"][key] = text
        return doc

    catalog_copy(3, typed)
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


@pytest.mark.parametrize("word, status, printed", [
    # unbalanced parentheses, a torus of one entry at rank 2, a root
    # outside rank 2
    ("T(y, 1) U_1((z)", "RepairedAndVerified", "parse-error@11"),
    ("T(y) U_1(z)", "RepairedAndVerified", "parse-error@0"),
    ("U_13(z)", "RepairedAndVerified", "parse-error@2"),
    # a number less a fraction: the fraction's reflected subtraction
    ("T(2 - (2 - z^(1/3)), z^(1/3))", "VerifiedSymbolic", "verified")])
def test_a_printed_word_leaves_every_check_standing(catalog_copy, capsys,
                                                    word, status, printed):
    catalog_copy(2, _row("x12", lambda row: row["as_printed"].update(
        word=word)))
    golden = (GOLDEN / "A2" / "check-all.txt").read_text(encoding="utf-8")
    assert run(capsys, "check-all", "--type", "A2") == (0, golden, "")
    code, out, _ = run(capsys, "verify", "--type", "A2", "--format", "json")
    (x12,) = (v for v in json.loads(out)["witnesses"] if v["id"] == "x12")
    assert (code, x12["status"], x12["as_printed"]) == (0, status, printed)


def test_check_all_names_the_first_record_that_fails_the_catalog_check(
        catalog_copy, capsys):
    # X23 of x12+x34's zero set becomes X12*X34, nonzero at the
    # representative; the generator count, and so the dimension, stays
    def nonzero_at_the_representative(row):
        row["zero_set"][row["zero_set"].index("X23")] = "X12*X34"

    catalog_copy(4, _row("x12+x34", nonzero_at_the_representative))
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
        catalog_copy, capsys):
    # the printed word is checked on its own: one with the template's
    # failing trees is an eval-error
    def printed_like_the_template(row):
        _zero_torus_entry(row)
        row["as_printed"]["word"] = "T(0, 1, z)"

    catalog_copy(3, _row("x13", printed_like_the_template))
    assert main(["verify", "--type", "A3", "--format", "json"]) == 1
    x13 = next(v for v in json.loads(capsys.readouterr().out)["witnesses"]
               if v["id"] == "x13")
    assert (x13["status"], x13["as_printed"]) == ("FailedAsPrinted",
                                                  "eval-error")


def test_malformed_catalogs_print_no_traceback_through_the_entry_point(
        catalog_copy):
    # through the module entry point, which runs main as the console script
    # does: exit 1 and one stderr line each
    for n, rid, edit, argv in [
            (2, "x11+x22", inverse_in_nonzero_set,
             ["classify", "--type", "A2", "--point", "0,1,0"]),
            (3, "x13", _zero_torus_entry, ["verify", "--type", "A3"]),
            (2, "x22", inhomogeneous_zero_set, ["dims", "--type", "A2"])]:
        catalog_copy(n, _row(rid, edit))
        env = dict(os.environ, PYTHONPATH=str(SRC))
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
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
