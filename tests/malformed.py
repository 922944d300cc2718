"""The malformed-input contracts of the command line, one table each.

- ``USAGE_ERRORS``: exit 2, nothing on stdout, one ``error: ...`` line on
  stderr; of argparse's own refusals only the last line is pinned, since
  the usage lines above it wrap with the terminal width.
- ``LOAD_REFUSALS``: a catalog copy refused at load: exit 1, nothing on
  stdout, one ``check failed: ...`` line on stderr, whatever the command.
- ``FAILING_TEMPLATES``: a catalog copy whose witness template fails its
  record: ``verify --format json`` exits 1 with ``# FAIL witness <id>:
  FailedAsPrinted <detail>`` on stderr and its golden JSON with that
  record failed on stdout; check-all exits 1 with its golden lines, ``FAIL
  witnesses: uncertified: ['<id>']`` last and any other check the copy
  breaks failing as the row says.

A command runs at the row's rank unless it names its own ``--type``.  Each
row names the tier-1 test that checks it (``test``), which its test module
builds with ``table_test``.  A new malformed input is a new row.
"""

import json
from collections import namedtuple
from pathlib import Path

import pytest

from conftest import _row
from orbit_atlas.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _argv(command: str, n: int) -> list:
    argv = command.split()
    return argv if "--type" in argv else argv + ["--type", f"A{n}"]


# a row's edit is a function of the catalog document (``LOAD_REFUSALS``,
# where "{data}" in the error stands for the copy's directory) or edits the
# row of ``rid`` in place (``FAILING_TEMPLATES``, where ``printed`` is
# verify's "as printed" for the record and ``fails`` are check-all's other
# FAIL lines)
THREE = ("check-all", "orbits --format json", "verify")
Usage = namedtuple("Usage", "test argv err id", defaults=(None,))
Refusal = namedtuple("Refusal", "test n edit error commands id",
                     defaults=(THREE, None))
_VERIFY = "verify --format json"
Failure = namedtuple("Failure", "test id n rid edit detail printed commands "
                     "fails", defaults=((_VERIFY, "check-all"), ()))


def check_usage_error(capsys, catalog_copy, row):
    code, out, err = run(capsys, *row.argv.split())
    assert (code, out) == (2, "")
    if row.err.startswith("orbit-atlas: error: "):
        assert err.startswith("usage: orbit-atlas ")
        assert err.splitlines()[-1] == row.err
    else:
        assert err == row.err + "\n"


def check_load_refusal(capsys, catalog_copy, row):
    data = catalog_copy(row.n, row.edit)
    error = row.error.replace("{data}", str(data))
    for command in row.commands:
        assert run(capsys, *_argv(command, row.n)) == (
            1, "", f"check failed: {error}\n"), command


def _check_all_out(n: int, *fails: str) -> str:
    """check-all's golden stdout at rank n with the line of each check that
    ``fails`` names replaced by its FAIL line."""
    def check(line):
        return line.split(":")[0].split()[1]

    by_check = {check(line): line for line in fails}
    lines = (GOLDEN / f"A{n}" / "check-all.txt").read_text(
        encoding="utf-8").splitlines()
    return "".join(by_check.get(check(line), line) + "\n" for line in lines)


def check_failing_template(capsys, catalog_copy, row):
    catalog_copy(row.n, _row(row.rid, row.edit))
    # the golden verify JSON with the record's verdict failed
    verdicts = json.loads((GOLDEN / f"A{row.n}" / "verify.json").read_text(
        encoding="utf-8"))
    for v in verdicts["witnesses"]:
        if v["id"] == row.rid:
            v.update(status="FailedAsPrinted", as_printed=row.printed,
                     detail=row.detail)
    for command in row.commands:
        got = run(capsys, *_argv(command, row.n))
        if command == "check-all":
            assert got == (1, _check_all_out(
                row.n, *row.fails,
                f"FAIL witnesses: uncertified: ['{row.rid}']"), "")
        else:
            assert got == (
                1, json.dumps(verdicts, indent=2) + "\n",
                f"# FAIL witness {row.rid}: FailedAsPrinted {row.detail}\n")


# ---------------------------------------------------------------------------
# usage errors


def _budget(points, budget):
    return f"error: enumeration needs {points} points, budget is {budget}"


_LARGE_PRIME = "1000000000000000003"     # 10^18 + 3
_HUGE = str(10**400)

USAGE_ERRORS = [
    Usage("test_classify_bad_point_length", "classify --type A2 --point 1,2",
          "error: point needs 3 comma-separated coordinates"),
    Usage("test_bad_type_flag", "classify --type B2 --point 0",
          "error: --type must be A1|A2|A3|A4, got B2"),
    Usage("test_census_budget_refusal", "census --type A4 --q 7 --budget 1000",
          _budget(282475249, 1000)),
    # Fraction would expand 1e999999999 to all of its digits
    *(Usage("test_classify_malformed_coordinate_is_usage_error",
            f"classify --type A2 --point {point}"
            + (f" --mod {mod}" if mod else ""),
            f"error: --point coordinates must be {detail}",
            id=f"{point}-{mod}") for point, mod, detail in [
        ("1/2,x,3", None, "rationals: Invalid literal for Fraction: 'x'"),
        ("1/2,0,3", "5", "integers: invalid literal for int() with base 10: "
                         "'1/2'"),
        ("1/0,0,3", None, "rationals: Fraction(1, 0)"),
        ("1e999999999,0,3", None,
         "rationals: '1e999999999' is in exponent notation")]),
    # no CSV header before the refusal
    *(Usage("test_field_flag_must_be_prime",
            f"{command} --type A2 --q {q}", f"error: --q {q} is not prime",
            id=f"{q}-{command}")
      for command in ("census", "oracle") for q in ("0", "4", "-3")),
    Usage("test_huge_composite_field_is_a_usage_error",
          f"census --type A2 --q {_HUGE}", f"error: --q {_HUGE} is not prime"),
    Usage("test_huge_composite_field_is_a_usage_error",
          f"classify --type A2 --point 1,0,1 --mod {_HUGE}",
          f"error: --mod {_HUGE} is not prime"),
    *(Usage("test_budget_flag_only_where_points_are_enumerated",
            f"{argv} --type A1 --budget 5",
            "orbit-atlas: error: unrecognized arguments: --budget 5",
            id=f"argv{k}") for k, argv in enumerate([
        "orbits", "classify --point 0", "dims", "hasse", "verify"])),
    # no header and no partial rows; refused: q = 5 at A4 (census and
    # check-all), q = 3 at A4 (oracle) and q = 11 at A1 (check-all)
    *(Usage("test_budget_refusal_leaves_stdout_empty", argv, err,
            id=f"argv{k}") for k, (argv, err) in enumerate([
        ("census --type A4 --budget 100000", _budget(9765625, 100000)),
        ("oracle --type A4 --budget 10000", _budget(59049, 10000)),
        (f"census --type A2 --q {_LARGE_PRIME}",
         _budget(int(_LARGE_PRIME) ** 3, 10000000)),
        ("check-all --type A4 --budget 100000", _budget(9765625, 100000)),
        ("check-all --type A1 --budget 10", _budget(11, 10))])),
    Usage("test_large_prime_fields_are_decided_quickly",
          f"classify --type A2 --point 1,0,1 --mod {2**89 - 1}",
          f"error: {2**89 - 1} is too large for an exact primality test "
          f"(the limit is 3317044064679887385961981)"),
]


# ---------------------------------------------------------------------------
# catalogs refused at load


def _set(*keys, value):
    """The row edit that sets the part at ``keys`` to ``value``."""
    def edit(row):
        for key in keys[:-1]:
            row = row[key]
        row[keys[-1]] = value
    return edit


def _add(*keys, value):
    """The row edit that appends ``value`` to the list at ``keys``."""
    def edit(row):
        for key in keys:
            row = row[key]
        row.append(value)
    return edit


def _both(*edits):
    def edit(row):
        for one in edits:
            one(row)
    return edit


def _per_command(test, n, edit, error, commands):
    """One row per command, as ``argv<k>``, of the one input of ``test``."""
    return [Refusal(test, n, edit, error, (command,), id=f"argv{k}")
            for k, command in enumerate(commands)]


def _x11(edit):
    return _row("x11", edit)


def _first_factor_root(root):
    return _set("witness", "factors", 0, "root", value=root)


def _without_last_row(doc):
    return {**doc, "orbits": doc["orbits"][:-1]}


def _last_row_twice(doc):
    return {**doc, "orbits": doc["orbits"] + doc["orbits"][-1:]}


inverse_in_nonzero_set = _set("nonzero_set", 0, value="X11^-1")
_half_in_nonzero_set = _set("nonzero_set", 0, value="2^-1*X11")
inhomogeneous_zero_set = _set("zero_set", 0, value="X11 + X12")

_SHAPE = "test_a_malformed_catalog_shape_is_refused_at_load"
_NUMBER = "test_a_number_that_is_not_a_json_integer_is_refused_at_load"
_SPECIAL = "test_a_witness_of_a_special_member_is_refused_at_load"
_MEANING = "test_a_row_that_breaks_a_rule_of_meaning_is_refused_at_load"
_SIDE = "test_a_negative_set_exponent_is_refused"
_X34 = "x11+x22+x44+x34"

LOAD_REFUSALS = [
    *_per_command(
        "test_a_negative_set_exponent_is_refused_at_load", 2,
        _row("x11+x22", inverse_in_nonzero_set),
        "rank 2 row 'x11+x22': set polynomial 'X11^-1' has a negative "
        "exponent",
        ["orbits", "classify --point 0,1,0", "classify --point 0,1,0 --mod 5",
         "verify", "hasse", "census", "check-all"]),
    # a part of the wrong shape, or a missing key, is named by its path
    *(Refusal(_SHAPE, 2, edit, error, id=id) for id, edit, error in [
        ("top-level-list", lambda doc: [1, 2],
         "catalog for rank 2: expected an object, got list"),
        ("orbits-int", lambda doc: {**doc, "orbits": 5},
         "rank 2 orbits: expected a list, got int"),
        ("row-int", lambda doc: {**doc, "orbits": [doc["orbits"][0], 1,
                                                   *doc["orbits"][2:]]},
         "rank 2 orbits[1]: expected an object, got int"),
        ("id-int", _x11(_set("id", value=11)),
         "rank 2 row 11: id: expected a string, got int"),
        ("id-missing", _x11(lambda row: row.pop("id")),
         "rank 2 orbits[2]: missing key 'id'")]),
    *(Refusal(_SHAPE, 2, _x11(edit), f"rank 2 row 'x11': {error}", id=id)
      for id, edit, error in [
          ("printed-word-int", _set("as_printed", "word", value=5),
           "as_printed word: expected a string, got int"),
          ("printed-set-int", _set("as_printed", "set", value=5),
           "as_printed set: expected a string, got int"),
          ("torus-string", _set("witness", "torus", value="x1"),
           "witness torus: expected a list, got str"),
          ("zero-set-string", _set("zero_set", value="X22"),
           "zero_set: expected a list, got str"),
          ("witness-int", _set("witness", value=5),
           "witness: expected an object, got int"),
          ("note-int", _set("notes", value=[5]),
           "notes[0]: expected an object, got int"),
          ("constraints-int", _set("witness", "constraints", value=5),
           "witness constraints: expected a list, got int"),
          ("radical-int", _set("witness", "radicals", value=[5]),
           "witness radicals[0]: expected an object, got int"),
          ("factor-int", _add("witness", "factors", value=5),
           "witness factors[1]: expected an object, got int"),
          ("param-int", _set("witness", "factors", 0, "param", value=5),
           "witness factors[0] param: expected a string, got int"),
          ("torus-entry-int", _set("witness", "torus", value=[1, 2]),
           "witness torus[0]: expected a string, got int"),
          ("zero-set-entry-int", _set("zero_set", value=[5]),
           "zero_set[0]: expected a string, got int"),
          ("nonzero-set-entry-int", _set("nonzero_set", value=["X11", 5]),
           "nonzero_set[1]: expected a string, got int"),
          ("rep-int", _set("rep", value=5), "rep: expected a list, got int"),
          ("rep-entry-int", _set("rep", value=[11]),
           "rep[0]: expected a string, got int"),
          ("constraint-poly-int", _set("witness", "constraints", value=[
              {"poly": 5, "solve": "x"}]),
           "witness constraints[0] poly: expected a string, got int"),
          ("constraint-solve-list", _set("witness", "constraints", value=[
              {"poly": "x - z", "solve": ["x"]}]),
           "witness constraints[0] solve: expected a string, got list"),
          ("radical-name-int", _set("witness", "radicals", value=[
              {"name": 5, "order": 2, "radicand": "x + z"}]),
           "witness radicals[0] name: expected a string, got int"),
          ("radicand-int", _set("witness", "radicals", value=[
              {"name": "R", "order": 2, "radicand": 5}]),
           "witness radicals[0] radicand: expected a string, got int"),
          ("note-missing", _set("notes", value=[{"field": "witness"}]),
           "notes[0]: missing key 'note'"),
          ("note-field-int", _set("notes", value=[{"field": 5, "note": 3}]),
           "notes[0] field: expected a string, got int"),
          ("note-text-int",
           _set("notes", value=[{"field": "witness", "note": 3}]),
           "notes[0] note: expected a string, got int"),
          *((f"{key.replace('_', '-')}-missing",
             lambda row, key=key: row.pop(key), f"missing key {key!r}")
            for key in ("rep", "zero_set", "nonzero_set", "dim", "witness")),
          ("solve-missing",
           _set("witness", "constraints", value=[{"poly": "y"}]),
           "witness constraints[0]: missing key 'solve'"),
          ("order-missing", _set("witness", "radicals", value=[{"name": "R"}]),
           "witness radicals[0]: missing key 'order'"),
          ("param-missing",
           lambda row: row["witness"]["factors"][0].pop("param"),
           "witness factors[0]: missing key 'param'")]),
    # a number must be a JSON integer: none is coerced by int(), and a
    # schema_version of true or 1.0 is refused though it equals 1
    *(Refusal(_NUMBER, n, edit, error, id=id) for id, n, edit, error in [
        ("float-root", 2, _x11(_first_factor_root([2.9, 2.9])),
         "rank 2 row 'x11': witness factors[0] root: expected two integers, "
         "got [2.9, 2.9]"),
        ("three-entry-root", 2, _x11(_first_factor_root([2, 2, 7])),
         "rank 2 row 'x11': witness factors[0] root: expected two integers, "
         "got [2, 2, 7]"),
        ("float-dim", 2, _row("0", _set("dim", value=0.5)),
         "rank 2 row '0': dim: expected an integer, got 0.5"),
        ("string-dim", 2, _row("0", _set("dim", value="0")),
         "rank 2 row '0': dim: expected an integer, got '0'"),
        ("bool-dim", 2, _row("x12", _set("dim", value=True)),
         "rank 2 row 'x12': dim: expected an integer, got True"),
        ("float-order", 3, _row("x22+x13", _set(
            "witness", "radicals", 0, "order", value=2.5)),
         "rank 3 row 'x22+x13': witness radicals[0] order: expected an "
         "integer, got 2.5"),
        ("bool-schema-version", 2, lambda doc: {**doc, "schema_version": True},
         "schema_version True unsupported"),
        ("float-schema-version", 2, lambda doc: {**doc, "schema_version": 1.0},
         "schema_version 1.0 unsupported")]),
    # an extra constraint would cut x12's member below its set's dimension,
    # and a radical named u would make the free coordinate u a root; a
    # radical's name is a variable name, used once
    *(Refusal(_SPECIAL, 4, _row(rid, edit),
              f"rank 4 row {rid!r}: witness {error}", id=id)
      for id, rid, edit, error in [
          *((f"constraint-{what}", "x12", _add(
              "witness", "constraints", value={"poly": poly, "solve": solve}),
             f"constraints[0] {poly!r} is not a zero-set polynomial up to "
             f"sign") for what, poly, solve in (("x-z", "x - z", "x"),
                                               ("x", "x", "x"),
                                               ("z-1", "z - 1", "z"))),
          *((f"radical-{what}", rid,
             _set("witness", "radicals", k, "name", value=name),
             f"radicals[{k}] name {name!r} is {error}")
            for what, rid, k, name, error in [
                ("u", _X34, 0, "u", "a coordinate letter"),
                ("X33", _X34, 0, "X33", "an X variable"),
                ("repeated", "x11+x33+x12+x24", 1, "A", "repeated"),
                ("empty", _X34, 0, "", "not a variable name"),
                ("7", _X34, 0, "7", "not a variable name"),
                ("sqrt", _X34, 0, "sqrt", "not a variable name"),
                ("two-names", _X34, 0, "R R", "not a variable name")])]),
    # a radicand may name only the radicals before it
    *(Refusal(_MEANING, n, edit, error, id=id) for id, n, edit, error in [
        ("radicand-names-its-radical", 3, _row("x22+x13", _set(
            "witness", "radicals", 0, "radicand", value="R*v + z")),
         "rank 3 row 'x22+x13': variables ['R'] not in the allowed set"),
        ("repeated-root", 2, _row("x11+x22", _add("rep", value="x11")),
         "rank 2 row 'x11+x22': repeated root x11 in representative"),
        ("id-of-another-rep", 2, _row("x12", _set("id", value="x11")),
         "rank 2 row 'x11': id 'x11' does not match representative"),
        ("solve-letter-unknown", 3, _row("x22", _set(
            "witness", "constraints", 0, "solve", value="a")),
         "rank 3 row 'x22': solve letter 'a' unknown"),
        ("short-torus", 2, _row("x12", _set("witness", "torus", value=["x"])),
         "rank 2 row 'x12': torus needs 2 entries, got 1"),
        ("root-outside-rank", 2, _x11(_first_factor_root([1, 3])),
         "rank 2 row 'x11': factor root (1,3) outside rank 2"),
        ("root-token-outside-rank", 3, _row("x12", _set("rep", value=["x55"])),
         "rank 3 row 'x12': bad root token 'x55' for rank 3"),
        ("file-of-another-type", 2, lambda doc: {**doc, "type": "A3"},
         "catalog file type 'A3' != A2"),
        ("record-missing", 2, _without_last_row,
         "rank 2: 4 records, expected 5"),
        ("record-twice", 2, _last_row_twice,
         "rank 2: duplicate id 'x11+x22'"),
        ("empty-nonzero-set", 2, _row("x12", _set("nonzero_set", value=[])),
         "rank 2: regular/zero orbit uniqueness violated (empty zero_set: "
         "['x11+x22'], empty nonzero_set: ['0', 'x12'])")]),
    # the rank-1 copy leaves no file for rank 2
    Refusal("test_a_missing_catalog_file_is_refused_at_load", 1,
            None, "cannot read catalog for rank 2: [Errno 2] No such file "
                  "or directory: '{data}/a2.json'",
            ("check-all --type A2", "verify --type A2")),
    # polynomials are over Z, so the parse of 2^-1 refuses it (reduction
    # mod p is a ring map only on Z[X])
    *_per_command(
        "test_a_non_integer_set_coefficient_is_refused_at_load",
        2, _row("x11+x22", _half_in_nonzero_set),
        "rank 2 row 'x11+x22': (2)^-1 is not polynomial",
        ["classify --point 0,1,0", "classify --point 0,1,0 --mod 5", "census",
         "verify", "check-all"]),
    Refusal("test_a_non_integer_set_coefficient_is_refused",
            2, _row("x11+x22", _half_in_nonzero_set),
            "rank 2 row 'x11+x22': (2)^-1 is not polynomial", ("orbits",)),
    # X11 + X12 weighs a1 and a1 + a2
    *_per_command(
        "test_a_weight_inhomogeneous_set_polynomial_is_refused_at_load", 2,
        _row("x22", inhomogeneous_zero_set),
        "rank 2: record x22 polynomial X11 + X12 is not root-weight "
        "homogeneous",
        ["orbits", "classify --point 0,1,0", "classify --point 0,1,0 --mod 5",
         "census", "oracle", "dims", "verify", "hasse", "check-all"]),
    # X12 + X11 is named in its canonical form, X11 + X12
    Refusal("test_a_set_polynomial_is_named_in_its_canonical_form", 2,
            _row("x22", _set("zero_set", 0, value="X12 + X11")),
            "rank 2: record x22 polynomial X11 + X12 is not root-weight "
            "homogeneous", ("classify --point 0,1,0",)),
    # the load-only cases of the loader: orbits loads and refuses
    Refusal("test_catalog_count_mismatch_detected", 1,
            _without_last_row, "rank 1: 1 records, expected 2", ("orbits",)),
    Refusal("test_catalog_duplicate_id_detected", 1,
            _last_row_twice, "rank 1: duplicate id 'x11'", ("orbits",)),
    Refusal("test_catalog_parse_failure_names_offending_row",
            1, _x11(lambda row: row.update(zero_set=["X99 + ur"])),
            "rank 1 row 'x11': variables ['X99', 'ur'] not in the allowed set",
            ("orbits",)),
    # every kernel evaluates set polynomials where a coordinate may be 0
    *(Refusal(_SIDE, 1, _x11(lambda row, side=side, text=text: row.update(
        {side: [text]})),
        f"rank 1 row 'x11': set polynomial {text!r} has a negative exponent",
        ("orbits",), id=f"{side}-{text}")
      for side, text in (("zero_set", "X11^-2"), ("nonzero_set", "X11^-1"))),
]


# ---------------------------------------------------------------------------
# templates that fail their record


def _torus_entry(text):
    return _set("witness", "torus", 0, value=text)


def _factor(param):
    return _add("witness", "factors", value={"root": [1, 2], "param": param})


def _radical(name, order, radicand):
    return _add("witness", "radicals",
                value={"name": name, "order": order, "radicand": radicand})


_zero_torus_entry = _torus_entry("0")
_solved_for_y = _set("witness", "constraints", 0, "solve", value="y")
# m = (x, 0, z) with x != 0: T(x*z, z) U_x22(-1/(x^2*z^2)) reproduces m
# wherever z != 0, but z may vanish on the set
unsound_x11 = _both(_set("witness", "torus", value=["x*z", "z"]),
                    _set("witness", "factors", value=[
                        {"root": [2, 2], "param": "-1/(x^2*z^2)"}]))
# peeling the unit z^60 off a base would never end
monomial_radicand = _radical("R", 2, "z")

_NOT_A_UNIT = "normalized template is not a unit on the set: "
_NO_EVAL = "normalized template does not evaluate: "
_POLE = "test_a_template_with_a_pole_on_the_set_fails_its_record"
_EVAL = "test_a_template_that_does_not_evaluate_fails_its_record"
_A3_EMPTY = "ExhaustionError: point [0, 1, 0, 0, 0, 0]"

FAILING_TEMPLATES = [
    # U_12 acts trivially on A2's nilradical, so each appended factor keeps
    # the word's value; X11 + 1 and X12 vanish on part of x11's set, and
    # y = v*z/x divides by X12, which vanishes on part of x22's; a nonzero
    # condition X23 = v*z/x does not make x a unit
    Failure(_POLE, "radicand-exempt", 2, "x11",
            _both(_factor("1/(x+1)"), _radical("S", 2, "x + 1")),
            _NOT_A_UNIT + "radicand 'x + 1' of S", "verified"),
    Failure(_POLE, "monomial-pole", 2, "x11", _factor("1/z"),
            _NOT_A_UNIT + "the denominator of '1/z'", "verified"),
    Failure(_POLE, "solved-monomial-pole", 3, "x22", _solved_for_y,
            _NOT_A_UNIT + "the denominator of the value solved for y",
            "eval-error"),
    Failure(_POLE, "pole-letter-of-a-nonzero-condition", 3, "x22",
            _both(_solved_for_y, _add("nonzero_set", value="X23")),
            _NOT_A_UNIT + "the denominator of the value solved for y",
            "eval-error", fails=(
                "FAIL catalog: x22: representative is not a member",
                f"FAIL census: {_A3_EMPTY} over F_3 matched no record",
                f"FAIL representatives: {_A3_EMPTY} matched no record",
                f"FAIL oracle: {_A3_EMPTY} over F_2 matched no record",
                f"FAIL closure-order: {_A3_EMPTY} over F_2 matched no record")),
    # each names its record, as a check failure; the printed word reads
    # the record's radicals too
    *(Failure(_EVAL, f"{n}-{rid}-{name}-{detail}", n, rid, edit,
              _NO_EVAL + detail, printed,
              (_VERIFY, "check-all") if n < 4 else (_VERIFY,))
      for n, rid, name, edit, detail, printed in [
          (3, "x13", "_zero_torus_entry", _zero_torus_entry,
           "torus entry evaluates to zero", "verified"),
          (4, "x11", "_zero_denominator",
           _set("witness", "factors", 0, "param", value="1/(q-q)"),
           "division by zero fraction", "verified"),
          (3, "x13", "_zero_exponent_denominator", _torus_entry("u^(1/0)"),
           "zero denominator in the exponent at position 5 in 'u^(1/0)'",
           "verified"),
          (3, "x13", "_superscript_torus_entry", _torus_entry("u*²"),
           "unexpected character '²' at position 2", "verified"),
          (2, "x11", "_deeply_nested_torus_entry",
           _torus_entry("(" * 3000 + "x" + ")" * 3000),
           "parentheses and unary minus nest deeper than 32 at position 32",
           "verified"),
          (2, "x11", "_order_seven_radical", _radical("R", 7, "x + z"),
           "radical order 7 outside 2..5", "eval-error")]),
    Failure(_EVAL, "solve-coefficient-vanishes", 2, "x12",
            _set("witness", "constraints",
                 value=[{"poly": "x", "solve": "y"}]),
            _NO_EVAL + "constraint 'x': solve coefficient vanishes",
            "eval-error"),
    # x12's first torus entry z^(1/3) added to itself 2000 times, one
    # chain of the parse tree
    Failure("test_a_long_sum_in_a_template_fails_its_record",
            None, 2, "x12", _torus_entry(" + ".join(["z^(1/3)"] * 2000)),
            "normalized template failed", "verified"),
    # x12 spans the centre of n, so U_12(1/(2*x)) fixes every element and
    # the word still reproduces m; but 2*x vanishes everywhere in
    # characteristic 2: only +-1 times a monomial is a unit
    Failure(
        "test_a_constant_denominator_other_than_plus_or_minus_one_is_not_a_unit",
        None, 2, "x11", _factor("1/(2*x)"),
        _NOT_A_UNIT + "the denominator of '1/(2*x)'", "verified"),
    Failure("test_unsound_template_fails_verify_and_check_all",
            None, 2, "x11", unsound_x11, _NOT_A_UNIT + "torus entry 'x*z'",
            "verified"),
    # a template that does not evaluate fails its record's verdict: exit 1,
    # the record named, as a check failure and not a usage error
    Failure("test_monomial_radicand_fails_verify_and_check_all",
            None, 2, "x11+x22", monomial_radicand,
            _NO_EVAL + "record x11+x22: radicand 'z' of radical R is a "
                       "monomial", "eval-error"),
    # (w/u)^(1/2) as (4*w/u)^(1/2): the root 2 exists, but no constant
    # other than +-1 has its root taken
    Failure("test_a_root_of_a_non_unit_constant_fails_the_verdict",
            None, 3, "x11+x33",
            _set("witness", "torus", 2, value="(4*w/u)^(1/2)"),
            _NO_EVAL + "fractional power 1/2 of the constant 4; only 1, and "
                       "-1 under an odd root, are taken", "verified"),
]


TABLES = (USAGE_ERRORS, LOAD_REFUSALS, FAILING_TEMPLATES)
_CHECKS = {Usage: check_usage_error, Refusal: check_load_refusal,
           Failure: check_failing_template}


def table_test(test: str):
    """The tier-1 test named ``test``, which checks the rows that name it.
    It keeps the id it had before its inputs became rows: parametrized by
    the rows' ids when they have ids, else one test that checks its rows
    in turn."""
    held = [row for table in TABLES for row in table if row.test == test]
    assert held, f"no row names {test}"
    if held[0].id is None:
        def run_rows(capsys, catalog_copy):
            for row in held:
                _CHECKS[type(row)](capsys, catalog_copy, row)
    else:
        @pytest.mark.parametrize("row", held, ids=[row.id for row in held])
        def run_rows(capsys, catalog_copy, row):
            _CHECKS[type(row)](capsys, catalog_copy, row)
    run_rows.__name__ = run_rows.__qualname__ = test
    return run_rows
