"""Catalog integrity: counts, round-trips, provenance layer, repairs."""

import dataclasses
import json
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orbit_atlas import catalog
from orbit_atlas.arith import parse_poly
from orbit_atlas.catalog import (ORBIT_COUNTS, WitnessParseError, load_catalog,
                                 parse_printed_word, printed_statuses,
                                 root_weight_homogeneous, validate_catalog,
                                 x_vars)
from orbit_atlas.errors import CatalogError, UnsupportedRankError
from orbit_atlas.lie import coordinate_letters
from orbit_atlas.witness import classify_verdict
from conftest import DATA, _row
from malformed import table_test
from reference import fraction_parse_poly, serialize_catalog

# the tests that check rows of the ``malformed`` tables
test_a_negative_set_exponent_is_refused = table_test(
    "test_a_negative_set_exponent_is_refused")
test_catalog_count_mismatch_detected = table_test(
    "test_catalog_count_mismatch_detected")
test_catalog_duplicate_id_detected = table_test(
    "test_catalog_duplicate_id_detected")
test_catalog_parse_failure_names_offending_row = table_test(
    "test_catalog_parse_failure_names_offending_row")
test_a_non_integer_set_coefficient_is_refused = table_test(
    "test_a_non_integer_set_coefficient_is_refused")


def test_orbit_counts(catalogs):
    for n, count in ORBIT_COUNTS.items():
        assert len(catalogs[n].orbits) == count


def test_unique_regular_and_zero_orbit(catalogs):
    for n, cat in catalogs.items():
        empty_zero = [r for r in cat.orbits if not r.zero_set]
        empty_nonzero = [r for r in cat.orbits if not r.nonzero_set]
        assert len(empty_zero) == 1          # the regular orbit
        assert len(empty_nonzero) == 1       # the zero orbit
        assert empty_nonzero[0].id == "0"
        assert empty_zero[0].dim == max(r.dim for r in cat.orbits)


def test_dimension_histogram_rank4(catalogs):
    hist = Counter(r.dim for r in catalogs[4].orbits)
    assert dict(hist) == {0: 1, 1: 1, 2: 2, 3: 4, 4: 7, 5: 9, 6: 12,
                          7: 12, 8: 8, 9: 4, 10: 1}


def test_rank3_x22_record_contents(catalogs):
    rec = catalogs[3].by_id("x22")
    assert set(rec.zero_strs) == {"X11", "X33", "X22*X13 - X12*X23"}
    assert set(rec.nonzero_strs) == {"X22"}
    assert rec.dim == 3


def test_rank1_dimensions(catalogs):
    assert sorted(r.dim for r in catalogs[1].orbits) == [0, 1]


def test_round_trip_serialization_is_byte_identical(catalogs):
    for n, cat in catalogs.items():
        stored = (DATA / f"a{n}.json").read_text(encoding="utf-8")
        assert serialize_catalog(cat) == stored


def test_representatives_satisfy_own_conditions(catalogs):
    for n, cat in catalogs.items():
        report = validate_catalog(cat)
        assert all(r.representative_member for r in report.records)


def test_all_polynomials_homogeneous(catalogs):
    for n, cat in catalogs.items():
        report = validate_catalog(cat)
        assert all(r.homogeneous for r in report.records)


def test_no_variable_required_both_zero_and_nonzero(catalogs):
    for n, cat in catalogs.items():
        report = validate_catalog(cat)
        assert all(r.zv_sane for r in report.records)


def test_defining_sets_distinct_across_records(catalogs):
    for n, cat in catalogs.items():
        seen = set()
        for rec in cat.orbits:
            key = (frozenset(rec.zero_set), frozenset(rec.nonzero_set))
            assert key not in seen, rec.id
            seen.add(key)


def test_validation_flags_known_source_discrepancies(catalogs):
    status = {rid: s for rid, (s, _) in printed_statuses(catalogs[4]).items()}
    # dimension-table/witness-table conflict: a coordinate printed in both
    # the closed and open conditions
    assert status["x44+x12+x13"] == "diff"
    # corrupted variable tokens in the printed tables
    assert status["x22+x13"] == "unparseable"
    assert status["x33+x24"] == "unparseable"
    assert status["x11+x44"] == "unparseable"
    # open condition printed with the wrong coordinate
    assert status["x33"] == "diff"
    # records transcribed faithfully must match their printed sets
    assert status["x22"] == "match"
    assert status["x11+x22+x33+x44"] == "match"


def test_unparseable_as_printed_word_is_recorded(catalogs):
    rec = catalogs[4].by_id("x22+x44")
    assert "genfrac" in rec.as_printed["word"]
    assert rec.witness_repairs()
    status = {rid: w for rid, (_, w) in printed_statuses(catalogs[4]).items()}
    assert status["x22+x44"] == "unparseable"
    assert status["x11+x23+x34"] == "unparseable"
    assert status["x22"] == "parseable"


def test_rank2_validation_clean(catalogs):
    report = validate_catalog(catalogs[2])
    assert report.ok
    for set_status, _ in printed_statuses(catalogs[2]).values():
        assert set_status in ("match", "absent")
    # no repairs anywhere in the rank-2 data
    assert not any(catalogs[2].by_id(r.orbit_id).witness_repairs()
                   for r in report.records)


def test_a_witness_constraint_is_a_zero_set_polynomial_up_to_sign(
        catalog_copy):
    # x22's constraint v*z - x*y is its zero-set polynomial X22*X13 -
    # X12*X23 in coordinate letters; the negative cuts out the same member
    def negated(row):
        (constraint,) = row["witness"]["constraints"]
        assert constraint["poly"] == "v*z - x*y"
        constraint["poly"] = "x*y - v*z"

    catalog_copy(3, _row("x22", negated))
    assert classify_verdict(load_catalog(3).by_id("x22")).certified


_NOUNS = {str: "a string", int: "an integer", list: "a list",
          dict: "an object", "pair": "two integers"}


def _declared(value, shape, steps=()):
    """(steps, kind) of each part of ``value`` that ``shape`` declares,
    value first: steps are the keys and list indices from value to the
    part, and kind is its JSON kind, "pair" for a root."""
    if shape == catalog._PAIR:
        yield steps, "pair"
        return
    yield steps, type(shape) if isinstance(shape, (dict, list)) else shape
    if isinstance(shape, list):
        for k, x in enumerate(value):
            yield from _declared(x, shape[0], steps + (k,))
    elif isinstance(shape, dict):
        for key, x in value.items():
            sub = shape.get(str, shape.get(key, shape.get(f"{key}?")))
            if sub is not None:
                yield from _declared(x, sub, steps + (key,))


def _is_kind(value, kind) -> bool:
    if kind == "pair":
        return type(value) is list and [type(x) for x in value] == [int, int]
    return type(value) is kind


_ROWS = [(n, k) for n in ORBIT_COUNTS for k in range(ORBIT_COUNTS[n])]
# JSON values, near misses of each kind first: a bool or a float for an
# integer, a pair with a float or a third entry
_JSON = st.sampled_from([True, 1.0, "1", None, [], {}, [1, 2.0], [1, 2, 3],
                         [1], ["x"]]) | st.recursive(
    st.none() | st.booleans() | st.integers(-9, 99)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


# each example writes the same copy over the last one
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_ROWS), st.data())
def test_a_value_of_the_wrong_kind_anywhere_in_a_row_is_named(
        catalog_copy, row_at, data):
    # any part of a shipped row that the declared shape names, the id
    # excepted (it names the row), is refused by its path when it holds a
    # JSON value of another kind
    n, k = row_at
    doc = json.loads((DATA / f"a{n}.json").read_text(encoding="utf-8"))
    row = doc["orbits"][k]
    parts = [(steps, kind) for steps, kind in _declared(row, catalog._ROW)
             if steps and steps[0] != "id"]
    kinds = {c for _, c in parts}
    kind = data.draw(st.sampled_from([c for c in _NOUNS if c in kinds]))
    steps = data.draw(st.sampled_from([s for s, c in parts if c == kind]))
    value = data.draw(_JSON.filter(lambda v: not _is_kind(v, kind)))
    parent = row
    for step in steps[:-1]:
        parent = parent[step]
    parent[steps[-1]] = value
    path = "".join(f"[{s}]" if type(s) is int else f" {s}" for s in steps)
    got = repr(value) if kind in (int, "pair") else type(value).__name__
    catalog_copy(n, lambda _: doc)
    with pytest.raises(CatalogError) as exc:
        load_catalog(n)
    assert str(exc.value) == (f"rank {n} row {row['id']!r}:{path}: "
                              f"expected {_NOUNS[kind]}, got {got}")


def _parts(value, steps=()):
    """The steps to each part of a JSON value, value first."""
    yield steps
    if isinstance(value, (dict, list)):
        for key, x in (value.items() if isinstance(value, dict)
                       else enumerate(value)):
            yield from _parts(x, steps + (key,))


def test_the_shape_declares_every_part_of_every_shipped_row():
    for n in ORBIT_COUNTS:
        doc = json.loads((DATA / f"a{n}.json").read_text(encoding="utf-8"))
        for row in doc["orbits"]:
            declared = list(_declared(row, catalog._ROW))
            # a root's two entries are parts of its pair
            entries = {steps + (k,) for steps, kind in declared
                       if kind == "pair" for k in (0, 1)}
            assert set(_parts(row)) == {s for s, _ in declared} | entries


def test_keys_the_shape_does_not_declare_are_ignored(catalog_copy, catalogs):
    # an undeclared key in a row or in its witness is read past
    def commented(doc):
        for row in doc["orbits"]:
            row["comment"] = 5
            row["witness"]["comment"] = [None]
        return doc

    catalog_copy(3, commented)
    assert load_catalog(3) == catalogs[3]


def test_a_replace_copy_with_a_negative_exponent_is_refused(catalogs):
    # the record check runs on every copy, not only at load
    rec = catalogs[2].by_id("x11+x22")
    with pytest.raises(CatalogError) as exc:
        dataclasses.replace(rec, nonzero_set=(
            parse_poly("X11^-1"),) + rec.nonzero_set[1:])
    assert str(exc.value) == "set polynomial 'X11^-1' has a negative exponent"


def test_env_override_data_dir(catalog_copy, catalogs):
    catalog_copy(1)
    assert load_catalog(1) == catalogs[1]


def test_x_vars_order(catalogs):
    assert x_vars(4) == ["X11", "X22", "X33", "X44", "X12", "X23", "X34",
                         "X13", "X24", "X14"]
    mine = x_vars(2)
    mine.append("X99")              # a fresh list: the table is untouched
    assert x_vars(2) == ["X11", "X22", "X12"]
    with pytest.raises(UnsupportedRankError):
        x_vars(5)


def test_root_weight_homogeneity_examples():
    def weight_homogeneous(text, n):
        return root_weight_homogeneous(parse_poly(text, x_vars(n)), n)

    assert weight_homogeneous("X11*X22 - X12", 2)      # two total degrees
    assert weight_homogeneous("X11*X23 - X12*X33", 3)
    assert weight_homogeneous("X12^2", 2)
    assert not weight_homogeneous("X11 + X12", 2)      # one total degree
    assert not weight_homogeneous("X11*X22 - X12*X22", 3)


def test_validate_flags_weight_inhomogeneous_polynomial(catalogs):
    # X11*X22 - X12 is root-weight homogeneous (a1 + a2 twice), so the
    # catalog builds, but has two total degrees: validation flags it
    cat = catalogs[2]
    rec = cat.by_id("x22")
    bad = dataclasses.replace(
        rec, zero_set=(parse_poly("X11*X22 - X12", x_vars(2)),))
    bad_cat = dataclasses.replace(
        cat, orbits=tuple(bad if r is rec else r for r in cat.orbits))
    report = validate_catalog(bad_cat)
    assert [r.orbit_id for r in report.records if not r.homogeneous] == ["x22"]
    assert not report.ok


@pytest.mark.parametrize("n", [2, 4])
def test_a_weight_inhomogeneous_class_is_refused_when_the_pool_is_built(
        catalogs, n):
    # X11 + X12 has one total degree but two root weights (a1, a1 + a2), so
    # no kernel may slice by or drop the torus: a replace copy is refused
    # as a load would be, naming the polynomial, not the set string x22
    # keeps, which other records share
    cat = catalogs[n]
    rec = cat.by_id("x22")
    shared = rec.zero_strs[0]
    assert sum(shared in r.zero_strs for r in cat.orbits) > 1
    bad = dataclasses.replace(rec, zero_set=(parse_poly(
        "X11 + X12", x_vars(n)),) + rec.zero_set[1:])
    with pytest.raises(CatalogError, match=re.escape(
            f"rank {n}: record x22 polynomial X11 + X12 is not root-weight "
            f"homogeneous")):
        dataclasses.replace(
            cat, orbits=tuple(bad if r is rec else r for r in cat.orbits))


@pytest.mark.parametrize("garbled", ["Z(X11 +* X22) & V(X12)",
                                     "W(X11)", "Z(X11, Y7) & V(X22)"])
def test_garbled_printed_set_reports_unparseable(catalogs, garbled):
    cat = catalogs[2]
    rec = cat.by_id("x22")
    bad = dataclasses.replace(rec, as_printed={**rec.as_printed,
                                               "set": garbled})
    bad_cat = dataclasses.replace(
        cat, orbits=tuple(bad if r is rec else r for r in cat.orbits))
    assert printed_statuses(bad_cat)["x22"][0] == "unparseable"


def test_load_parses_each_distinct_set_string_once(monkeypatch):
    parsed = Counter()

    def counting(text, *args, **kwargs):
        parsed[text] += 1
        return parse_poly(text, *args, **kwargs)

    monkeypatch.setattr(catalog, "parse_poly", counting)
    cat = load_catalog(4)
    slots = [(s, p) for rec in cat.orbits
             for s, p in zip(rec.zero_strs + rec.nonzero_strs,
                             rec.zero_set + rec.nonzero_set)]
    assert len(slots) == 394
    distinct = {s for s, _ in slots}
    assert len(distinct) == 29
    assert {s: parsed[s] for s in distinct} == dict.fromkeys(distinct, 1)
    first = dict(reversed(slots))
    assert all(p is first[s] for s, p in slots)     # records share the parse
    # a second load parses again: nothing outlives the call
    load_catalog(4)
    assert {s: parsed[s] for s in distinct} == dict.fromkeys(distinct, 2)


def test_validate_parses_each_distinct_printed_polynomial_once(catalogs,
                                                                monkeypatch):
    # validation reads no printed text; the printed statuses parse each
    # distinct printed polynomial once per call
    parsed = Counter()

    def counting(text, *args, **kwargs):
        parsed[text] += 1
        return parse_poly(text, *args, **kwargs)

    monkeypatch.setattr(catalog, "parse_poly", counting)
    assert validate_catalog(catalogs[4]).ok
    assert not parsed
    printed_statuses(catalogs[4])
    assert len(parsed) == 32 and set(parsed.values()) == {1}
    printed_statuses(catalogs[4])
    assert set(parsed.values()) == {2}


def test_replaced_shared_polynomial_still_fails_every_check(catalogs):
    # the record keeps its set strings, which other records share, but
    # carries a new polynomial: the checks must look at the polynomial.
    # X11*X22 - X12 is root-weight homogeneous, so the catalog builds (the
    # weight half is the pool's, in the test above)
    cat = catalogs[4]
    rec = cat.by_id("x22")
    shared = rec.zero_strs[0]
    assert sum(shared in r.zero_strs for r in cat.orbits) > 1
    bad = dataclasses.replace(rec, zero_set=(parse_poly(
        "X11*X22 - X12", x_vars(4)),) + rec.zero_set[1:])
    bad_cat = dataclasses.replace(
        cat, orbits=tuple(bad if r is rec else r for r in cat.orbits))
    report = validate_catalog(bad_cat)
    assert [r.orbit_id for r in report.records if not r.homogeneous] == ["x22"]
    assert not report.ok


def test_parse_poly_equals_the_fraction_evaluation_on_every_catalog_string(
        catalogs):
    # every set, constraint and radicand string of A1-A4, under the names
    # its loader allows
    texts = set()
    for n, cat in catalogs.items():
        letters = tuple(coordinate_letters(n))
        for rec in cat.orbits:
            w = rec.witness
            texts |= {(s, tuple(x_vars(n)))
                      for s in rec.zero_strs + rec.nonzero_strs}
            texts |= {(c.poly, letters) for c in w.constraints}
            texts |= {(r.radicand, letters + tuple(x.name for x in w.radicals))
                      for r in w.radicals}
    assert len({s for s, _ in texts}) == 50
    for text, allowed in texts:
        got, want = parse_poly(text, allowed), fraction_parse_poly(text,
                                                                   allowed)
        assert (got.vars, got._t, got._b) == (want.vars, want._t,
                                              want._b), text


def test_a_printed_factor_subscript_is_an_ascii_digit():
    # an Arabic-Indic one once read as the simple root 1
    assert parse_printed_word("T(1, 1, z) U_1(u)", 3)[1] == [((1, 1), "u")]
    with pytest.raises(WitnessParseError,
                       match="expected a root-group factor at position 10"):
        parse_printed_word("T(1, 1, z) U_\u0661(u)", 3)
