"""Witness verification: forward containment, symbolic and numeric checks,
and repairs."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbit_atlas import witness
from orbit_atlas.arith import (LaurentFraction, LaurentPoly, Quotient,
                               RadicalRelation, _frac_pow, _peel, parse_poly,
                               radical_poles)
from orbit_atlas.catalog import (WitnessParseError, load_catalog,
                                parse_printed_word, x_vars)
from orbit_atlas.cli import main
from orbit_atlas.errors import (CatalogError, DomainError,
                                InternalInconsistencyError, SchemaError)
from orbit_atlas.lie import adjoint
from orbit_atlas.order import closure_generators, hasse
from orbit_atlas.witness import (FAILED_AS_PRINTED, INCONCLUSIVE, REPAIRED,
                                 VERIFIED_NUMERIC, VERIFIED_SYMBOLIC,
                                 build_member_env, classify_verdict,
                                 first_non_unit, forward_containment,
                                 generic_pullbacks, generic_vanishing,
                                 template_power,
                                 template_word, verify_rank,
                                 verify_witness_numeric)
from reference import (adjoint_pullbacks, all_certified, commutator_nil,
                       difference_residuals, fraction_frac_pow,
                       full_word_pullbacks, nonlinear_zero, word_residuals)

from conftest import _row
from malformed import FAILING_TEMPLATES, monomial_radicand, table_test

# the tests that check rows of the ``malformed`` tables
test_a_constant_denominator_other_than_plus_or_minus_one_is_not_a_unit = table_test(
    "test_a_constant_denominator_other_than_plus_or_minus_one_is_not_a_unit")
test_unsound_template_fails_verify_and_check_all = table_test(
    "test_unsound_template_fails_verify_and_check_all")
test_monomial_radicand_fails_verify_and_check_all = table_test(
    "test_monomial_radicand_fails_verify_and_check_all")
test_a_root_of_a_non_unit_constant_fails_the_verdict = table_test(
    "test_a_root_of_a_non_unit_constant_fails_the_verdict")


def test_forward_containment_all_records(catalogs):
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            report = forward_containment(rec, cat)
            assert report.ok, (rec.id, report.detail)


def test_forward_containment_rank2_regular(catalogs):
    report = forward_containment(catalogs[2].by_id("x11+x22"), catalogs[2])
    assert report.ok and report.zero_identities == 0
    assert report.nonzero_nonvanishing == 2


def test_ranks_one_and_two_verify_as_printed(catalogs):
    for n in (1, 2):
        for rec in catalogs[n].orbits:
            v = classify_verdict(rec)
            assert v.status == VERIFIED_SYMBOLIC, (rec.id, v.status)


def test_rank3_all_verify_after_documented_normalizations(catalogs):
    statuses = {}
    for rec in catalogs[3].orbits:
        v = classify_verdict(rec)
        assert v.certified, (rec.id, v.status)
        statuses[rec.id] = v.status
    # the parameter-letter normalization is documented on x22
    assert statuses["x22"] == REPAIRED
    assert "w" in " ".join(catalogs[3].by_id("x22").witness_repairs())
    repaired = [rid for rid, s in statuses.items() if s == REPAIRED]
    assert set(repaired) <= {"x22", "x22+x13", "x11+x33+x23"}


def test_rank4_certification(catalogs):
    statuses = {}
    for rec in catalogs[4].orbits:
        v = classify_verdict(rec)
        statuses[rec.id] = v
        assert v.certified, (rec.id, v.status, v.detail)
    unrepaired = [v for v in statuses.values() if v.status == VERIFIED_SYMBOLIC]
    assert len(unrepaired) >= 50
    assert len(statuses) == 61


def _template_verifies(rec, **kwargs) -> bool:
    w = rec.witness
    return word_residuals(rec, build_member_env(rec, **kwargs),
                          w.torus, w.factors) == []


def test_corrupted_row_detected_as_failed_as_printed(catalogs):
    rec = catalogs[4].by_id("x22+x44")
    v = classify_verdict(rec)
    assert v.as_printed.startswith("parse-error@")
    assert v.status == REPAIRED
    # and the repaired word verifies
    assert _template_verifies(rec)


def test_repaired_rows_fail_as_printed(catalogs):
    for rid in ("x13", "x24", "x34", "x12+x34"):
        rec = catalogs[4].by_id(rid)
        v = classify_verdict(rec)
        assert v.as_printed == "mismatch", rid
        assert v.status == REPAIRED, rid
        assert _template_verifies(rec), rid


def test_numeric_verification(catalogs):
    rec = catalogs[1].by_id("x11")
    for p in (61, 181):
        v = verify_witness_numeric(rec, p, 100)
        assert v.status == VERIFIED_NUMERIC
    # repaired corrupted row passes at both admissible primes
    rec = catalogs[4].by_id("x22+x44")
    for p in (61, 181):
        assert verify_witness_numeric(rec, p, 100).status == VERIFIED_NUMERIC


def test_numeric_verification_of_every_record(catalogs):
    # the cross-check evaluates every template value through ``eval`` over
    # Fp bindings
    for cat in catalogs.values():
        for rec in cat.orbits:
            v = verify_witness_numeric(rec, 61, 5)
            assert v.status == VERIFIED_NUMERIC, (rec.id, v.detail)


def test_a_sign_flipped_factor_is_a_numeric_mismatch(catalogs):
    # x11 of A2: the word T(x, 1) U_22(-z/x^2) reproduces the general
    # member, and with the factor's sign flipped it does not
    rec = catalogs[2].by_id("x11")
    assert rec.witness.factors == (((2, 2), "-z/x^2"),)
    flipped = dataclasses.replace(rec, witness=dataclasses.replace(
        rec.witness, factors=(((2, 2), "z/x^2"),)))
    v = verify_witness_numeric(flipped, 61, 5)
    assert (v.status, v.detail) == (FAILED_AS_PRINTED,
                                    "numeric mismatch over F_61")


def test_numeric_zero_trials_inconclusive(catalogs):
    v = verify_witness_numeric(catalogs[1].by_id("x11"), 61, 0)
    assert v.status == INCONCLUSIVE


def test_numeric_requires_admissible_prime(catalogs):
    with pytest.raises(DomainError):
        verify_witness_numeric(catalogs[1].by_id("x11"), 7, 1)


def test_reparametrization_power_invariance(catalogs):
    # replacing 60 by another common multiple of the root orders changes nothing
    for rid in ("x22+x14", "x11+x33+x24", "x11+x22+x33+x44"):
        rec = catalogs[4].by_id(rid)
        assert _template_verifies(rec, power=120), rid


def test_witness_domain_soundness(catalogs):
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            menv = build_member_env(rec)
            word = template_word(rec, menv, rec.witness.torus,
                                 rec.witness.factors)
            assert first_non_unit(rec, menv, word) == "", rec.id


def test_template_valid_only_on_a_dense_open_part_is_not_certified(
        catalogs):
    # U_x11(z/(x*y)) split in two factors whose denominators x + y may
    # vanish on the set, though their sum's does not
    rec = catalogs[2].by_id("x11+x22")
    rec = dataclasses.replace(rec, witness=dataclasses.replace(
        rec.witness, factors=(((1, 1), "z/(x+y)"),
                              ((1, 1), "z/(x*y) - z/(x+y)"))))
    assert _template_verifies(rec)
    assert classify_verdict(rec).detail == (
        "normalized template is not a unit on the set: the denominator of "
        "'z/(x+y)'")


def test_fixing_root_pruning_consistency(catalogs):
    # parameters for roots fixing the representative never appear in witnesses
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            rep = rec.representative
            for root, _ in rec.witness.factors:
                assert commutator_nil(n, root, rep).coords, (rec.id, root)


def test_template_power(catalogs):
    assert template_power(catalogs[4].by_id("x22")) == 1
    assert template_power(catalogs[4].by_id("x22+x14")) == 2
    assert template_power(catalogs[4].by_id("x11+x24")) == 3
    assert template_power(catalogs[4].by_id("x11+x22+x33+x44")) == 5


def test_member_env_solves_constraints(catalogs):
    rec = catalogs[4].by_id("x22")
    menv = build_member_env(rec)
    # the two solved coordinates satisfy the quadratic generators exactly
    for poly in nonlinear_zero(rec):
        subs = {v: menv.env[l] for v, l in
                zip(("X11", "X22", "X33", "X44", "X12", "X23", "X34",
                     "X13", "X24", "X14"),
                    ("q", "r", "s", "t", "u", "v", "w", "x", "y", "z"))}
        assert poly.eval(subs) == 0


def test_peel_exhausts_divisors_in_list_order():
    a1, b1, c2 = (parse_poly(t) for t in ("a + 1", "b + 1", "c + 2"))
    shared = a1 * b1                   # shares the factor a + 1 with a1
    p = shared * a1 ** 2 * c2
    assert _peel(p, [shared, a1]) == (c2, [1, 2])
    assert _peel(p, [a1, shared]) == (b1 * c2, [3, 0])
    assert _peel(c2, [shared, a1]) == (c2, [0, 0])


# integer coefficients: a quotient such as 9/4 is the fraction (9, 4)
MONOMIAL_COEFFS = (1, -1, 4, 9, -8, 2, 27)
FRACTIONAL_EXPONENTS = tuple(Fraction(a, b) for a, b in (
    (1, 2), (-1, 2), (3, 2), (1, 3), (-2, 3), (2, 1), (-1, 1), (1, 5)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MONOMIAL_COEFFS),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.sampled_from(MONOMIAL_COEFFS),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.sampled_from(FRACTIONAL_EXPONENTS))
def test_frac_pow_of_a_monomial_equals_the_peel_path(catalogs, cn, en, cd,
                                                     ed, e):
    # the tower's radicands never divide a monomial, so the peel takes
    # nothing off a monomial base: each part's root is its exponents times
    # e, each integral, with a coefficient of 1, or -1 under an odd root.
    # Any other coefficient raises, after the exponent check, as a base
    # with no tower does
    tower = build_member_env(catalogs[3].by_id("x22+x13")).tower
    letters = ("v", "x", "y", "z", "R")
    num = LaurentPoly(letters, {tuple(en): cn})
    den = LaurentPoly(letters, {tuple(ed): cd})
    base = LaurentFraction(num, den)
    radicands = [rel.radicand for rel in tower]
    parts, error = [], None
    for p in (base.num, base.den):
        assert _peel(p, radicands) == (p, [0] * len(tower))
        (exps, c), = p.terms.items()
        bad = [x for x in exps if (Fraction(x) * e).denominator != 1]
        if bad:
            error = ("fractional power does not clear; exponent "
                     f"{bad[0]}*{e} is not integral")
            break
        if not (c == 1 or c == -1 and e.denominator % 2):
            error = (f"fractional power {e} of the constant {c}; only 1, "
                     f"and -1 under an odd root, are taken")
            break
        parts.append(LaurentPoly(p.vars, {tuple(int(x * e) for x in exps):
                                          c ** abs(e.numerator)}))
    for t in (tower, ()):
        if error:
            with pytest.raises(SchemaError, match=re.escape(error)):
                _frac_pow(base, e, t)
        else:
            got, want = _frac_pow(base, e, t), LaurentFraction(*parts)
            assert (got.num, got.den) == (want.num, want.den)


_ROOT_TOWERS = {
    "none": (),
    "x22+x13": (RadicalRelation("R", 2, parse_poly("v*z - x*y")),),
    "two": (RadicalRelation("R", 3, parse_poly("x + y")),
            RadicalRelation("S", 5, parse_poly("R*v - z"))),
}


def _root_outcome(frac_pow, base, e, tower):
    """(num, den) of frac_pow(base, e, tower) as packed maps, or the text
    of the ``SchemaError`` it raised."""
    try:
        got = frac_pow(base, e, tower)
    except SchemaError as exc:
        return str(exc)
    return got.num._t, got.num._b, got.den._t, got.den._b


@st.composite
def _root_cases(draw):
    """A base (numerator and denominator each a monomial over the tower's
    variables and four letters, exponents within +-120, times a power of
    a radicand), an exponent a/b with b in 2..5, and a tower."""
    tower = _ROOT_TOWERS[draw(st.sampled_from(sorted(_ROOT_TOWERS)))]
    names = ("v", "x", "y", "z") + tuple(rel.new_var for rel in tower)
    parts = []
    for _ in range(2):
        part = LaurentPoly(names, {
            tuple(draw(st.lists(st.integers(-120, 120), min_size=len(names),
                                max_size=len(names)))):
            draw(st.sampled_from((1, -1, 1, -1, 2, -3, 4, 8)))})
        if tower and draw(st.booleans()):
            rel = draw(st.sampled_from(tower))
            part = part * rel.radicand ** draw(st.integers(1, 3))
        parts.append(part)
    e = Fraction(draw(st.integers(-12, 12)), draw(st.integers(2, 5)))
    return LaurentFraction(*parts), e, tower


@settings(max_examples=300, deadline=None)
@given(_root_cases())
def test_frac_pow_equals_the_fraction_root(case):
    # the root read off the packed key by divmod gives the Fraction
    # exponents' value, or the same refusal text
    base, e, tower = case
    assert (_root_outcome(_frac_pow, base, e, tower)
            == _root_outcome(fraction_frac_pow, base, e, tower))


def test_frac_pow_keeps_the_zero_base_and_non_monomial_paths(catalogs):
    tower = build_member_env(catalogs[3].by_id("x22+x13")).tower
    with pytest.raises(SchemaError, match="fractional power of zero"):
        _frac_pow(LaurentFraction(0), Fraction(1, 2), tower)
    # a non-monomial goes through the peel: the radicand R^2 comes off as R
    (rel,) = tower
    got = _frac_pow(LaurentFraction(rel.radicand * LaurentPoly.var("x", 2)),
                    Fraction(1, 2), tower)
    assert got == LaurentFraction(LaurentPoly.var("R") * LaurentPoly.var("x"))
    with pytest.raises(SchemaError, match=r"power 1/3 of radicand\^1 is not "
                                          r"integral"):
        _frac_pow(LaurentFraction(rel.radicand), Fraction(1, 3), tower)
    with pytest.raises(SchemaError, match="fractional power of a "
                                          "non-monomial"):
        _frac_pow(LaurentFraction(parse_poly("x + 1")), Fraction(1, 2), tower)


def test_monomial_radicand_is_rejected(catalog_copy):
    catalog_copy(2, _row("x11+x22", monomial_radicand))
    with pytest.raises(SchemaError, match=r"x11\+x22.*radical R"):
        build_member_env(load_catalog(2).by_id("x11+x22"))


@pytest.mark.parametrize("row", [
    row for row in FAILING_TEMPLATES
    if row.detail.startswith("normalized template is not a unit")],
    ids=lambda row: row.id or row.test)
def test_a_template_that_is_no_unit_on_the_set_still_reproduces_the_member(
        catalog_copy, row):
    # each failing-template row that fails by the unit rule fails by it
    # alone: its word reproduces m, so no residual decides the verdict
    catalog_copy(row.n, _row(row.rid, row.edit))
    assert _template_verifies(load_catalog(row.n).by_id(row.rid))


def test_check_all_names_a_forward_containment_failure(catalog_copy, capsys):
    # x11+x22 of A3 with the extra generator X12*X23 - X22*X13, which holds
    # at the representative but not on the orbit: every verdict certifies,
    # so the witnesses line must name the forward failure itself
    def extra_generator(row):
        row["zero_set"].append("X12*X23 - X22*X13")
        row["dim"] -= 1

    catalog_copy(3, _row("x11+x22", extra_generator))
    failure = ("forward containment x11+x22: zero-set generator "
               "X12*X23 - X22*X13 has nonzero normal form")
    assert main(["verify", "--type", "A3"]) == 1
    assert capsys.readouterr().err == f"# FAIL {failure}\n"
    assert main(["check-all", "--type", "A3"]) == 1
    out = capsys.readouterr().out
    assert "PASS catalog: 16 records\n" in out
    assert out.splitlines()[-1] == f"FAIL witnesses: {failure}"


def test_classify_verdict_builds_one_member_per_record(catalogs, monkeypatch):
    built = []

    def counting(rec, *args, **kwargs):
        built.append(rec.id)
        return build_member_env(rec, *args, **kwargs)

    monkeypatch.setattr(witness, "build_member_env", counting)
    for rec in catalogs[3].orbits:
        classify_verdict(rec)
    assert built == [rec.id for rec in catalogs[3].orbits]


@pytest.mark.parametrize("n, words", [(1, 3), (2, 8), (3, 31), (4, 118)])
def test_verify_rank_builds_each_distinct_word_once(catalogs, monkeypatch,
                                                    n, words):
    # one template per record, plus each printed word that parses (1, 3,
    # 15 and 57 of them).  A printed word equal in value to the template's
    # takes its residuals: the 53 that parse to the template's trees (1, 2,
    # 1 and 49), whose builds are memo hits only, and 15 others (1 at A2,
    # 11 at A3, 3 at A4); of the rest, each that evaluates computes its own
    built, residuals = [], []

    def counting(rec, *args, **kwargs):
        built.append(rec.id)
        return template_word(rec, *args, **kwargs)

    def counting_residuals(rec, *args):
        residuals.append(rec.id)
        return original(rec, *args)

    original = witness._residuals
    monkeypatch.setattr(witness, "template_word", counting)
    monkeypatch.setattr(witness, "_residuals", counting_residuals)
    assert all_certified(verify_rank(catalogs[n]))
    assert len(built) == words
    assert len(residuals) == {1: 2, 2: 5, 3: 16, 4: 65}[n]


@pytest.mark.parametrize("word, as_printed", [
    # the template's values written differently: 1/(x*y) as x^(-1)*y^(-1)
    ("T(x^(2/3)*y^(1/3), x^(-1/3)*y^(1/3)) U_1(z*x^(-1)*y^(-1))", "verified"),
    ("T((x^2*y)^(1/3), (y/x)^(1/3)) U_1(z/x/y)", "verified"),
    # other values
    ("T(x^(2/3)*y^(1/3), x^(-1/3)*y^(1/3)) U_1(2*z/(x*y))", "mismatch"),
    ("T(x^(2/3)*y^(1/3), x^(-1/3)*y^(1/3))", "mismatch"),
    ("T(x^(2/3)*y^(1/3), x^(-1/3)*y^(1/3)) U_2(z/(x*y))", "mismatch"),
])
def test_a_printed_word_equal_in_value_reuses_the_template_residuals(
        catalogs, monkeypatch, word, as_printed):
    rec = catalogs[2].by_id("x11+x22")
    printed = dataclasses.replace(rec, as_printed={**rec.as_printed,
                                                   "word": word})
    residuals = []

    def counting_residuals(rec, menv, word):
        residuals.append(word)
        return original(rec, menv, word)

    original = witness._residuals
    monkeypatch.setattr(witness, "_residuals", counting_residuals)
    v = classify_verdict(printed)
    assert v.as_printed == as_printed
    assert v.status == (VERIFIED_SYMBOLIC if as_printed == "verified"
                        else REPAIRED)
    # the template's residuals, and the printed word's own only when its
    # value differs
    assert len(residuals) == (1 if as_printed == "verified" else 2)
    menv = build_member_env(printed)
    torus, factors = parse_printed_word(word, 2)
    assert (word_residuals(printed, menv, torus or (), factors) == []) == (
        as_printed == "verified")


def test_failed_template_fails_the_verdict(catalogs):
    # x13's printed word as its template: the template fails, and the
    # printed word, now equal to it, shares its residuals
    rec = catalogs[4].by_id("x13")
    torus, factors = parse_printed_word(rec.as_printed["word"], 4)
    bad = dataclasses.replace(rec, witness=dataclasses.replace(
        rec.witness, torus=tuple(torus or ()), factors=tuple(factors)))
    v = classify_verdict(bad)
    assert v.status == FAILED_AS_PRINTED and not v.certified
    assert v.as_printed == "mismatch"
    assert v.detail == "normalized template failed"
    assert v.residual and v.repairs == rec.witness_repairs()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unipotent_pullback_matches_full_word(catalogs, n):
    # the torus multiplies each weight vector's pullback by a unit monomial,
    # so dropping it keeps every zero and every term count
    cat = catalogs[n]
    pool = list(dict.fromkeys(p for rec in cat.orbits
                              for p in rec.zero_set + rec.nonzero_set))
    rows = generic_pullbacks([rec.representative for rec in cat.orbits],
                             pool)
    for rec, row in zip(cat.orbits, rows):
        full = full_word_pullbacks(rec.representative, pool)
        assert [v.is_zero() for v in row] == [v == 0 for v in full], rec.id
        assert all(v.used_vars() <= {f"f{k}" for k in range(1, 11)}
                   for v in row)
        assert [len(v.terms) for v in row] == [
            len(v.terms) if v != 0 else 0 for v in full], rec.id


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_column_sum_pullbacks_equal_one_adjoint_per_representative(
        catalogs, n):
    cat = catalogs[n]
    reps = [rec.representative for rec in cat.orbits]
    polys = [poly for poly, _ in cat.pool]
    assert generic_pullbacks(reps, polys) == adjoint_pullbacks(reps, polys)


def _texts(residuals):
    return [(root, repr(diff)) for root, diff in residuals]


def _shipped_words(cat):
    """(record, member, word) for each word of cat that builds over its
    record's member: the template word, the template with its first factor
    parameter doubled and the printed word when it parses."""
    for rec in cat.orbits:
        w, menv = rec.witness, build_member_env(rec)
        words = [(w.torus, w.factors)]
        if w.factors:
            (root, param), *rest = w.factors
            words.append((w.torus, ((root, f"2*({param})"), *rest)))
        if rec.as_printed.get("word"):
            try:
                words.append(parse_printed_word(rec.as_printed["word"],
                                                cat.rank))
            except WitnessParseError:
                pass
        for torus, factors in words:
            try:
                word = template_word(rec, menv, torus or (), factors)
            except (SchemaError, DomainError):
                continue
            yield rec, menv, word


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_residuals_equal_the_difference_path(catalogs, n):
    # the template word, the printed word when it parses and the template
    # with its first factor parameter doubled: equal residual lists and
    # texts, whether or not the member has a radical tower
    differing = 0
    for rec, menv, word in _shipped_words(catalogs[n]):
        got = witness._residuals(rec, menv, word)
        want = difference_residuals(rec, menv, word)
        assert _texts(got) == _texts(want), rec.id
        assert all(a == b for (_, a), (_, b) in zip(got, want))
        differing += bool(got)
    # a doubled parameter leaves residuals (A1's one word has no factor)
    assert bool(differing) == any(rec.witness.factors
                                  for rec in catalogs[n].orbits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_residual_adjoint_over_quotients_equals_the_fraction_path(
        catalogs, monkeypatch, n):
    # _residuals runs its one adjoint over unreduced quotients, lifted from
    # the word and the representative, and each coordinate equals that of
    # adjoint over LaurentFraction as an element of the fraction field, the
    # radicals formal; both drop exactly the zero coordinates
    runs, clearing = [], []

    def recording(word, x):
        runs.append((word, x, adjoint(word, x)))
        return runs[-1][2]

    def poles(tower, *polys):
        clearing.append(radical_poles(tower, *polys))
        return clearing[-1]

    monkeypatch.setattr(witness, "adjoint", recording)
    monkeypatch.setattr(witness, "radical_poles", poles)
    words = 0
    for rec, menv, word in _shipped_words(catalogs[n]):
        witness._residuals(rec, menv, word)
        (lifted, rep, got), = runs
        runs.clear()
        words += 1
        assert all(type(v) is Quotient for v in (
            *(lifted.torus.diag if lifted.torus else ()),
            *(f.param for f in lifted.factors), *rep.coords.values(),
            *got.coords.values()))
        assert [f.root for f in lifted.factors] == [
            f.root for f in word.factors]
        assert rep.coords.keys() == rec.representative.coords.keys()
        want = adjoint(word, rec.representative)
        assert got.coords.keys() == want.coords.keys(), rec.id
        for root, g in got.coords.items():
            w = LaurentFraction._lift(want.coords[root])
            assert g.num * w.den == w.num * g.den, (rec.id, root)
    assert words == {1: 3, 2: 11, 3: 42, 4: 176}[n]      # 232 in all
    # a shipped tower word clears a negative radical exponent before its
    # normal form is read (A1 and A2 have no tower)
    assert any(c is not LaurentPoly.one for c in clearing) == (n >= 3)


def test_generic_pullback_refuses_weight_inhomogeneous_polynomial(catalogs):
    # generic_pullbacks drops the torus, so it rests on root-weight
    # homogeneity: a catalog whose record carries X11 + X12 (weights a1 and
    # a1 + a2) is refused when its pool is built, so no table, hasse or
    # verify_rank is ever built from it
    rec = catalogs[2].by_id("x11")
    bad = parse_poly("X11 + X12", x_vars(2))
    moved = dataclasses.replace(rec, nonzero_set=rec.nonzero_set + (bad,),
                                nonzero_strs=rec.nonzero_strs + ("X11 + X12",))
    with pytest.raises(CatalogError, match=re.escape(
            "rank 2: record x11 polynomial X11 + X12 is not root-weight "
            "homogeneous")):
        dataclasses.replace(catalogs[2], orbits=tuple(
            moved if r is rec else r for r in catalogs[2].orbits))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_forward_containment_from_the_table_equals_the_standalone_path(
        catalogs, n):
    # the standalone reference pulls each record's own polynomials back
    # along the full generic Borel word, torus included
    cat = catalogs[n]
    table = generic_vanishing(cat)
    for rec in cat.orbits:
        polys = rec.zero_set + rec.nonzero_set
        full = full_word_pullbacks(rec.representative, polys)
        assert [table[rec.id] >> cat.slot[p] & 1 == 1 for p in polys] == [
            v == 0 for v in full], rec.id
        assert forward_containment(rec, cat).ok, rec.id


def _with_nonvanishing_zero(cat, rid):
    # the first nonzero-set polynomial moved into the zero set
    rec = cat.by_id(rid)
    moved = dataclasses.replace(
        rec, zero_set=rec.zero_set + rec.nonzero_set[:1],
        zero_strs=rec.zero_strs + rec.nonzero_strs[:1],
        nonzero_set=rec.nonzero_set[1:], nonzero_strs=rec.nonzero_strs[1:])
    return moved, dataclasses.replace(
        cat, orbits=tuple(moved if r is rec else r for r in cat.orbits))


def test_a_nonvanishing_zero_set_polynomial_fails_alike_on_both_paths(
        catalogs):
    rec, broken = _with_nonvanishing_zero(catalogs[4], "x11+x24")
    table = generic_vanishing(broken)
    report = forward_containment(rec, broken)
    assert not report.ok and report.zero_identities == len(rec.zero_set) - 1
    assert report.detail == (f"zero-set generator {rec.zero_strs[-1]} has "
                             f"nonzero normal form")
    # the closure generators read the same table, kept on the catalog, and
    # refuse the record, also through hasse
    assert generic_vanishing(broken) is table
    for call in (lambda: closure_generators(broken),
                 lambda: hasse(broken)):
        with pytest.raises(InternalInconsistencyError,
                           match=re.escape(f"zero-set polynomial "
                                           f"{rec.zero_strs[-1]} of record "
                                           f"x11+x24 does not vanish")):
            call()


def test_pullbacks_of_a_pool_with_both_signs_match_the_reference(
        catalogs, monkeypatch):
    # A4's 25 distinct polynomials fall into 21 pool classes: the table
    # pulls back one polynomial per class per record, and p and -p read the
    # same answer, that of the full-word reference; a fresh copy of the
    # catalog, so the table is built under the count
    cat = dataclasses.replace(catalogs[4])
    evaluated = []
    original = witness.LaurentPoly.eval

    def counting(self, env):
        evaluated.append(self)
        return original(self, env)

    monkeypatch.setattr(witness.LaurentPoly, "eval", counting)
    table = generic_vanishing(cat)
    assert len(evaluated) == 21 * len(cat.orbits)
    monkeypatch.undo()
    polys = list(dict.fromkeys(p for rec in cat.orbits
                               for p in rec.zero_set + rec.nonzero_set))
    assert len(polys) == 25
    for rid in ("x11+x24", "x12+x34"):
        rec = cat.by_id(rid)
        full = full_word_pullbacks(rec.representative, polys)
        assert [table[rec.id] >> cat.slot[p] & 1 == 1 for p in polys] == [
            v == 0 for v in full], rid


def _printed(torus, factors) -> str:
    def name(root):
        i, j = root
        return f"U_{i}" if i == j else f"U_{i}{j}"
    parts = [f"T({', '.join(torus)})"] if torus else []
    return " ".join(parts + [f"{name(r)}({p})" for r, p in factors])


def _with_printed(rec, word):
    return dataclasses.replace(rec, as_printed={**rec.as_printed,
                                                "word": word})


def _word_builds(monkeypatch):
    built = []

    def counting(rec, *args, **kwargs):
        built.append(rec.id)
        return template_word(rec, *args, **kwargs)

    monkeypatch.setattr(witness, "template_word", counting)
    return built


def test_a_printed_word_differing_only_in_notation_is_not_rebuilt(
        catalogs, monkeypatch):
    # x11+x33 of A3: the template's (w/u)^(1/2) printed as sqrt(w/u), and
    # every other parameter in redundant parentheses
    rec = catalogs[3].by_id("x11+x33")
    w = rec.witness
    torus = tuple(t.replace("(w/u)^(1/2)", "sqrt(w/u)") for t in w.torus)
    assert torus != w.torus
    word = _printed(torus, [(r, f"({p})") for r, p in w.factors])
    words, residuals = [], []

    def building(*args, **kwargs):
        words.append(template_word(*args, **kwargs))
        return words[-1]

    def counting_residuals(rec, menv, word):
        residuals.append(word)
        return original(rec, menv, word)

    original = witness._residuals
    monkeypatch.setattr(witness, "template_word", building)
    monkeypatch.setattr(witness, "_residuals", counting_residuals)
    v = classify_verdict(_with_printed(rec, word))
    assert v.as_printed == "verified" and v.certified
    # the printed word evaluates no node: it holds the template's very
    # values, and takes the template's residuals with no call of its own
    template, printed = words
    assert all(a is b for a, b in zip(template.torus.diag, printed.torus.diag))
    assert all(a.param is b.param
               for a, b in zip(template.factors, printed.factors))
    assert len(residuals) == 1 and residuals[0] is template


def test_a_printed_word_with_one_different_parameter_is_rebuilt(
        catalogs, monkeypatch):
    rec = catalogs[3].by_id("x11+x33")
    w = rec.witness
    factors = [(r, f"({p})") for r, p in w.factors]
    factors[-1] = (factors[-1][0], f"2*{factors[-1][1]}")
    built = _word_builds(monkeypatch)
    v = classify_verdict(_with_printed(rec, _printed(w.torus, factors)))
    assert built == [rec.id, rec.id]
    assert v.as_printed == "mismatch" and v.status == REPAIRED


@pytest.mark.parametrize("param, error", [
    ("x +* y", "unexpected token"),             # does not parse
    ("Q*x", "unregistered variable 'Q'"),       # not a member letter
    ("x^(1/7)", "not integral"),                # 60/7 is no exponent
])
def test_a_printed_parameter_that_fails_is_an_eval_error(catalogs, param,
                                                         error):
    rec = catalogs[3].by_id("x11+x33")
    w = rec.witness
    factors = [(w.factors[0][0], param)] + list(w.factors[1:])
    v = classify_verdict(_with_printed(rec, _printed(w.torus, factors)))
    assert v.as_printed == "eval-error" and v.status == REPAIRED
    assert error in v.detail


def test_a_member_evaluates_each_expression_node_once(catalogs):
    # the template built twice over one member: the second build evaluates
    # nothing and returns the very values of the first
    rec = catalogs[4].by_id("x11+x22+x33+x44")
    menv = build_member_env(rec)
    w = rec.witness
    first = template_word(rec, menv, w.torus, w.factors)
    nodes = len(menv.memo)
    again = template_word(rec, menv, w.torus, w.factors)
    assert len(menv.memo) == nodes > len(w.torus) + len(w.factors)
    assert all(a is b for a, b in zip(first.torus.diag, again.torus.diag))
    assert all(a.param is b.param
               for a, b in zip(first.factors, again.factors))


@pytest.mark.parametrize("n", [3, 4])
def test_verify_rank_parses_each_distinct_text_once(catalogs, monkeypatch,
                                                    n):
    parsed = []
    original = witness.parse_expr

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(witness, "parse_expr", counting)
    assert all_certified(verify_rank(catalogs[n]))
    texts = set()
    for rec in catalogs[n].orbits:
        words = [(rec.witness.torus, rec.witness.factors)]
        try:
            if rec.as_printed.get("word"):
                torus, factors = parse_printed_word(rec.as_printed["word"], n)
                words.append((torus or (), factors))
        except WitnessParseError:
            pass
        for torus, factors in words:
            texts |= set(torus) | {p for _, p in factors}
    # a printed word stops at its first parameter that fails
    assert len(parsed) == len(set(parsed))
    assert set(parsed) <= texts
