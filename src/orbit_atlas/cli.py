"""Command-line interface.

Subcommands: orbits, classify, census, oracle, dims, hasse, verify,
check-all.  Machine formats (JSON/CSV/DOT) are the primary outputs; human
tables are renderings of the same data.  Exit codes: 0 success, 1 a check
failed (first counterexample printed), 2 flag errors or a command that ran
out of memory (a raised --budget can ask for more than the machine has).

``main`` loads the rank's catalog once per command and hands it to the
command.  The catalog owns the tables derived from it (the slice table of
each field, the generic-vanishing table and the rank's group-action
families; see ``Catalog.derived``), so check-all and the standalone
census, oracle, dims, hasse and verify commands share one code path:
whichever check reads a table first builds it, every later check of the
command reads it, and the next command builds its own.  A build that
raised is not kept, so each check that needs the table fails under its
own name.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import cache

from .arith import Fp, is_prime
from .catalog import (ORBIT_COUNTS, Catalog, load_catalog, printed_statuses,
                      record_to_json, validate_catalog)
from .classify import CENSUS_BUDGET, classify, partition_census
from .errors import (BudgetExceededError, CatalogError, DisjointnessError,
                     ExhaustionError, InternalInconsistencyError, SchemaError,
                     UnsupportedRankError)
from .lie import NilElement, nil_dim
from .oracle import (BFS_BUDGET, ORACLE_DEFAULT_QS, enumerate_borel_orbits,
                     family_table, jacobian_rank_dim, refine_check,
                     stability_check)
from .order import emit_dot, hasse, poset_json
from .witness import verify_rank

CENSUS_DEFAULT_QS = {1: (3, 5, 7, 11), 2: (3, 5, 7, 11), 3: (3, 5, 7, 11),
                     4: (3, 5)}


def _rank(args) -> int:
    t = args.type.upper()
    if t in ("A1", "A2", "A3", "A4"):
        return int(t[1])
    raise UnsupportedRankError(f"--type must be A1|A2|A3|A4, got {args.type}")


def _parse_point(text: str, n: int, mod: int | None) -> NilElement:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != nil_dim(n):
        raise SchemaError(
            f"point needs {nil_dim(n)} comma-separated coordinates")
    try:
        if mod is not None:
            vals = [Fp(int(p), mod) for p in parts]
        else:   # Fraction would expand 1e999999999 to all of its digits
            for p in parts:
                if "e" in p.lower():
                    raise ValueError(f"{p!r} is in exponent notation")
            vals = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        kind = "integers" if mod is not None else "rationals"
        raise SchemaError(f"--point coordinates must be {kind}: {exc}") from exc
    return NilElement.from_vector(n, vals)


def _field_list(q: int | None, defaults) -> list[int]:
    """The --q field, checked before any output, or the rank's defaults."""
    if q is None:
        return list(defaults)
    if not is_prime(q):
        raise SchemaError(f"--q {q} is not prime")
    return [q]


def census_fields(cat: Catalog, qs, budget: int):
    """(q, counts, nonempty records) for each field in turn: the census
    counts, certified exhaustive and disjoint over F_q."""
    for q in qs:
        counts = partition_census(cat.rank, q, cat, budget)
        yield q, counts, sum(1 for v in counts.values() if v)


def oracle_fields(cat: Catalog, qs, budget: int):
    """(partition, refine report) for each field in turn: the orbit
    partition over F_q from the catalog's families (``family_table``),
    certified stable by its fixpoint's exit round and the family
    identities (``stability_check``), and confronted with the catalog."""
    families = family_table(cat)
    for q in qs:
        part = enumerate_borel_orbits(cat.rank, q, budget, families=families)
        stability_check(part)
        yield part, refine_check(cat, part)


def cmd_orbits(args, cat: Catalog) -> int:
    """The catalog as a table, or as JSON with each record's validation
    (``validate_catalog``) and the status of its as_printed set and word
    (``printed_statuses``, read by no other command).  Exit 1 when a record
    fails validation."""
    report = validate_catalog(cat)
    if args.format == "json":
        printed = printed_statuses(cat)
        doc = {"type": f"A{cat.rank}", "schema_version": cat.schema_version,
               "orbits": [record_to_json(r) for r in cat.orbits],
               "validation": {
                   "ok": report.ok,
                   "records": [{
                       "id": r.orbit_id,
                       "representative_member": r.representative_member,
                       "homogeneous": r.homogeneous,
                       "zv_sane": r.zv_sane,
                       "printed_set_status": printed[r.orbit_id][0],
                       "printed_word_status": printed[r.orbit_id][1],
                       "notes": r.notes,
                   } for r in report.records]}}
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print(f"{'id':<24} {'dim':>3}  {'#Z':>2} {'#V':>2}  defining set")
        for rec in cat.orbits:
            zs = ", ".join(rec.zero_strs)
            vs = ", ".join(rec.nonzero_strs)
            print(f"{rec.id:<24} {rec.dim:>3}  {len(rec.zero_set):>2} "
                  f"{len(rec.nonzero_set):>2}  Z({zs}) & V({vs})")
    return 0 if report.ok else 1


def cmd_classify(args, cat: Catalog) -> int:
    if args.mod is not None and not is_prime(args.mod):
        raise SchemaError(f"--mod {args.mod} is not prime")
    m = _parse_point(args.point, cat.rank, args.mod)
    print(classify(cat.rank, m, cat).orbit_id)
    return 0


def cmd_census(args, cat: Catalog) -> int:
    n = cat.rank
    fields = list(census_fields(
        cat, _field_list(args.q, CENSUS_DEFAULT_QS[n]), args.budget))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["orbit_id", "q", "count"])
    ok = True
    for q, counts, nonempty in fields:
        for rid, cnt in counts.items():
            writer.writerow([rid, q, cnt])
        if nonempty != ORBIT_COUNTS[n]:
            print(f"# FAIL: rank {n} q={q}: {nonempty} nonempty classes, "
                  f"expected {ORBIT_COUNTS[n]}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def cmd_oracle(args, cat: Catalog) -> int:
    fields = list(oracle_fields(
        cat, _field_list(args.q, ORACLE_DEFAULT_QS[cat.rank]), args.budget))
    ok = True
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["class_id", "q", "count", "orbit_id"])
    for part, report in fields:
        q = part.q
        class_to_record = {}
        for rid, classes in report.classes_per_record.items():
            for cls in classes:
                class_to_record[cls] = rid
        for cls, size in enumerate(part.sizes):
            writer.writerow([cls, q, size, class_to_record.get(cls, "")])
        if not report.ok:
            for v in report.violations:
                print(f"# FAIL q={q}: {v}", file=sys.stderr)
            ok = False
        if report.empty_records:
            print(f"# note q={q}: empty over F_{q}: {report.empty_records}",
                  file=sys.stderr)
    return 0 if ok else 1


def cmd_dims(args, cat: Catalog) -> int:
    families = family_table(cat)
    ok = True
    print(f"{'id':<24} {'catalog':>7} {'jacobian':>8}")
    for rec in cat.orbits:
        dim = jacobian_rank_dim(rec, families)
        mark = "" if dim == rec.dim else "  MISMATCH"
        if dim != rec.dim:
            ok = False
        print(f"{rec.id:<24} {rec.dim:>7} {dim:>8}{mark}")
    return 0 if ok else 1


def cmd_hasse(args, cat: Catalog) -> int:
    poset = hasse(cat)
    dot = emit_dot(poset)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(dot)
        except OSError as exc:
            print(f"error: cannot write {args.dot}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.dot}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(poset_json(poset), indent=2))
    elif not args.dot:
        sys.stdout.write(dot)
    return 0


def cmd_verify(args, cat: Catalog) -> int:
    report = verify_rank(cat)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary_table())
    bad_forward = [f for f in report.forward if not f.ok]
    for f in bad_forward:
        print(f"# FAIL forward containment {f.orbit_id}: {f.detail}",
              file=sys.stderr)
    bad = [v for v in report.verdicts if not v.certified]
    for v in bad:
        print(f"# FAIL witness {v.orbit_id}: {v.status} {v.detail}",
              file=sys.stderr)
    return 0 if not bad and not bad_forward else 1


def cmd_check_all(args, cat: Catalog) -> int:
    n = cat.rank
    needed = max(CENSUS_DEFAULT_QS[n] + ORACLE_DEFAULT_QS[n]) ** nil_dim(n)
    if needed > args.budget:
        raise BudgetExceededError(needed, args.budget)
    failures = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except MemoryError:                 # a usage error, as in main
            raise
        except Exception as exc:            # noqa: BLE001 - report and fail
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    def catalog_check():
        for rec in validate_catalog(cat).records:
            if rec.failure:
                return False, f"{rec.orbit_id}: {rec.failure}"
        return True, f"{len(cat.orbits)} records"

    def census_check():
        seen = []
        qs = CENSUS_DEFAULT_QS[n]
        for q, _, nonempty in census_fields(cat, qs, args.budget):
            seen.append(f"q={q}:{nonempty}")
            if nonempty != ORBIT_COUNTS[n]:
                return False, f"q={q} gave {nonempty} != {ORBIT_COUNTS[n]}"
        return True, " ".join(seen)

    def rep_check():
        for rec in cat.orbits:
            got = classify(n, rec.representative, cat).orbit_id
            if got != rec.id:
                return False, f"A{n} {rec.id}: classify gave {got}"
        return True, f"{len(cat.orbits)} representatives"

    def dims_check():
        families = family_table(cat)
        for rec in cat.orbits:
            dim = jacobian_rank_dim(rec, families)
            if dim != rec.dim:
                return False, (f"A{n} {rec.id}: Jacobian dimension {dim} != "
                               f"catalog dim {rec.dim}")
        return True, f"{len(cat.orbits)} dimensions"

    def oracle_check():
        notes = []
        qs = ORACLE_DEFAULT_QS[n]
        for part, report in oracle_fields(cat, qs, args.budget):
            if not report.ok:
                return False, f"q={part.q}: {report.violations[0]}"
            notes.append(f"q={part.q}:{part.class_count}cls")
        return True, " ".join(notes)

    def order_check():
        poset = hasse(cat)
        return True, f"{len(poset.covers)} cover edges"

    def witness_check():
        report = verify_rank(cat)
        for f in report.forward:
            if not f.ok:
                return False, f"forward containment {f.orbit_id}: {f.detail}"
        bad = [v.orbit_id for v in report.verdicts if not v.certified]
        if bad:
            return False, f"uncertified: {bad}"
        return True, f"{len(report.verdicts)} witnesses certified"

    check("catalog", catalog_check)
    check("census", census_check)
    check("representatives", rep_check)
    check("dimensions", dims_check)
    check("oracle", oracle_check)
    check("closure-order", order_check)
    check("witnesses", witness_check)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbit-atlas",
        description="Exact classification data and verification tools for "
                    "Borel-orbit decompositions of nilradicals, types A1-A4.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, budget_default=None):
        p.add_argument("--type", required=True, help="A1|A2|A3|A4")
        if budget_default is not None:
            p.add_argument("--budget", type=int, default=budget_default,
                           help="point-count ceiling for enumerations")

    p = sub.add_parser("orbits", help="dump the catalog with validation")
    common(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("classify", help="classify one point")
    common(p)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates in canonical root order")
    p.add_argument("--mod", type=int, default=None,
                   help="prime field (default: rationals)")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("census", help="per-orbit point counts over F_q")
    common(p, CENSUS_BUDGET)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("oracle", help="orbit partition as a min-label "
                                      "fixpoint, with refinement")
    common(p, BFS_BUDGET)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("dims", help="Jacobian dimension audit")
    common(p)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("hasse", help="closure order and DOT diagram")
    common(p)
    p.add_argument("--dot", default=None, help="write DOT to this file")
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("verify", help="forward containment and witnesses")
    common(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check-all", help="run every acceptance suite")
    common(p, CENSUS_BUDGET)
    p.set_defaults(fn=cmd_check_all)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``build_parser``, built on first use and reused by
    every later ``main`` call: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, load_catalog(_rank(args)))
    except (UnsupportedRankError, SchemaError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExhaustionError, DisjointnessError, CatalogError,
            InternalInconsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
