"""Benchmark worker: runs one orbit-atlas workload inside this process.

``run.py`` starts it with numerical libraries pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src/``.  It drives the package
from outside, through ``cli.main`` and the public functions of ``catalog``
and ``classify``, checks every output against the goldens, and prints one
JSON object as its last line of standard output.

With ``--trace 0`` it reports end-to-end times in reference units (see
``refclock.py``).  With ``--trace 1`` it alternates untraced bodies and
bodies with spans around the package's public calls (see ``tracer.py``),
and reports per-layer times, self times, work counts and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy

import orbit_atlas
from orbit_atlas import catalog as catalog_mod
from orbit_atlas import classify as classify_mod
from orbit_atlas import cli, lie
from orbit_atlas import order as order_mod
from orbit_atlas import witness as witness_mod
from orbit_atlas.arith import Fp

from refclock import RefClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("check-a4", "check-a1-a3", "classify-stream")
CHECK_RANKS = {"check-a4": (4,), "check-a1-a3": (1, 2, 3)}
TINY_CHECK_RANKS = {"check-a4": (2,), "check-a1-a3": (1, 2)}
STREAM_RANKS = (3, 4)
STREAM_FIELDS = (0, 7, 101)          # 0 stands for the rationals
STREAM_BATCH = 250
TINY_STREAM_BATCH = 50

# (module, attribute, span name, keep arguments and result)
CHECK_SPANS = (
    (cli, "load_catalog", "catalog.load", False),
    (cli, "validate_catalog", "catalog.validate", False),
    (cli, "partition_census", "classify.census", True),
    (cli, "classify", "classify.point", False),
    (cli, "jacobian_rank_dim", "oracle.jacobian", False),
    (cli, "enumerate_borel_orbits", "oracle.bfs", True),
    (cli, "stability_check", "oracle.stability", True),
    (cli, "refine_check", "oracle.refine", False),
    (cli, "hasse", "order.hasse", True),
    (order_mod, "closure_leq", "order.pair", False),
    (cli, "verify_rank", "witness.verify", True),
    (witness_mod, "forward_containment", "witness.forward", False),
    (witness_mod, "classify_verdict", "witness.verdict", False),
    (witness_mod, "verify_witness_numeric", "witness.numeric", True),
)
STREAM_SPANS = (
    (catalog_mod, "load_catalog", "catalog.load", False),
    (classify_mod, "classify", "classify.point", False),
)
SPAN_NAMES = ("catalog.load", "catalog.validate", "classify.census",
              "classify.point", "oracle.bfs", "oracle.stability",
              "oracle.refine", "oracle.jacobian", "order.hasse", "order.pair",
              "witness.verify", "witness.forward", "witness.verdict",
              "witness.numeric")
LAYERS = ("top", "catalog", "classify", "oracle", "order", "witness")
# work counts that must repeat exactly; golden per rank in counts.json
COUNT_KEYS = ("classify.census_points", "classify.calls", "oracle.bfs_classes",
              "oracle.stability_maps", "order.pair_tests", "order.cover_edges",
              "witness.certified", "witness.repaired",
              "witness.numeric_fallbacks")


class Score:
    """Operations attempted and failed, with the first failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.details: list[str] = []

    def record(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.details) < 20:
                self.details.append(detail)


def install(tracer: Tracer, table) -> None:
    for module, attr, name, keep in table:
        tracer.wrap(module, attr, name, keep)


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


@dataclass
class Body:
    """One timed body, on ``RefClock.now()`` times."""
    start: float
    end: float
    ops: list                  # seconds of each operation in it


def measured(bodies: list) -> float:
    return sum(body.end - body.start for body in bodies)


def body_refs(clock: RefClock, body: Body) -> tuple[float, list]:
    """The body and its operations in reference units, at the reference
    rate measured over the body."""
    rate = clock.rate(body.start, body.end)
    return (body.end - body.start) * rate, [op * rate for op in body.ops]


def end_to_end(clock: RefClock, bodies: list) -> tuple[dict, dict]:
    refs = [body_refs(clock, body) for body in bodies]
    op_refs = [op for _, ops in refs for op in ops]
    op_s = [op for body in bodies for op in body.ops]
    metrics = {"wall_ref": statistics.median(r for r, _ in refs),
               "op_p50_ref": percentile(op_refs, 50),
               "op_p99_ref": percentile(op_refs, 99)}
    raw = {"wall_s": statistics.median(b.end - b.start for b in bodies),
           "op_p50_us": percentile(op_s, 50) * 1e6,
           "op_p99_us": percentile(op_s, 99) * 1e6}
    return metrics, {"iterations": len(bodies), "op_samples": len(op_refs),
                     "raw": raw, "ref_unit_s": clock.unit_s(),
                     "ref_samples": len(clock.durations),
                     "body_s": [b.end - b.start for b in bodies],
                     "body_ref": [r for r, _ in refs]}


# ---------------------------------------------------------------------------
# check-all through cli.main


@dataclass
class CheckRun:
    rank: int
    rc: object                 # exit code, or the exception that escaped
    stdout: str
    start: float
    end: float


def check_run(n: int, clock: RefClock, tracer: Tracer | None = None) -> CheckRun:
    out, err = io.StringIO(), io.StringIO()
    start = clock.now()
    with redirect_stdout(out), redirect_stderr(err), \
            (tracer.span("top") if tracer else nullcontext()):
        try:
            rc = cli.main(["check-all", "--type", f"A{n}"])
        except Exception as exc:             # noqa: BLE001 - scored as failed
            rc = f"{type(exc).__name__}: {exc}"
    return CheckRun(n, rc, out.getvalue(), start, clock.now())


def traced_check_run(n: int, clock: RefClock) -> tuple[CheckRun, Tracer]:
    tracer = Tracer(clock.now)
    install(tracer, CHECK_SPANS)
    try:
        run = check_run(n, clock, tracer)
    finally:
        tracer.unwrap_all()
    return run, tracer


def score_check_run(score: Score, run: CheckRun, golden: Path) -> None:
    want = (golden / f"A{run.rank}" / "check-all.txt").read_text().splitlines()
    got = run.stdout.splitlines()
    for i in range(max(len(want), len(got))):
        w = want[i] if i < len(want) else None
        g = got[i] if i < len(got) else None
        score.record(w == g, f"A{run.rank} check-all line {i + 1}: "
                             f"expected {w!r}, got {g!r}")
    score.record(run.rc == 0, f"A{run.rank} check-all exit {run.rc!r}")


def artifacts(tracer: Tracer) -> dict:
    """Golden-compared outputs of one traced rank, by file name."""
    census = ["q,orbit_id,count"]
    for (n, q, *_), counts in tracer.results("classify.census"):
        census += [f"{q},{rid},{cnt}" for rid, cnt in counts.items()]
    classes = ["q,class,size"]
    for (n, q, *_), part in tracer.results("oracle.bfs"):
        classes += [f"{q},{cls},{size}" for cls, size in enumerate(part.sizes)]
    dot = "".join(order_mod.emit_dot(p) for _, p in tracer.results("order.hasse"))
    verify = "".join(json.dumps(r.to_json(), indent=2) + "\n"
                     for _, r in tracer.results("witness.verify"))
    return {"census.csv": "\n".join(census) + "\n",
            "oracle.csv": "\n".join(classes) + "\n",
            "hasse.dot": dot, "verify.json": verify}


def work_counts(tracer: Tracer) -> dict:
    counts = dict.fromkeys(COUNT_KEYS, 0)
    for (n, q, *_), _ in tracer.results("classify.census"):
        counts["classify.census_points"] += q ** lie.nil_dim(n)
    counts["classify.calls"] = tracer.count("classify.point")
    counts["oracle.bfs_classes"] = sum(
        part.class_count for _, part in tracer.results("oracle.bfs"))
    counts["oracle.stability_maps"] = sum(
        res["maps_checked"] for _, res in tracer.results("oracle.stability"))
    counts["order.pair_tests"] = tracer.count("order.pair")
    counts["order.cover_edges"] = sum(
        len(poset.covers) for _, poset in tracer.results("order.hasse"))
    verdicts = [v for _, rep in tracer.results("witness.verify")
                for v in rep.verdicts]
    counts["witness.certified"] = sum(v.certified for v in verdicts)
    counts["witness.repaired"] = sum(v.status == witness_mod.REPAIRED
                                     for v in verdicts)
    counts["witness.numeric_fallbacks"] = len(
        {args[0].id for args, _ in tracer.results("witness.numeric")})
    return counts


def score_traced_rank(score: Score, n: int, tracer: Tracer, golden: Path) -> None:
    for name, text in artifacts(tracer).items():
        want = (golden / f"A{n}" / name).read_text()
        score.record(text == want, f"A{n} {name} differs from the golden")
    want = json.loads((golden / f"A{n}" / "counts.json").read_text())
    for key, value in work_counts(tracer).items():
        score.record(value == want[key],
                     f"A{n} {key} = {value}, golden {want[key]}")


def check_pass(ranks, clock: RefClock, traced: bool) -> tuple[Body, list]:
    """check-all for each rank in turn: the body and (run, tracer) pairs.
    The pass is the body's one operation: the A1 and A2 calls of
    check-a1-a3 last 20-100 ms and vary by 20% from call to call, so a
    median over calls would be the A2 call's noise."""
    if traced:
        pairs = [traced_check_run(n, clock) for n in ranks]
    else:
        pairs = [(check_run(n, clock), None) for n in ranks]
    start, end = pairs[0][0].start, pairs[-1][0].end
    return Body(start, end, [end - start]), pairs


def run_checks(ranks, seconds: float, trace: bool, golden: Path,
               score: Score) -> tuple[dict, dict]:
    untraced, traced = [], []
    with RefClock() as clock:
        while measured(untraced) + measured(traced) < seconds or not untraced:
            body, pairs = check_pass(ranks, clock, traced=False)
            untraced.append(body)
            for run, _ in pairs:
                score_check_run(score, run, golden)
            if not trace:
                continue
            body, pairs = check_pass(ranks, clock, traced=True)
            traced.append(body)
            tracers = []
            for run, tracer in pairs:
                score_check_run(score, run, golden)
                score_traced_rank(score, run.rank, tracer, golden)
                tracers.append((f"A{run.rank}", tracer))
    if not trace:
        return end_to_end(clock, untraced)
    return layer_metrics(clock, tracers, untraced, traced), {
        "iterations": len(traced),
        "spans": {label: tr.spans for label, tr in tracers}}


# ---------------------------------------------------------------------------
# exact single-point classification stream


def _scalar(rng: random.Random, p: int, nonzero: bool):
    if p == 0:
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v or not nonzero:
                return v
    return Fp(rng.randrange(1 if nonzero else 0, p), p)


def stream_points(rng: random.Random, cats: dict, count: int) -> list:
    """(rank, point, expected id): a representative moved by a random Borel
    word (nonzero torus, one root-group factor per positive root, shuffled).

    The orbit is uniform over all orbits of the stream's ranks, so rank 4 is
    drawn 61 times in 77.  With ranks drawn 50/50 the median latency falls
    in the gap between the rank-3 and rank-4 latency clusters and jumps
    twofold from seed to seed."""
    records = [rec for n in STREAM_RANKS for rec in cats[n].orbits]
    points = []
    for _ in range(count):
        rec = rng.choice(records)
        n = rec.rank
        p = rng.choice(STREAM_FIELDS)
        torus = lie.TorusElement(n, tuple(_scalar(rng, p, True)
                                          for _ in range(n)))
        roots = lie.pos_roots(n)
        rng.shuffle(roots)
        word = lie.BorelWord(n, torus, tuple(
            lie.RootGroupFactor(r, _scalar(rng, p, False)) for r in roots))
        rep = lie.NilElement(n, {r: (Fp(c, p) if p else Fraction(c))
                                 for r, c in rec.representative.coords.items()})
        points.append((n, lie.adjoint(word, rep), rec.id))
    return points


def stream_batch(points: list, cats: dict, score: Score, clock: RefClock,
                 tracer: Tracer | None = None) -> Body:
    latencies = []
    outcomes = []
    now = clock.now
    start = now()
    with tracer.span("top") if tracer else nullcontext():
        for n, x, _ in points:
            t0 = now()
            try:
                got = classify_mod.classify(n, x, cats[n]).orbit_id
            except Exception as exc:         # noqa: BLE001 - scored as failed
                got = f"{type(exc).__name__}: {exc}"
            latencies.append(now() - t0)
            outcomes.append(got)
    end = now()
    for (n, x, want), got in zip(points, outcomes):
        score.record(got == want, f"A{n} point {x.as_vector()}: expected "
                                  f"{want}, got {got}")
    return Body(start, end, latencies)


def run_stream(seed: int, seconds: float, trace: bool, batch: int,
               score: Score) -> tuple[dict, dict]:
    rng = random.Random(seed)
    setup = Tracer()
    if trace:
        install(setup, STREAM_SPANS)
    try:
        cats = {n: catalog_mod.load_catalog(n) for n in STREAM_RANKS}
    finally:
        setup.unwrap_all()
    untraced, traced = [], []
    with RefClock() as clock:
        while measured(untraced) + measured(traced) < seconds or not untraced:
            points = stream_points(rng, cats, batch)
            untraced.append(stream_batch(points, cats, score, clock))
            if not trace:
                continue
            tracer = Tracer(clock.now)
            install(tracer, STREAM_SPANS)
            try:
                traced.append(stream_batch(points, cats, score, clock, tracer))
            finally:
                tracer.unwrap_all()
    if not trace:
        return end_to_end(clock, untraced)
    tracers = [("setup", setup), ("stream", tracer)]
    return layer_metrics(clock, tracers, untraced, traced), {
        "iterations": len(traced),
        "spans": {label: tr.spans for label, tr in tracers}}


# ---------------------------------------------------------------------------


def layer_metrics(clock: RefClock, tracers: list, untraced: list,
                  traced: list) -> dict:
    """Per-layer metrics of the last traced body, in seconds; the overhead
    compares the median traced and untraced bodies in reference units."""
    metrics = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    metrics.update(dict.fromkeys(COUNT_KEYS, 0))
    for _, tracer in tracers:
        totals = tracer.totals()
        for name in SPAN_NAMES:
            metrics[f"{name}_s"] += totals.get(name, 0.0)
        for layer, total in tracer.self_times().items():
            metrics[f"{layer}.self_s"] += total
        for key, value in work_counts(tracer).items():
            metrics[key] += value
    metrics["trace.spans"] = sum(len(tr.spans) for _, tr in tracers)
    untraced_ref = statistics.median(body_refs(clock, b)[0] for b in untraced)
    traced_ref = statistics.median(body_refs(clock, b)[0] for b in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_ref / untraced_ref - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden-dir", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    pkg = Path(orbit_atlas.__file__).resolve().parent
    if pkg != (SRC / "orbit_atlas").resolve():
        print(f"error: orbit_atlas imported from {pkg}, not from {SRC}",
              file=sys.stderr)
        return 2
    score = Score()
    if args.workload == "classify-stream":
        batch = TINY_STREAM_BATCH if args.tiny else STREAM_BATCH
        metrics, extra = run_stream(args.seed, args.seconds, bool(args.trace),
                                    batch, score)
    else:
        ranks = (TINY_CHECK_RANKS if args.tiny else CHECK_RANKS)[args.workload]
        metrics, extra = run_checks(ranks, args.seconds, bool(args.trace),
                                    args.golden_dir, score)
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps({"metrics": metrics, "attempted": score.attempted,
                      "failed": score.failed, "failures": score.details,
                      "numpy": numpy.__version__, **extra}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
