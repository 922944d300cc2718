"""orbit-atlas benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py --workload check-a4 --seed 1 --seconds 20 --trace 0

It pins numerical libraries to one thread, times set-up (import plus
``load_catalog``) in fresh processes, and runs the workload in one worker
process (``worker.py``).  It prints every metric by name with its unit,
writes the full result with its context to ``perfbench/results/``, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` ones of ``BENCHMARK.json``, with ``--trace 1`` the
``per_layer`` ones.  Without a runnable ``src/orbit_atlas`` it exits
non-zero and prints no result.

``NOTES.md`` beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RANKS = {"check-a4": (4,), "check-a1-a3": (1, 2, 3),
               "classify-stream": (3, 4)}
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_child(args: list, env: dict, deadline: float) -> str:
    """Run a Python child to completion and return its standard output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(args[0]).name} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}")
    return proc.stdout


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


def line_count() -> int:
    """Lines of Python under src/ and tools/, tracked next to the timings."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for d in ("src", "tools") for p in sorted((ROOT / d).rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="orbit-atlas benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(SETUP_RANKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden-dir", type=Path, default=HERE / "golden",
                    help="goldens to compare against (the self-check "
                         "passes a corrupted copy)")
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs that take the same code paths")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (SRC / "orbit_atlas" / "__init__.py").is_file():
            raise BenchError(f"no package at {SRC / 'orbit_atlas'}")
        units = declared_units(args.trace)
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   **dict.fromkeys(THREAD_VARS, "1"))
        setup = []
        if not args.trace:
            probe = [HERE / "probe.py", *SETUP_RANKS[args.workload]]
            setup = [float(run_child(probe, env, deadline).split()[-1])
                     for _ in range(SETUP_PROBES)]
        out = run_child(
            [HERE / "worker.py", "--workload", args.workload,
             "--seed", args.seed, "--seconds", args.seconds,
             "--trace", args.trace, "--golden-dir", args.golden_dir.resolve(),
             *(["--tiny"] if args.tiny else [])], env, deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = result.pop("metrics")
    if setup:
        values["setup_s"] = statistics.median(setup)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, declared {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = result.pop("attempted"), result.pop("failed")
    context = {"nproc": os.cpu_count(),
               "usable_cpus": len(os.sched_getaffinity(0)),
               "cpu_model": cpu_model(),
               "python": platform.python_version(),
               "numpy": result.pop("numpy"), "commit": git_commit(),
               "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "tiny": args.tiny, "loc_src_tools": line_count()}
    record = {"context": context, "metrics": metrics, "attempted": attempted,
              "failed": failed, "fail_frac": failed / max(attempted, 1),
              "setup_samples_s": setup, **result}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("context " + json.dumps(context))
    for key in ("iterations", "op_samples", "ref_unit_s", "ref_samples"):
        if key in result:
            print(f"{key} {result[key]}")
    for name, value in result.get("raw", {}).items():
        print(f"raw {name} {value}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_frac {record['fail_frac']} ({failed}/{attempted})")
    for detail in result.get("failures", []):
        print(f"FAIL {detail}")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
