"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload at a tiny size (``--tiny``), traced and untraced, and
   confirms that the last line is a correct result whose metrics are exactly
   the ones ``BENCHMARK.json`` declares, each printed with its unit.
2. Runs against a copy of the goldens with one byte changed and confirms
   the difference is counted as a failure (fail_frac > 0).

Exits 0 when every check holds.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check-a4", "check-a1-a3", "classify-stream")
# (workload, trace, golden file to corrupt); --tiny runs ranks 1 and 2
CORRUPTIONS = (("check-a4", 0, "A2/check-all.txt"),
               ("check-a1-a3", 1, "A1/hasse.dot"),
               ("check-a1-a3", 1, "A2/counts.json"))


def bench(workload: str, trace: int, golden: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if golden is not None:
        cmd += ["--golden-dir", str(golden)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for name, m in result["metrics"].items():
        if f"{name} {m['value']} {m['unit']}" not in lines:
            raise SystemExit(f"{workload} trace {trace}: {name} not printed "
                             f"with its unit")
    return result


def corrupt(path: Path) -> None:
    """Flip one bit of a golden text; bump one count of a counts file."""
    if path.name == "counts.json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["order.pair_tests"] += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            before = len(problems)
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: not correct")
            print(f"{'ok  ' if before == len(problems) else 'FAIL'} {workload} "
                  f"trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")
    scratch = HERE / ".selfcheck"
    try:
        for workload, trace, name in CORRUPTIONS:
            shutil.rmtree(scratch, ignore_errors=True)
            shutil.copytree(HERE / "golden", scratch)
            corrupt(scratch / name)
            result = bench(workload, trace, scratch)
            missed = result["correct"] or not result["failed"]
            if missed:
                problems.append(f"corrupted {name} not detected by {workload}")
            print(f"{'FAIL' if missed else 'ok  '} corrupted {name}: "
                  f"{result['failed']}/{result['attempted']} failed on "
                  f"{workload} trace {trace}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
