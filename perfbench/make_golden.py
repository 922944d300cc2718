"""Regenerate the goldens under perfbench/golden/ from the current code.

    python3 perfbench/make_golden.py

For each rank it runs ``check-all`` once with spans and writes the captured
stdout, the census counts, the oracle class sizes, the Hasse DOT, the
witness report and the work counts.  Run it only when an output is meant to
change, and review the diff.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import worker  # noqa: E402 - needs the src/ path above
from refclock import RefClock  # noqa: E402


def main() -> int:
    for n in (1, 2, 3, 4):
        with RefClock() as clock:
            run, tracer = worker.traced_check_run(n, clock)
        if run.rc != 0 or "FAIL" in run.stdout:
            print(f"A{n} check-all failed; goldens not written:\n{run.stdout}",
                  file=sys.stderr)
            return 1
        out = worker.HERE / "golden" / f"A{n}"
        out.mkdir(parents=True, exist_ok=True)
        files = {"check-all.txt": run.stdout, **worker.artifacts(tracer),
                 "counts.json": json.dumps(worker.work_counts(tracer),
                                           indent=2) + "\n"}
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8", newline="\n")
        print(f"A{n}: wrote {len(files)} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
