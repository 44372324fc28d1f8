"""Self-test of the benchmark on tiny inputs; runs in well under a minute.

    python3 perfbench/run.py --selftest

1. Every workload runs once, timed and traced, at a tiny size, and its
   checks must pass.
2. For each workload one artifact is corrupted in a copy of the output
   and the check must reject it: a permuted value in ``normalized.csv``,
   a flipped flag in ``outliers.csv``, an altered power in ``study.csv``.
"""

from __future__ import annotations

import csv
import shutil
from pathlib import Path

import run
from tracer import METRICS


def _swap_first_two_values(out: Path) -> None:
    """Exchange rows 1 and 2 of the first column of normalized.csv."""
    path = out / "normalized.csv"
    lines = path.read_text().splitlines(keepends=True)
    a, b = lines[1].split(",", 1), lines[2].split(",", 1)
    lines[1], lines[2] = b[0] + "," + a[1], a[0] + "," + b[1]
    path.write_text("".join(lines))


def _flip_first_unflagged(out: Path) -> None:
    """Mark the first unflagged global pair of outliers.csv as flagged."""
    path = out / "outliers.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    flag = header.index("flagged")
    row = next(r for r in rows[1:] if r[0] == "global" and r[flag] == "0")
    row[flag] = "1"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _alter_rma_power(out: Path) -> None:
    """Add 5 points to the RMA power in study.csv."""
    path = out / "study.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["method"] == "RMA":
            r["power"] = repr(float(r["power"]) + 5.0)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


CORRUPTIONS = {
    "normalize-50k": _swap_first_two_values,
    "outliers-50k": _flip_first_unflagged,
    "simulate-cell": _alter_rma_power,
}


def main() -> int:
    root = run.WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    failures = []
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0, trace=trace, size=run.TINY,
                             work=root / f"{name}-trace{int(trace)}")
            expected = METRICS if trace else run.END_TO_END
            ok = (result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == set(expected))
            print(f"{'ok' if ok else 'FAIL'}  {name} trace={int(trace)}: {result}")
            if not ok:
                failures.append(f"{name} trace={int(trace)}")

        work = root / f"{name}-corrupt"
        (work / "input").mkdir(parents=True)
        prepared = run.WORKLOADS[name](work / "input", 1, run.TINY)
        run.run_child(work / "op", prepared.argv)
        out = work / "op" / "out"
        clean = prepared.check(out)
        CORRUPTIONS[name](out)
        rejected = prepared.check(out)
        ok = not clean and bool(rejected)
        print(f"{'ok' if ok else 'FAIL'}  {name} corrupted artifact rejected: {rejected}")
        if not ok:
            failures.append(f"{name} corruption")
        shutil.rmtree(work)
    shutil.rmtree(root, ignore_errors=True)
    print("selftest " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0
