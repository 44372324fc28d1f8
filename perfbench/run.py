"""End-to-end benchmark of the depthnorm CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  Each operation is one CLI call as a user
makes it: a fresh interpreter (``child.py``) imports ``depthnorm.cli``
and calls ``main(argv)`` once on inputs generated here from ``--seed``.
Operations repeat for about ``--seconds`` of operation time; the
artifacts of the first are checked against independent computations (``checks.py``) and
every later one must write the same bytes.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(medians over the operations); with ``--trace 1`` every operation runs
traced (``tracer.py``) and the metrics are the per-layer ones.  A result
file with the machine header goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Size:
    n_genes: int
    replicates: int
    sim_genes: int
    sim_affected: int
    sim_datasets: int
    setup_samples: int  # imports that setup_s is the median of, at least


FULL = Size(n_genes=50_000, replicates=100, sim_genes=1000, sim_affected=100, sim_datasets=20,
            setup_samples=6)
TINY = Size(n_genes=2_000, replicates=10, sim_genes=100, sim_affected=10, sim_datasets=4,
            setup_samples=1)


@dataclass(frozen=True)
class Prepared:
    argv: list[str]  # without --output-dir
    check: Callable[[Path], list[str]]


def prepare_normalize(directory: Path, seed: int, size: Size) -> Prepared:
    inp = inputs.normalize_input(directory, seed, size.n_genes)
    return Prepared(["normalize", "--input", str(inp.path)],
                    lambda out: checks.check_normalize(inp, out))


def prepare_outliers(directory: Path, seed: int, size: Size) -> Prepared:
    inp = inputs.outliers_input(directory, seed, size.n_genes)
    argv = ["outliers", "--input", str(inp.path), "--classes", str(inp.labels_path),
            "--replicates", str(size.replicates)]
    return Prepared(argv, lambda out: checks.check_outliers(inp, out, size.replicates))


def prepare_simulate(directory: Path, seed: int, size: Size) -> Prepared:
    sim = inputs.Simulation(inputs.simulate_seed(seed), size.sim_genes, size.sim_affected,
                            size.sim_datasets)
    argv = ["simulate", "--df", "10", "--delta", "1", "--datasets", str(sim.datasets),
            "--genes", str(sim.genes), "--affected-genes", str(sim.affected),
            "--seed", str(sim.seed)]
    return Prepared(argv, lambda out: checks.check_simulate(sim, out))


WORKLOADS = {
    "normalize-50k": prepare_normalize,
    "outliers-50k": prepare_outliers,
    "simulate-cell": prepare_simulate,
}


# ---------------------------------------------------------------------------
# machine header


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_header() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


# ---------------------------------------------------------------------------
# operations


def _child_env() -> dict:
    env = dict(os.environ)
    # An installed package imports from cached bytecode; let the warm-up
    # write that cache even where the caller's environment forbids it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(op_dir: Path, argv: list[str], trace: bool = False,
              import_only: bool = False) -> dict:
    """One operation in a fresh interpreter; returns what the child measured."""
    op_dir.mkdir(parents=True)
    result_path = op_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    cmd += (["--trace"] if trace else []) + (["--import-only"] if import_only else [])
    cmd += ["--"] + argv + ["--output-dir", str(op_dir / "out")]
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        proc = subprocess.run(cmd, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
    if proc.returncode != 0 or not result_path.exists():
        tail = (op_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"measured process exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    return result


def artifact_digest(out_dir: Path) -> dict:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
        work: Path | None = None) -> dict:
    work = work or WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    phases = {}
    t = time.perf_counter()
    prepared = WORKLOADS[workload](work / "input", seed, size)
    phases["prepare_s"] = time.perf_counter() - t

    # Fill the bytecode cache before timing: users pay that once, not per call.
    run_child(work / "warmup", prepared.argv, import_only=True)

    ops, problems, op_walls, setups = [], [], [], []
    attempted = failed = 0
    first_out = first_digest = None

    def probe_setup():
        """One import-only call: another setup_s sample, outside the window."""
        setups.append(run_child(work / f"setup{len(setups)}", prepared.argv,
                                import_only=True)["setup_s"])

    # The window counts operation time only.  Another operation starts
    # while it would end nearer inside the window than outside it, so a run
    # measures about --seconds whatever one operation takes.
    while not op_walls or sum(op_walls) + statistics.median(op_walls) / 2 < seconds:
        op_dir = work / f"op{attempted}"
        attempted += 1
        t = time.perf_counter()
        result = run_child(op_dir, prepared.argv, trace=trace)
        op_walls.append(time.perf_counter() - t)
        if result["exit_code"] != 0:
            failed += 1
            continue
        ops.append(result)
        setups.append(result["setup_s"])
        digest = artifact_digest(op_dir / "out")
        if first_digest is None:
            first_out, first_digest = op_dir / "out", digest
        else:
            if digest != first_digest:
                problems.append(f"{op_dir.name}: artifacts differ from the first operation's")
            shutil.rmtree(op_dir)
        # A run of few, long operations (outliers-50k) gets import-only
        # calls spread through it, so setup_s always rests on
        # size.setup_samples imports taken across the whole run.
        busy = min(seconds, sum(op_walls))
        while not trace and len(setups) * seconds < size.setup_samples * busy:
            probe_setup()
    while not trace and len(setups) < size.setup_samples:
        probe_setup()
    phases["window_s"] = sum(op_walls)

    t = time.perf_counter()
    if first_out is not None:
        problems += prepared.check(first_out)
    phases["check_s"] = time.perf_counter() - t

    if trace:
        from tracer import METRICS as units

        per_op = [{**op["trace"]["metrics"],
                   "import.depthnorm_s": op["import_s"].get("depthnorm", 0.0),
                   "import.scipy_stats_s": op["import_s"].get("scipy.stats", 0.0),
                   "import.rss_mb": op["import_rss_mb"]} for op in ops]
        samples = {key: [m[key] for m in per_op] for key in units}
    else:
        units = END_TO_END
        samples = {"setup_s": setups, "run_s": [op["run_s"] for op in ops],
                   "peak_rss_mb": [op["peak_rss_mb"] for op in ops]}
    metrics = {
        key: {"value": statistics.median(samples[key]) if samples[key] else 0.0, "unit": unit}
        for key, unit in units.items()
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "machine": machine_header(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": prepared.argv,
        "problems": problems,
        "operations": ops,
        "setup_samples_s": setups,
        "phases_s": phases,
        "result": result,
    }
    results_dir = work.parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny inputs: every workload and the checks' rejection cases")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "depthnorm" / "cli.py").is_file():
        print(f"error: no depthnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
