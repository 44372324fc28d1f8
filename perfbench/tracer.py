"""Per-layer spans for the traced run, recorded from outside the package.

``Recorder.install()`` replaces each traced function, in every
``depthnorm`` module namespace that holds it, by a wrapper that records a
span (name, start, end, parent).  The CLI and its callees look these
names up at call time, so the traced run is ``main(argv)`` itself.  Spans
stay in memory; ``report`` turns them into the per-layer metrics after
``main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

# (depthnorm module, attribute, span name).  Spans nest, so a layer's time includes
# the layers it calls.
TRACED = (
    ("core", "load_matrix", "core.load_matrix"),
    ("core", "save_matrix", "core.save_matrix"),
    ("core", "linear_prenormalize", "core.linear_prenormalize"),
    ("core", "column_sort", "core.column_sort"),
    ("depth", "pairwise_distances", "depth.pairwise_distances"),
    ("depth", "extract_borders", "depth.extract_borders"),
    ("depth", "save_depth_csv", "depth.save_depth_csv"),
    ("normalize", "quantile_normalize_full", "normalize.quantile_normalize_full"),
    ("normalize", "normalize_pipeline", "normalize.normalize_pipeline"),
    ("normalize", "save_reference_csv", "normalize.save_reference_csv"),
    ("outlier", "robust_covariance", "outlier.robust_covariance"),
    ("outlier", "calibrate_g", "outlier.calibrate_g"),
    ("outlier", "_replicate_quantile", "outlier.calibrate_g.replicate"),
    ("outlier", "detect_outliers", "outlier.detect_outliers"),
    ("outlier", "format_report_table", "outlier.write_reports"),
    ("outlier", "save_report_csv", "outlier.write_reports"),
    ("outlier", "reports_to_json", "outlier.write_reports"),
    ("_kernels", "pairwise_dists", "kernels.pairwise_dists"),
    ("pipeline", "summarize_genes", "pipeline.summarize_genes"),
    ("pipeline", "two_sample_ttest", "pipeline.two_sample_ttest"),
    ("simulate", "generate_dataset", "simulate.generate_dataset"),
)

# Every per-layer metric, in report order, with its unit.  A layer the
# workload never calls reads 0.
METRICS = {
    "import.depthnorm_s": "s",
    "import.scipy_stats_s": "s",
    "import.rss_mb": "MB",
    "core.load_matrix_s": "s",
    "core.load_matrix.peak_mb": "MB",
    "core.load_matrix.cells": "count",
    "core.save_matrix_s": "s",
    "core.save_matrix.bytes": "bytes",
    "core.linear_prenormalize_s": "s",
    "core.column_sort_s": "s",
    "core.column_sort.calls": "count",
    "depth.pairwise_distances_s": "s",
    "depth.extract_borders_s": "s",
    "depth.save_depth_csv_s": "s",
    "normalize.quantile_normalize_full_s": "s",
    "normalize.normalize_pipeline_s": "s",
    "normalize.save_reference_csv_s": "s",
    "outlier.robust_covariance_s": "s",
    "outlier.calibrate_g_s": "s",
    "outlier.calibrate_g.replicate_s": "s",
    "outlier.detect_outliers_s": "s",
    "outlier.write_reports_s": "s",
    "kernels.pairwise_dists_s": "s",
    "kernels.pairwise_dists.calls": "count",
    "kernels.pairwise_dists.n64_s": "s",
    "kernels.pairwise_dists.24x50k_s": "s",
    "kernels.polish_summaries.1000_blocks_s": "s",
    "kernels.biweight_summaries.1000_blocks_s": "s",
    "pipeline.summarize_genes.median_polish_s": "s",
    "pipeline.summarize_genes.biweight_s": "s",
    "pipeline.two_sample_ttest_s": "s",
    "simulate.generate_dataset_s": "s",
    "trace.main_s": "s",
    "trace.unattributed_s": "s",
}

KERNEL_REPEATS = 5


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.save_paths: list[Path] = []

    @classmethod
    def install(cls) -> "Recorder":
        rec = cls()
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "depthnorm"]
        for module, attr, span in TRACED:
            original = getattr(importlib.import_module(f"depthnorm.{module}"), attr)
            wrapper = rec._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        rec._patched.append((m, key, value))
                        setattr(m, key, wrapper)
        return rec

    def uninstall(self) -> None:
        for m, key, value in reversed(self._patched):
            setattr(m, key, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "pipeline.summarize_genes":
                method = kwargs.get("method", args[1] if len(args) > 1 else "median_polish")
                span_name = f"{name}.{method}"
            elif name == "core.save_matrix":
                rec.save_paths.append(Path(args[1] if len(args) > 1 else kwargs["path"]))
            parent = rec._stack[-1] if rec._stack else None
            index = len(rec.spans)
            rec.spans.append([span_name, parent, time.perf_counter(), None])
            rec._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.spans[index][3] = time.perf_counter()
                rec._stack.pop()

        return traced

    def report(self, argv: list[str], main_s: float) -> dict:
        """Per-layer metrics of one traced ``main`` call, plus the spans.

        Call after ``uninstall``: the extra measurements below run untraced.
        """
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list[float]] = {}
        top_level = 0.0
        for name, parent, start, end in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
            if parent is None:
                top_level += end - start
        metrics = {key: 0.0 for key in METRICS}
        for key in METRICS:
            if key.endswith("_s") and key[:-2] in total:
                metrics[key] = total[key[:-2]]
        metrics["core.column_sort.calls"] = calls.get("core.column_sort", 0)
        metrics["kernels.pairwise_dists.calls"] = calls.get("kernels.pairwise_dists", 0)
        replicates = durations.get("outlier.calibrate_g.replicate")
        metrics["outlier.calibrate_g.replicate_s"] = (
            statistics.median(replicates) if replicates else 0.0
        )
        metrics["core.save_matrix.bytes"] = sum(p.stat().st_size for p in self.save_paths)
        metrics["trace.main_s"] = main_s
        metrics["trace.unattributed_s"] = main_s - top_level
        if "--input" in argv:
            metrics.update(self._load_matrix_memory(argv))
        metrics.update(self._kernel_shapes())
        return {"metrics": metrics, "spans": self.spans}

    def _load_matrix_memory(self, argv: list[str]) -> dict:
        """Traced-allocation peak of one more load of the run's input.

        Run after ``main`` so that tracemalloc's overhead stays out of the
        load timing.
        """
        from depthnorm import core

        tracemalloc.start()
        try:
            m = core.load_matrix(argv[argv.index("--input") + 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return {"core.load_matrix.peak_mb": peak / 2**20, "core.load_matrix.cells": m.values.size}

    def _kernel_shapes(self) -> dict:
        """The kernel micro-benchmark shapes, numpy path, median of repeats."""
        from depthnorm import _kernels

        rng = np.random.default_rng(0)
        pairwise = _kernels.pairwise_dists
        probes = rng.normal(size=(11000, 12))
        starts = np.arange(0, 11001, 11, dtype=np.int64)
        cases = {
            "kernels.pairwise_dists.24x50k_s": (pairwise, (rng.normal(size=(24, 50000)),)),
            "kernels.pairwise_dists.n64_s": (pairwise, (rng.normal(size=(64, 20000)),)),
            "kernels.polish_summaries.1000_blocks_s": (
                _kernels.polish_summaries, (probes, starts, 20, 0.01)),
            "kernels.biweight_summaries.1000_blocks_s": (
                _kernels.biweight_summaries, (probes, starts, 5.0, 1e-4, 50, 1e-9)),
        }
        out = {}
        for key, (fn, args) in cases.items():
            times = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                fn(*args)
                times.append(time.perf_counter() - t0)
            out[key] = statistics.median(times)
        return out
