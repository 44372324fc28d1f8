"""The measured process: a fresh interpreter that runs one CLI call.

    python3 child.py RESULT_JSON [--trace] [--import-only] -- ARGV...

It times ``import depthnorm.cli`` and ``main(ARGV)`` separately and
writes them, with the process's peak resident memory, to RESULT_JSON.
With ``--trace`` it first wraps the package's public functions (see
``tracer.py``), so the same ``main(ARGV)`` call leaves a span per layer
call.  The package must be importable (PYTHONPATH pointing at ``src``).
"""

import sys
import time

FLAGS = sys.argv[2:sys.argv.index("--")]
TRACE = "--trace" in FLAGS

# The traced run times the loading of these modules (cumulative, children
# included).  ``-X importtime`` cannot: it has no line for a module loaded
# through ``from package import submodule`` on a lazily loading package,
# which is how depthnorm gets scipy.stats.
TIMED_IMPORTS = ("depthnorm", "scipy.stats")
import_s = {}


class _ImportTimer:
    """Meta-path finder that wraps the watched modules' ``exec_module``."""

    def find_spec(self, fullname, path, target=None):
        if fullname not in TIMED_IMPORTS:
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        else:
            return None
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            t = time.perf_counter()
            try:
                exec_module(module)
            finally:
                import_s[fullname] = time.perf_counter() - t

        spec.loader.exec_module = timed_exec
        return spec


if TRACE:
    sys.meta_path.insert(0, _ImportTimer())

t0 = time.perf_counter()
import depthnorm.cli  # noqa: E402

setup_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402


def _peak_rss_mb() -> float:
    """High-water resident set size of this process image, in MiB.

    VmHWM, not ru_maxrss: Linux folds the parent's peak into ru_maxrss
    across fork and exec, so ru_maxrss would report the memory of the
    parent (run.py) whenever it exceeds the measured process's own.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    result_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    result = {"setup_s": setup_s, "import_rss_mb": _peak_rss_mb(), "import_s": import_s}
    if "--import-only" not in FLAGS:
        recorder = None
        if TRACE:
            from tracer import Recorder

            recorder = Recorder.install()
        t1 = time.perf_counter()
        code = depthnorm.cli.main(argv)
        result["run_s"] = time.perf_counter() - t1
        result["exit_code"] = code
        result["peak_rss_mb"] = _peak_rss_mb()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_user_s"], result["cpu_sys_s"] = usage.ru_utime, usage.ru_stime
        result["minor_faults"] = usage.ru_minflt
        if recorder is not None:
            recorder.uninstall()
            result["trace"] = recorder.report(argv, result["run_s"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
