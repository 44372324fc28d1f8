"""Command-line front end.

Subcommands: normalize, depth, outliers, calibrate, simulate, report.
Exit codes: 0 success, 1 data/validation error, 2 usage error.  All
randomness is seeded (default seed 1729), so a given argv on given
inputs writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    DataError,
    column_sort,
    filter_zero_rows,
    linear_prenormalize,
    load_class_labels,
    load_matrix,
    read_text,
    save_matrix,
)
from .depth import peel_borders, save_depth_csv
from .normalize import normalize_pipeline, save_reference_csv
from .outlier import (
    TukeyCalibration,
    calibrate_g,
    format_report_table,
    load_reports,
    reports_to_json,
    robust_covariance,
    save_report_csv,
    screen_outliers,
)
from .plots import boxplot_svg
from .simulate import ALL_METHODS, SimulationConfig, StudyReport, run_grid

DEFAULT_SEED = 1729


def _config_tokens(parser: argparse.ArgumentParser, args) -> list[str]:
    """The subcommand's flag tokens for the ``key = value`` lines of ``--config``.

    Keys are long option names.  A list option takes a space- or
    comma-separated list and an on/off flag takes ``true`` or ``false``;
    argparse checks every value as if it were typed.
    """
    path = Path(args.config)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.subcommand]._actions if a.dest != "help"}
    tokens: dict[str, list[str]] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise DataError(f"{where}: expected 'key = value'")
        key, _, val = (part.strip() for part in line.partition("="))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise DataError(f"{where}: unknown key {key!r} for {args.subcommand!r}")
        flag, val = action.option_strings[0], val.strip("\"'")
        if action.nargs == 0:
            if val.lower() not in {"true", "false"}:
                raise DataError(f"{where}: {key} takes true or false, not {val!r}")
            tokens[action.dest] = [flag] if val.lower() == "true" else []
        elif action.nargs in ("+", 2):
            tokens[action.dest] = [flag, *val.replace(",", " ").split()]
        else:
            tokens[action.dest] = [flag, val]
    return [tok for toks in tokens.values() for tok in toks]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, reading ``--config`` as flags placed right after the subcommand.

    argparse keeps the last value it reads, so flags typed on the command
    line win over the file.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    at = argv.index(args.subcommand) + 1
    return parser.parse_args(argv[:at] + _config_tokens(parser, args) + argv[at:])


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    header = {"auto": None, "yes": True, "no": False}[args.header]
    m = load_matrix(args.input, fmt=args.format, has_header=header)
    if args.filter_zeros is not None:
        m = filter_zero_rows(m, args.filter_zeros)
    return m


def _tables(reports, title: str) -> str:
    return "\n\n".join(format_report_table(r, title=f"{title} ({r.scope})") for r in reports)


def _usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthnorm",
        description="Depth-based normalization and outlier screening for sample matrices.",
    )
    # flags that several subcommands share, each declared once
    fmt, out, matrix, run, cal = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    fmt.add_argument("--format", choices=("csv", "tsv"), default=None)
    fmt.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    out.add_argument("--output-dir", default=".", help="directory for artifacts")
    out.add_argument("--config", default=None, help="key = value file overriding defaults")
    matrix.add_argument("--input", required=True, help="matrix file (features x samples)")
    matrix.add_argument("--filter-zeros", type=int, default=None, metavar="K",
                        help="drop rows with more than K zero entries")
    matrix.add_argument("--prenorm", choices=("median", "q75", "mean", "sum", "none"),
                        default="median")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--threads", type=_thread_count, default=_usable_cpus(),
                     help="worker threads (default: the usable CPUs); the artifacts do not "
                          "depend on it")
    cal.add_argument("--replicates", type=int, default=100)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", parents=[matrix, fmt, out],
                       help="map columns onto a common reference scale")
    p.add_argument("--reference", choices=("deepest", "component-median"), default="deepest")
    p.add_argument("--mode", choices=("full", "subset"), default="full")
    p.add_argument("--grid-size", type=int, default=101, help="knots for subset mode")
    p.add_argument("--boxplot-svg", action="store_true", help="emit box plots of log(x+1) values")

    sub.add_parser("depth", parents=[matrix, fmt, out], help="depth of each sample column")

    p = sub.add_parser("outliers", parents=[matrix, fmt, out, cal, run],
                       help="flag outlying sample columns")
    p.add_argument("--classes", default=None, help="label file or inline comma list")
    p.add_argument("--g-factor", type=float, default=None,
                   help="skip calibration and use this multiplier")
    p.add_argument("--both-members", action="store_true",
                   help="flag both members of an exceeding pair")

    p = sub.add_parser("calibrate", parents=[out, cal, run],
                       help="Monte-Carlo fence calibration for an identity covariance")
    p.add_argument("--samples", type=int, default=None, help="number of samples n")
    p.add_argument("--features", type=int, default=None, help="number of features G")

    p = sub.add_parser("simulate", parents=[out, run], help="normalization comparison study")
    p.add_argument("--df", type=float, nargs="+", default=[10.0])
    p.add_argument("--delta", type=float, nargs="+", default=[0.0, 0.25, 0.5, 1.0, 2.0])
    p.add_argument("--datasets", type=int, default=20,
                   help="datasets per cell (the published study used 100)")
    p.add_argument("--samples", type=int, default=12)
    p.add_argument("--genes", type=int, default=1000)
    p.add_argument("--probes-per-gene", type=int, default=11)
    p.add_argument("--affected-genes", type=int, default=100)
    p.add_argument("--distortion", type=float, nargs=2, default=[0.0, 2.0], metavar=("LO", "HI"))
    p.add_argument("--floor", type=float, default=0.001)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--methods", nargs="+", choices=ALL_METHODS, default=list(ALL_METHODS))

    p = sub.add_parser("report", help="render a saved report as a text table")
    p.add_argument("--input", required=True, help="outlier JSON/CSV or study CSV")
    p.add_argument("--kind", choices=("outliers", "study"), default=None)

    return parser


def _cmd_normalize(args) -> int:
    m = _load(args)
    out = _outdir(args)
    if args.boxplot_svg:
        (out / "boxplot_before.svg").write_text(boxplot_svg(m, title="before normalization"))
    # the pipeline needs only the prenormalized columns: rebinding frees the input
    # before they are sorted, and the del frees them before the writes
    if args.prenorm != "none":
        m = linear_prenormalize(m, args.prenorm)
    knots = args.grid_size if args.mode == "subset" else None
    res = normalize_pipeline(m, reference=args.reference.replace("-", "_"), knots=knots)
    del m
    save_matrix(res.matrix, out / "normalized.csv")
    save_reference_csv(res.reference, out / "reference.csv")
    if res.borders is not None:
        save_depth_csv(res.matrix, res.borders, out / "depth.csv")
    if args.boxplot_svg:
        (out / "boxplot_after.svg").write_text(
            boxplot_svg(res.matrix, title="after normalization")
        )
    print(f"wrote {out / 'normalized.csv'}")
    return 0


def _cmd_depth(args) -> int:
    m = _load(args)
    out = _outdir(args)
    if args.prenorm != "none":
        m = linear_prenormalize(m, args.prenorm)
    sorted_m = column_sort(m)
    bs = peel_borders(sorted_m)
    save_depth_csv(sorted_m, bs, out / "depth.csv")
    deepest = ", ".join(sorted_m.sample_ids[j] for j in bs.deepest_members)
    print(f"wrote {out / 'depth.csv'} (deepest: {deepest})")
    return 0


def _calibrate(args, out: Path, n_features: int, cov) -> TukeyCalibration:
    """Monte-Carlo calibration from the command's flags, saved as calibration.json."""
    cal = calibrate_g(cov=cov, n_features=n_features, replicates=args.replicates,
                      seed=args.seed, threads=args.threads)
    (out / "calibration.json").write_text(cal.to_json())
    return cal


def _cmd_outliers(args) -> int:
    m = _load(args)
    out = _outdir(args)
    if args.prenorm != "none":
        m = linear_prenormalize(m, args.prenorm)
    labels = load_class_labels(args.classes, m.n_samples) if args.classes else None
    if args.g_factor is not None:
        cal, cov = TukeyCalibration.fixed(args.g_factor), None
    else:
        cal, cov = None, robust_covariance(m)
    n_features = m.n_features
    # the screens hold all the fence needs from the data: a screen error ends the
    # run before calibration, and the matrix is freed before calibration allocates
    screens = screen_outliers(m, labels)
    del m
    if cal is None:
        cal = _calibrate(args, out, n_features, cov)
    reports = [s.report(cal.g_factor, args.both_members) for s in screens]
    tables = _tables(reports, Path(args.input).stem)
    (out / "outliers.txt").write_text(tables + "\n")
    save_report_csv(reports, out / "outliers.csv")
    (out / "outliers.json").write_text(reports_to_json(reports))
    print(tables)
    return 0


def _cmd_calibrate(args) -> int:
    out = _outdir(args)
    if args.samples is None or args.features is None:
        raise DataError("calibrate needs both --samples and --features")
    if args.samples < 2 or args.features < 1:
        raise DataError("calibrate needs --samples >= 2 and --features >= 1")
    cal = _calibrate(args, out, args.features, np.eye(args.samples))
    print(f"g_factor = {cal.g_factor!r} ({out / 'calibration.json'})")
    return 0


def _cmd_simulate(args) -> int:
    cfg = SimulationConfig(
        n_samples=args.samples,
        n_genes=args.genes,
        probes_per_gene=args.probes_per_gene,
        affected_genes=args.affected_genes,
        distortion_range=(args.distortion[0], args.distortion[1]),
        negative_floor=args.floor,
        n_datasets=args.datasets,
        seed=args.seed,
        alpha=args.alpha,
    )
    out = _outdir(args)
    report = run_grid(cfg, args.df, args.delta, args.methods, threads=args.threads)
    report.to_csv(out / "study.csv")
    table = report.format_table()
    (out / "study.txt").write_text(table + "\n")
    print(table)
    return 0


def _cmd_report(args) -> int:
    path = Path(args.input)
    kind = args.kind or (
        "study" if path.suffix != ".json" and read_text(path).startswith("df,") else "outliers"
    )
    if kind == "study":
        print(StudyReport.from_csv(path).format_table())
    else:
        print(_tables(load_reports(path), path.stem))
    return 0


_COMMANDS = {
    "normalize": _cmd_normalize,
    "depth": _cmd_depth,
    "outliers": _cmd_outliers,
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
