"""Command-line front end.

Subcommands: normalize, depth, outliers, calibrate, simulate, report.
Exit codes: 0 success, 1 data/validation error, 2 usage error.  All
randomness is seeded (default seed 1729), so a given argv on given
inputs writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
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
    save_matrix,
)
from .depth import depth_values, extract_borders, pairwise_distances, save_depth_csv
from .normalize import QuantileGrid, normalize_pipeline, save_reference_csv
from .outlier import (
    TukeyCalibration,
    calibrate_g,
    detect_outliers,
    format_report_table,
    load_reports,
    reports_to_json,
    robust_covariance,
    save_report_csv,
)
from .plots import boxplot_svg
from .simulate import ALL_METHODS, SimulationConfig, StudyReport, run_grid

DEFAULT_SEED = 1729


def _parse_config_file(path: Path) -> dict:
    """Flat key = value file; keys use the long option names."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip().strip("\"'")
        if val.lower() in {"true", "false"}:
            values[key] = val.lower() == "true"
            continue
        tokens = val.replace(",", " ").split()
        try:
            nums = [float(t) for t in tokens]
        except ValueError:
            values[key] = val
            continue
        if len(nums) == 1:
            values[key] = int(nums[0]) if nums[0] == int(nums[0]) and "." not in val else nums[0]
        else:
            values[key] = nums
    return values


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Turn --config values into defaults of the invoked subparser."""
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    cfg = pre.parse_known_args(argv)[0].config
    if cfg is None:
        return
    cfg_path = Path(cfg)
    if not cfg_path.exists():
        raise DataError(f"no such config file: {cfg_path}")
    sub = next((tok for tok in argv if not tok.startswith("-")), None)
    subparser = getattr(parser, "_subparser_map", {}).get(sub)
    if subparser is None:
        return
    values = _parse_config_file(cfg_path)
    known = {a.dest for a in subparser._actions}
    unknown = sorted(set(values) - known)
    if unknown:
        raise DataError(f"unknown config keys for {sub!r}: {', '.join(unknown)}")
    subparser.set_defaults(**values)


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args):
    header = {"auto": None, "yes": True, "no": False}[args.header]
    m = load_matrix(args.input, fmt=args.format, has_header=header)
    if getattr(args, "filter_zeros", None) is not None:
        m = filter_zero_rows(m, args.filter_zeros)
    return m


def _tables(reports, title: str) -> str:
    return "\n\n".join(format_report_table(r, title=f"{title} ({r.scope})") for r in reports)


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="matrix file (features x samples)")
    p.add_argument("--format", choices=("csv", "tsv"), default=None)
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--output-dir", default=".", help="directory for artifacts")
    p.add_argument("--config", default=None, help="key = value file overriding defaults")
    p.add_argument("--filter-zeros", type=int, default=None, metavar="K",
                   help="drop rows with more than K zero entries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthnorm",
        description="Depth-based normalization and outlier screening for sample matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    submap = {}
    parser._subparser_map = submap

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        submap[name] = p
        return p

    p = add_parser("normalize", help="map columns onto a common reference scale")
    _add_io_args(p)
    p.add_argument("--prenorm", choices=("median", "q75", "mean", "sum", "none"), default="median")
    p.add_argument("--reference", choices=("deepest", "component-median"), default="deepest")
    p.add_argument("--mode", choices=("full", "subset"), default="full")
    p.add_argument("--grid-size", type=int, default=101, help="knots for subset mode")
    p.add_argument("--boxplot-svg", action="store_true", help="emit box plots of log(x+1) values")

    p = add_parser("depth", help="depth of each sample column")
    _add_io_args(p)
    p.add_argument("--prenorm", choices=("median", "q75", "mean", "sum", "none"), default="median")

    p = add_parser("outliers", help="flag outlying sample columns")
    _add_io_args(p)
    p.add_argument("--classes", default=None, help="label file or inline comma list")
    p.add_argument("--prenorm", choices=("median", "q75", "mean", "sum", "none"), default="median")
    p.add_argument("--target-rate", type=float, default=0.0001)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--g-factor", type=float, default=None,
                   help="skip calibration and use this multiplier")
    p.add_argument("--both-members", action="store_true",
                   help="flag both members of an exceeding pair")
    p.add_argument("--threads", type=int, default=1)

    p = add_parser("calibrate", help="Monte-Carlo fence calibration")
    p.add_argument("--input", default=None, help="matrix to match (size and covariance)")
    p.add_argument("--format", choices=("csv", "tsv"), default=None)
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--samples", type=int, default=None, help="n when no input is given")
    p.add_argument("--features", type=int, default=None, help="G when no input is given")
    p.add_argument("--target-rate", type=float, default=0.0001)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--config", default=None)

    p = add_parser("simulate", help="normalization comparison study")
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--methods", nargs="+", choices=ALL_METHODS, default=list(ALL_METHODS))
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--config", default=None)

    p = add_parser("report", help="render a saved report as a text table")
    p.add_argument("--input", required=True, help="outlier JSON/CSV or study CSV")
    p.add_argument("--kind", choices=("outliers", "study"), default=None)

    return parser


def _cmd_normalize(args) -> int:
    m = _load(args)
    out = _outdir(args)
    prenorm = None if args.prenorm == "none" else args.prenorm
    grid = QuantileGrid.uniform(args.grid_size) if args.mode == "subset" else None
    res = normalize_pipeline(
        m,
        prenorm_anchor=prenorm,
        reference=args.reference.replace("-", "_"),
        mode=args.mode,
        grid=grid,
    )
    save_matrix(res.matrix, out / "normalized.csv")
    save_reference_csv(res.reference, out / "reference.csv")
    if res.borders is not None:
        save_depth_csv(res.matrix, res.borders, out / "depth.csv")
    if args.boxplot_svg:
        (out / "boxplot_before.svg").write_text(boxplot_svg(m, title="before normalization"))
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
    bs = extract_borders(pairwise_distances(sorted_m))
    save_depth_csv(sorted_m, bs, out / "depth.csv")
    dr = depth_values(bs)
    deepest = ", ".join(sorted_m.sample_ids[j] for j in dr.deepest)
    print(f"wrote {out / 'depth.csv'} (deepest: {deepest})")
    return 0


def _calibrate(args, out: Path, n: int, n_features: int, cov) -> TukeyCalibration:
    """Monte-Carlo calibration from the command's flags, saved as calibration.json."""
    cal = calibrate_g(
        n=n,
        n_features=n_features,
        cov=cov,
        target_rate=args.target_rate,
        replicates=args.replicates,
        seed=args.seed,
        threads=args.threads,
    )
    (out / "calibration.json").write_text(cal.to_json())
    return cal


def _cmd_outliers(args) -> int:
    m = _load(args)
    out = _outdir(args)
    if args.prenorm != "none":
        m = linear_prenormalize(m, args.prenorm)
    sorted_m = column_sort(m)
    if args.g_factor is not None:
        cal = TukeyCalibration.fixed(args.g_factor)
    else:
        cal = _calibrate(args, out, m.n_samples, m.n_features, robust_covariance(m))
    reports = detect_outliers(sorted_m, cal, scope="global", flag_both=args.both_members)
    if args.classes:
        labels = load_class_labels(args.classes, m.n_samples)
        reports += detect_outliers(
            sorted_m, cal, scope="per_class", labels=labels, flag_both=args.both_members
        )
    tables = _tables(reports, Path(args.input).stem)
    (out / "outliers.txt").write_text(tables + "\n")
    save_report_csv(reports, out / "outliers.csv")
    (out / "outliers.json").write_text(reports_to_json(reports))
    print(tables)
    return 0


def _cmd_calibrate(args) -> int:
    out = _outdir(args)
    if args.input:
        m = _load(args)
        cal = _calibrate(args, out, m.n_samples, m.n_features, robust_covariance(m))
    else:
        if not args.samples or not args.features:
            raise DataError("calibrate needs --input or both --samples and --features")
        cal = _calibrate(args, out, args.samples, args.features, np.eye(args.samples))
    print(f"g_factor = {cal.g_factor!r} ({out / 'calibration.json'})")
    return 0


def _cmd_simulate(args) -> int:
    out = _outdir(args)
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
    report = run_grid(cfg, args.df, args.delta, args.methods, threads=args.threads)
    report.to_csv(out / "study.csv")
    table = report.format_table()
    (out / "study.txt").write_text(table + "\n")
    print(table)
    return 0


def _cmd_report(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    kind = args.kind
    if kind is None:
        study = path.suffix != ".json" and path.read_text().startswith("df,")
        kind = "study" if study else "outliers"
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
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
