import argparse
import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from depthnorm import cli
from depthnorm.cli import main
from depthnorm.core import DataError


@pytest.fixture
def matrix_file(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("s1,s2,s3,s4\n1,1,50,0.5\n3,3,60,1.5\n5,5,70,2.5\n7,7,90,3.5\n")
    return f


def run(*argv):
    return main([str(a) for a in argv])


class TestNormalizeCommand:
    def test_identical_columns_pass_through(self, tmp_path):
        from depthnorm import load_matrix

        f = tmp_path / "two.csv"
        f.write_text("4,4\n1,1\n6,6\n")
        out = tmp_path / "out"
        assert run("normalize", "--input", f, "--output-dir", out) == 0
        back = load_matrix(out / "normalized.csv")  # output round-trips
        assert np.allclose(back.values, [[4, 4], [1, 1], [6, 6]])

    def test_artifacts_written(self, matrix_file, tmp_path):
        out = tmp_path / "out"
        assert run(
            "normalize", "--input", matrix_file, "--output-dir", out, "--boxplot-svg"
        ) == 0
        for name in ("normalized.csv", "reference.csv", "depth.csv",
                     "boxplot_before.svg", "boxplot_after.svg"):
            assert (out / name).exists(), name
        ET.fromstring((out / "boxplot_after.svg").read_text())

    def test_subset_mode(self, matrix_file, tmp_path):
        out = tmp_path / "out"
        assert run(
            "normalize", "--input", matrix_file, "--output-dir", out,
            "--mode", "subset", "--grid-size", "3", "--reference", "component-median",
        ) == 0
        assert (out / "normalized.csv").exists()
        assert not (out / "depth.csv").exists()

    @pytest.mark.parametrize("grid_size, rows", [
        ("2", "-1.7e308,1,2\n0,2,3\n1.7e308,3,4\n"),
        ("3", "-1.7e308,1,2\n1.7e308,2,3\n"),
    ], ids=["gap", "knot"])
    def test_subset_mode_on_a_range_that_overflows(self, tmp_path, capsys, grid_size, rows):
        # max - min of column 1 overflows: with two knots the one gap does, and with
        # three on two rows the middle knot cannot be interpolated; either is a data
        # error, not a numpy warning or an interior value mapped onto the bottom knot
        f = tmp_path / "big.csv"
        f.write_text("a,b,c\n" + rows)
        code = run("normalize", "--input", f, "--prenorm", "none", "--mode", "subset",
                   "--grid-size", grid_size, "--reference", "component-median",
                   "--output-dir", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: column 1: its range overflows float64 between quantile knots; "
            "rescale the data\n")

    def test_subset_mode_keeps_a_range_near_the_float64_limit(self, tmp_path):
        # max - min is 1.6e308, finite: each knot and gap is, so the column maps
        f = tmp_path / "big.csv"
        f.write_text("a,b,c\n0,1,2\n8e307,2,3\n1.6e308,3,4\n")
        out = tmp_path / "out"
        assert run("normalize", "--input", f, "--prenorm", "none", "--mode", "subset",
                   "--grid-size", "2", "--reference", "component-median",
                   "--output-dir", out) == 0
        assert (out / "normalized.csv").read_text() == (
            "a,b,c\n1.0,1.0,1.0\n2.5,2.5,2.5\n4.0,4.0,4.0\n")


def _seeded_matrix(directory: Path) -> Path:
    """9,000 x 11 with tied values and a duplicate column: wider than einsum's 8,192-value buffer."""
    rng = np.random.default_rng(16)
    x = np.round(rng.lognormal(3.0, 1.0, size=(9000, 11)), 3)
    x[:, 7] = x[:, 2]
    f = directory / "seeded.csv"
    np.savetxt(f, x, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"s{j:02d}" for j in range(11)))
    return f


# sha256 of each artifact: the data path's layout and blocking must not move a byte
SEEDED_ARTIFACTS = {
    ("normalize", "--boxplot-svg"): {
        "normalized.csv":
            "ae6e88ecc05555459940eeddd1a39978c2292df1afe4af064b7d9faff73214fb",
        "reference.csv":
            "0338792a5c6c52066c29acf36c9fed308da323ed375f2a423feee20346922626",
        "depth.csv":
            "ad43fdb87eeafd33ad4f13ece5f3c373be2a8ad63918eb67444cb75444f9af4e",
        "boxplot_before.svg":
            "c06950fddafa0bc98be47f5dcc4b9eec82d83b76e25cc4afe735ade8986420be",
        "boxplot_after.svg":
            "67dd71cbfbd6253914d4e358172a82b39f339ba763dbb0003caf674b730ab6ae",
    },
    ("normalize", "--mode", "subset"): {
        "normalized.csv":
            "878ff753357534f756f8e439f4d28eba10dd24225e9dee39c4efd3d91dcfa01b",
        "reference.csv":
            "0338792a5c6c52066c29acf36c9fed308da323ed375f2a423feee20346922626",
        "depth.csv":
            "ad43fdb87eeafd33ad4f13ece5f3c373be2a8ad63918eb67444cb75444f9af4e",
    },
    ("normalize", "--mode", "subset", "--grid-size", "2"): {
        "normalized.csv":
            "0521afa6bc2bc1687ddaf8b2978e225e5a116f8e59027f19f8fcd88151070778",
        "reference.csv":
            "0338792a5c6c52066c29acf36c9fed308da323ed375f2a423feee20346922626",
        "depth.csv":
            "ad43fdb87eeafd33ad4f13ece5f3c373be2a8ad63918eb67444cb75444f9af4e",
    },
    ("normalize", "--mode", "subset", "--grid-size", "7", "--reference", "component-median"): {
        "normalized.csv":
            "125423cf4fa7942ecff2062c5eefd5ed3820f0b4190fae04fec9607b6004b582",
        "reference.csv":
            "e26bfbe0c56293032b031e9abfdc74c0d70ff0be7dc242917342537ae426609c",
    },
    ("normalize", "--reference", "component-median"): {
        "normalized.csv":
            "aacd5ca18757f2af8132d9f358f707da3c510acdbe15d6a1db0016e4bfda4de0",
        "reference.csv":
            "e26bfbe0c56293032b031e9abfdc74c0d70ff0be7dc242917342537ae426609c",
    },
    ("depth",): {
        "depth.csv":
            "ad43fdb87eeafd33ad4f13ece5f3c373be2a8ad63918eb67444cb75444f9af4e",
    },
    ("outliers", "--both-members", "--classes", "1,2,3,1,2,3,1,1,2,1,3", "--g-factor", "1.2"): {
        "outliers.csv":
            "d3f77cd9e21e6ab44ad4c2f580d44c8acc71e1b15e3ecf322cea6953e03677ed",
        "outliers.json":
            "5bfa65dac83a5ea5db1c0b41a4c5e884ed611132a9a1b532d82db95d7943d717",
        "outliers.txt":
            "6f5f0b936a61760db71ec96f6ebc1d51bcbb35538d59d569a6ae1d99b4634839",
    },
    ("outliers", "--classes", "1,2,3,1,2,3,1,1,2,1,3", "--replicates", "20"): {
        "calibration.json":
            "b539fac4988bbdc8d167b20ece4e42fd4b71b37be3bdac7458be7ef86d94e3d1",
        "outliers.csv":
            "066085fa229e4a03221b53fbbc845a8bdf229a42fe8e04747c69b61e4c822089",
        "outliers.json":
            "61e112029e5cf265ed59c975aa11736af75f4ba8e64a180fb9c3cd5764803357",
        "outliers.txt":
            "f540d3b34ddf8bfd1a8328be3d8f53a41da0346742dfb860ae57b91f6fb3ff56",
    },
}


@pytest.mark.parametrize("argv", list(SEEDED_ARTIFACTS), ids=" ".join)
def test_seeded_matrix_artifacts_keep_their_bytes(tmp_path, argv):
    out = tmp_path / "out"
    assert run(*argv, "--input", _seeded_matrix(tmp_path), "--output-dir", out) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == SEEDED_ARTIFACTS[argv]


def test_calibration_json_is_the_former_file_minus_its_rate_line(tmp_path):
    # this run once wrote a target_rate line after g_factor (sha256 below); put
    # back, it gives those bytes, so G and every replicate value keep their bits
    argv = ("outliers", "--classes", "1,2,3,1,2,3,1,1,2,1,3", "--replicates", "20")
    out = tmp_path / "out"
    assert run(*argv, "--input", _seeded_matrix(tmp_path), "--output-dir", out) == 0
    lines = (out / "calibration.json").read_text().split("\n")
    assert lines[1].startswith('  "g_factor": ')
    former = "\n".join(lines[:2] + ['  "target_rate": 0.0001,'] + lines[2:])
    assert hashlib.sha256(former.encode()).hexdigest() == (
        "25be5413d5f3e7e10b45e229474b7558ee5586ade404a4aa881aac45f33af042")


# sha256 of study.csv and study.txt; the method order sets the order the references are built in
STUDY_ARTIFACTS = {
    (): {
        "study.csv": "d6ffec357c0d06a24f69171e03e5b5b10ffea4c0863efdf42d5605c3ff0367c2",
        "study.txt": "618980cf4bba3353aff911f2fd7ff535a15ce2361697d0dc9ba9deee47dfa6d8",
    },
    ("--methods", "FDN-biweight", "RMA"): {
        "study.csv": "4e4423d70a1537000f7aecfef9de60c1d57b6dd3aa40410e3fe9a4a83f854e0d",
        "study.txt": "46b8388dc2e3724dd9c32e56670bfcd0d984809f203d2b384cb0e2f47691910c",
    },
}


@pytest.mark.parametrize("methods", list(STUDY_ARTIFACTS), ids=lambda a: " ".join(a) or "default")
def test_study_artifacts_keep_their_bytes(tmp_path, methods):
    out = tmp_path / "out"
    assert run("simulate", "--df", "10", "--delta", "0.5", "--datasets", "4", "--seed", "7",
               *methods, "--output-dir", out) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == STUDY_ARTIFACTS[methods]


def test_simulate_loads_no_scipy(tmp_path):
    # the study's Welch flags need stdtr only for a p-value within 1e-8 of alpha
    argv = ["simulate", "--df", "10", "--delta", "0.5", "--datasets", "4", "--seed", "7",
            "--output-dir", str(tmp_path)]
    probe = ("import sys\n"
             "from depthnorm.cli import main\n"
             f"assert main({argv!r}) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", probe], cwd=root, env={**os.environ,
                         "PYTHONPATH": "src"}, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    digest = hashlib.sha256((tmp_path / "study.csv").read_bytes()).hexdigest()
    assert digest == STUDY_ARTIFACTS[()]["study.csv"]


class TestDepthCommand:
    def test_writes_depth_csv(self, matrix_file, tmp_path):
        out = tmp_path / "out"
        assert run("depth", "--input", matrix_file, "--output-dir", out) == 0
        header = (out / "depth.csv").read_text().splitlines()[0]
        assert header == "sample_id,border_index,depth,intra_pair_distance,pair_partner_id"

    def test_zero_row_filter(self, tmp_path):
        f = tmp_path / "z.csv"
        f.write_text("0,0,1\n1,2,3\n0,5,6\n")
        out = tmp_path / "out"
        assert run("depth", "--input", f, "--filter-zeros", "1",
                   "--prenorm", "none", "--output-dir", out) == 0
        assert run("depth", "--input", f, "--filter-zeros", "0",
                   "--prenorm", "none", "--output-dir", out) == 0
        # budget 0 keeps only the all-nonzero row; budget exceeded everywhere -> error
        f2 = tmp_path / "allzero.csv"
        f2.write_text("0,0\n0,0\n")
        assert run("depth", "--input", f2, "--filter-zeros", "0",
                   "--prenorm", "none", "--output-dir", out) == 1


class TestOutliersCommand:
    def test_global_and_per_class_tables(self, matrix_file, tmp_path):
        out = tmp_path / "out"
        assert run(
            "outliers", "--input", matrix_file, "--classes", "1,1,2,2",
            "--replicates", "8", "--seed", "7", "--output-dir", out,
        ) == 0
        text = (out / "outliers.txt").read_text()
        assert "(global)" in text and "(class 1)" in text and "(class 2)" in text
        assert "outlier's benchmark" in text and "Tukey's constant" in text
        payload = json.loads((out / "outliers.json").read_text())
        assert [r["scope"] for r in payload["reports"]] == ["global", "class 1", "class 2"]
        assert (out / "calibration.json").exists()

    def test_fixed_factor_skips_calibration(self, matrix_file, tmp_path):
        out = tmp_path / "out"
        assert run(
            "outliers", "--input", matrix_file, "--g-factor", "1.5", "--output-dir", out
        ) == 0
        assert not (out / "calibration.json").exists()

    def test_replicates_draw_from_a_full_rank_covariance(self, tmp_path):
        # the covariance must come from unsorted columns: sorted ones all share
        # one rank order, so every replicate returns the same quantile up to
        # round-off (17.370095 +- 2e-6 here)
        f = tmp_path / "random.csv"
        np.savetxt(f, np.random.default_rng(0).lognormal(size=(300, 6)), delimiter=",")
        out = tmp_path / "out"
        assert run("outliers", "--input", f, "--replicates", "4", "--output-dir", out) == 0
        quantiles = json.loads((out / "calibration.json").read_text())["per_replicate_quantiles"]
        assert max(quantiles) - min(quantiles) > 0.01 * min(quantiles)

    @pytest.mark.parametrize("values, message", [
        # one value near the float64 limit: its squared gap to every other curve overflows
        ([[1, 2, 1, 3], [2, 3, 2, 4], [3, 4, 3, 5], [4, 5, 4, 6], [5, 6, 1e300, 7]],
         "column distances overflow"),
        # four identical columns and one shifted: the median border distance is 0
        (np.arange(1.0, 7.0)[:, None] + [0, 0, 0, 0, 1], "the fence has no scale"),
    ], ids=["distance-overflow", "zero-fence-scale"])
    def test_a_screen_error_ends_the_run_before_calibration(self, tmp_path, monkeypatch, capsys,
                                                             values, message):
        calls = []
        monkeypatch.setattr(cli, "calibrate_g", lambda **kwargs: calls.append(kwargs))
        f = tmp_path / "m.csv"
        np.savetxt(f, np.asarray(values, dtype=float), fmt="%.17g", delimiter=",")
        out = tmp_path / "out"
        assert run("outliers", "--input", f, "--prenorm", "none", "--output-dir", out) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (out / "calibration.json").exists()

    def test_degenerate_covariance_is_a_data_error(self, matrix_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "robust_covariance", lambda m: np.zeros((m.n_samples,) * 2))
        assert run("outliers", "--input", matrix_file, "--replicates", "2",
                   "--output-dir", tmp_path) == 1

    def test_mistyped_label_file_is_named(self, matrix_file, tmp_path, capsys):
        assert run("outliers", "--input", matrix_file, "--g-factor", "1.2",
                   "--classes", "labelz.txt", "--output-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert "no such label file 'labelz.txt'" in err and "invalid literal" not in err

    @pytest.mark.parametrize("prenorm", ["median", "none"])
    def test_covariance_overflow_is_a_data_error(self, tmp_path, capsys, prenorm):
        f = tmp_path / "huge.csv"
        np.savetxt(f, np.random.default_rng(0).lognormal(size=(200, 6)) * 1e200, delimiter=",")
        assert run("outliers", "--input", f, "--replicates", "3", "--prenorm", prenorm,
                   "--output-dir", tmp_path / "out") == 1
        assert "covariance overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["depth"], ["normalize"], ["outliers", "--g-factor", "1.2"],
    ], ids=["depth", "normalize", "outliers"])
    def test_distance_overflow_is_a_data_error(self, tmp_path, capsys, argv):
        f = tmp_path / "huge.csv"
        np.savetxt(f, np.random.default_rng(0).lognormal(size=(200, 6)) * 1e200, delimiter=",")
        assert run(*argv, "--input", f, "--output-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: column distances overflow float64")
        assert "rescale the data" in err

    def test_deterministic_outputs(self, matrix_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("outliers", "--input", matrix_file, "--replicates", "6",
                "--seed", "3", "--output-dir", out)
            outs.append((out / "outliers.csv").read_bytes() + (out / "calibration.json").read_bytes())
        assert outs[0] == outs[1]

    def test_default_threads_write_the_bytes_of_one_thread(self, tmp_path):
        f = tmp_path / "random.csv"
        np.savetxt(f, np.random.default_rng(1).lognormal(size=(300, 6)), delimiter=",")
        outs = []
        for name, threads in (("default", []), ("one", ["--threads", "1"])):
            out = tmp_path / name
            assert run("outliers", "--input", f, "--classes", "1,1,1,2,2,2", "--replicates", "6",
                       *threads, "--output-dir", out) == 0
            outs.append([(out / a).read_bytes() for a in (
                "calibration.json", "outliers.json", "outliers.csv", "outliers.txt")])
        assert outs[0] == outs[1]


class TestThreads:
    def test_calibration_defaults_to_the_usable_cpus(self):
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count())
        assert cli.parse_args(["outliers", "--input", "m.csv"]).threads == usable
        assert cli.parse_args(["calibrate"]).threads == usable
        assert cli.parse_args(["simulate"]).threads == usable

    def test_one_declaration_serves_every_threaded_subcommand(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {name: [a.help for a in sub.choices[name]._actions if "--threads" in
                        a.option_strings] for name in ("outliers", "calibrate", "simulate")}
        assert list(helps.values()) == [[
            "worker threads (default: the usable CPUs); the artifacts do not depend on it"
        ]] * 3

    @pytest.mark.parametrize("sub", ["outliers", "calibrate", "simulate"])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_thread_count_is_a_usage_error(self, matrix_file, tmp_path, capsys, sub, value):
        argv = [sub, "--threads", value, "--output-dir", tmp_path]
        if sub == "outliers":
            argv += ["--input", matrix_file]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "argument --threads" in capsys.readouterr().err
        assert not (tmp_path / "calibration.json").exists()


class TestCalibrateCommand:
    def test_synthetic_identity_covariance(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            "calibrate", "--samples", "6", "--features", "40",
            "--replicates", "5", "--seed", "2", "--output-dir", out,
        ) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert payload["replicates"] == 5
        assert len(payload["per_replicate_quantiles"]) == 5

    def test_needs_input_or_sizes(self, tmp_path):
        assert run("calibrate", "--output-dir", tmp_path) == 1

    def test_matching_a_dataset_is_left_to_outliers(self, matrix_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("calibrate", "--input", matrix_file, "--output-dir", tmp_path)
        assert exc.value.code == 2


def test_startup_imports_no_scipy():
    # scipy is loaded on the first Welch test, which only `simulate` runs
    root = Path(__file__).resolve().parents[1]
    for module in ("depthnorm", "depthnorm.cli"):
        probe = (f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], cwd=root, env={**os.environ,
                             "PYTHONPATH": "src"}, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", module


def test_the_only_function_level_import_is_scipy_special():
    # function-level imports hide import cycles; the one allowed keeps scipy off startup
    package = Path(__file__).resolve().parents[1] / "src" / "depthnorm"
    found = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        found.append((path.name, fn.name, "." * node.level + (node.module or "")))
                    elif isinstance(node, ast.Import):
                        found += [(path.name, fn.name, a.name) for a in node.names]
    assert found == [("pipeline.py", "_two_sided_p", "scipy.special")]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """The argv of each ``depthnorm`` line in the README's sh blocks, continuations joined."""
    text = README.read_text()
    lines = [ln for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for ln in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("depthnorm ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        cli.parse_args(argv)  # a usage error exits 2


def test_readme_library_example_runs(tmp_path, monkeypatch):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    values = np.random.default_rng(23).lognormal(3.0, 1.0, size=(300, 8))
    np.savetxt(tmp_path / "expr.csv", values, fmt="%.17g", delimiter=",")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    assert namespace["normalized"].values.shape == (300, 8)
    assert [r.scope for r in namespace["reports"]] == ["global"]
    assert namespace["cal"].replicates == 100


class TestSimulateCommand:
    def test_single_cell_run(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            "simulate", "--df", "10", "--delta", "2", "--datasets", "2",
            "--genes", "40", "--probes-per-gene", "3", "--affected-genes", "8",
            "--samples", "8", "--seed", "1", "--output-dir", out,
        ) == 0
        lines = (out / "study.csv").read_text().strip().splitlines()
        assert lines[0] == "df,delta,method,power,false_discoveries,n_datasets"
        assert len(lines) == 4  # one row per method for the single (df, delta) cell
        assert run("report", "--input", out / "study.csv") == 0

    def test_default_threads_write_the_bytes_of_one_thread(self, tmp_path):
        outs = []
        for name, threads in (("default", []), ("one", ["--threads", "1"])):
            out = tmp_path / name
            assert run("simulate", "--df", "5", "--delta", "0", "1", "--datasets", "5",
                       "--genes", "30", "--probes-per-gene", "3", "--affected-genes", "6",
                       "--samples", "6", "--seed", "4", *threads, "--output-dir", out) == 0
            outs.append([(out / a).read_bytes() for a in ("study.csv", "study.txt")])
        assert outs[0] == outs[1]

    def test_deterministic_study(self, tmp_path):
        csvs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("simulate", "--df", "5", "--delta", "0.5", "--datasets", "2",
                "--genes", "30", "--probes-per-gene", "2", "--affected-genes", "5",
                "--samples", "6", "--seed", "9", "--threads", "2", "--output-dir", out,
                "--methods", "RMA")
            csvs.append((out / "study.csv").read_bytes())
        assert csvs[0] == csvs[1]


class TestReportCommand:
    def test_renders_outlier_json(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "out"
        run("outliers", "--input", matrix_file, "--g-factor", "1.2", "--output-dir", out)
        capsys.readouterr()
        assert run("report", "--input", out / "outliers.json") == 0
        text = capsys.readouterr().out
        assert "distance intra-pair" in text

    def test_json_and_csv_render_as_the_outliers_table(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "out"
        run("outliers", "--input", matrix_file, "--classes", "1,1,2,2",
            "--g-factor", "1.2", "--output-dir", out)
        capsys.readouterr()
        printed = []
        for name in ("outliers.json", "outliers.csv"):
            assert run("report", "--input", out / name) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

        def untitled(text):
            return [table.splitlines()[1:] for table in text.strip().split("\n\n")]

        assert untitled(printed[0]) == untitled((out / "outliers.txt").read_text())
        assert "potential outliers: s3" in printed[0]

    def test_both_members_survive_the_csv(self, tmp_path, capsys):
        f = tmp_path / "five.csv"
        f.write_text("s1,s2,s3,s4\n1,2,3,4\n2,3,4,5\n3,5,4,6\n4,4,6,7\n5,6,7,19\n")
        out = tmp_path / "out"
        run("outliers", "--input", f, "--g-factor", "1.2", "--both-members", "--output-dir", out)
        capsys.readouterr()
        flagged = []
        for name in ("outliers.json", "outliers.csv"):
            assert run("report", "--input", out / name) == 0
            flagged.append([ln for ln in capsys.readouterr().out.splitlines()
                            if ln.startswith("potential outliers")])
        assert flagged[0] == flagged[1] == ["potential outliers: s2, s4"]

    def test_missing_file(self, tmp_path):
        assert run("report", "--input", tmp_path / "nope.csv") == 1

    @pytest.mark.parametrize("text", [
        '{"reports": [{"scope": "global"}]}',
        '{"reports": ' + "[" * 1000 + "]" * 1000 + "}",  # deeper than json.loads recurses
    ], ids=["no-fields", "nested-1000-deep"])
    def test_unreadable_report_is_a_data_error(self, tmp_path, capsys, text):
        f = tmp_path / "outliers.json"
        f.write_text(text)
        assert run("report", "--input", f) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: not an outlier report") and "Traceback" not in err

    @pytest.mark.parametrize("pairs", [None, [], [{"members": [], "distance": 1.0}],
                                       [{"members": [1, 2], "distance": 1.0}]],
                             ids=["no-reports", "no-pairs", "no-members", "int-members"])
    def test_report_no_writer_makes_is_a_data_error(self, tmp_path, capsys, pairs):
        report = {"scope": "global", "flagged_samples": [], "rule": "farther-from-deepest",
                  "benchmark": 1.0, "iqr_estimate": 1.0, "tukey_constant": 1.0, "pairs": pairs}
        f = tmp_path / "outliers.json"
        f.write_text(json.dumps({"reports": [] if pairs is None else [report]}))
        assert run("report", "--input", f) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name, text", [
        ("outliers.csv", None),  # an outlier report read as a study report
        ("study.csv", "df,delta\n1,x\n"),
        # nan equals no cell, itself included
        pytest.param("nan.csv", "df,delta,method,power,false_discoveries,n_datasets\n"
                     "nan,0,RMA,5.0,1.0,2\n", id="nan-df"),
    ])
    def test_not_a_study_report_is_a_data_error(self, matrix_file, tmp_path, capsys, name, text):
        f = tmp_path / name
        if text is None:
            run("outliers", "--input", matrix_file, "--g-factor", "1.2", "--output-dir", tmp_path)
        else:
            f.write_text(text)
        capsys.readouterr()
        assert run("report", "--kind", "study", "--input", f) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: not a study report") and "Traceback" not in err

    def test_header_only_study_report_is_a_data_error(self, tmp_path, capsys):
        f = tmp_path / "study.csv"
        f.write_text("df,delta,method,power,false_discoveries,n_datasets\n")
        assert run("report", "--input", f) == 1
        assert capsys.readouterr().err == f"error: {f}: empty study report\n"

    def test_study_report_missing_a_cell_is_a_data_error(self, tmp_path, capsys):
        f = tmp_path / "incomplete.csv"
        f.write_text("df,delta,method,power,false_discoveries,n_datasets\n"
                     "10,0,RMA,5.0,1.0,2\n10,1,FDN-biweight,50.0,1.0,2\n")
        assert run("report", "--input", f) == 1
        err = capsys.readouterr().err
        assert err == f"error: {f}: no row for df=10.0, delta=0.0, FDN-biweight\n"


class TestConfigAndErrors:
    def test_config_file_sets_defaults(self, matrix_file, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("# outlier screen settings\nreplicates = 4\nseed = 21\ng_factor = 1.5\n")
        out = tmp_path / "out"
        assert run(
            "outliers", "--input", matrix_file, "--config", cfg, "--output-dir", out
        ) == 0
        payload = json.loads((out / "outliers.json").read_text())
        assert payload["reports"][0]["tukey_constant"] == 1.5

    def test_config_flag_overridden_by_cli(self, matrix_file, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("g_factor = 1.5\n")
        out = tmp_path / "out"
        assert run(
            "outliers", "--input", matrix_file, "--config", cfg,
            "--g-factor", "2.5", "--output-dir", out,
        ) == 0
        payload = json.loads((out / "outliers.json").read_text())
        assert payload["reports"][0]["tukey_constant"] == 2.5

    def test_config_flag_with_equals_sign(self, matrix_file, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("g_factor = 1.5\n")
        out = tmp_path / "out"
        assert run(
            "outliers", "--input", matrix_file, f"--config={cfg}", "--output-dir", out
        ) == 0
        payload = json.loads((out / "outliers.json").read_text())
        assert payload["reports"][0]["tukey_constant"] == 1.5

    def test_config_flag_without_value_is_usage_error(self, matrix_file):
        with pytest.raises(SystemExit) as exc:
            run("normalize", "--input", matrix_file, "--config")
        assert exc.value.code == 2

    def test_removed_target_rate_flag_is_a_usage_error(self, matrix_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("outliers", "--input", matrix_file, "--target-rate", "0.01",
                "--output-dir", tmp_path)
        assert exc.value.code == 2
        assert "--target-rate" in capsys.readouterr().err

    def test_unknown_config_key(self, matrix_file, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("replicas = 4\n")
        assert run("outliers", "--input", matrix_file, "--config", cfg) == 1

    @pytest.mark.parametrize("argv", [
        ["depth", "--input", "{bad}"],
        ["report", "--input", "{bad}"],
        ["depth", "--input", "{good}", "--config", "{bad}"],
        ["outliers", "--input", "{good}", "--g-factor", "1.2", "--classes", "{bad}"],
    ], ids=["matrix", "report", "config", "classes"])
    def test_undecodable_file_is_a_data_error(self, matrix_file, tmp_path, capsys, argv):
        bad = tmp_path / "bin.csv"
        bad.write_bytes(b"\xff\xfe\x00")
        argv = [a.format(bad=bad, good=matrix_file) for a in argv]
        if argv[0] != "report":
            argv += ["--output-dir", str(tmp_path / "out")]
        assert run(*argv) == 1
        assert f"{bad}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["depth", "--input", "{bad}", "--output-dir", "{out}"],
        ["normalize", "--input", "{bad}", "--output-dir", "{out}"],
        ["report", "--kind", "outliers", "--input", "{bad}"],
        ["report", "--kind", "study", "--input", "{bad}"],
    ], ids=["depth", "normalize", "report-outliers", "report-study"])
    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "long.csv"
        bad.write_text("a,b\n" + "1" * 200_000 + ",2\n")
        assert run(*(a.format(bad=bad, out=tmp_path / "out") for a in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad}:" in err

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--samples", "-3", "--features", "5"],
        ["calibrate", "--samples", "1", "--features", "5"],
        ["calibrate", "--samples", "4", "--features", "0"],
        ["simulate", "--df", "0", "--datasets", "1", "--delta", "0"],
    ], ids=["negative-samples", "one-sample", "no-features", "zero-df"])
    def test_out_of_range_value_is_a_data_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--output-dir", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("alpha", ["2", "nan", "0", "1"])
    def test_alpha_outside_the_open_unit_interval_is_a_data_error(self, tmp_path, capsys, alpha):
        argv = ["simulate", "--datasets", "2", "--genes", "20", "--affected-genes", "5",
                "--samples", "4", "--delta", "2", "--alpha", alpha, "--output-dir", tmp_path]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha ") and f"got {float(alpha)!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--delta", "1e100"), ("--df", "0.01")])
    def test_intensities_that_overflow_are_a_data_error(self, tmp_path, capsys, flag, value):
        # (3 + 1e100) ** 3 overflows float64, and so do t draws at df 0.01: an
        # error naming the cause, not a numpy warning
        argv = ["simulate", "--datasets", "1", "--genes", "5", "--probes-per-gene", "3",
                "--affected-genes", "1", "--samples", "4", flag, value,
                "--output-dir", tmp_path]
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            "error: the simulated intensities overflow float64; "
            "lower delta or the distortion range, or raise df\n")
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "2", "error: n_samples must be even and >= 4"),
        ("--affected-genes", "0", "error: affected_genes must lie in [1, n_genes]"),
    ])
    def test_simulation_that_cannot_run_fails_before_any_work(self, tmp_path, capsys, flag,
                                                                value, message):
        argv = ["simulate", "--datasets", "2", "--genes", "20", "--affected-genes", "5",
                "--samples", "4", "--delta", "2", flag, value, "--output-dir", tmp_path / "out"]
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("g", ["nan", "inf", "-1", "0"])
    def test_g_factor_that_is_not_a_fence_is_a_data_error(self, matrix_file, tmp_path, capsys, g):
        out = tmp_path / "out"
        assert run("outliers", "--input", matrix_file, "--g-factor", g, "--output-dir", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: g_factor must be finite and positive, got {float(g)!r}\n"
        assert not (out / "outliers.json").exists()

    def test_missing_input_is_a_data_error(self, tmp_path):
        assert run("depth", "--input", tmp_path / "absent.csv") == 1

    def test_ragged_input_is_a_data_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,3\n4,5\n")
        assert run("depth", "--input", f, "--output-dir", tmp_path) == 1

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("normalize")
        assert exc.value.code == 2


# subcommand -> argv that runs it quickly, apart from the --config file
QUICK_ARGV = {
    "outliers": ["--g-factor", "1.2"],
    "simulate": ["--delta", "2", "--datasets", "2", "--genes", "40", "--probes-per-gene", "3",
                 "--affected-genes", "8", "--samples", "8"],
}


class TestConfigValues:
    @pytest.mark.parametrize("sub, line, code, expected", [
        ("outliers", "replicates = 2.5", 2, "argument --replicates: invalid int value: '2.5'"),
        ("outliers", "seed = 1.5", 2, "argument --seed: invalid int value: '1.5'"),
        ("outliers", "header = maybe", 2, "argument --header: invalid choice: 'maybe'"),
        ("simulate", "df = 10", 0, ("df", [10.0])),
        ("simulate", "methods = RMA", 0, ("methods", ["RMA"])),
        ("outliers", "classes = 1,1,2,2", 0, ("classes", "1,1,2,2")),
        ("normalize", "boxplot_svg = no", 1, "{cfg}:2: boxplot_svg takes true or false"),
        ("normalize", "boxplot_svg = yes", 1, "{cfg}:2: boxplot_svg takes true or false"),
        ("outliers", "target-rate = 0.01", 1, "{cfg}:2: unknown key 'target-rate' for 'outliers'"),
    ])
    def test_value_is_checked_as_if_typed(
        self, matrix_file, tmp_path, monkeypatch, capsys, sub, line, code, expected
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{line}\n")
        seen = []
        command = cli._COMMANDS[sub]
        monkeypatch.setitem(cli._COMMANDS, sub, lambda args: seen.append(args) or command(args))
        argv = [sub, "--config", cfg, "--output-dir", tmp_path / "out", *QUICK_ARGV.get(sub, [])]
        if sub != "simulate":
            argv += ["--input", matrix_file]
        try:
            assert run(*argv) == code
        except SystemExit as exc:
            assert exc.code == code
        if code == 0:
            dest, value = expected
            assert getattr(seen[0], dest) == value
        else:
            assert expected.format(cfg=cfg) in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.svg"))


# the integer-valued option types (a thread count must also be at least 1)
INT_TYPES = (int, cli._thread_count)
# config syntax (space, comma, '#', quotes, newline) is left out of the junk
JUNK_ITEM = st.text(alphabet="abxyz019.-+_e:=/", min_size=1, max_size=6)
JUNK_SCALAR = st.text(alphabet="abxyz019.-+_e:=/, ", max_size=8).map(str.strip)


def _config_keys(sub):
    """The options a config file may set for ``sub``, minus any the argv needs."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in subparsers.choices[sub]._actions
            if a.dest not in ("help", "config") and not a.required]


def _value(action, text, clean):
    """A value drawn from the option's choices or type, or else any text unless ``clean``."""
    if action.choices:
        valid = st.sampled_from(list(action.choices))
    elif action.type in (*INT_TYPES, float):
        valid = (st.integers(-5, 500) if action.type in INT_TYPES
                 else st.floats(allow_nan=False)).map(str)
    else:
        return text
    return valid if clean else valid | text


def _parsed(argv):
    """The parsed namespace minus --config, or None if the input is rejected."""
    try:
        args = cli.parse_args(argv)
    except DataError:
        return None
    except SystemExit as e:
        assert e.code == 2
        return None
    return {k: repr(v) for k, v in vars(args).items() if k != "config"}


class TestConfigMeansItsFlags:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_config_parses_like_the_same_flags_typed(self, tmp_path, data):
        sub = data.draw(st.sampled_from(["normalize", "depth", "outliers", "calibrate", "simulate"]))
        base = [sub] + (["--input", "m.csv"] if sub not in ("calibrate", "simulate") else [])
        actions = data.draw(st.lists(st.sampled_from(_config_keys(sub)),
                                     unique_by=lambda a: a.dest, max_size=5))
        clean = data.draw(st.booleans())  # half the draws hold no junk, so most parse
        lines, typed, bad_flag = [], [], False
        for a in actions:
            key = data.draw(st.sampled_from([a.dest, a.dest.replace("_", "-")]))
            flag = a.option_strings[0]
            if a.nargs == 0:
                on_off = st.sampled_from(["true", "false", "TRUE"])
                value = data.draw(on_off if clean else on_off | JUNK_SCALAR)
                typed += [flag] if value.lower() == "true" else []
                bad_flag |= value.lower() not in ("true", "false")
            elif a.nargs in ("+", 2):
                items = data.draw(st.lists(_value(a, JUNK_ITEM, clean), max_size=3))
                value = data.draw(st.sampled_from([" ", ",", ", "])).join(items)
                typed += [flag, *items]
            else:
                value = data.draw(_value(a, JUNK_SCALAR, clean))
                typed += [flag, value]
            lines.append(f"{key} = {value}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        # an on/off flag has no typed form for other values; the file must reject them
        expected = None if bad_flag else _parsed(base + typed)
        assert _parsed(base + ["--config", str(cfg)]) == expected


# the options whose value names a file or directory, each with a few
# values that exist, do not, or have the wrong kind
PATHS = {
    "input": ["m.csv", "m.tsv", "absent.csv", "labels.txt", "out"],
    "output_dir": ["out", "out/sub", "m.csv", ""],
    "config": ["run.cfg", "absent.cfg", "m.csv"],
    "classes": ["1,1,2,2", "labels.txt", "1,2", "labelz.txt", "1,1,1,1", "2,2,3,3"],
}
# runs stay small because every size the argv can name stays small
BASE_ARGV = {
    "normalize": ["--input", "m.csv", "--output-dir", "out"],
    "depth": ["--input", "m.csv", "--output-dir", "out"],
    "outliers": ["--input", "m.csv", "--output-dir", "out", "--replicates", "3"],
    "calibrate": ["--samples", "4", "--features", "5", "--replicates", "3", "--output-dir", "out"],
    "simulate": ["--datasets", "1", "--genes", "5", "--probes-per-gene", "3", "--affected-genes",
                 "1", "--samples", "4", "--delta", "0", "--output-dir", "out"],
    "report": ["--input", "m.csv"],
}
JUNK = st.text(alphabet="abxyz019.-+_e:=", max_size=6)


def _argv_value(action):
    """A value for ``action``: valid, out of range, or junk."""
    if action.dest in PATHS:
        return st.sampled_from(PATHS[action.dest]) | JUNK
    if action.choices:
        return st.sampled_from(list(action.choices)) | JUNK
    if action.type in INT_TYPES:
        return st.integers(-2, 6).map(str) | JUNK
    if action.type is float:
        special = st.sampled_from(["nan", "inf", "-inf", "0", "1e-300"])
        return st.floats(-2, 6).map(repr) | special | JUNK
    return JUNK


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exits_0_1_or_2_without_a_traceback(self, tmp_path, monkeypatch, capsys, data):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(work)
        rows = ["s1,s2,s3,s4", "1,1,50,0.5", "3,3,60,1.5", "5,5,70,2.5", "7,7,90,3.5"]
        Path("m.csv").write_text("\n".join(rows) + "\n")
        Path("m.tsv").write_text("\n".join(r.replace(",", "\t") for r in rows) + "\n")
        Path("labels.txt").write_text("1\n1\n2\n2\n")
        Path("run.cfg").write_text("seed = 3\n")
        sub = data.draw(st.sampled_from(sorted(BASE_ARGV)))
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = [a for a in subparsers.choices[sub]._actions if a.dest != "help"]
        argv = [sub, *BASE_ARGV[sub]]
        for a in data.draw(st.lists(st.sampled_from(options), max_size=4)):
            flag = data.draw(st.sampled_from(a.option_strings))
            if a.nargs == 0:
                argv.append(flag)
            elif a.nargs in ("+", 2):
                size = 2 if a.nargs == 2 else data.draw(st.integers(1, 3))
                argv += [flag, *data.draw(st.lists(_argv_value(a), min_size=size, max_size=size))]
            else:
                argv += [flag, data.draw(_argv_value(a))]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        event(f"{sub} exits {code}")
        assert code in (0, 1, 2), argv
        assert "Traceback" not in capsys.readouterr().err
