import argparse
import json
import os
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
        assert cli.parse_args(["simulate"]).threads == 1

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

    def test_unreadable_report_is_a_data_error(self, tmp_path):
        f = tmp_path / "outliers.json"
        f.write_text('{"reports": [{"scope": "global"}]}')
        assert run("report", "--input", f) == 1

    @pytest.mark.parametrize("name, text", [
        ("outliers.csv", None),  # an outlier report read as a study report
        ("study.csv", "df,delta\n1,x\n"),
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
