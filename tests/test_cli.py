import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from depthnorm import cli
from depthnorm.cli import main


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

    def test_deterministic_outputs(self, matrix_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run("outliers", "--input", matrix_file, "--replicates", "6",
                "--seed", "3", "--output-dir", out)
            outs.append((out / "outliers.csv").read_bytes() + (out / "calibration.json").read_bytes())
        assert outs[0] == outs[1]


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

    def test_degenerate_covariance_is_a_data_error(self, matrix_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "robust_covariance", lambda m: np.zeros((m.n_samples,) * 2))
        assert run("calibrate", "--input", matrix_file, "--replicates", "2",
                   "--output-dir", tmp_path) == 1


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

    def test_missing_file(self, tmp_path):
        assert run("report", "--input", tmp_path / "nope.csv") == 1

    def test_unreadable_report_is_a_data_error(self, tmp_path):
        f = tmp_path / "outliers.json"
        f.write_text('{"reports": [{"scope": "global"}]}')
        assert run("report", "--input", f) == 1


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
