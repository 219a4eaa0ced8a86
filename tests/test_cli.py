import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gbmdl.cli import RunConfig, _build_parser, load_csv, main, render, run_pipeline
from gbmdl.errors import ConfigurationError, CsvParseError, DataQualityError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["x,y,label"]
    for cx, cy, lab in ((0.2, 0.2, 0), (0.8, 0.8, 1)):
        for _ in range(40):
            rows.append(f"{rng.normal(cx, 0.03):.6f},{rng.normal(cy, 0.03):.6f},{lab}")
    return write(tmp_path / "blobs.csv", "\n".join(rows) + "\n")


class TestLoadCsv:
    def test_small_numeric_label_last(self, tmp_path):
        path = write(tmp_path / "a.csv", "1.0,0\n2.0,0\n3.0,1\n   \n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.d == 1
        assert ds.labels.tolist() == [0, 0, 1]

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path / "b.csv", "height,kind\n1.0,0\n2.0,1\n")
        ds = load_csv(path)
        assert ds.n == 2 and ds.d == 1

    def test_string_labels_mapped_by_first_appearance(self, tmp_path):
        path = write(tmp_path / "c.csv", "1.0,setosa\n2.0,virginica\n3.0,setosa\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [0, 1, 0]

    def test_non_numeric_feature_names_location(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,0\nabc,1\n")
        with pytest.raises(CsvParseError, match=r"row 2, column 1"):
            load_csv(path)
        # blank and whitespace-only lines are not counted; columns after the label
        # keep their number
        path = write(tmp_path / "d2.csv", "0,1.0,2.0\n\n  \n1,2.0,abc\n")
        with pytest.raises(CsvParseError, match=r"row 2, column 3"):
            load_csv(path, label_column="0")

    @pytest.mark.parametrize("label_column", ["last", "label"])
    def test_header_without_data_rows_named(self, tmp_path, capsys, label_column):
        path = write(tmp_path / "hdr.csv", "x,y,label\n")
        with pytest.raises(CsvParseError, match="header row but no data rows"):
            load_csv(path, label_column=label_column)
        assert main(["--input", path, "--label-col", label_column]) == 2
        assert "header row but no data rows" in capsys.readouterr().err

    def test_single_row_with_one_bad_cell_names_it(self, tmp_path):
        path = write(tmp_path / "bad.csv", "1.0,abc,0\n")
        with pytest.raises(CsvParseError, match=r"row 1, column 2: non-numeric feature value"):
            load_csv(path)

    @pytest.mark.parametrize("cell, shown", [("nan", "nan"), ("-inf", "-inf"), ("1e400", "inf")])
    def test_non_finite_cell_names_location(self, tmp_path, capsys, cell, shown):
        # the header and the label column count, the blank line does not
        path = write(tmp_path / "nonfinite.csv",
                     f"label,x,y\na,0.1,0.2\nb,0.3,0.4\n\na,{cell},0.6\nb,0.7,0.8\n")
        message = f"row 4, column 2: non-finite feature value {shown}"
        with pytest.raises(DataQualityError, match=f"^{re.escape(message)}$"):
            load_csv(path, label_column="label")
        assert main(["--input", path, "--label-col", "0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("5.1,3.5,0\n4.9,3.0,0\n6.3,3.3,1\n", encoding="utf-8-sig")
        ds = load_csv(str(path))
        assert ds.n == 3 and ds.values[0].tolist() == [5.1, 3.5]
        path.write_text("x,y,kind\n1,9,0\n2,8,1\n", encoding="utf-8-sig")
        ds = load_csv(str(path), label_column="x")
        assert ds.labels.tolist() == [0, 1]
        assert ds.values.tolist() == [[9.0, 0.0], [8.0, 1.0]]

    def test_ragged_rows_named(self, tmp_path):
        path = write(tmp_path / "e.csv", "1.0,2.0,0\n1.0,0\n")
        with pytest.raises(CsvParseError, match=r"row 2"):
            load_csv(path)

    def test_label_by_name_and_index(self, tmp_path):
        path = write(tmp_path / "f.csv", "a,b,c\n1,9,0\n2,8,1\n")
        by_name = load_csv(path, label_column="b")
        assert by_name.values.tolist() == [[1.0, 0.0], [2.0, 1.0]]
        by_index = load_csv(path, label_column="1")
        assert by_index.labels.tolist() == by_name.labels.tolist()

    def test_label_none_gives_unlabeled(self, tmp_path):
        path = write(tmp_path / "g.csv", "1.0,2.0\n3.0,4.0\n")
        ds = load_csv(path, label_column="none")
        assert ds.labels is None and ds.d == 2

    def test_missing_label_name_rejected(self, tmp_path):
        path = write(tmp_path / "h.csv", "a,b\n1,2\n")
        with pytest.raises(CsvParseError, match="nope"):
            load_csv(path, label_column="nope")

    def test_label_name_beyond_row_width_rejected(self, tmp_path):
        path = write(tmp_path / "i.csv", "a,b,c\n1,0\n2,1\n")
        with pytest.raises(CsvParseError, match="out of range"):
            load_csv(path, label_column="c")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvParseError):
            load_csv(str(tmp_path / "missing.csv"))


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", runs=0)
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", backend="spectral")
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", k="three")
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", k="0")


class TestRunPipeline:
    def test_blobs_end_to_end(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv, backend="ac"))
        assert report["dataset"] == {"n": 80, "d": 2, "classes": 2}
        assert report["summary"]["ari_mean"] == 1.0
        assert report["generation"]["balls"] >= 2
        counts = report["generation"]["verdict_counts"]
        assert set(counts) == {"M1", "M2", "M3"}
        assert counts["M1"] == report["generation"]["balls"]

    def test_k_auto_without_labels_rejected(self, tmp_path):
        path = write(tmp_path / "u.csv", "0.1,0.2\n0.3,0.4\n0.5,0.6\n0.9,0.8\n")
        with pytest.raises(ConfigurationError):
            run_pipeline(RunConfig(input=path, label_col="none"))

    def test_unlabeled_with_explicit_k_reports_null_metrics(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [f"{rng.random():.4f},{rng.random():.4f}" for _ in range(60)]
        path = write(tmp_path / "v.csv", "\n".join(rows) + "\n")
        report = run_pipeline(RunConfig(input=path, label_col="none", k="3"))
        assert report["summary"]["ari_mean"] is None
        assert report["runs"][0]["ari"] is None

    def test_seeded_repetition_summary(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv, backend="kmeanspp",
                                        runs=5, seed=11))
        assert [row["seed"] for row in report["runs"]] == [11, 12, 13, 14, 15]
        aris = [row["ari"] for row in report["runs"]]
        assert report["summary"]["ari_mean"] == pytest.approx(np.mean(aris))
        assert report["summary"]["ari_std"] == pytest.approx(np.std(aris))

    def test_deterministic_backend_zero_std(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv, backend="ac", runs=3))
        assert report["summary"]["ari_std"] == 0.0

    def test_json_schema_key_order(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv))
        data = json.loads(render(report))
        assert list(data) == ["config", "dataset", "generation", "runs", "summary"]
        assert list(data["config"]) == ["input", "label_col", "backend", "k", "runs",
                                        "seed", "format", "omit_timings"]
        assert list(data["dataset"]) == ["n", "d", "classes"]
        assert list(data["generation"]) == ["balls", "residual_background",
                                            "verdict_counts", "seconds"]
        assert list(data["runs"][0]) == ["seed", "ari", "acc", "nmi", "seconds"]
        assert list(data["summary"]) == ["ari_mean", "ari_std", "acc_mean",
                                         "acc_std", "nmi_mean", "nmi_std"]

    def test_timings_measured_by_default(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv))
        assert report["generation"]["seconds"] >= 0.0
        assert all(row["seconds"] >= 0.0 for row in report["runs"])

    def test_omit_timings_is_byte_reproducible(self, blob_csv):
        config = RunConfig(input=blob_csv, runs=2, omit_timings=True)
        a = render(run_pipeline(config))
        b = render(run_pipeline(config))
        assert a == b
        assert json.loads(a)["generation"]["seconds"] is None

    def test_csv_summary_row(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv, format="csv"))
        lines = render(report).strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ("input,n,d,classes,backend,k,runs,balls,residual_background,"
                            "ari_mean,ari_std,acc_mean,acc_std,nmi_mean,nmi_std")

    def test_backend_none_passthrough_when_balls_fit(self, blob_csv):
        # enough clusters that the stable balls pass through as-is
        report = run_pipeline(RunConfig(input=blob_csv, backend="none", k="60"))
        assert report["summary"]["ari_mean"] is not None

    def test_backend_none_rejected_when_balls_exceed_k(self, blob_csv):
        with pytest.raises(ConfigurationError, match="backend"):
            run_pipeline(RunConfig(input=blob_csv, backend="none", k="2"))


class TestCommandLine:
    def cli(self, *args):
        return subprocess.run([sys.executable, "-m", "gbmdl", *args],
                              capture_output=True, text=True)

    def test_json_to_stdout(self, blob_csv):
        proc = self.cli("--input", blob_csv, "--backend", "ac")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["summary"]["ari_mean"] == 1.0

    def test_output_file_and_summary_line(self, blob_csv, tmp_path):
        out = tmp_path / "report.json"
        proc = self.cli("--input", blob_csv, "--output", str(out))
        assert proc.returncode == 0
        assert "ari=" in proc.stdout
        assert json.loads(out.read_text())["dataset"]["n"] == 80

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_reports_error(self, blob_csv, tmp_path, target):
        proc = self.cli("--input", blob_csv, "--output", str(tmp_path / target))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_bad_backend_exits_with_error(self, blob_csv):
        proc = self.cli("--input", blob_csv, "--backend", "dbscan")
        assert proc.returncode != 0

    def test_missing_input_reports_parse_error(self, tmp_path):
        proc = self.cli("--input", str(tmp_path / "nothing.csv"))
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_invalid_utf8_reports_parse_error(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe1.0,0\n2.0,1\n")
        proc = self.cli("--input", str(path))
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_single_labelled_row_reports_data_error(self, tmp_path):
        proc = self.cli("--input", write(tmp_path / "one.csv", "0.5,0.25,a\n"))
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_single_unlabelled_row_runs(self, tmp_path, capsys):
        path = write(tmp_path / "one.csv", "0.5,0.25\n")
        assert main(["--input", path, "--label-col", "none", "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["generation"]["balls"] == 1

    def test_feature_range_overflow_reports_data_error(self, tmp_path, capsys):
        # every value is finite, but max - min of feature 0 overflows float64
        path = write(tmp_path / "huge.csv", "1e308,0\n-1e308,1\n0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--input", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "feature 0" in lines[0]

    @pytest.mark.parametrize("rows", [
        # squared coordinates overflow float64
        "1e200,0\n-1e200,1\n0,0\n5e199,1\n",
        # 4·Σ|x|² ≈ 1.25e308 is finite, but |Σx|² over all 20 rows is not
        "1.3e153,0\n" * 10 + "1.2e153,1\n" * 10,
    ], ids=["squares", "member-sum"])
    def test_huge_coordinates_run_after_normalization(self, tmp_path, rows):
        # ranges are finite; the raw coordinates would overflow the engine's sums
        path = write(tmp_path / "huge.csv", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--input", path, "--label-col", "none", "--k", "2",
                         "--omit-timings"]) == 0

    @pytest.mark.parametrize("argv", [["--backend", "ac", "--k", "auto"],
                                      ["--backend", "kmeanspp", "--runs", "20", "--seed", "0"]])
    def test_every_run_normalizes(self, iris_path, tmp_path, capsys, argv):
        # power-of-two scales are exact, so the normalized values are bit-identical
        iris = load_csv(iris_path)
        scaled = iris.values * np.array([2.0 ** -20, 2.0 ** 3, 2.0 ** 40, 2.0 ** -7])
        rows = [",".join(map(repr, [*row, label]))
                for row, label in zip(scaled.tolist(), iris.labels.tolist())]
        path = write(tmp_path / "scaled.csv", "\n".join(rows) + "\n")
        reports = []
        for source in (iris_path, path):
            assert main(["--input", source, *argv, "--omit-timings"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            del reports[-1]["config"]["input"]
        assert reports[0] == reports[1]

    def test_readme_flags_line_lists_every_option(self):
        # the README paragraph that starts with "Flags:" names each option once, in parser order
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        paragraph = next(p for p in readme.split("\n\n") if p.startswith("Flags:"))
        documented = [flag.split()[0] for flag in re.findall(r"`([^`]+)`", paragraph)]
        options = [s for action in _build_parser()._actions for s in action.option_strings
                   if s not in ("-h", "--help")]
        assert documented == options
