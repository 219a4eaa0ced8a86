import concurrent.futures
import csv
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbmdl import backends, cli
from gbmdl.backends import kmeanspp
from gbmdl.cli import RunConfig, _build_parser, load_csv, main, render, run_pipeline
from gbmdl.core import ball_centers, minmax_normalize
from gbmdl.errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from gbmdl.generation import generate
from gbmdl.metrics import acc, ari, nmi


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
        assert ds.labels.dtype == np.int64   # Dataset keeps labels as given; the reader maps them

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

    @pytest.mark.parametrize("rows", [
        ["1.0,{label}", "2.0,b", "3.0,a"],
        # a ragged row sends the table to the row parser, which reads row 3
        ["1.0,a", "2.0,b", "3.0,{label}", "4.0"],
    ], ids=["row-1", "row-3-irregular"])
    def test_oversized_cell_is_a_parse_error(self, tmp_path, capsys, rows):
        # longer than the csv module's default field limit of 131,072 characters
        text = "\n".join(rows).format(label="x" * 200_000) + "\n"
        path = write(tmp_path / "wide.csv", text)
        with pytest.raises(CsvParseError, match="field larger than field limit"):
            load_csv(path)
        assert main(["--input", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_oversized_cell_below_row_2_of_a_regular_table_loads(self, tmp_path):
        # numpy's reader has no field limit, and csv reads only the first two rows
        label = "x" * 200_000
        path = write(tmp_path / "wide.csv", f"1.0,a\n2.0,b\n3.0,{label}\n")
        assert load_csv(path).labels.tolist() == [0, 1, 2]


def row_parser(path, label_column):
    # the csv row parser alone, as load_csv falls back to it
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return cli._parse_rows(fh, path, label_column)


def outcome(read, path, label_column):
    try:
        ds = read(path, label_column)
    except GbmdlError as exc:
        return type(exc), str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype, ds.labels.tolist())
    return ds.values.dtype, ds.values.shape, ds.values.tobytes(), labels


# numpy's reader accepts all of these spellings, with the values float() gives
NUMBERS = ["{!r}", "{:.6f}", "{:.3e}", " {!r} ", "\u2003{!r}", '"{!r}"', '" {:.2f}"']
# float() accepts the first two and numpy's reader neither; the rest are
# non-finite or non-numeric to both
QUIRKS = ["1_000", "\u0661\u0662", "nan", "-inf", "1e400", "abc", "", '"1,5"', "0x1p3",
          '"2"x']
# several spellings of one label: csv strips the quotes, the label is stripped
LABELS = ["a", " a", '"a"', '" a "', "b", '"b,c"', '"b""c"', 'b"c', '""', "1", '"1"']


@st.composite
def quirky_csvs(draw):
    n, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    position = draw(st.sampled_from(["first", "middle", "last", "none"]))
    label_idx = {"first": 0, "middle": width // 2, "last": width - 1, "none": None}[position]
    spellings = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=3))
    rows = [[draw(st.sampled_from(LABELS)) if c == label_idx else
             draw(st.sampled_from(spellings)).format(draw(st.floats(-1e6, 1e6)))
             for c in range(width)] for _ in range(n)]
    for r, c, cell in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, width - 1),
                                              st.sampled_from(QUIRKS)), max_size=2)):
        rows[r][c] = cell
    if draw(st.integers(0, 9)) == 0:                           # a ragged row
        r = draw(st.integers(0, n - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else [*rows[r], "0"]
    header = draw(st.booleans())
    if header:
        # a header of numbers above a text label reads as a data row to numpy
        rows.insert(0, [draw(st.sampled_from([f"x{c}", f'"x,{c}"', f"{c}"]))
                        for c in range(width)])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):                   # blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", "  "])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    label_column = "none" if label_idx is None else str(label_idx)
    if header and label_idx is not None and draw(st.booleans()):
        label_column = next(csv.reader([rows[0][label_idx]]))[0]
    elif position == "last" and draw(st.booleans()):
        label_column = "last"
    return text, label_column


class TestReaders:
    """numpy's reader takes every regular table; the row parser is its reference."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(quirky_csvs())
    def test_load_csv_matches_the_row_parser(self, case):
        # equal bits, dtype and labels, or the same error with the same message
        text, label_column = case
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "quirky.csv")
            Path(path).write_bytes(text.encode("utf-8"))
            assert (outcome(load_csv, path, label_column)
                    == outcome(row_parser, path, label_column))

    @pytest.mark.parametrize("text, label_column", [
        ("x,y,label\n1,2,a\n3,4,b\n", "last"),
        ("1,2,a\n3,4,b\n", "last"),
        ("\ufeff\n\nx,label,y\r\n 1 ,\" a\",2\r\n\r\n3,\"a,b\",\"4\"\r\n", "label"),
        ('1,"b""c",2\r3,a,4\r', "1"),
        ("1,2\n3,4", "none"),
        ("nan,0\n1e400,1\n", "last"),
        # numpy would take this header for a data row, so it skips the blank line too
        ("\n0,kind\n1,2\n", "last"),
    ], ids=["header", "headerless", "quoted-crlf", "cr-only", "unlabelled", "non-finite",
            "numeric-header"])
    def test_regular_tables_skip_the_row_parser(self, tmp_path, monkeypatch, text, label_column):
        path = tmp_path / "regular.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(row_parser, str(path), label_column)
        monkeypatch.setattr(cli, "_parse_rows", None)
        assert outcome(load_csv, str(path), label_column) == expected


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", runs=0)
        for backend in ("spectral", "dbscan", "none"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                RunConfig(input="x", backend=backend)
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", k="three")
        with pytest.raises(ConfigurationError):
            RunConfig(input="x", k="0")
        # the report is JSON alone; there is no format setting to pick another
        with pytest.raises(TypeError):
            RunConfig(input="x", format="csv")

    def test_one_name_per_setting(self, blob_csv):
        # each field is one option's dest, in parser order, and the report's
        # config section is every field but output, so no field outlives its flag
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        dests = [action.dest for action in _build_parser()._actions
                 if action.option_strings and action.dest != "help"]
        assert fields == dests
        report = run_pipeline(RunConfig(input=blob_csv))
        assert list(report["config"]) == [name for name in fields if name != "output"]


class TestRunPipeline:
    def test_blobs_end_to_end(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv, backend="ac"))
        assert report["dataset"] == {"n": 80, "d": 2, "classes": 2}
        assert report["summary"]["ari_mean"] == 1.0
        assert report["generation"]["balls"] >= 2
        counts = report["generation"]["verdict_counts"]
        assert set(counts) == {"M1", "M2", "M3"}
        assert counts["M1"] == report["generation"]["balls"]

    @pytest.mark.parametrize("dataset", ["iris_path", "wine_path"])
    def test_feature_order_is_harmless(self, request, tmp_path, dataset):
        # ten seeded column permutations give the same balls, verdicts and scores, and
        # power-of-two scalings, which min-max normalization undoes exactly, the same report
        source = request.getfixturevalue(dataset)
        with open(source, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        d = len(header) - 1

        def write_rows(name, table):
            path = tmp_path / name
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(table)
            return str(path)

        def report(path, **backend):
            got = run_pipeline(RunConfig(input=path, k="auto", omit_timings=True, **backend))
            return {key: value for key, value in got.items() if key != "config"}

        expected = report(source, backend="ac")
        for seed in range(10):
            order = [*np.random.default_rng(seed).permutation(d).tolist(), d]
            path = write_rows(f"permuted-{seed}.csv", ([row[c] for c in order]
                                                       for row in [header, *rows]))
            got = report(path, backend="ac")
            assert (got["generation"], got["summary"]) \
                == (expected["generation"], expected["summary"]), order

        backends = [{"backend": "ac"}, {"backend": "kmeanspp", "runs": 5}]
        want = [report(source, **backend) for backend in backends]
        for power in (-3, 5, 40):
            path = write_rows(f"scaled-{power}.csv", [header, *(
                [*(repr(float(x) * 2.0 ** power) for x in row[:d]), row[d]] for row in rows)])
            assert [report(path, **backend) for backend in backends] == want, power

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

    def test_each_distinct_labelling_scored_once(self, iris_path, monkeypatch):
        calls = []

        def counted(score):
            def wrapper(*args):
                calls.append(score.__name__)
                return score(*args)
            return wrapper

        for name in ("ari", "acc", "nmi"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        report = run_pipeline(RunConfig(input=iris_path, backend="kmeanspp", runs=20,
                                        omit_timings=True))

        # the rows from scoring every run
        dataset = minmax_normalize(load_csv(iris_path))
        result = generate(dataset)
        centers = ball_centers(list(result.stable_balls))
        rows, labellings = [], set()
        for seed in range(20):
            ball_labels = kmeanspp(centers, 3, [seed])[0]
            labellings.add(ball_labels.tobytes())
            sample_labels = ball_labels[result.ownership]
            rows.append({"seed": seed, "ari": ari(dataset.labels, sample_labels),
                         "acc": acc(dataset.labels, sample_labels),
                         "nmi": nmi(dataset.labels, sample_labels), "seconds": None})
        assert report["runs"] == rows
        assert 1 < len(labellings) < 20        # some runs repeat an earlier labelling
        assert len(calls) == 3 * len(labellings)

    def test_seeded_runs_make_one_kmeanspp_call(self, iris_path, monkeypatch):
        calls = []
        kmeanspp = backends.kmeanspp

        def recorded(centers, K, seeds):
            calls.append(list(seeds))
            return kmeanspp(centers, K, seeds)

        monkeypatch.setattr(backends, "kmeanspp", recorded)
        report = run_pipeline(RunConfig(input=iris_path, backend="kmeanspp", runs=20))
        assert calls == [list(range(20))]
        seconds = {row["seconds"] for row in report["runs"]}
        assert len(seconds) == 1 and seconds.pop() > 0.0

    def test_each_seeded_labelling_passes_cluster_or_passthrough(self, iris_path,
                                                                   monkeypatch):
        calls = record_clusterings(monkeypatch)
        run_pipeline(RunConfig(input=iris_path, backend="kmeanspp", runs=20, seed=5))
        assert_one_clustering_per_seed(calls, iris_path, 3, range(5, 25))

    def test_deterministic_backend_zero_std(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv, backend="ac", runs=3))
        assert report["summary"]["ari_std"] == 0.0

    def test_seedless_backend_clusters_once(self, iris_path, monkeypatch):
        # Ward ignores the seed, so every run row reuses one clustering
        calls = []
        ward = backends.agglomerative_ward
        monkeypatch.setattr(backends, "agglomerative_ward",
                            lambda centers, K: calls.append(K) or ward(centers, K))
        one = run_pipeline(RunConfig(input=iris_path, backend="ac", omit_timings=True))
        calls.clear()
        three = run_pipeline(RunConfig(input=iris_path, backend="ac", runs=3, seed=5))
        assert calls == [3]
        scores = {key: one["runs"][0][key] for key in ("ari", "acc", "nmi")}
        assert [{key: row[key] for key in scores} for row in three["runs"]] == [scores] * 3
        assert [row["seed"] for row in three["runs"]] == [5, 6, 7]
        assert three["runs"][0]["seconds"] > 0.0
        assert [row["seconds"] for row in three["runs"][1:]] == [0.0, 0.0]
        # the summary of three copies of the one run's scores, as a run per seed gave it,
        # with no spread: numpy's std of three equal nmi scores reads 1.1e-16
        assert three["summary"] == {
            f"{key}_{stat}": float(np.mean([value] * 3)) if stat == "mean" else 0.0
            for key, value in scores.items() for stat in ("mean", "std")}
        assert float(np.std([scores["nmi"]] * 3)) > 0.0

    def test_json_schema_key_order(self, blob_csv):
        report = run_pipeline(RunConfig(input=blob_csv))
        data = json.loads(render(report))
        assert list(data) == ["config", "dataset", "generation", "runs", "summary"]
        assert list(data["config"]) == ["input", "label_col", "backend", "k", "runs",
                                        "seed", "omit_timings"]
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

    def test_passthrough_when_balls_fit_runs_no_backend(self, blob_csv, monkeypatch):
        # enough clusters that the stable balls pass through as-is, for either backend
        def refuse(*args, **kwargs):
            raise AssertionError("a backend ran")

        monkeypatch.setattr(backends, "agglomerative_ward", refuse)
        monkeypatch.setattr(backends, "kmeanspp", refuse)
        reports = []
        for backend in ("ac", "kmeanspp"):
            reports.append(run_pipeline(RunConfig(input=blob_csv, backend=backend, k="60",
                                                  omit_timings=True)))
            assert reports[-1]["summary"]["ari_mean"] is not None
            del reports[-1]["config"]["backend"]
        assert reports[0] == reports[1]


def record_clusterings(monkeypatch) -> list[np.ndarray]:
    """Wrap the CLI's ``cluster_or_passthrough``; returns each call's ball labels."""
    calls = []
    wrapped = cli.cluster_or_passthrough

    def recorded(stable_balls, K, ball_labels=None):
        clustering = wrapped(stable_balls, K, ball_labels=ball_labels)
        calls.append(clustering.ball_labels)
        return clustering

    monkeypatch.setattr(cli, "cluster_or_passthrough", recorded)
    return calls


def assert_one_clustering_per_seed(calls, path, K, seeds):
    # every seed's k-means++ labelling was wrapped in this process once, in seed order
    result = generate(minmax_normalize(load_csv(path)))
    centers = ball_centers(list(result.stable_balls))
    assert np.array_equal(np.stack(calls), kmeanspp(centers, K, seeds))


def force_pool(monkeypatch) -> list[int]:
    """Send every seeded run to the worker pool; returns each pool's worker count."""
    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(cli, "POOL_MIN_WORK", 1)   # the crossover, lowered to any work
    return started


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker pool needs fork and a second CPU")
class TestWorkerPool:
    @pytest.mark.parametrize("runs", [4, 7])
    def test_report_is_the_in_process_report(self, iris_path, wine_path, monkeypatch, runs):
        configs = [RunConfig(input=path, backend="kmeanspp", runs=runs, seed=3,
                             omit_timings=True) for path in (iris_path, wine_path)]
        in_process = [render(run_pipeline(config)) for config in configs]
        started = force_pool(monkeypatch)
        assert [render(run_pipeline(config)) for config in configs] == in_process
        assert started == [min(len(os.sched_getaffinity(0)), runs)] * 2
        assert multiprocessing.active_children() == []

        timed = run_pipeline(dataclasses.replace(configs[0], omit_timings=False))
        assert all(row["seconds"] > 0.0 for row in timed["runs"])
        assert multiprocessing.active_children() == []

    def test_each_pool_labelling_passes_cluster_or_passthrough(self, wine_path, monkeypatch):
        started = force_pool(monkeypatch)
        calls = record_clusterings(monkeypatch)
        run_pipeline(RunConfig(input=wine_path, backend="kmeanspp", runs=7, seed=2))
        assert started == [min(len(os.sched_getaffinity(0)), 7)]
        assert_one_clustering_per_seed(calls, wine_path, 3, range(2, 9))

    def test_worker_error_exits_2_and_leaves_no_child(self, iris_path, monkeypatch, capsys):
        started = force_pool(monkeypatch)
        kmeanspp = backends.kmeanspp

        def fail_on_seed_3(centers, K, seeds):
            if 3 in seeds:
                raise ConfigurationError(f"no clustering in process {os.getpid()}")
            return kmeanspp(centers, K, seeds)

        monkeypatch.setattr(backends, "kmeanspp", fail_on_seed_3)
        assert main(["--input", iris_path, "--backend", "kmeanspp", "--runs", "4"]) == 2
        assert started
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: no clustering in process ")
        assert int(lines[0].rsplit(" ", 1)[1]) != os.getpid()   # raised in a worker
        assert multiprocessing.active_children() == []


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

    def test_unlabeled_output_summary_line(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = [f"{rng.random():.4f},{rng.random():.4f}" for _ in range(60)]
        path = write(tmp_path / "u.csv", "\n".join(rows) + "\n")
        out = str(tmp_path / "report.json")
        assert main(["--input", path, "--label-col", "none", "--k", "3", "--output", out]) == 0
        balls = json.loads(Path(out).read_text())["generation"]["balls"]
        assert capsys.readouterr().out == f"{path}: balls={balls} (no labels) -> {out}\n"

    def test_format_flag_rejected(self, blob_csv):
        for value in ("csv", "json"):
            proc = self.cli("--input", blob_csv, "--format", value)
            assert proc.returncode == 2
            assert "unrecognized arguments: --format" in proc.stderr

    def test_bad_backend_exits_with_error(self, blob_csv):
        for backend in ("dbscan", "none"):
            proc = self.cli("--input", blob_csv, "--backend", backend)
            assert proc.returncode == 2
            assert f"invalid choice: '{backend}'" in proc.stderr

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
        flags = [flag.split() for flag in re.findall(r"`([^`]+)`", paragraph)]
        actions = _build_parser()._actions
        options = [s for action in actions for s in action.option_strings
                   if s not in ("-h", "--help")]
        assert [flag[0] for flag in flags] == options
        # where the parser has choices, the documented a|b list is exactly those
        values = {flag[0]: flag[-1] for flag in flags}
        for action in actions:
            if action.choices is not None:
                assert values[action.option_strings[0]].split("|") == list(action.choices)
