"""Dataset ingestion, pipeline orchestration with seeded repetition, and reporting.

The command line runs: load CSV -> normalize -> generate balls -> cluster the
ball centers (once per seeded run) -> propagate labels -> score against the
ground truth, and writes a machine-readable JSON (or CSV summary) report.
Ground-truth labels are consumed by the metrics only; no clustering stage
sees them.
"""

from __future__ import annotations

import argparse
import array
import csv
import io
import itertools
import json
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .backends import BACKENDS, cluster_or_passthrough
from .core import Dataset, minmax_normalize
from .errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from .generation import generate
from .metrics import acc, ari, nmi


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark invocation needs; each field is a CLI flag's dest.

    The report's ``config`` section is every field but ``output``, in this order.
    """

    input: str
    label_col: str = "last"
    backend: str = "ac"
    k: str = "auto"                 # "auto" resolves to the distinct label count
    runs: int = 1
    seed: int = 0
    format: str = "json"
    omit_timings: bool = False
    output: str | None = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigurationError("runs must be at least 1")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.format not in ("json", "csv"):
            raise ConfigurationError("format must be json or csv")
        if self.k != "auto":
            try:
                k = int(self.k)
            except ValueError:
                raise ConfigurationError("--k must be an integer or 'auto'") from None
            if k < 1:
                raise ConfigurationError("K must be at least 1")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _is_header(first: list[str], second: list[str] | None) -> bool:
    # a header exists where a column is non-numeric on row 1 but numeric below
    return second is not None and any(
        not _is_number(a) and _is_number(b) for a, b in zip(first, second))


def _resolve_label_column(label_column: str, header: list[str] | None,
                          width: int) -> int | None:
    if label_column == "none":
        return None
    if label_column == "last":
        return width - 1
    try:
        idx = int(label_column)
    except ValueError:
        if header is None:
            raise CsvParseError(
                f"label column {label_column!r} needs a header row") from None
        if label_column not in header:
            raise CsvParseError(
                f"label column {label_column!r} not found in header {header}") from None
        idx = header.index(label_column)
    if not -width <= idx < width:
        raise CsvParseError(f"label column index {idx} out of range for {width} columns")
    return idx % width


def load_csv(path: str, label_column: str = "last") -> Dataset:
    """Parse a CSV file into a Dataset.

    The header is auto-detected (a first row that is non-numeric above numeric
    data). The label column may be a header name, a 0-based index, "last", or
    "none" for unlabeled data; label values become integer ids in order of
    first appearance. Blank and whitespace-only lines are skipped and not
    counted; parse failures and non-finite values name the offending 1-based
    row and column. Rows are parsed one at a time into a float64 buffer, so
    memory stays O(n·d).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = (row for row in csv.reader(fh) if len(row) > 1 or "".join(row).strip())
            return _parse_rows(rows, path, label_column)
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from None


def _parse_rows(rows: Iterator[list[str]], path: str, label_column: str) -> Dataset:
    first = next(rows, None)
    if first is None:
        raise CsvParseError(f"{path} contains no data rows")
    second = next(rows, None)
    if second is None and not any(map(_is_number, first)):
        raise CsvParseError(f"{path} has a header row but no data rows")
    if _is_header(first, second):
        header, offset, head = [cell.strip() for cell in first], 2, [second]
    else:
        header, offset, head = None, 1, [first] if second is None else [first, second]

    width = len(head[0])
    label_idx = _resolve_label_column(label_column, header, width)
    d = width - (label_idx is not None)
    if d == 0:
        raise CsvParseError(f"row {offset}: no feature columns remain")

    def column(c: int) -> int:   # 1-based file column of feature c, counting the label column
        return c + 1 + (label_idx is not None and c >= label_idx)

    features = array.array("d")
    labels = array.array("q")
    label_ids: dict[str, int] = {}
    for r, row in enumerate(itertools.chain(head, rows), start=offset):
        if len(row) != width:
            raise CsvParseError(f"row {r}: expected {width} columns, found {len(row)}")
        if label_idx is not None:
            labels.append(label_ids.setdefault(row.pop(label_idx).strip(), len(label_ids)))
        try:
            features.extend(map(float, row))
        except ValueError:
            c = next(c for c, cell in enumerate(row) if not _is_number(cell))
            raise CsvParseError(f"row {r}, column {column(c)}: "
                                f"non-numeric feature value {row[c].strip()!r}") from None

    values = np.frombuffer(features, dtype=np.float64).reshape(-1, d)
    finite = np.isfinite(values)
    if not finite.all():
        i, c = np.argwhere(~finite)[0]
        raise DataQualityError(f"row {i + offset}, column {column(c)}: "
                               f"non-finite feature value {values[i, c]}")
    return Dataset(values=values,
                   labels=None if label_idx is None else np.frombuffer(labels, dtype=np.int64))


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full benchmark for one dataset and return the report.

    The report is the dict the CLI prints, with the keys config, dataset,
    generation, runs and summary in that order. Generation is deterministic,
    so it runs once and is shared by all seeded backend runs (run i uses
    seed + i).
    """
    dataset = load_csv(config.input, config.label_col)
    if dataset.labels is not None and dataset.n < 2:
        raise DataQualityError(
            "scoring against labels needs at least two samples; pass --label-col none")

    dataset = minmax_normalize(dataset)
    classes = None if dataset.labels is None else int(np.unique(dataset.labels).size)
    if config.k == "auto" and classes is None:
        raise ConfigurationError("--k auto needs ground-truth labels; pass an explicit K")
    k = classes if config.k == "auto" else int(config.k)

    t0 = time.perf_counter()
    result = generate(dataset)
    gen_seconds = time.perf_counter() - t0

    verdicts = {"M1": 0, "M2": 0, "M3": 0}
    for _, verdict in result.trace:
        verdicts[verdict.choice.value] += 1

    run_rows = []
    for i in range(config.runs):
        run_seed = config.seed + i
        t1 = time.perf_counter()
        clustering = cluster_or_passthrough(
            list(result.stable_balls), k, config.backend, seed=run_seed)
        sample_labels = clustering.ball_labels[result.ownership]
        run_seconds = time.perf_counter() - t1
        row = {"seed": run_seed, "ari": None, "acc": None, "nmi": None,
               "seconds": None if config.omit_timings else run_seconds}
        if dataset.labels is not None:
            row["ari"] = ari(dataset.labels, sample_labels)
            row["acc"] = acc(dataset.labels, sample_labels)
            row["nmi"] = nmi(dataset.labels, sample_labels)
        run_rows.append(row)

    summary = {}
    for name in ("ari", "acc", "nmi"):
        scores = None if dataset.labels is None else np.array([row[name] for row in run_rows])
        summary[f"{name}_mean"] = None if scores is None else float(scores.mean())
        summary[f"{name}_std"] = None if scores is None else float(scores.std())

    settings = asdict(config)
    del settings["output"]
    return {
        "config": settings,
        "dataset": {
            "n": dataset.n,
            "d": dataset.d,
            "classes": classes,
        },
        "generation": {
            "balls": len(result.stable_balls),
            "residual_background": int(result.residual_background.size),
            "verdict_counts": verdicts,
            "seconds": None if config.omit_timings else gen_seconds,
        },
        "runs": run_rows,
        "summary": summary,
    }


def render(report: dict) -> str:
    """The report as indented JSON, or as a one-row summary CSV for format csv."""
    if report["config"]["format"] == "json":
        return json.dumps(report, indent=2) + "\n"
    config, dataset, generation = report["config"], report["dataset"], report["generation"]
    row = {
        "input": config["input"],
        "n": dataset["n"],
        "d": dataset["d"],
        "classes": dataset["classes"],
        "backend": config["backend"],
        "k": config["k"],
        "runs": config["runs"],
        "balls": generation["balls"],
        "residual_background": generation["residual_background"],
        **report["summary"],
    }
    buf = io.StringIO()
    csv.writer(buf).writerows([row.keys(), row.values()])
    return buf.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    # an absent flag stays out of the namespace, so RunConfig's default applies
    parser = argparse.ArgumentParser(
        prog="gbmdl", argument_default=argparse.SUPPRESS,
        description="Granular-ball clustering benchmark: generate balls by local "
                    "description-length competition, cluster their centers, and "
                    "score against ground truth.")
    parser.add_argument("--input", required=True, help="CSV dataset path")
    parser.add_argument("--label-col",
                        help="label column: name, 0-based index, 'last', or 'none'")
    parser.add_argument("--backend", choices=list(BACKENDS),
                        help="clustering backend for the ball centers")
    parser.add_argument("--k", help="target cluster count, or 'auto' for the label count")
    parser.add_argument("--runs", type=int, help="number of seeded backend repetitions")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--output", help="write the report here")
    parser.add_argument("--format", choices=["json", "csv"])
    parser.add_argument("--omit-timings", action="store_true",
                        help="write null timings for byte-reproducible reports")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
        report = run_pipeline(config)
    except GbmdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = render(report)
    if not config.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    s = report["summary"]
    scores = ("(no labels)" if s["ari_mean"] is None else
              f"ari={s['ari_mean']:.4f} acc={s['acc_mean']:.4f} nmi={s['nmi_mean']:.4f}")
    print(f"{config.input}: balls={report['generation']['balls']} {scores} "
          f"-> {config.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
