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
from dataclasses import dataclass, field

import numpy as np

from .backends import BACKENDS, cluster_or_passthrough, labels_to_samples
from .core import Dataset
from .errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from .generation import GenerationConfig, generate
from .metrics import acc, ari, nmi
from .preprocess import background_log_volume, minmax_normalize


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark invocation needs, resolved from CLI flags."""

    input_path: str
    label_column: str = "last"
    backend: str = "ac"
    k: str = "auto"                 # "auto" resolves to the distinct label count
    runs: int = 1
    seed: int = 0
    normalize: bool = True
    n_min: int | None = None
    k0: int | None = None
    output_path: str | None = None
    format: str = "json"
    omit_timings: bool = False

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigurationError("runs must be at least 1")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.format not in ("json", "csv"):
            raise ConfigurationError("format must be json or csv")
        GenerationConfig(n_min=self.n_min, k0=self.k0)   # rejects overrides below 1
        if self.k != "auto":
            try:
                k = int(self.k)
            except ValueError:
                raise ConfigurationError("--k must be an integer or 'auto'") from None
            if k < 1:
                raise ConfigurationError("K must be at least 1")


@dataclass
class EvaluationReport:
    """Per-run metrics plus the summary statistics and decision-trace counts."""

    config: dict
    dataset_info: dict
    generation_info: dict
    run_rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "dataset": self.dataset_info,
            "generation": self.generation_info,
            "runs": self.run_rows,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        row = {
            "input": self.config["input"],
            "n": self.dataset_info["n"],
            "d": self.dataset_info["d"],
            "classes": self.dataset_info["classes"],
            "backend": self.config["backend"],
            "k": self.config["k"],
            "runs": self.config["runs"],
            "balls": self.generation_info["balls"],
            "residual_background": self.generation_info["residual_background"],
            **self.summary,
        }
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
        return buf.getvalue()


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
    first appearance. Parse failures name the offending 1-based row and
    column. Rows are parsed one at a time straight into a float64 buffer, so
    memory stays O(n·d).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_rows((row for row in csv.reader(fh) if row), path, label_column)
    except (OSError, UnicodeDecodeError) as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from None


def _parse_rows(rows: Iterator[list[str]], path: str, label_column: str) -> Dataset:
    first = next(rows, None)
    if first is None:
        raise CsvParseError(f"{path} contains no data rows")
    second = next(rows, None)
    if _is_header(first, second):
        header, offset, head = [cell.strip() for cell in first], 2, [second]
    else:
        header, offset, head = None, 1, [first] if second is None else [first, second]

    width = len(head[0])
    label_idx = _resolve_label_column(label_column, header, width)
    d = width - (label_idx is not None)
    if d == 0:
        raise CsvParseError(f"row {offset}: no feature columns remain")

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
            cell = row[c].strip()
            if label_idx is not None and c >= label_idx:
                c += 1                                   # count the popped label column
            raise CsvParseError(f"row {r}, column {c + 1}: "
                                f"non-numeric feature value {cell!r}") from None

    values = np.frombuffer(features, dtype=np.float64).reshape(-1, d)
    return Dataset(values=values,
                   labels=None if label_idx is None else np.frombuffer(labels, dtype=np.int64))


def _mean_std(xs: list[float]) -> tuple[float, float]:
    arr = np.asarray(xs, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def run_pipeline(config: RunConfig) -> EvaluationReport:
    """Execute the full benchmark for one dataset and assemble the report.

    Generation is deterministic, so it runs once and is shared by all seeded
    backend runs (run i uses seed + i).
    """
    dataset = load_csv(config.input_path, config.label_column)
    if dataset.labels is not None and dataset.n < 2:
        raise DataQualityError(
            "scoring against labels needs at least two samples; pass --label-col none")

    if config.normalize:
        dataset = minmax_normalize(dataset)
        bg_volume = 0.0
    else:
        bg_volume = background_log_volume(dataset.values)

    if config.k == "auto":
        if dataset.labels is None:
            raise ConfigurationError(
                "--k auto needs ground-truth labels; pass an explicit K")
        k = int(np.unique(dataset.labels).size)
    else:
        k = int(config.k)

    t0 = time.perf_counter()
    result = generate(dataset, GenerationConfig(n_min=config.n_min, k0=config.k0),
                      background_log_volume=bg_volume)
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
        sample_labels = labels_to_samples(result.ownership, clustering.ball_labels)
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
        vals = [row[name] for row in run_rows]
        if any(v is None for v in vals):
            summary[f"{name}_mean"] = None
            summary[f"{name}_std"] = None
        else:
            mean, std = _mean_std(vals)
            summary[f"{name}_mean"] = mean
            summary[f"{name}_std"] = std

    return EvaluationReport(
        config={
            "input": config.input_path,
            "label_col": config.label_column,
            "backend": config.backend,
            "k": config.k,
            "runs": config.runs,
            "seed": config.seed,
            "normalize": config.normalize,
            "n_min": config.n_min,
            "k0": config.k0,
            "format": config.format,
            "omit_timings": config.omit_timings,
        },
        dataset_info={
            "n": dataset.n,
            "d": dataset.d,
            "classes": int(np.unique(dataset.labels).size)
            if dataset.labels is not None else None,
        },
        generation_info={
            "balls": len(result.stable_balls),
            "residual_background": int(result.residual_background.size),
            "verdict_counts": verdicts,
            "seconds": None if config.omit_timings else gen_seconds,
        },
        run_rows=run_rows,
        summary=summary,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmdl",
        description="Granular-ball clustering benchmark: generate balls by local "
                    "description-length competition, cluster their centers, and "
                    "score against ground truth.")
    parser.add_argument("--input", required=True, help="CSV dataset path")
    parser.add_argument("--label-col", default="last",
                        help="label column: name, 0-based index, 'last', or 'none'")
    parser.add_argument("--backend", default="ac", choices=list(BACKENDS),
                        help="clustering backend for the ball centers")
    parser.add_argument("--k", default="auto",
                        help="target cluster count, or 'auto' for the label count")
    parser.add_argument("--runs", type=int, default=1,
                        help="number of seeded backend repetitions")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--no-normalize", action="store_true",
                        help="skip min-max normalization (background volume then "
                             "uses the raw bounding box)")
    parser.add_argument("--n-min", type=int, default=None,
                        help="override the adaptive minimum ball size")
    parser.add_argument("--k0", type=int, default=None,
                        help="override the initial ball count")
    parser.add_argument("--output", default=None, help="write the report here")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--omit-timings", action="store_true",
                        help="write null timings for byte-reproducible reports")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            input_path=args.input,
            label_column=args.label_col,
            backend=args.backend,
            k=args.k,
            runs=args.runs,
            seed=args.seed,
            normalize=not args.no_normalize,
            n_min=args.n_min,
            k0=args.k0,
            output_path=args.output,
            format=args.format,
            omit_timings=args.omit_timings,
        )
        report = run_pipeline(config)
    except GbmdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.to_json() if config.format == "json" else report.to_csv()
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        s = report.summary
        if s.get("ari_mean") is not None:
            print(f"{config.input_path}: balls={report.generation_info['balls']} "
                  f"ari={s['ari_mean']:.4f} acc={s['acc_mean']:.4f} "
                  f"nmi={s['nmi_mean']:.4f} -> {config.output_path}")
        else:
            print(f"{config.input_path}: balls={report.generation_info['balls']} "
                  f"(no labels) -> {config.output_path}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
