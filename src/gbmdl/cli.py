"""Dataset ingestion, pipeline orchestration with seeded repetition, and reporting.

The command line runs: load CSV -> normalize -> generate balls -> cluster the
ball centers (once per seeded run) -> propagate labels -> score against the
ground truth, and writes a machine-readable JSON report. Only this module maps a
backend name to its route, ``cluster_or_passthrough`` (Ward) or ``kmeanspp``.
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
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import backends
from .backends import ball_centers, cluster_or_passthrough
from .core import Dataset, GranularBall, minmax_normalize
from .errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from .generation import generate
from .metrics import acc, ari, nmi

BACKENDS = ("ac", "kmeanspp")   # --backend: Ward, or seeded k-means++

# Seeded runs count balls * K * (d + 14) * runs work: in a fit to in-process k-means++
# times, a Lloyd step's passes besides its d distance passes cost about 14 more. From
# this much work on, two forked workers beat one process; each further worker needs
# half this much more. With one lockstep call per block (random 4-d centers, K = 8,
# 20 runs, 2 CPUs), two workers lost at 5.8e5 and won from 8.6e5 on.
POOL_MIN_WORK = 1_000_000


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
    output: str | None = None
    omit_timings: bool = False

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigurationError("runs must be at least 1")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
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
    row and column.

    A regular table, with or without a header, is read in one pass by numpy's
    C parser into a structured array: one float64 field per feature and one
    object field for the label, so memory is that array plus one str per
    label, O(n·d). A table that reader rejects (ragged rows, non-numeric or
    empty cells, whitespace-only lines, number spellings only Python's float
    accepts, such as ``1_000``) is parsed again from the start by the csv row
    parser, which fills one float64 buffer row by row. So every parse error,
    with its row and column, comes from the row parser; both readers share
    its header detection, label lookup and finiteness check. A cell over the
    csv module's field limit fails with CsvParseError on the first two rows or
    in a table numpy's reader rejects, and loads elsewhere in a regular table.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                return _read_table(fh, path, label_column)
            except ValueError:
                fh.seek(0)
                return _parse_rows(fh, path, label_column)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from None


def _data_rows(reader: Iterator[list[str]]) -> Iterator[list[str]]:
    # blank and whitespace-only lines are neither rows nor counted
    return (row for row in reader if len(row) > 1 or "".join(row).strip())


def _layout(first: list[str] | None, second: list[str] | None, path: str,
            label_column: str) -> tuple[list[list[str]], int, int | None]:
    """The data rows among the first two rows, the 1-based row number of the
    first of them (2 after a header), and the label column index."""
    if first is None:
        raise CsvParseError(f"{path} contains no data rows")
    if second is None and not any(map(_is_number, first)):
        raise CsvParseError(f"{path} has a header row but no data rows")
    if _is_header(first, second):
        header, offset, head = [cell.strip() for cell in first], 2, [second]
    else:
        header, offset, head = None, 1, [first] if second is None else [first, second]
    width = len(head[0])
    label_idx = _resolve_label_column(label_column, header, width)
    if width - (label_idx is not None) == 0:
        raise CsvParseError(f"row {offset}: no feature columns remain")
    return head, offset, label_idx


def _file_column(c: int, label_idx: int | None) -> int:
    # the 1-based file column of feature c, counting the label column
    return c + 1 + (label_idx is not None and c >= label_idx)


def _read_table(fh: io.TextIOBase, path: str, label_column: str) -> Dataset:
    """numpy's reader over the whole file; it raises ValueError on an irregular table."""
    reader = csv.reader(fh)
    rows = _data_rows(reader)
    first = next(rows, None)
    header_lines = reader.line_num    # physical lines up to the end of the first row
    head, offset, label_idx = _layout(first, next(rows, None), path, label_column)
    fields = [(str(c), object if c == label_idx else np.float64) for c in range(len(head[0]))]
    fh.seek(0)
    table = np.loadtxt(fh, np.dtype(fields), delimiter=",", quotechar='"', comments=None,
                       skiprows=header_lines if offset == 2 else 0, ndmin=1)
    values = np.stack([table[name] for name, kind in fields if kind is np.float64], axis=1)
    labels = None
    if label_idx is not None:
        label_ids: dict[str, int] = {}
        labels = np.fromiter((label_ids.setdefault(label.strip(), len(label_ids))
                              for label in table[str(label_idx)]), np.int64, len(table))
    return _dataset(values, labels, offset, label_idx)


def _parse_rows(fh: io.TextIOBase, path: str, label_column: str) -> Dataset:
    """The csv row parser: the reference reader, and the one that names every fault."""
    rows = _data_rows(csv.reader(fh))
    head, offset, label_idx = _layout(next(rows, None), next(rows, None), path, label_column)
    width = len(head[0])
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
            raise CsvParseError(f"row {r}, column {_file_column(c, label_idx)}: "
                                f"non-numeric feature value {row[c].strip()!r}") from None

    values = np.frombuffer(features, dtype=np.float64).reshape(-1, width - (label_idx is not None))
    return _dataset(values, None if label_idx is None else np.frombuffer(labels, dtype=np.int64),
                    offset, label_idx)


def _dataset(values: np.ndarray, labels: np.ndarray | None, offset: int,
             label_idx: int | None) -> Dataset:
    finite = np.isfinite(values)
    if not finite.all():
        i, c = np.argwhere(~finite)[0]
        raise DataQualityError(f"row {i + offset}, column {_file_column(c, label_idx)}: "
                               f"non-finite feature value {values[i, c]}")
    return Dataset(values=values, labels=labels)


def _cluster_block(centers: np.ndarray, k: int, seeds: range) -> list[tuple[np.ndarray, float]]:
    """One k-means++ call for a block of seeds: each seed's (ball labels, seconds),
    where every seed's seconds is an equal share of the call's."""
    t = time.perf_counter()
    # looked up at call time, so a wrapper installed on the module sees the call
    labels = backends.kmeanspp(centers, k, seeds)
    seconds = (time.perf_counter() - t) / len(seeds)
    return [(row, seconds) for row in labels]


def _seeded_runs(balls: list[GranularBall], k: int, backend: str,
                 seeds: range) -> list[tuple[np.ndarray, float]]:
    """Every seed's (ball labels, seconds), in seed order.

    Ward and the passthrough ignore the seed: ``cluster_or_passthrough`` runs once,
    and the later seeds reuse its labels at 0 seconds. k-means++ on more balls than
    K takes the seeds in one ``kmeanspp`` call per block of seeds, each seed timed as
    an equal share of its call. Where fork and a second CPU exist and the work
    reaches ``POOL_MIN_WORK``, worker processes, at most one per CPU and per seed,
    take one contiguous block of ⌈runs / workers⌉ seeds each; otherwise all the
    seeds are one block in this process. A worker gets the centers and its seeds,
    and only the labels and timings come back, so the labels are those of an
    in-process run. Back in this process, each seed's labelling is checked and
    wrapped by ``cluster_or_passthrough(..., ball_labels=labels)``.
    """
    if backend != "kmeanspp" or len(balls) <= k:
        t = time.perf_counter()
        labels = cluster_or_passthrough(balls, k).ball_labels
        return [(labels, time.perf_counter() - t)] + [(labels, 0.0)] * (len(seeds) - 1)
    centers = ball_centers(balls)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        work = len(balls) * k * (centers.shape[1] + 14) * len(seeds)
        workers = min(len(os.sched_getaffinity(0)), len(seeds), 2 * work // POOL_MIN_WORK)
    if workers < 2:
        runs = _cluster_block(centers, k, seeds)
    else:
        # imported here: the pool costs import time that in-process runs never pay.
        # Fork, not spawn: a spawned worker would import numpy and gbmdl afresh
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        size = -(-len(seeds) // workers)
        blocks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            runs = [run for block in pool.map(partial(_cluster_block, centers, k), blocks)
                    for run in block]
    return [(cluster_or_passthrough(balls, k, ball_labels=labels).ball_labels, seconds)
            for labels, seconds in runs]


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full benchmark for one dataset and return the report.

    The report is the dict the CLI prints, with the keys config, dataset,
    generation, runs and summary in that order. Generation is deterministic,
    so it runs once and is shared by all seeded backend runs (run i uses
    seed + i). k-means++ clusters a block of seeds per call, all seeds in one
    call or, with enough work, one contiguous block per forked worker process
    (``_seeded_runs``); the report is the same either way. A run's seconds is an
    equal share of its call's time.
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

    seeds = range(config.seed, config.seed + config.runs)
    runs = _seeded_runs(list(result.stable_balls), k, config.backend, seeds)
    run_rows = []
    scores_of: dict[bytes, list[float]] = {}   # ari, acc, nmi of each distinct labelling
    for run_seed, (ball_labels, run_seconds) in zip(seeds, runs):
        row = {"seed": run_seed, "ari": None, "acc": None, "nmi": None,
               "seconds": None if config.omit_timings else run_seconds}
        if dataset.labels is not None:
            key = ball_labels.tobytes()
            if key not in scores_of:
                sample_labels = ball_labels[result.ownership]
                scores_of[key] = [s(dataset.labels, sample_labels) for s in (ari, acc, nmi)]
            row["ari"], row["acc"], row["nmi"] = scores_of[key]
        run_rows.append(row)

    summary = {}
    for name in ("ari", "acc", "nmi"):
        scores = None if dataset.labels is None else np.array([row[name] for row in run_rows])
        summary[f"{name}_mean"] = None if scores is None else float(scores.mean())
        # exactly 0 when every run scored alike, which numpy's std can miss by the mean's rounding
        summary[f"{name}_std"] = None if scores is None else float(np.ptp(scores) and scores.std())

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
    """The report as the indented JSON text the CLI writes."""
    return json.dumps(report, indent=2) + "\n"


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
