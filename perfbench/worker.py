"""Child process of the benchmark: runs one workload's CLI invocations in a closed loop.

Usage: python3 perfbench/worker.py PLAN_JSON

PLAN_JSON names the source tree to import gbmdl from, the inputs, the CLI
arguments, the measuring time and whether to trace. The worker imports the
package, warms it up, then repeats rounds (every invocation once) until the
time is spent and the minimum round count is met. It prints one JSON object
as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

SCORE_RANGES = {"ari": (-1.0, 1.0), "acc": (0.0, 1.0), "nmi": (0.0, 1.0)}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc outside Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def invoke(cli, path: str, argv: list[str]) -> tuple[float, object, str]:
    """One closed-loop CLI call; returns (seconds, exit code or error text, report text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--input", path, *argv, "--omit-timings"])
    except Exception:  # the loop must go on and count the failure
        code = traceback.format_exc(limit=3)
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code
    return time.perf_counter() - start, code, out.getvalue()


def check_report(text: str, expect: dict) -> list[str]:
    """Problems with one JSON report; an empty list means the operation passed."""
    try:
        report = json.loads(text)
        ds, gen, runs = report["dataset"], report["generation"], report["runs"]
        verdicts = gen["verdict_counts"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if (ds["n"], ds["d"]) != (expect["n"], expect["d"]):
        problems.append(f"dataset shape {ds['n']}x{ds['d']}, expected {expect['n']}x{expect['d']}")
    # every initial ball is dequeued once, each split enqueues two and each peel one
    dequeued = math.isqrt(ds["n"]) + 2 * verdicts["M2"] + verdicts["M3"]
    if sum(verdicts.values()) != dequeued or verdicts["M1"] != gen["balls"]:
        problems.append(f"verdict_counts {verdicts} do not match {dequeued} dequeued balls "
                        f"and {gen['balls']} stable balls")
    for row in [*runs, {k[:-5]: v for k, v in report["summary"].items() if k.endswith("_mean")}]:
        for name, (lo, hi) in SCORE_RANGES.items():
            value = row.get(name)
            if not isinstance(value, (int, float)) or not lo <= value <= hi:
                problems.append(f"{name}={value!r} outside [{lo}, {hi}]")
    return problems


def check_generation(dataset, result) -> list[str]:
    own = result.ownership
    balls = len(result.stable_balls)
    if own.shape != (dataset.n,) or own.min() < 0 or own.max() >= balls:
        return [f"ownership does not map all {dataset.n} samples into [0, {balls})"]
    return []


def check_clustering(args: dict, clustering) -> list[str]:
    labels, k = clustering.ball_labels, args["K"]
    if labels.shape != (len(args["stable_balls"]),) or labels.min() < 0 or labels.max() >= k:
        return [f"ball labels outside [0, {k})"]
    return []


class Loop:
    """Closed-loop rounds over the plan's operations, with the correctness gate."""

    def __init__(self, cli, plan: dict) -> None:
        self.cli = cli
        self.ops = [(inp, argv) for inp in plan["inputs"] for argv in plan["argv"]]
        self.first_text: list[str | None] = [None] * len(self.ops)
        self.first_hash: list[str | None] = [None] * len(self.ops)
        self.attempted = 0
        self.failures: list[str] = []
        self.scores: dict[str, list[float]] = {"ari": [], "acc": [], "nmi": []}

    def _gate(self, i: int, code, text: str, extra: list[str]) -> None:
        self.attempted += 1
        inp, argv = self.ops[i]
        problems = [f"exit {code!r}"] if code != 0 else check_report(text, inp) + extra
        if not problems:
            if self.first_text[i] is None:
                self.first_text[i] = text
                summary = json.loads(text)["summary"]
                for name in self.scores:
                    self.scores[name].append(summary[f"{name}_mean"])
            elif text != self.first_text[i]:
                problems.append("report differs from the first round's")
        if problems:
            self.failures.append(f"{inp['path']} {' '.join(argv)}: {'; '.join(problems)}")

    def rounds(self, seconds: float, min_rounds: int,
               tracer: tracing.Tracer | None = None) -> tuple[list[float], list[dict]]:
        walls, layer_rows = [], []
        start = time.perf_counter()
        while len(walls) < min_rounds or time.perf_counter() - start < seconds:
            wall = 0.0
            if tracer is not None:
                tracer.reset()
            for i, (inp, argv) in enumerate(self.ops):
                if tracer is None:
                    secs, code, text = invoke(self.cli, inp["path"], argv)
                    extra = []
                else:
                    tracer.captured.clear()
                    with tracer.installed():
                        secs, code, text = invoke(self.cli, inp["path"], argv)
                    extra = self._traced_checks(i, tracer)
                wall += secs
                self._gate(i, code, text, extra)
            walls.append(wall)
            if tracer is not None:
                layer_rows.append(tracer.round_metrics(wall))
        return walls, layer_rows

    def _traced_checks(self, i: int, tracer) -> list[str]:
        problems = []
        generated = tracer.captured["generation.generate"]
        if len(generated) != 1:
            return [f"generate ran {len(generated)} times"]
        args, result = generated[0]
        problems += check_generation(args["dataset"], result)
        for cargs, clustering in tracer.captured["backends.cluster_or_passthrough"]:
            problems += check_clustering(cargs, clustering)
        digest = tracing.fingerprint(result)
        if self.first_hash[i] is None:
            self.first_hash[i] = digest
        elif digest != self.first_hash[i]:
            problems.append("decision-trace fingerprint differs between invocations")
        return problems


def main(plan: dict) -> dict:
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import gbmdl
    from gbmdl import cli

    if Path(gbmdl.__file__).resolve().parent != src / "gbmdl":
        raise SystemExit(f"imported gbmdl from {gbmdl.__file__}, not from {src}")

    # first calls load scipy.optimize and fill numpy's caches; users pay that once per process
    for inp, argv in plan["warmup"]:
        invoke(cli, inp, argv)

    loop = Loop(cli, plan)
    seconds = plan["seconds"]
    out = {"blas_threads": blas_threads()}
    if not plan["trace"]:
        walls, _ = loop.rounds(seconds, plan["min_rounds"])
    else:
        walls, _ = loop.rounds(seconds / 2, 1)
        tracer = tracing.Tracer()
        traced_walls, rows = loop.rounds(seconds / 2, 2, tracer)
        tracer.write_spans(Path(plan["spans_path"]))
        out["layers"] = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        out["layers"]["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        out["trace_sha256"] = tracing.combine(loop.first_hash)
    out.update(
        walls=walls,
        attempted=loop.attempted,
        failures=loop.failures,
        scores={k: statistics.fmean(v) if v else None for k, v in loop.scores.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
