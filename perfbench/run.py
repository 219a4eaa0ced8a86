"""gbmdl benchmark: seeded workloads, end-to-end metrics, and a traced per-layer run.

Run from the root of a source checkout (the directory holding ``src/gbmdl``):

    python3 perfbench/run.py --workload blobs-100k --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The synthetic CSVs are written (and cached under
``.perfbench_cache/``) before anything is timed. Each workload runs in its own
child process (``worker.py``) that calls ``gbmdl.cli.main`` in a closed loop.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import datasets  # noqa: E402

SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CACHE = ".perfbench_cache"
TIME_LIMIT_S = 170.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gbmdl; "
                "print(time.perf_counter() - t, gbmdl.__file__)")
MIN_COVERAGE = 0.9
TOY = {"n": 1500, "datasets": 1, "import_launches": 1}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def csv_shape(path: Path) -> tuple[int, int]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return len(rows) - 1, len(rows[0]) - 1       # header row, label column


def build_inputs(root: Path, name: str, seed: int, toy: bool) -> list[dict]:
    """The workload's CSV files with their expected shape; synthetic ones are written here."""
    workload = SPEC["workloads"][name]
    if "files" in workload:
        inputs = []
        for name in workload["files"]:
            path = root / name
            if not path.is_file():
                raise BenchError(f"missing input {name}")
            n, d = csv_shape(path)
            inputs.append({"path": str(path), "n": n, "d": d})
        return inputs
    params = dict(workload["generator"])
    count = workload["datasets"]
    if toy:
        params["n"], count = TOY["n"], TOY["datasets"]
    cache = root / CACHE / name
    paths = [datasets.cached_blobs_csv(cache, [seed, i], params) for i in range(count)]
    for stale in set(cache.glob("*.csv")) - set(paths):   # keep one seed's files on disk
        stale.unlink()
    return [{"path": str(path), "n": params["n"], "d": params["d"]} for path in paths]


def import_seconds(root: Path, launches: int, deadline: float) -> list[float]:
    """Time ``import gbmdl`` in fresh interpreters that see only the checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"import gbmdl failed:\n{proc.stderr}")
        seconds, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to((root / "src").resolve()):
            raise BenchError(f"gbmdl imported from {module}, outside the checkout")
        times.append(float(seconds))
    return times


def run_worker(plan: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(plan)],
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("workload did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 toy: bool, deadline: float) -> tuple[dict, dict]:
    """Run one workload; returns (metrics with units, extra facts for the log)."""
    workload = SPEC["workloads"][name]
    inputs = build_inputs(root, name, seed, toy)
    launches = TOY["import_launches"] if toy else SPEC["import_launches"]
    setup = None if trace else import_seconds(root, launches, deadline)
    warmup = [[str(root / "data" / "iris.csv"), argv] for argv in SPEC["warmup_argv"]]
    plan = {"src": str(root / "src"), "inputs": inputs, "argv": workload["argv"],
            "warmup": warmup, "seconds": seconds, "trace": trace,
            "min_rounds": workload["min_rounds"],
            "spans_path": str(root / CACHE / f"spans-{name}.jsonl")}
    out = run_worker(plan, deadline)

    facts = {"attempted": out["attempted"], "failures": out["failures"],
             "rounds": len(out["walls"]), "blas_threads": out["blas_threads"]}
    if trace:
        layers = out["layers"]
        if layers["trace.top_level_coverage"] < MIN_COVERAGE:
            print(f"warning: {name}: top-level spans cover only "
                  f"{layers['trace.top_level_coverage']:.1%} of the traced wall time; "
                  "a CLI stage is not wrapped", file=sys.stderr)
        reference = None if toy else workload["reference_sha256"].get(str(seed))
        layers["trace.fingerprint_match"] = -1 if reference is None \
            else int(reference == out["trace_sha256"])
        facts.update(trace_sha256=out["trace_sha256"], reference_sha256=reference)
        return with_units(layers, DECLARED["per_layer"]), facts

    values = {"wall_s": statistics.median(out["walls"]),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": out["peak_rss_mb"],
              **out["scores"]}
    return with_units(values, DECLARED["end_to_end"]), facts


def with_units(values: dict, declared: list[dict]) -> dict:
    """Exactly the declared metrics, in declared order, with their declared units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="shrink synthetic inputs for a quick smoke run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (root / "src" / "gbmdl" / "__init__.py").is_file():
        print("error: run from the root of a gbmdl checkout (no src/gbmdl here)", file=sys.stderr)
        return 2
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    if len(names) > 1:
        deadline += TIME_LIMIT_S * (len(names) - 1)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, facts = run_workload(root, name, args.seed, args.seconds,
                                          bool(args.trace), args.toy, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        failed = len(facts["failures"])
        result["attempted"] += facts["attempted"]
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0
        for failure in facts["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        print(f"# {name}: seed={args.seed} rounds={facts['rounds']} "
              f"attempted={facts['attempted']} failed={failed} "
              f"blas_threads={facts['blas_threads']}")
        if "trace_sha256" in facts:
            print(f"# {name}: trace_sha256={facts['trace_sha256']} "
                  f"reference={facts['reference_sha256']}")
        for key, m in metrics.items():
            print(f"{name:>20} {key:<52} {m['value']:>14.6g} {m['unit']}")
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
