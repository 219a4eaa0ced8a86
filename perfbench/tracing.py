"""Span tracing of the gbmdl layers from outside the package.

The package imports names with ``from .x import y``, so a function is
replaced where its caller looks it up (the calling module's globals, or the
class for ``GranularBall.from_members``). Each call records a span: name,
start, end and the index of the enclosing span. Counters are updated after
the span closes, so their cost lands in the tracing overhead, not in a
layer's busy time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute looked up by the caller, span name)
SPAN_SITES = [
    ("gbmdl.cli", "load_csv", "cli.load_csv"),
    ("gbmdl.cli", "minmax_normalize", "preprocess.minmax_normalize"),
    ("gbmdl.cli", "generate", "generation.generate"),
    ("gbmdl.cli", "cluster_or_passthrough", "backends.cluster_or_passthrough"),
    ("gbmdl.cli", "ari", "metrics.ari"),
    ("gbmdl.cli", "acc", "metrics.acc"),
    ("gbmdl.cli", "nmi", "metrics.nmi"),
    ("gbmdl.generation", "generate_stable_balls", "generation.generate_stable_balls"),
    ("gbmdl.generation", "initialize_balls", "generation.initialize_balls"),
    ("gbmdl.generation", "evaluate_ball", "models.evaluate_ball"),
    ("gbmdl.generation", "reassign_residuals", "generation.reassign_residuals"),
    ("gbmdl.generation", "assign_samples", "generation.assign_samples"),
    ("gbmdl.models", "l2_best_split", "models.l2_best_split"),
    ("gbmdl.models", "l3_best_peel", "models.l3_best_peel"),
    ("gbmdl.models", "first_principal_direction", "models.first_principal_direction"),
    ("gbmdl.backends", "agglomerative_ward", "backends.agglomerative_ward"),
    ("gbmdl.backends", "kmeanspp", "backends.kmeanspp"),
]
FROM_MEMBERS = "core.GranularBall.from_members"

BUSY = [
    "cli.load_csv", "preprocess.minmax_normalize", "generation.initialize_balls",
    "generation.reassign_residuals", "generation.assign_samples", FROM_MEMBERS,
    "models.evaluate_ball", "models.l3_best_peel", "models.l2_best_split",
    "models.first_principal_direction", "backends.agglomerative_ward", "backends.kmeanspp",
]
COUNTS = [
    "cli.load_csv.cells", "generation.initialize_balls.balls",
    "generation.generate_stable_balls.balls_evaluated",
    "generation.reassign_residuals.pool", "generation.reassign_residuals.ball_evals",
    "generation.assign_samples.cells", f"{FROM_MEMBERS}.calls", "models.evaluate_ball.calls",
    "models.verdict.M1", "models.verdict.M2", "models.verdict.M3",
    "models.l3_best_peel.q_scanned", "models.l2_best_split.cuts_scanned",
    "models.first_principal_direction.calls", "backends.agglomerative_ward.centers",
    "backends.agglomerative_ward.merges", "backends.kmeanspp.calls",
    "backends.kmeanspp.centers", "metrics.calls",
]
# emitted ratio -> (numerator counter, denominator counter)
FRACTIONS = {
    "generation.reassign_residuals.attached_frac": (
        "generation.reassign_residuals.attached", "generation.reassign_residuals.pool"),
    "models.l3_best_peel.infeasible_frac": (
        "models.l3_best_peel.infeasible", "models.l3_best_peel.calls"),
    "models.l2_best_split.infeasible_frac": (
        "models.l2_best_split.infeasible", "models.l2_best_split.calls"),
}


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _scan_counter(prefix: str, counter: str, scanned):
    """Counts calls, +inf (infeasible) results, and positions scanned by feasible calls."""
    def observe(c, a, result):
        c[f"{prefix}.calls"] += 1
        if result[1] is None:
            c[f"{prefix}.infeasible"] += 1
        else:
            c[f"{prefix}.{counter}"] += scanned(a["ball"].size, a["n_min"])
    return observe


def _reassign(c, a, result):
    c["generation.reassign_residuals.pool"] += len(a["pool"])
    c["generation.reassign_residuals.ball_evals"] += len(a["pool"]) * len(a["stable_balls"])
    c["generation.reassign_residuals.attached"] += len(result[1])


def _ward(c, a, result):
    c["backends.agglomerative_ward.centers"] += len(a["centers"])
    c["backends.agglomerative_ward.merges"] += len(a["centers"]) - a["K"]


def _kmeanspp(c, a, result):
    c["backends.kmeanspp.calls"] += 1
    c["backends.kmeanspp.centers"] += len(a["centers"])


def _load_csv(c, a, ds):
    c["cli.load_csv.cells"] += ds.n * (ds.d + (ds.labels is not None))


OBSERVERS = {
    "cli.load_csv": _load_csv,
    "generation.initialize_balls": lambda c, a, r: c.update(
        {"generation.initialize_balls.balls": len(r)}),
    "generation.generate_stable_balls": lambda c, a, r: c.update(
        {"generation.generate_stable_balls.balls_evaluated": len(r[2])}),
    "models.evaluate_ball": lambda c, a, r: c.update(
        {"models.evaluate_ball.calls": 1, f"models.verdict.{r[0].choice.value}": 1}),
    "generation.reassign_residuals": _reassign,
    "generation.assign_samples": lambda c, a, r: c.update(
        {"generation.assign_samples.cells": a["dataset"].n * len(a["stable_balls"])}),
    "models.l3_best_peel": _scan_counter(
        "models.l3_best_peel", "q_scanned", lambda n_b, n_min: n_b - n_min),
    "models.l2_best_split": _scan_counter(
        "models.l2_best_split", "cuts_scanned", lambda n_b, n_min: n_b - 2 * n_min + 1),
    "models.first_principal_direction": lambda c, a, r: c.update(
        {"models.first_principal_direction.calls": 1}),
    "backends.agglomerative_ward": _ward,
    "backends.kmeanspp": _kmeanspp,
    FROM_MEMBERS: lambda c, a, r: c.update({f"{FROM_MEMBERS}.calls": 1}),
    "metrics.ari": lambda c, a, r: c.update({"metrics.calls": 1}),
    "metrics.acc": lambda c, a, r: c.update({"metrics.calls": 1}),
    "metrics.nmi": lambda c, a, r: c.update({"metrics.calls": 1}),
}


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.alloc_peak_bytes = 0
        self.captured: defaultdict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.alloc_peak_bytes = 0
        self.captured.clear()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        arguments = _bound(fn)
        observe = OBSERVERS.get(name)
        capture = name in ("generation.generate", "backends.cluster_or_passthrough")

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(self.counts, arguments(args, kwargs), result)
            if capture:
                self.captured[name].append((arguments(args, kwargs), result))
            return result

        return traced

    def measure_alloc(self, fn):
        """Track the peak Python-visible allocation of fn alone (numpy reports to tracemalloc)."""
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.alloc_peak_bytes = max(self.alloc_peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    @contextmanager
    def installed(self):
        """Patch every span site of the imported gbmdl; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in SPAN_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrapped = self.wrap(name, original)
                if name == "generation.assign_samples":
                    wrapped = self.measure_alloc(wrapped)
                setattr(module, attr, wrapped)
            ball_cls = importlib.import_module("gbmdl.core").GranularBall
            original = ball_cls.__dict__["from_members"]
            saved.append((ball_cls, "from_members", original))
            ball_cls.from_members = classmethod(self.wrap(FROM_MEMBERS, original.__func__))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        """Write the last round's spans as JSON lines: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def round_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the spans and counts recorded since the last reset."""
        busy: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        top = 0.0
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        loop_self = sum(end - start - child[i]
                        for i, (name, start, end, _) in enumerate(self.spans)
                        if name == "generation.generate_stable_balls")
        out = {f"{name}.busy_s": busy[name] for name in BUSY}
        out["generation.generate_stable_balls.self_s"] = loop_self
        out["metrics.busy_s"] = sum(v for k, v in busy.items() if k.startswith("metrics."))
        out["generation.assign_samples.peak_alloc_mb"] = self.alloc_peak_bytes / 2 ** 20
        out["trace.top_level_coverage"] = top / wall
        for key in COUNTS:
            out[key] = self.counts[key]
        for key, (part, whole) in FRACTIONS.items():
            out[key] = self.counts[part] / self.counts[whole] if self.counts[whole] else 0.0
        return out


def fingerprint(result) -> str:
    """SHA-256 over the decision trace, stable-ball members, background and ownership.

    Description lengths are left out on purpose: a rewrite that changes only
    their last digits but takes the same decisions keeps the fingerprint.
    """
    digest = hashlib.sha256()

    def put(tag: bytes, values) -> None:
        arr = np.ascontiguousarray(values, dtype="<i8")
        digest.update(tag + arr.size.to_bytes(8, "little") + arr.tobytes())

    for size, verdict in result.trace:
        digest.update(f"{verdict.choice.value}:{size}:{verdict.peel_q};".encode())
        if verdict.split is not None:
            put(b"L", verdict.split[0])
            put(b"R", verdict.split[1])
    for ball in result.stable_balls:
        put(b"B", ball.members)
    put(b"G", result.residual_background)
    put(b"O", result.ownership)
    return digest.hexdigest()


def combine(digests: list[str | None]) -> str:
    """One SHA-256 over the per-invocation fingerprints, in invocation order."""
    return hashlib.sha256(",".join(d or "missing" for d in digests).encode()).hexdigest()
