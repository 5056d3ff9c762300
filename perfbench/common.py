"""Metric names, run context and small helpers shared by the workloads."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: End-to-end metrics (tracing off): name -> unit.  Every workload
#: reports every one of them; README.md says what each means per
#: workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cmds_per_s": "cmd/s",
    "peak_rss_mb": "MB",
    "predict_err_pct": "%",
    "model_gap_x": "x",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "req_per_s": "1/s",
}

#: Span name -> the per-layer line that reports its summed self time.
#: Spans not listed (pass, item and connection loops) go to
#: ``bench.self_s``.  These lines plus ``trace.uncovered_s`` add up to
#: ``trace.accounted_s``.
SELF_TIME_LINES: Dict[str, str] = {
    "workloads.build_task": "workloads.build_task_s",
    "core.compile": "core.compile_s",
    "core.task.lower": "core.task.lower_s",
    "isa.trace_cache.put": "isa.trace_cache.put_s",
    "isa.trace_cache.get": "isa.trace_cache.get_s",
    "verify.bounds": "verify.bounds_s",
    "core.task.materialize": "core.task.materialize_s",
    "sim.execute_trace": "sim.device.execute_trace_s",
    "sim.vector_exec.functional": "sim.vector_exec.functional_s",
    "sim.vector_exec.timing": "sim.vector_exec.timing_s",
    "core.task.fetch": "core.task.fetch_s",
    "analysis.predictor.build": "analysis.predictor.build_s",
    "analysis.predictor.eval": "analysis.predictor.eval_total_s",
    "baselines.stpim.run": "baselines.stpim.run_s",
    "baselines.others.run": "baselines.others.run_s",
    "serve.rtt": "serve.rtt_total_s",
    "serve.exec": "serve.exec_total_s",
    "bench.check": "bench.check_s",
}
BENCH_SELF_LINE = "bench.self_s"

#: Per-layer metrics (traced run): name -> unit.  Time lines are per
#: pass (serve: per phase); the serve counts come from the server.
PER_LAYER: Dict[str, str] = {
    **{line: "s" for line in SELF_TIME_LINES.values()},
    BENCH_SELF_LINE: "s",
    "core.task.lower_ns_per_cmd": "ns/cmd",
    "isa.trace_cache.bytes_written": "bytes",
    "isa.trace_cache.hit_ratio": "ratio",
    "sim.vector_exec.functional_ns_per_cmd": "ns/cmd",
    "sim.vector_exec.timing_ns_per_cmd": "ns/cmd",
    "analysis.predictor.eval_s": "s",
    "serve.rtt_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.batch_dispatches": "count",
    "serve.batched_requests": "count",
    "serve.queue_depth": "count",
    "serve.retries": "count",
    "serve.worker_restarts": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.accounted_s": "s",
    "trace.spans": "count",
}

#: Fresh set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Context:
    """What a workload needs from the command line and the checkout."""

    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool
    tiny: bool = False
    corrupt: bool = False
    tracer: object = None
    #: Processes started by the workload; killed if still running when
    #: the run ends.
    children: List[object] = field(default_factory=list)


@dataclass
class Outcome:
    """One workload run: operations, metrics and the simulation digest."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Item label -> digest of its simulated results (first pass).
    item_digests: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        """Count one checked operation; a mismatch is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"failed: {what}")

    @property
    def digest(self) -> str:
        """``sim_digest``: one sha256 over the item digests in label
        order, so the seeded item order does not change it."""
        lines = "".join(
            f"{label}={value}\n"
            for label, value in sorted(self.item_digests.items())
        )
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def find_spec(name: str, scale: Optional[float]):
    from repro.workloads import find_workload

    if scale is None:
        return find_workload(name)
    return find_workload(name, scale=scale)


def item_label(name: str, scale: Optional[float]) -> str:
    return name if scale is None else f"{name}@{scale}"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def python_child(code: str) -> float:
    """Run ``code`` in a fresh interpreter; returns its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def accuracy_metrics(runs: Sequence[Tuple[float, float, float]]):
    """``predict_err_pct`` and ``model_gap_x`` from one (vector-engine
    ns, predicted ns, ``StreamPIMPlatform.run`` ns) triple per item.

    The gap of an item is max(r, 1/r) for r = vector / round-model time;
    the metric is their geometric mean.
    """
    gaps = [max(vec / rnd, rnd / vec) for vec, _, rnd in runs]
    return {
        "predict_err_pct": 100.0
        * max(abs(pred - vec) / vec for vec, pred, _ in runs),
        "model_gap_x": math.exp(statistics.fmean(math.log(g) for g in gaps)),
    }


def item_digest(trace, *stats) -> str:
    """sha256 over a trace's bytes (if any) and every field of ``stats``
    (``RunStats``/``PredictedStats`` dataclasses), exactly."""
    hasher = hashlib.sha256(b"" if trace is None else trace.to_bytes())
    for stat in stats:
        hasher.update(
            json.dumps(
                dataclasses.asdict(stat), sort_keys=True, default=str
            ).encode("utf-8")
        )
    return hasher.hexdigest()
