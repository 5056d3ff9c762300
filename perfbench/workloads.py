"""The two in-process workloads: cold functional runs and design sweeps.

Both run *passes* over a fixed item list until the run's seconds are
used up; a pass is the unit the metrics are medians over.  The seed
fixes the operand values (``build_task``) and the item order of every
pass; it never changes which items run.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    SETUP_REPEATS,
    Context,
    Outcome,
    accuracy_metrics,
    item_digest,
    find_spec,
    item_label,
    peak_rss_mb,
    percentile,
    python_child,
)
from perfbench.tracing import instrument, layer_report

Item = Tuple[str, Optional[float]]

COLD_ITEMS: Tuple[Item, ...] = (
    ("gemm", 0.1),
    ("3mm", 0.05),
    ("2mm", 0.1),
    ("atax", 0.1),
    ("mlp", None),
)
SWEEP_ITEMS: Tuple[Item, ...] = (
    ("atax", 0.1),
    ("bicg", 0.1),
    ("mvt", 0.1),
    ("gemm", 0.15),
    ("syr2k", 0.05),
)
#: Scale of the Fig. 17 platform x workload matrix each sweep pass
#: regenerates.
FIG17_SCALE = 0.5

#: Smoke-test sizes (``--tiny``).
TINY_COLD_ITEMS: Tuple[Item, ...] = (("gemm", 0.01), ("atax", 0.02))
TINY_SWEEP_ITEMS: Tuple[Item, ...] = (("atax", 0.02), ("gemm", 0.02))
TINY_FIG17_SCALE = 0.02

#: Modules a cold CLI run imports before its first command; their
#: import time in a fresh interpreter is cold-functional's set-up.
COLD_IMPORTS = (
    "repro.core.compile",
    "repro.sim.vector_exec",
    "repro.workloads",
    "repro.verify.trace_verifier",
)


Pass = Tuple[Dict[str, float], int]


def run_passes(
    seconds: float, one_pass: Callable[[int], Pass]
) -> Tuple[List[Pass], float]:
    """Run passes until ``seconds`` of wall time have gone by.

    ``one_pass(index)`` returns each operation's latency in seconds,
    keyed by item, and the trace commands it ran.  Returns the pass
    results and the wall time.
    """
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(one_pass(len(passes)))
    return passes, time.perf_counter() - t0


def end_to_end(
    outcome: Outcome, passes: List[Pass], setup_s: float, rss_mb: float
) -> None:
    """Throughput and latency from each operation's median latency.

    A typical pass takes the sum of its operations' medians over
    passes, so one pass slowed by a neighbour on the host does not move
    the figures.  The latency percentiles are over those medians.
    """
    typical = {
        item: statistics.median(latencies[item] for latencies, _ in passes)
        for item in passes[0][0]
    }
    pass_s = sum(typical.values())
    outcome.metrics.update(
        {
            "setup_s": setup_s,
            "cmds_per_s": passes[0][1] / pass_s,
            "peak_rss_mb": rss_mb,
            "req_p50_ms": 1e3 * percentile(list(typical.values()), 50),
            "req_p95_ms": 1e3 * percentile(list(typical.values()), 95),
            "req_per_s": len(typical) / pass_s,
        }
    )


def measure(ctx: Context, outcome: Outcome, one_pass, setup_s: float) -> None:
    """Passes for the run's seconds, then the metrics into ``outcome``.

    A traced run alternates an untraced and a traced pass, so both see
    the same host conditions; the per-layer lines come from the traced
    passes and the overhead from the difference of the two sums.
    """
    if not ctx.trace:
        passes, _ = run_passes(ctx.seconds, one_pass)
        end_to_end(outcome, passes, setup_s, peak_rss_mb())
        return
    tracer = ctx.tracer
    walls = [0.0, 0.0]
    pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < ctx.seconds:
        t0 = time.perf_counter()
        one_pass(2 * pairs)
        walls[0] += time.perf_counter() - t0
        with instrument(tracer):
            tracer.enabled = True
            t0 = time.perf_counter()
            with tracer.span("bench.pass", item=f"pass-{pairs}"):
                one_pass(2 * pairs + 1)
            walls[1] += time.perf_counter() - t0
            tracer.enabled = False
        pairs += 1
    lines, reconciled = layer_report(
        tracer.spans, threading.get_ident(), walls[1], walls[0], pairs
    )
    outcome.metrics.update(lines)
    if not reconciled:
        outcome.record(False, "span self times do not reconcile")


# ----------------------------------------------------------------------
# cold-functional
# ----------------------------------------------------------------------
def numpy_reference(task) -> Dict[str, np.ndarray]:
    """Evaluate a task's operations directly with NumPy."""
    from repro.core.task import TaskOp

    values = {name: m.copy() for name, m in task._matrices.items()}
    for op in task._operations:
        ins = [values[name] for name in op.inputs]
        alpha = task._scalars[op.scalar] if op.scalar is not None else 1
        kind = op.op
        if kind is TaskOp.MATMUL:
            out = alpha * (ins[0] @ ins[1])
        elif kind in (TaskOp.MATVEC, TaskOp.MATVEC_ACC):
            out = alpha * (ins[0] @ ins[1].ravel()).reshape(1, -1)
        elif kind in (TaskOp.MATVEC_T, TaskOp.MATVEC_T_ACC):
            out = alpha * (ins[0].T @ ins[1].ravel()).reshape(1, -1)
        elif kind in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
            out = ins[0] + ins[1]
        elif kind in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
            out = alpha * ins[0]
        elif kind is TaskOp.DOT:
            out = np.array([[int(ins[0].ravel() @ ins[1].ravel())]])
        else:
            raise NotImplementedError(kind)
        if kind in (TaskOp.MATVEC_ACC, TaskOp.MATVEC_T_ACC):
            out = values[op.output] + out
        values[op.output] = out
    return values


def cold_functional(ctx: Context) -> Outcome:
    from repro.analysis.predictor import TracePredictor
    from repro.baselines import StreamPIMPlatform
    from repro.core.compile import compile_workload
    from repro.core.device import StreamPIMDevice
    from repro.isa.trace_cache import TraceCache

    items = TINY_COLD_ITEMS if ctx.tiny else COLD_ITEMS
    specs = [find_spec(name, scale) for name, scale in items]
    labels = [item_label(name, scale) for name, scale in items]
    outcome = Outcome()
    tracer = ctx.tracer
    rng = np.random.default_rng(ctx.seed)
    accuracy: Dict[str, Tuple[float, float, float]] = {}

    setup_s = statistics.median(
        python_child("import " + ", ".join(COLD_IMPORTS))
        for _ in range(SETUP_REPEATS)
    )

    def one_pass(index: int):
        cache_dir = ctx.tmp / f"cold-cache-{index}"
        cache = TraceCache(cache_dir)
        latencies: Dict[str, float] = {}
        commands = 0
        for i in rng.permutation(len(specs)):
            spec, label = specs[i], labels[i]
            with tracer.span("bench.item", item=label):
                t0 = time.perf_counter()
                with tracer.span("core.compile"):
                    compiled = compile_workload(
                        spec,
                        device=StreamPIMDevice(),
                        seed=ctx.seed,
                        cache=cache,
                    )
                device, task, trace = (
                    compiled.device, compiled.task, compiled.trace
                )
                with tracer.span("core.task.materialize"):
                    task.materialize(device)
                with tracer.span("sim.execute_trace"):
                    stats = device.execute_trace(
                        trace,
                        workload=spec.name,
                        engine="vector",
                        functional=True,
                    )
                with tracer.span("core.task.fetch"):
                    fetched = task.fetch_results(device)
                latencies[label] = time.perf_counter() - t0
                commands += len(trace)
                with tracer.span("bench.check"):
                    if ctx.corrupt and index == 0 and len(latencies) == 1:
                        name = task._operations[-1].output
                        fetched[name] = fetched[name] + 1
                    reference = numpy_reference(task)
                    outputs = {op.output for op in task._operations}
                    outcome.record(
                        all(
                            np.array_equal(fetched[name], reference[name])
                            for name in outputs
                        ),
                        f"{label}: fetch_results differ from NumPy",
                    )
                    if label not in outcome.item_digests:
                        outcome.item_digests[label] = item_digest(trace, stats)
                        # Accuracy is reported by untraced runs only, so
                        # these calls add no spans to a traced one.
                        if not ctx.trace:
                            predicted = TracePredictor(
                                trace, device.address_map.words_per_subarray
                            ).predict(device, workload=spec.name)
                            rounds = StreamPIMPlatform().run(spec)
                            accuracy[label] = (
                                stats.time_ns,
                                predicted.time_ns,
                                rounds.time_ns,
                            )
                del compiled, device, task, trace, fetched
        shutil.rmtree(cache_dir, ignore_errors=True)
        return latencies, commands

    measure(ctx, outcome, one_pass, setup_s)
    if not ctx.trace:
        outcome.metrics.update(accuracy_metrics(accuracy.values()))
    return outcome


# ----------------------------------------------------------------------
# design-sweep
# ----------------------------------------------------------------------
def design_grid(name: str, scale: Optional[float]):
    """32 device points sharing one compiled trace: 4 read x 4 write
    port speed grades x 2 decode latencies, default scheduler policy.
    The first decode latency is the default, so the grid holds the
    default device."""
    from repro.analysis.explore import (
        DEFAULT_READ_SCALES,
        DEFAULT_WRITE_SCALES,
        build_grid,
    )
    from repro.core.device import StreamPIMConfig

    base = StreamPIMConfig()
    grid = build_grid(
        workloads=[(name, scale)],
        policies=[base.scheduler_policy.value],
        read_scales=DEFAULT_READ_SCALES,
        write_scales=DEFAULT_WRITE_SCALES,
        decode_ns=(base.vpc_decode_ns, 2 * base.vpc_decode_ns),
    )
    default = next(
        i
        for i, p in enumerate(grid)
        if p.read_scale == p.write_scale == 1.0
        and p.decode_ns == base.vpc_decode_ns
    )
    return base, grid, default


def fill_cache(cache_dir: str, tiny: bool, seed: int) -> None:
    """Compile every sweep item into ``cache_dir`` (the sweep's set-up)."""
    from repro.core.compile import compile_workload
    from repro.core.device import StreamPIMDevice
    from repro.isa.trace_cache import TraceCache

    cache = TraceCache(cache_dir)
    for name, scale in TINY_SWEEP_ITEMS if tiny else SWEEP_ITEMS:
        compiled = compile_workload(
            find_spec(name, scale),
            device=StreamPIMDevice(),
            seed=seed,
            cache=cache,
        )
        if compiled.cache_hit:
            raise RuntimeError(f"{name}: set-up cache was not empty")


def design_sweep(ctx: Context) -> Outcome:
    from repro.analysis.calibrate import CLASS_TIME_BOUNDS, workload_class
    from repro.analysis.predictor import AnalyticDevice, TracePredictor
    from repro.baselines import StreamPIMPlatform, default_platforms
    from repro.core.compile import compile_workload
    from repro.core.device import StreamPIMDevice
    from repro.isa.trace_cache import TraceCache
    from repro.workloads import polybench_names, polybench_workload

    items = TINY_SWEEP_ITEMS if ctx.tiny else SWEEP_ITEMS
    fig17_scale = TINY_FIG17_SCALE if ctx.tiny else FIG17_SCALE
    specs = [find_spec(name, scale) for name, scale in items]
    labels = [item_label(name, scale) for name, scale in items]
    grids = [design_grid(name, scale) for name, scale in items]
    fig17 = [polybench_workload(n, scale=fig17_scale) for n in polybench_names()]
    outcome = Outcome()
    tracer = ctx.tracer
    rng = np.random.default_rng(ctx.seed)
    accuracy: Dict[str, Tuple[float, float, float]] = {}

    # Set-up: a fresh process fills a fresh private cache; the last
    # one filled is the cache every pass reads.
    cache_dir = None
    times = []
    for repeat in range(SETUP_REPEATS):
        cache_dir = ctx.tmp / f"sweep-cache-{repeat}"
        times.append(
            python_child(
                "from perfbench.workloads import fill_cache; "
                f"fill_cache({str(cache_dir)!r}, {ctx.tiny!r}, {ctx.seed})"
            )
        )
    setup_s = statistics.median(times)

    def one_pass(index: int):
        cache = TraceCache(cache_dir)  # a fresh front: hits read the disk
        latencies: Dict[str, float] = {}
        commands = 0
        for i in rng.permutation(len(specs)):
            spec, label = specs[i], labels[i]
            base, grid, default = grids[i]
            with tracer.span("bench.item", item=label):
                t0 = time.perf_counter()
                with tracer.span("core.compile"):
                    compiled = compile_workload(
                        spec,
                        device=StreamPIMDevice(),
                        seed=ctx.seed,
                        cache=cache,
                    )
                device, trace = compiled.device, compiled.trace
                with tracer.span("analysis.predictor.build"):
                    predictor = TracePredictor(
                        trace, device.address_map.words_per_subarray
                    )
                predictions = []
                for point in grid:
                    with tracer.span("analysis.predictor.eval"):
                        predictions.append(
                            predictor.predict(
                                AnalyticDevice(point.config(base)),
                                workload=spec.name,
                            )
                        )
                with tracer.span("sim.execute_trace"):
                    stats = device.execute_trace(
                        trace,
                        workload=spec.name,
                        engine="vector",
                        functional=False,
                    )
                with tracer.span("baselines.stpim.run"):
                    rounds = StreamPIMPlatform().run(spec)
                latencies[label] = time.perf_counter() - t0
                commands += len(trace)
                with tracer.span("bench.check"):
                    predicted_ns = predictions[default].time_ns
                    if ctx.corrupt and index == 0 and len(latencies) == 1:
                        predicted_ns *= 1.5
                    error = abs(predicted_ns - stats.time_ns) / stats.time_ns
                    bound = CLASS_TIME_BOUNDS[workload_class(spec.name)]
                    outcome.record(
                        compiled.cache_hit and error <= bound,
                        f"{label}: cache hit {compiled.cache_hit}, "
                        f"prediction off by {100 * error:.2f}% "
                        f"(bound {100 * bound:.0f}%)",
                    )
                    if label not in outcome.item_digests:
                        accuracy[label] = (
                            stats.time_ns, predicted_ns, rounds.time_ns
                        )
                        outcome.item_digests[label] = item_digest(
                            trace, stats, rounds, *predictions
                        )
                # Free this item before the next one is built, so the
                # peak does not depend on the seeded item order.
                del compiled, device, trace, predictor, predictions
        with tracer.span("bench.item", item="fig17"):
            t0 = time.perf_counter()
            runs = []
            for platform in default_platforms().values():
                layer = (
                    "baselines.stpim.run"
                    if isinstance(platform, StreamPIMPlatform)
                    else "baselines.others.run"
                )
                for spec in fig17:
                    with tracer.span(layer):
                        runs.append(platform.run(spec))
            latencies["fig17"] = time.perf_counter() - t0
            with tracer.span("bench.check"):
                outcome.record(
                    all(0.0 < s.time_ns < float("inf") for s in runs),
                    "fig17: a platform time is not finite and positive",
                )
                if "fig17" not in outcome.item_digests:
                    outcome.item_digests["fig17"] = item_digest(None, *runs)
        return latencies, commands

    measure(ctx, outcome, one_pass, setup_s)
    if not ctx.trace:
        outcome.metrics.update(accuracy_metrics(accuracy.values()))
    return outcome
