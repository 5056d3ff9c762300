#!/usr/bin/env python
"""Perf-regression harness for the event-mode trace executors.

Default mode builds one large matmul trace (2*m*n VPCs: a TRAN + MUL
per output element), replays it through both the scalar reference
executor and the columnar vector engine, checks the results are
identical, and writes the measurements to a JSON file so the speedup
trajectory is tracked across changes.

Run directly or via ``make bench-perf``::

    PYTHONPATH=src python tools/bench_trace_exec.py \
        --vpcs 100000 --min-speedup 10 --out BENCH_trace_exec.json

``--compile`` benchmarks the *compile* phase instead
(``make bench-compile``): scalar vs vectorized trace lowering on gemm,
a differential gate proving both lowering engines emit bit-identical
traces for every PolyBench kernel and both DNN workloads at two
dataset scales each, and a cold-vs-cached compile of the Fig. 17
workload set through the content-addressed trace cache::

    PYTHONPATH=src python tools/bench_trace_exec.py --compile \
        --min-compile-speedup 5 --min-cache-speedup 20 \
        --out BENCH_trace_compile.json

``--stream`` benchmarks the streamed compile/execute pipeline
(``make bench-stream``): cold end-to-end (lowering + functional vector
execution) phased vs streamed on gemm and the Fig. 17 PolyBench set,
with bit-identity asserted on ``RunStats``, the concatenated trace,
and the word store for every workload::

    PYTHONPATH=src python tools/bench_trace_exec.py --stream \
        --min-stream-speedup 1.15 --out BENCH_trace_stream.json

``--deep`` benchmarks the whole-trace dataflow analysis
(``make bench-deep``): the SPV008–SPV012 pass over the ~93k-VPC gemm
trace must finish well under one functional vector-engine execution of
the same trace (``--max-deep-ratio``) and under an absolute budget
(``--deep-budget``), and must report the trace clean::

    PYTHONPATH=src python tools/bench_trace_exec.py --deep \
        --max-deep-ratio 0.5 --deep-budget 10 \
        --out BENCH_deep_check.json

Exit status is non-zero when the engines disagree or a measured
speedup falls below its floor.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from bench_common import (
    best_of,
    report_failures,
    stat_mismatches,
    stat_values,
    write_json,
)

import numpy as np  # noqa: E402

from repro.core.device import StreamPIMDevice  # noqa: E402
from repro.core.task import PimTask, TaskOp  # noqa: E402
from repro.isa.columnar import ColumnarTrace  # noqa: E402


def build_trace(target_vpcs: int):
    """A matmul trace of at least ``target_vpcs`` commands.

    With B stored transposed the lowering emits one TRAN (column
    delivery) plus one MUL (dot product) per output element, so an
    m x n result yields exactly 2*m*n trace commands.
    """
    side = max(2, math.ceil(math.sqrt(target_vpcs / 2)))
    k = 64
    rng = np.random.default_rng(2024)
    a = rng.integers(0, 200, size=(side, k))
    b = rng.integers(0, 200, size=(k, side))
    task = PimTask(StreamPIMDevice())
    task.add_matrix("A", a)
    task.add_matrix("B", b)
    task.add_matrix("C", shape=(side, side))
    task.add_operation(TaskOp.MATMUL, "A", "B", "C")
    return task.to_trace(), side


def run(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    trace, side = build_trace(args.vpcs)
    gen_s = time.perf_counter() - t0
    n_vpcs = len(trace)
    print(f"trace: matmul {side}x64 @ 64x{side} -> {n_vpcs:,} VPCs "
          f"(generated in {gen_s:.2f}s)")

    t0 = time.perf_counter()
    cols = ColumnarTrace.from_trace(trace)
    columnarize_s = time.perf_counter() - t0

    payload = cols.to_bytes()
    t0 = time.perf_counter()
    decoded = ColumnarTrace.from_bytes(payload)
    decode_s = time.perf_counter() - t0
    if decoded != cols:
        print("FAIL: columnar binary round-trip mismatch")
        return 1

    scalar_s, scalar_stats = best_of(
        args.repeats,
        lambda: StreamPIMDevice().execute_trace(
            trace, workload="bench", functional=False
        ),
    )
    vector_s, vector_stats = best_of(
        args.repeats,
        lambda: StreamPIMDevice().execute_trace(
            cols, workload="bench", functional=False, engine="vector"
        ),
    )
    mismatches = stat_mismatches(scalar_stats, vector_stats)
    if scalar_stats.counters != vector_stats.counters:
        mismatches.append("counters")
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")

    # Observability overhead: the public vector path with the collector
    # disabled (NULL_COLLECTOR: one enabled check per run) against a
    # direct engine call that bypasses the obs plumbing entirely.  Both
    # skip verification so the delta isolates the dispatch overhead.
    from repro.obs import Collector
    from repro.sim.vector_exec import execute_columnar

    obs_control_s, control_stats = best_of(
        args.repeats,
        lambda: execute_columnar(
            StreamPIMDevice(), cols, workload="bench", functional=False
        ),
    )
    obs_disabled_s, disabled_stats = best_of(
        args.repeats,
        lambda: StreamPIMDevice().execute_trace(
            cols,
            workload="bench",
            functional=False,
            verify=False,
            engine="vector",
        ),
    )
    if stat_values(control_stats) != stat_values(disabled_stats):
        mismatches.append("obs_disabled_stats")
    obs_overhead_pct = (
        (obs_disabled_s - obs_control_s) / obs_control_s * 100.0
        if obs_control_s > 0
        else 0.0
    )

    # Informational: one fully instrumented run (spans + metrics).
    t0 = time.perf_counter()
    StreamPIMDevice().observe(Collector()).execute_trace(
        cols,
        workload="bench",
        functional=False,
        verify=False,
        engine="vector",
    )
    obs_profiled_s = time.perf_counter() - t0

    result = {
        "trace_vpcs": n_vpcs,
        "matmul_side": side,
        "generate_s": round(gen_s, 4),
        "columnarize_s": round(columnarize_s, 4),
        "binary_decode_s": round(decode_s, 4),
        "scalar_exec_s": round(scalar_s, 4),
        "vector_exec_s": round(vector_s, 4),
        "speedup": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "stats_identical": not mismatches,
        "time_ns": scalar_stats.time_ns,
        "energy_pj": scalar_stats.energy.total_pj,
        "obs_control_s": round(obs_control_s, 4),
        "obs_disabled_s": round(obs_disabled_s, 4),
        "obs_disabled_overhead_pct": round(obs_overhead_pct, 2),
        "obs_profiled_s": round(obs_profiled_s, 4),
        "max_obs_overhead_pct": args.max_obs_overhead,
    }
    print(f"columnarize {columnarize_s:.3f}s  "
          f"binary decode {decode_s:.3f}s")
    print(f"scalar {scalar_s:.3f}s  vector {vector_s:.3f}s  "
          f"speedup {speedup:.1f}x (floor {args.min_speedup}x)")
    print(f"obs: control {obs_control_s:.3f}s  "
          f"disabled {obs_disabled_s:.3f}s  "
          f"(overhead {obs_overhead_pct:+.1f}%)  "
          f"profiled {obs_profiled_s:.3f}s")
    write_json(args.out, result, "BENCH_trace_exec.json")

    failures = []
    if mismatches:
        failures.append(f"scalar/vector stats differ in {mismatches}")
    if speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.1f}x below the {args.min_speedup}x floor"
        )
    if (
        args.max_obs_overhead is not None
        and obs_overhead_pct > args.max_obs_overhead
    ):
        failures.append(
            f"disabled-mode observability overhead "
            f"{obs_overhead_pct:.1f}% exceeds the "
            f"{args.max_obs_overhead}% ceiling"
        )
    return report_failures(failures)


def _differential_specs(scales):
    """Every lowering-relevant workload at reduced, comparable sizes.

    PolyBench kernels come at each of ``scales``; the DNN workloads
    come at two shapes each (their own notion of dataset scale).
    """
    from repro.workloads import POLYBENCH, polybench_workload
    from repro.workloads.dnn import (
        BERTShape,
        MLPShape,
        bert_spec,
        mlp_spec,
    )

    for scale in scales:
        for name in POLYBENCH:
            spec = polybench_workload(name, scale=scale)
            if spec.build is not None:
                yield f"{name}@{scale}", spec
    yield "mlp@small", mlp_spec(MLPShape(batch=4, layers=(16, 12, 8)))
    yield "mlp@medium", mlp_spec(MLPShape(batch=8, layers=(24, 16, 12)))
    yield "bert@small", bert_spec(
        BERTShape(seq_len=4, hidden=8, ffn=16, heads=2, layers=1)
    )
    yield "bert@medium", bert_spec(
        BERTShape(seq_len=8, hidden=16, ffn=32, heads=2, layers=1)
    )


def run_compile(args: argparse.Namespace) -> int:
    """Compile-phase benchmark: lowering speedup, differential gate,
    and cold-vs-cached compilation of the Fig. 17 workload set."""
    import tempfile

    from repro.core.compile import compile_workload
    from repro.isa.trace_cache import TraceCache
    from repro.workloads import POLYBENCH, polybench_workload

    failures = []

    # ------------------------------------------------------------------
    # 1. Lowering: scalar per-element emission vs batched columnar
    #    array expressions, on the largest gemm we can afford here.
    # ------------------------------------------------------------------
    spec = polybench_workload("gemm", scale=args.compile_scale)
    scalar_s = math.inf
    for _ in range(args.repeats):
        task = spec.build_task(seed=7)
        t0 = time.perf_counter()
        scalar_trace = task.to_trace(engine="scalar")
        scalar_s = min(scalar_s, time.perf_counter() - t0)
    columnar_s = math.inf
    for _ in range(args.repeats):
        # Task build stays outside the timed region, so best_of (which
        # would time the build too) does not apply here.
        task = spec.build_task(seed=7)
        t0 = time.perf_counter()
        columnar_trace = task.to_trace(engine="columnar")
        columnar_s = min(columnar_s, time.perf_counter() - t0)
    if ColumnarTrace.from_trace(scalar_trace).to_bytes() != (
        columnar_trace.to_bytes()
    ):
        failures.append("gemm lowering engines emit different bytes")
    compile_speedup = (
        scalar_s / columnar_s if columnar_s > 0 else float("inf")
    )
    print(f"lowering: gemm @ scale {args.compile_scale} "
          f"({len(columnar_trace):,} VPCs)  scalar {scalar_s:.3f}s  "
          f"columnar {columnar_s:.3f}s  speedup {compile_speedup:.1f}x "
          f"(floor {args.min_compile_speedup}x)")

    # ------------------------------------------------------------------
    # 2. Differential gate: bit-identical traces from both lowering
    #    engines for every kernel and both DNN workloads.
    # ------------------------------------------------------------------
    differential = {}
    for label, diff_spec in _differential_specs(args.diff_scales):
        scalar_task = diff_spec.build_task(seed=7)
        columnar_task = diff_spec.build_task(seed=7)
        identical = ColumnarTrace.from_trace(
            scalar_task.to_trace(engine="scalar")
        ).to_bytes() == columnar_task.to_trace(engine="columnar").to_bytes()
        differential[label] = identical
        if not identical:
            failures.append(f"differential mismatch on {label}")
    matched = sum(differential.values())
    print(f"differential: {matched}/{len(differential)} workloads "
          f"bit-identical across lowering engines")

    # ------------------------------------------------------------------
    # 3. Trace cache: cold compile-and-store vs cached reload of the
    #    Fig. 17 PolyBench set (fresh temp store; the user cache is
    #    never touched).
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="sptc-bench-") as temp_dir:
        cache = TraceCache(temp_dir)
        cold_s = warm_s = 0.0
        cached_vpcs = 0
        for name in POLYBENCH:
            fig_spec = polybench_workload(name, scale=args.cache_scale)
            if fig_spec.build is None:
                continue
            t0 = time.perf_counter()
            cold = compile_workload(fig_spec, cache=cache)
            cold_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            cached = compile_workload(fig_spec, cache=cache)
            warm_s += time.perf_counter() - t0
            cached_vpcs += len(cached.trace)
            if cold.cache_hit or not cached.cache_hit:
                failures.append(f"unexpected cache behaviour on {name}")
            if cached.trace.to_bytes() != cold.trace.to_bytes():
                failures.append(f"cached trace differs on {name}")
        cache_stats = cache.stats()
    cache_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"cache: fig17 set @ scale {args.cache_scale} "
          f"({cached_vpcs:,} VPCs)  cold {cold_s:.3f}s  "
          f"cached {warm_s:.3f}s  speedup {cache_speedup:.1f}x "
          f"(floor {args.min_cache_speedup}x)")

    result = {
        "compile_scale": args.compile_scale,
        "gemm_vpcs": len(columnar_trace),
        "scalar_lowering_s": round(scalar_s, 4),
        "columnar_lowering_s": round(columnar_s, 4),
        "compile_speedup": round(compile_speedup, 2),
        "min_compile_speedup": args.min_compile_speedup,
        "differential": differential,
        "cache_scale": args.cache_scale,
        "cache_cold_s": round(cold_s, 4),
        "cache_warm_s": round(warm_s, 4),
        "cache_speedup": round(cache_speedup, 2),
        "min_cache_speedup": args.min_cache_speedup,
        "cache_stats": {
            k: v for k, v in cache_stats.items() if k != "cache_dir"
        },
    }
    write_json(args.out, result, "BENCH_trace_compile.json")

    if compile_speedup < args.min_compile_speedup:
        failures.append(
            f"compile speedup {compile_speedup:.1f}x below the "
            f"{args.min_compile_speedup}x floor"
        )
    if cache_speedup < args.min_cache_speedup:
        failures.append(
            f"cache speedup {cache_speedup:.1f}x below the "
            f"{args.min_cache_speedup}x floor"
        )
    return report_failures(failures)


def _phased_cold(spec):
    """One cold phased run: lower the whole trace, then execute it."""
    t0 = time.perf_counter()
    task = spec.build_task(seed=7)
    trace = task.to_trace()
    task.materialize()
    stats = task.device.execute_trace(
        trace, workload=spec.name, functional=True, engine="vector"
    )
    return time.perf_counter() - t0, task, trace, stats


def _streamed_cold(spec, chunk_vpcs):
    """One cold streamed run: chunks execute as lowering produces them."""
    from repro.core.stream import run_stream, task_chunk_producer

    t0 = time.perf_counter()
    task = spec.build_task(seed=7)
    result, telemetry = run_stream(
        task.device,
        task_chunk_producer(task, chunk_vpcs=chunk_vpcs),
        workload=spec.name,
        functional=True,
    )
    return time.perf_counter() - t0, task, result, telemetry


def run_stream_bench(args: argparse.Namespace) -> int:
    """Streamed-pipeline benchmark: cold end-to-end phased vs streamed
    on gemm and the Fig. 17 set, with bit-identity asserted on stats,
    trace bytes, and the word store."""
    from repro.core.stream import DEFAULT_CHUNK_VPCS
    from repro.workloads import POLYBENCH, polybench_workload

    chunk_vpcs = args.chunk_vpcs or DEFAULT_CHUNK_VPCS
    failures = []
    per_workload = {}
    phased_total = streamed_total = 0.0
    fig17_names = [
        name
        for name in POLYBENCH
        if polybench_workload(name, scale=args.stream_scale).build
        is not None
    ]
    for name in fig17_names:
        spec = polybench_workload(name, scale=args.stream_scale)
        phased_s = math.inf
        for _ in range(args.repeats):
            elapsed, p_task, p_trace, p_stats = _phased_cold(spec)
            phased_s = min(phased_s, elapsed)
        streamed_s = math.inf
        for _ in range(args.repeats):
            elapsed, s_task, result, telemetry = _streamed_cold(
                spec, chunk_vpcs
            )
            streamed_s = min(streamed_s, elapsed)
        identical = (
            p_stats == result.stats
            and p_trace.to_bytes() == result.trace.to_bytes()
            and p_task.device.store.snapshot() == s_task.device.store.snapshot()
        )
        if not identical:
            failures.append(f"streamed run not bit-identical on {name}")
        speedup = phased_s / streamed_s if streamed_s > 0 else float("inf")
        phased_total += phased_s
        streamed_total += streamed_s
        per_workload[name] = {
            "vpcs": len(p_trace),
            "phased_s": round(phased_s, 4),
            "streamed_s": round(streamed_s, 4),
            "speedup": round(speedup, 2),
            "chunks": telemetry.chunks,
            "fallbacks": telemetry.fallbacks,
            "identical": identical,
        }
        print(f"  {name:<12} {len(p_trace):>8,} VPCs  "
              f"phased {phased_s:.3f}s  streamed {streamed_s:.3f}s  "
              f"{speedup:.2f}x  ({telemetry.chunks} chunks)")
    aggregate = (
        phased_total / streamed_total
        if streamed_total > 0
        else float("inf")
    )
    print(f"stream: fig17 set @ scale {args.stream_scale}, "
          f"chunk {chunk_vpcs}  phased {phased_total:.3f}s  "
          f"streamed {streamed_total:.3f}s  aggregate {aggregate:.2f}x "
          f"(floor {args.min_stream_speedup}x)")

    result = {
        "stream_scale": args.stream_scale,
        "chunk_vpcs": chunk_vpcs,
        "workloads": per_workload,
        "phased_total_s": round(phased_total, 4),
        "streamed_total_s": round(streamed_total, 4),
        "stream_speedup": round(aggregate, 2),
        "min_stream_speedup": args.min_stream_speedup,
        "all_identical": all(
            row["identical"] for row in per_workload.values()
        ),
    }
    write_json(args.out, result, "BENCH_trace_stream.json")

    if aggregate < args.min_stream_speedup:
        failures.append(
            f"stream speedup {aggregate:.2f}x below the "
            f"{args.min_stream_speedup}x floor"
        )
    return report_failures(failures)


def run_deep(args: argparse.Namespace) -> int:
    """Deep-analysis benchmark: the dataflow pass must stay a small
    fraction of one functional vector-engine execution and the gemm
    trace must come back clean."""
    from repro.obs import MetricsRegistry
    from repro.verify.dataflow import DataflowAnalyzer
    from repro.workloads import polybench_workload

    spec = polybench_workload("gemm", scale=args.deep_scale)
    t0 = time.perf_counter()
    task = spec.build_task(seed=7)
    trace = task.to_trace()
    gen_s = time.perf_counter() - t0
    n_vpcs = len(trace)
    print(f"trace: gemm @ scale {args.deep_scale} -> {n_vpcs:,} VPCs "
          f"(compiled in {gen_s:.2f}s)")

    # Baseline: one functional vector-engine execution — the thing a
    # deep check would gate in front of, so the analysis must cost a
    # small fraction of it.
    t0 = time.perf_counter()
    task.device.execute_trace(
        trace, workload="bench", functional=True, engine="vector"
    )
    vector_s = time.perf_counter() - t0

    registry = MetricsRegistry()
    analyzer = DataflowAnalyzer(
        geometry=task.device.config.geometry,
        plan=task.placement_plan,
        scalar_slots=task.trace_scalar_slots,
        registry=registry,
    )
    deep_s, report = best_of(
        args.repeats, analyzer.analyze, trace, subject="bench gemm"
    )
    ratio = deep_s / vector_s if vector_s > 0 else float("inf")

    snapshot = registry.snapshot()
    dataflow_metrics = {
        name: value
        for name, value in snapshot.items()
        if name.startswith("dataflow.")
    }
    result = {
        "deep_scale": args.deep_scale,
        "trace_vpcs": n_vpcs,
        "generate_s": round(gen_s, 4),
        "vector_exec_functional_s": round(vector_s, 4),
        "deep_analysis_s": round(deep_s, 4),
        "deep_ratio": round(ratio, 4),
        "max_deep_ratio": args.max_deep_ratio,
        "deep_budget_s": args.deep_budget,
        "findings": {
            rule_id: len(report.by_rule(rule_id))
            for rule_id in report.rule_ids()
        },
        "clean": report.ok(strict=True),
        "dataflow_metrics": dataflow_metrics,
    }
    print(f"vector exec (functional) {vector_s:.3f}s  "
          f"deep analysis {deep_s:.3f}s  "
          f"ratio {ratio:.3f} (ceiling {args.max_deep_ratio})")
    write_json(args.out, result, "BENCH_deep_check.json")

    failures = []
    if not report.ok(strict=True):
        failures.append(
            "gemm trace has dataflow findings: "
            + ", ".join(sorted(result["findings"]))
        )
    if ratio > args.max_deep_ratio:
        failures.append(
            f"deep analysis took {ratio:.2f}x of a vector execution "
            f"(ceiling {args.max_deep_ratio}x)"
        )
    if deep_s > args.deep_budget:
        failures.append(
            f"deep analysis {deep_s:.2f}s exceeds the "
            f"{args.deep_budget}s budget"
        )
    return report_failures(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--vpcs",
        type=int,
        default=100_000,
        help="target trace length in VPCs (default: 100000)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="fail if vector/scalar speedup drops below this",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per engine; the best is reported",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        help="fail if the disabled-mode observability overhead on the "
        "vector path exceeds this percentage",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_trace_exec.json, or "
        "BENCH_trace_compile.json with --compile)",
    )
    parser.add_argument(
        "--compile",
        action="store_true",
        help="benchmark the compile phase (lowering + trace cache) "
        "instead of trace execution",
    )
    parser.add_argument(
        "--compile-scale",
        type=float,
        default=0.1,
        help="gemm dataset scale for the lowering benchmark",
    )
    parser.add_argument(
        "--min-compile-speedup",
        type=float,
        default=1.0,
        help="fail if columnar/scalar lowering speedup drops below this",
    )
    parser.add_argument(
        "--cache-scale",
        type=float,
        default=0.15,
        help="dataset scale of the fig17 set for the cache benchmark",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=1.0,
        help="fail if the cold/cached compile speedup drops below this",
    )
    parser.add_argument(
        "--diff-scales",
        type=float,
        nargs="+",
        default=[0.01, 0.04],
        help="PolyBench scales for the scalar-vs-columnar "
        "differential gate",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="benchmark the streamed compile/execute pipeline (cold "
        "end-to-end, phased vs streamed) instead of trace execution",
    )
    parser.add_argument(
        "--stream-scale",
        type=float,
        default=0.1,
        help="dataset scale of the fig17 set for the stream benchmark",
    )
    parser.add_argument(
        "--min-stream-speedup",
        type=float,
        default=1.0,
        help="fail if the streamed/phased cold end-to-end speedup "
        "drops below this",
    )
    parser.add_argument(
        "--chunk-vpcs",
        type=int,
        default=None,
        help="records per streamed chunk (default: the pipeline's "
        "DEFAULT_CHUNK_VPCS)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="benchmark the whole-trace dataflow analysis "
        "(SPV008-SPV012) instead of trace execution",
    )
    parser.add_argument(
        "--deep-scale",
        type=float,
        default=0.1,
        help="gemm dataset scale for the deep-analysis benchmark "
        "(0.1 -> ~93k VPCs)",
    )
    parser.add_argument(
        "--max-deep-ratio",
        type=float,
        default=0.5,
        help="fail if deep analysis exceeds this fraction of one "
        "functional vector-engine execution",
    )
    parser.add_argument(
        "--deep-budget",
        type=float,
        default=10.0,
        help="fail if deep analysis exceeds this many seconds",
    )
    args = parser.parse_args(argv)
    if args.compile:
        return run_compile(args)
    if args.stream:
        return run_stream_bench(args)
    if args.deep:
        return run_deep(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
