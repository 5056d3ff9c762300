"""Fault-injected runs and Monte-Carlo campaigns.

:func:`run_with_faults` executes one trace under one seeded fault plan
on either engine and returns ``(RunStats, ReliabilityRunReport)``;
:func:`run_campaign` sweeps many independent seeds over one workload —
optionally on a process pool — and aggregates a
:class:`~repro.resilience.report.CampaignReport`.

Seeding: run ``i`` of a campaign uses
``numpy.random.SeedSequence(master_seed, spawn_key=(i,))``, which is
exactly ``SeedSequence(master_seed).spawn(n)[i]`` — each worker can
rebuild its child seed from two integers, so sequential and parallel
campaigns draw identical streams and produce identical reports.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.isa.columnar import ColumnarTrace
from repro.resilience.plan import (
    FaultCampaignConfig,
    build_fault_plan,
)
from repro.resilience.report import CampaignReport, ReliabilityRunReport
from repro.resilience.session import FaultSession
from repro.sim.errors import SimulationFault
from repro.sim.stats import RunStats


def _trace_columns(trace) -> Tuple[np.ndarray, np.ndarray]:
    """(sizes, src1) per VPC, identical for scalar/columnar traces."""
    if isinstance(trace, ColumnarTrace):
        return (
            trace.size.astype(np.int64),
            trace.src1.astype(np.int64),
        )
    n = len(trace)
    sizes = np.fromiter((vpc.size for vpc in trace), np.int64, count=n)
    src1 = np.fromiter((vpc.src1 for vpc in trace), np.int64, count=n)
    return sizes, src1


def _seed_label(seed: Union[int, np.random.SeedSequence]) -> int:
    if isinstance(seed, np.random.SeedSequence):
        if seed.spawn_key:
            return int(seed.spawn_key[-1])
        entropy = seed.entropy
        return int(entropy if isinstance(entropy, int) else entropy[0])
    return int(seed)


def build_session(
    device,
    trace,
    config: FaultCampaignConfig,
    seed: Union[int, np.random.SeedSequence],
) -> FaultSession:
    """Sample a fault plan for ``trace`` and resolve it on ``device``."""
    sizes, src1 = _trace_columns(trace)
    plan = build_fault_plan(
        sizes, src1, config, device.config.bus, seed
    )
    return FaultSession(device, plan, config)


def run_with_faults(
    device,
    trace,
    config: Optional[FaultCampaignConfig] = None,
    seed: Union[int, np.random.SeedSequence] = 0,
    workload: str = "trace",
    engine: str = "vector",
    functional: bool = True,
    verify: bool = True,
) -> Tuple[Optional[RunStats], ReliabilityRunReport]:
    """Execute one trace under seeded fault injection.

    Returns ``(stats, report)``.  When the recovery policy aborts the
    run (or a retry budget runs out), the engine's typed
    :class:`~repro.sim.errors.SimulationFault` is caught here, ``stats``
    is None, and the report records the abort; unplanned faults still
    propagate.  ``engine`` defaults to the vector engine; under one
    seed both engines give bit-identical results.
    """
    config = config or FaultCampaignConfig()
    session = build_session(device, trace, config, seed)
    try:
        stats = device.execute_trace(
            trace,
            workload=workload,
            functional=functional,
            verify=verify,
            engine=engine,
            faults=session,
        )
    except SimulationFault:
        if session.abort_index is None:
            raise
        stats = None
    time_ns = None if stats is None else stats.time_ns
    report = session.report(workload, _seed_label(seed), time_ns=time_ns)
    return stats, report


# ----------------------------------------------------------------------
# Monte-Carlo campaigns
# ----------------------------------------------------------------------
def _build_run(
    workload: str,
    scale: float,
    use_cache: bool = True,
    cache_dir=None,
    deep_check: bool = False,
):
    """(device, trace) for one workload name; raises ValueError.

    Every Monte-Carlo run rebuilds the identical workload, so the trace
    comes from the content-addressed cache
    (:func:`repro.core.compile.compile_workload`): run 0 compiles and
    stores, runs 1..N-1 load — ``use_cache=False`` restores the old
    compile-every-run behaviour.

    ``deep_check`` runs the whole-trace dataflow analysis on the
    compiled trace and raises
    :class:`~repro.verify.trace_verifier.TraceVerificationError` on any
    error-severity finding — a campaign injecting faults into a program
    that already races or reads uninitialised state would attribute
    those defects to the injected faults.
    """
    from repro.core.compile import compile_workload
    from repro.workloads import (
        DNN_WORKLOADS,
        EXTRA_WORKLOADS,
        POLYBENCH,
        dnn_workload,
        extra_workload,
        polybench_workload,
    )

    if workload in POLYBENCH:
        spec = polybench_workload(workload, scale=scale)
    elif workload in DNN_WORKLOADS:
        spec = dnn_workload(workload)
    elif workload in EXTRA_WORKLOADS:
        spec = extra_workload(workload, scale=scale)
    else:
        raise ValueError(
            f"unknown workload {workload!r}; choose from "
            f"{sorted([*POLYBENCH, *DNN_WORKLOADS, *EXTRA_WORKLOADS])}"
        )
    if spec.build is None:
        raise ValueError(f"workload {workload!r} has no task builder")
    compiled = compile_workload(
        spec,
        use_cache=use_cache,
        cache_dir=cache_dir,
        deep_verify=deep_check,
    )
    if deep_check and not compiled.deep_report.ok():
        from repro.verify.trace_verifier import TraceVerificationError

        raise TraceVerificationError(compiled.deep_report)
    return compiled.device, compiled.trace


def _campaign_worker(job) -> ReliabilityRunReport:
    """Run one campaign seed; top-level so it pickles for the pool."""
    (
        workload,
        scale,
        config,
        master_seed,
        run_index,
        engine,
        functional,
        use_cache,
        cache_dir,
    ) = job
    device, trace = _build_run(
        workload, scale, use_cache=use_cache, cache_dir=cache_dir
    )
    seed = np.random.SeedSequence(master_seed, spawn_key=(run_index,))
    _, report = run_with_faults(
        device,
        trace,
        config,
        seed=seed,
        workload=workload,
        engine=engine,
        functional=functional,
    )
    return report


def run_campaign(
    workload: str,
    config: Optional[FaultCampaignConfig] = None,
    scale: float = 0.01,
    runs: int = 16,
    master_seed: int = 0,
    jobs: int = 1,
    engine: str = "vector",
    functional: bool = True,
    use_cache: bool = True,
    cache_dir=None,
    deep_check: bool = False,
) -> CampaignReport:
    """Monte-Carlo fault campaign: ``runs`` independent seeds.

    Each run rebuilds its workload, spawns its sub-seed from
    ``master_seed``, and executes with fault injection; with
    ``jobs > 1`` the runs are distributed over a process pool and the
    report is identical to the sequential one (each run is a pure
    function of its job tuple).  The fail-fast build below also primes
    the trace cache, so every run — in-process or pooled — loads the
    compiled trace instead of re-lowering it (``use_cache=False``
    opts out).

    ``deep_check`` gates the campaign on the whole-trace dataflow
    analysis during the fail-fast build: an error-severity finding
    (uninitialised read, schedule race) aborts before any fault is
    injected, raising ``TraceVerificationError``.
    """
    if runs <= 0:
        raise ValueError(f"runs must be positive, got {runs}")
    config = config or FaultCampaignConfig()
    # Fail fast on bad names (and, with deep_check, on traces whose
    # dataflow is already broken); with caching on, this also compiles
    # the trace once so the per-run builds below are cache hits.
    _build_run(
        workload,
        scale,
        use_cache=use_cache,
        cache_dir=cache_dir,
        deep_check=deep_check,
    )
    job_list = [
        (
            workload,
            scale,
            config,
            master_seed,
            index,
            engine,
            functional,
            use_cache,
            cache_dir,
        )
        for index in range(runs)
    ]
    if jobs <= 1:
        reports = [_campaign_worker(job) for job in job_list]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_campaign_worker, job_list))
    return CampaignReport(
        workload=workload,
        scale=scale,
        engine=engine,
        policy=config.policy.value,
        master_seed=master_seed,
        runs=tuple(reports),
    )
