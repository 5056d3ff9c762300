"""StreamPIM device: VPC queue, bank controllers, execution engines.

Implements the control flow of Fig. 14: the host streams VPCs into the
device's command queue (asynchronous send-response); each VPC is decoded
and dispatched to the bank/subarray holding its operands; bank
controllers drive the RM bus and RM processor; cross-subarray operand
collection uses read/write commands.

Two execution modes are provided:

* **event mode** (:meth:`StreamPIMDevice.execute_trace`) — discrete-event
  execution of an explicit VPC stream with per-subarray blocking between
  read/write and shift/compute operation classes.  State-accurate for
  data (a paged dense word store, :class:`WordStore`) and used to
  validate the analytic mode.
* **analytic mode** (:meth:`StreamPIMDevice.execute_rounds`) — closed-form
  composition of prep/compute rounds through the
  :class:`~repro.core.scheduler.Scheduler`; this is how the paper-scale
  workloads (millions of VPCs) are simulated in reasonable time.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.processor import RMProcessor, RMProcessorConfig
from repro.core.rmbus import RMBus, RMBusConfig
from repro.core.scheduler import (
    PrepCostModel,
    Round,
    ScheduleResult,
    Scheduler,
    SchedulerPolicy,
)
from repro.core.subarray_engine import SubarrayEngine
from repro.isa.trace import VPCTrace
from repro.isa.vpc import VPC, VPCOpcode
from repro.obs.spans import NULL_COLLECTOR
from repro.rm.address import AddressMap, DeviceGeometry
from repro.rm.nanowire import ShiftError
from repro.rm.timing import RMTimingConfig
from repro.sim.engine import Resource
from repro.sim.errors import SimulationFault
from repro.sim.stats import EnergyBreakdown, RunStats, TimeBreakdown
from repro.sim.vector_exec import sweep_spans


@dataclass(frozen=True)
class StreamPIMConfig:
    """Complete configuration of one StreamPIM device."""

    geometry: DeviceGeometry = field(default_factory=DeviceGeometry)
    timing: RMTimingConfig = field(default_factory=RMTimingConfig)
    processor: RMProcessorConfig = field(default_factory=RMProcessorConfig)
    bus: RMBusConfig = field(default_factory=RMBusConfig)
    scheduler_policy: SchedulerPolicy = SchedulerPolicy.UNBLOCK
    prep_model: PrepCostModel = field(default_factory=PrepCostModel)
    #: Host-link decode/dispatch overhead per VPC (ns); the asynchronous
    #: send-response protocol pipelines this behind execution, so it is
    #: exposed only when the device would otherwise be idle.
    vpc_decode_ns: float = 10.0

    def __post_init__(self) -> None:
        if self.vpc_decode_ns < 0:
            raise ValueError(
                f"vpc_decode_ns must be non-negative, got "
                f"{self.vpc_decode_ns}"
            )

    def with_policy(self, policy: SchedulerPolicy) -> "StreamPIMConfig":
        return StreamPIMConfig(
            geometry=self.geometry,
            timing=self.timing,
            processor=self.processor,
            bus=self.bus,
            scheduler_policy=policy,
            prep_model=self.prep_model,
            vpc_decode_ns=self.vpc_decode_ns,
        )


@dataclass(frozen=True)
class StreamExecResult:
    """Outcome of one :meth:`StreamPIMDevice.execute_trace_stream` run."""

    #: The run statistics (bit-identical to the phased vector engine).
    stats: RunStats
    #: Concatenation of every executed chunk, in order — what the phased
    #: path would have compiled up front; cache write-through stores it.
    trace: "object"
    #: Number of non-empty chunks fed to the execution state.
    chunks: int
    #: Chunks the batched functional apply handed to the exact loop.
    fallbacks: int


class WordStore:
    """Paged dense word store backing event-mode execution.

    The address space is cut into fixed-size pages of
    :attr:`PAGE_WORDS` int64 words, allocated on first write; each page
    carries a mask of the words ever written.  A read or write is one
    slice copy per page it crosses.  Unwritten words read 0, and
    ``len()`` counts distinct written words.
    """

    PAGE_WORDS = 4096

    def __init__(self) -> None:
        #: page number -> (values, written mask)
        self._pages: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._written = 0

    def read(self, address: int, length: int) -> np.ndarray:
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        out = np.zeros(length, dtype=np.int64)
        pos = 0
        while pos < length:
            page, lo = divmod(address + pos, self.PAGE_WORDS)
            take = min(self.PAGE_WORDS - lo, length - pos)
            held = self._pages.get(page)
            if held is not None:
                out[pos : pos + take] = held[0][lo : lo + take]
            pos += take
        return out

    def write(self, address: int, values) -> None:
        values = np.asarray(values).ravel().astype(np.int64, copy=False)
        length = len(values)
        pos = 0
        while pos < length:
            page, lo = divmod(address + pos, self.PAGE_WORDS)
            take = min(self.PAGE_WORDS - lo, length - pos)
            held = self._pages.get(page)
            if held is None:
                held = self._pages[page] = (
                    np.zeros(self.PAGE_WORDS, dtype=np.int64),
                    np.zeros(self.PAGE_WORDS, dtype=bool),
                )
            mask = held[1][lo : lo + take]
            self._written += take - int(np.count_nonzero(mask))
            mask[:] = True
            held[0][lo : lo + take] = values[pos : pos + take]
            pos += take

    def snapshot(self) -> Dict[int, int]:
        """Every written word as an ``{address: value}`` dict."""
        out: Dict[int, int] = {}
        for page, (values, mask) in sorted(self._pages.items()):
            offsets = np.flatnonzero(mask)
            out.update(
                zip(
                    (offsets + page * self.PAGE_WORDS).tolist(),
                    values[offsets].tolist(),
                )
            )
        return out

    def __len__(self) -> int:
        return self._written


@dataclass
class _Span:
    start: float
    finish: float
    kind: str  # "rw" or "pim"


class StreamPIMDevice:
    """One StreamPIM device instance."""

    def __init__(self, config: Optional[StreamPIMConfig] = None) -> None:
        self.config = config or StreamPIMConfig()
        self.timing = self.config.timing
        self.address_map = AddressMap(self.config.geometry)
        self.processor = RMProcessor(self.config.processor, self.timing)
        self.bus = RMBus(self.config.bus, self.timing)
        self.engine_model = SubarrayEngine(
            processor=self.processor, bus=self.bus, timing=self.timing
        )
        self.scheduler = Scheduler(
            policy=self.config.scheduler_policy,
            timing=self.timing,
            prep_model=self.config.prep_model,
        )
        self.store = WordStore()
        self._bounds_verifier = None
        #: Observation sink (:mod:`repro.obs`); the disabled singleton
        #: by default — attach a real collector with :meth:`observe`.
        self.obs = NULL_COLLECTOR

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observe(self, collector) -> "StreamPIMDevice":
        """Attach an observation collector to this device.

        Wires the device's trace engines plus the analytic scheduler
        and RM-bus cost model to the same collector, so one profiled
        run lands in one span/metric stream.  Pass
        :data:`repro.obs.NULL_COLLECTOR` to detach.  Returns the device
        for chaining.
        """
        self.obs = collector
        self.scheduler.obs = collector
        self.bus.obs = collector
        return self

    # ------------------------------------------------------------------
    # Analytic mode
    # ------------------------------------------------------------------
    def execute_rounds(self, rounds: List[Round]) -> ScheduleResult:
        """Compose prep/compute rounds under the configured policy."""
        return self.scheduler.compose(rounds)

    # ------------------------------------------------------------------
    # Event mode
    # ------------------------------------------------------------------
    def execute_trace(
        self,
        trace: VPCTrace,
        workload: str = "trace",
        functional: bool = True,
        verify: bool = True,
        engine: str = "scalar",
        faults=None,
    ) -> RunStats:
        """Execute an explicit VPC stream with per-subarray blocking.

        VPCs are issued in order; each waits for the subarrays it touches
        (and, for read/write-class transfers, the shared internal bus).
        The asynchronous send-response protocol lets independent VPCs on
        different subarrays overlap.

        Args:
            trace: the VPC stream (a :class:`~repro.isa.trace.VPCTrace`
                or :class:`~repro.isa.columnar.ColumnarTrace`).
            workload: label for the returned stats.
            functional: move/compute real data through the word store.
            verify: statically check operand bounds before executing
                (cheap, O(#VPC)); a failing trace raises
                :class:`~repro.verify.trace_verifier.TraceVerificationError`
                instead of silently corrupting the word store.  Pass
                False to replay a known-bad trace anyway.  The full rule
                set (overlap, hazards, placement) is the job of
                ``repro-streampim check``.
            engine: ``"scalar"`` (the reference per-VPC event loop) or
                ``"vector"`` (the columnar fast path of
                :mod:`repro.sim.vector_exec`; identical results,
                orders of magnitude faster on large traces).
            faults: an optional resolved fault session
                (:class:`~repro.resilience.session.FaultSession`):
                undetected shift faults silently corrupt destination
                words, repair costs are charged to the ``recovery``
                breakdown categories, and an aborting policy raises a
                typed :class:`~repro.sim.errors.SimulationFault` at the
                faulting trace index.  Both engines consume the same
                pre-sampled session, so results stay bit-identical
                under one seed.

        Returns:
            RunStats with total time, time/energy breakdowns and VPC
            counters.
        """
        if engine not in ("scalar", "vector"):
            raise ValueError(
                f"engine must be 'scalar' or 'vector', got {engine!r}"
            )
        if engine == "vector":
            from repro.isa.columnar import ColumnarTrace
            from repro.sim.vector_exec import execute_columnar

            if isinstance(trace, ColumnarTrace):
                cols = trace
            else:
                cols = ColumnarTrace.from_trace(trace)
            if verify:
                from repro.verify.trace_verifier import (
                    TraceVerificationError,
                )

                report = self._trace_verifier().verify_columnar(
                    cols, subject=workload
                )
                if not report.ok():
                    raise TraceVerificationError(report)
            # Observability: checked once per run.  The engine stays
            # untouched when disabled; when enabled it hands back the
            # busy-interval arrays it computed anyway and the spans are
            # batch-built here, after the run.
            sink = [] if self.obs.enabled else None
            stats = execute_columnar(
                self,
                cols,
                workload=workload,
                functional=functional,
                faults=faults,
                span_sink=sink,
            )
            if sink is not None:
                from repro.obs.trace_spans import record_trace_run

                starts, finishes, is_rw = sink[0]
                record_trace_run(
                    self.obs, self, cols, starts, finishes, is_rw, stats
                )
            return stats
        if verify:
            from repro.verify.trace_verifier import TraceVerificationError

            report = self._trace_verifier().verify(trace, subject=workload)
            if not report.ok():
                raise TraceVerificationError(report)
        subarrays: Dict[Tuple[int, int], Resource] = {}
        internal_bus = Resource("internal-bus")
        spans: List[_Span] = []
        energy = EnergyBreakdown()
        finish_time = 0.0
        pim_vpcs = 0
        move_vpcs = 0

        def resource(key: Tuple[int, int]) -> Resource:
            if key not in subarrays:
                subarrays[key] = Resource(f"subarray-{key}")
            return subarrays[key]

        abort_at = None if faults is None else faults.abort_index
        index = -1
        try:
            for index, vpc in enumerate(trace):
                if index == abort_at:
                    raise faults.abort_error()
                # Derived, not accumulated: += would drift the decode
                # clock by an ulp every few million commands and break
                # scalar / vector equivalence.
                decode_ready = (index + 1) * self.config.vpc_decode_ns
                if vpc.is_compute:
                    pim_vpcs += 1
                    finish = self._run_compute(
                        vpc, decode_ready, resource, spans, energy
                    )
                else:
                    move_vpcs += 1
                    finish = self._run_tran(
                        vpc,
                        decode_ready,
                        resource,
                        internal_bus,
                        spans,
                        energy,
                    )
                finish_time = max(finish_time, finish)
                if self._functional_enabled(functional):
                    self._apply_functional(vpc)
                    if faults is not None:
                        faults.corrupt_store(self.store, vpc, index)
        except ShiftError as exc:
            raise SimulationFault(
                f"shift escaped the nanowire model during replay: {exc}",
                index=index,
            ) from exc

        time = _spans_to_breakdown(spans)
        if faults is not None:
            time.add("recovery", faults.recovery_ns)
            energy.add("recovery", faults.recovery_pj)
            finish_time = finish_time + faults.recovery_ns
        stats = RunStats(
            platform="StPIM",
            workload=workload,
            time_ns=finish_time,
            time_breakdown=time,
            energy=energy,
        )
        stats.bump("pim_vpcs", pim_vpcs)
        stats.bump("move_vpcs", move_vpcs)
        if self.obs.enabled:
            # Same batched recording as the vector path, fed from the
            # span records this loop accumulated anyway — both engines
            # therefore emit identical observation streams.
            from repro.isa.columnar import ColumnarTrace
            from repro.obs.trace_spans import record_trace_run

            cols = (
                trace
                if isinstance(trace, ColumnarTrace)
                else ColumnarTrace.from_trace(trace)
            )
            record_trace_run(
                self.obs,
                self,
                cols,
                np.array([s.start for s in spans], dtype=np.float64),
                np.array([s.finish for s in spans], dtype=np.float64),
                np.array([s.kind == "rw" for s in spans], dtype=bool),
                stats,
            )
        return stats

    # ------------------------------------------------------------------
    # Streamed event mode (chunked compile/execute pipeline)
    # ------------------------------------------------------------------
    def execute_trace_stream(
        self,
        chunks,
        workload: str = "trace",
        functional: bool = True,
        verify: bool = True,
        faults=None,
    ):
        """Execute a columnar trace delivered as an iterator of chunks.

        The streamed counterpart of ``execute_trace(engine="vector")``:
        each chunk is verified through the same vectorized SPV rule
        gate (one :class:`~repro.verify.StreamingTraceVerifier` pass,
        whole-trace-identical findings) and then advances one
        :class:`~repro.sim.vector_exec.VectorExecState`, so execution
        of chunk K proceeds while chunk K+1 is still being lowered by
        the producer.  The resulting ``RunStats``, word-store contents
        and observation spans are bit-identical to the phased path on
        the concatenated trace.

        Returns a :class:`StreamExecResult` carrying the stats, the
        concatenated :class:`~repro.isa.columnar.ColumnarTrace` (for
        cache write-through and span attribution), and per-stream
        counters.
        """
        from repro.isa.columnar import ColumnarTrace, RECORD_DTYPE
        from repro.sim.vector_exec import VectorExecState
        from repro.verify.trace_verifier import (
            StreamingTraceVerifier,
            TraceVerificationError,
        )

        checker = (
            StreamingTraceVerifier(self._trace_verifier(), subject=workload)
            if verify
            else None
        )
        sink = [] if self.obs.enabled else None
        state = VectorExecState(
            self,
            workload=workload,
            functional=functional,
            faults=faults,
            span_sink=sink,
        )
        record_parts = []
        for cols in chunks:
            if not isinstance(cols, ColumnarTrace):
                cols = ColumnarTrace.from_trace(cols)
            if checker is not None:
                report = checker.feed(cols)
                if not report.ok():
                    raise TraceVerificationError(report)
            state.feed(cols)
            record_parts.append(cols.records)
        stats = state.finish()
        records = (
            np.concatenate(record_parts)
            if record_parts
            else np.empty(0, dtype=RECORD_DTYPE)
        )
        trace = ColumnarTrace(records)
        if sink is not None:
            from repro.obs.trace_spans import record_trace_run

            starts, finishes, is_rw = sink[0]
            record_trace_run(
                self.obs, self, trace, starts, finishes, is_rw, stats
            )
        return StreamExecResult(
            stats=stats,
            trace=trace,
            chunks=state.chunks_fed,
            fallbacks=state.fallbacks,
        )

    # ------------------------------------------------------------------
    def _run_compute(self, vpc, ready, resource, spans, energy) -> float:
        """Dispatch one MUL/SMUL/ADD: collect operands, run the engine."""
        home = self.address_map.subarray_of(vpc.src1)
        start = resource(home).earliest_start(ready)
        # Operand collection: any operand outside the home subarray is
        # fetched with read/write commands first (section IV-B).
        for operand in vpc.operands[1:]:
            location = self.address_map.subarray_of(operand)
            if location != home:
                copy_ns = self._copy_cost_ns(vpc.size)
                src = resource(location)
                begin = max(
                    src.earliest_start(start),
                    resource(home).earliest_start(start),
                )
                src.acquire(begin, copy_ns)
                _, start = resource(home).acquire(begin, copy_ns)
                spans.append(_Span(begin, start, "rw"))
                self._copy_energy(vpc.size, energy)
        profile = self.engine_model.profile(vpc)
        begin, finish = resource(home).acquire(start, profile.time_ns)
        spans.append(_Span(begin, finish, "pim"))
        energy.merge(profile.energy)
        # Result delivery to a remote destination uses read/write.
        dest = self.address_map.subarray_of(vpc.des)
        if dest != home:
            result_words = 1 if vpc.opcode is VPCOpcode.MUL else vpc.size
            copy_ns = self._copy_cost_ns(result_words)
            begin, finish = resource(dest).acquire(finish, copy_ns)
            spans.append(_Span(begin, finish, "rw"))
            self._copy_energy(result_words, energy)
        return finish

    def _run_tran(
        self, vpc, ready, resource, internal_bus, spans, energy
    ) -> float:
        """Dispatch one TRAN (in-subarray shift or cross-subarray copy)."""
        src = self.address_map.subarray_of(vpc.src1)
        dest = self.address_map.subarray_of(vpc.des)
        if src == dest:
            profile = self.engine_model.profile(vpc)
            begin, finish = resource(src).acquire(ready, profile.time_ns)
            spans.append(_Span(begin, finish, "pim"))
            energy.merge(profile.energy)
            return finish
        copy_ns = self._copy_cost_ns(vpc.size)
        begin = max(
            internal_bus.earliest_start(ready),
            resource(src).earliest_start(ready),
            resource(dest).earliest_start(ready),
        )
        internal_bus.acquire(begin, copy_ns)
        resource(src).acquire(begin, copy_ns)
        _, finish = resource(dest).acquire(begin, copy_ns)
        spans.append(_Span(begin, finish, "rw"))
        self._copy_energy(vpc.size, energy)
        return finish

    def _copy_cost_ns(self, words: int) -> float:
        """Read/write copy duration (row-streaming accesses)."""
        model = self.config.prep_model
        if self.config.scheduler_policy.overlaps_prep:
            reads = math.ceil(words / model.access_width_words)
            writes = math.ceil(words / model.write_access_width_words)
        else:
            reads = writes = math.ceil(words / model.blocked_access_width)
        return (
            model.activate_ns
            + reads * self.timing.read_ns
            + writes * self.timing.write_ns
        )

    def _copy_energy(self, words: int, energy: EnergyBreakdown) -> None:
        """Charge one cross-subarray copy's access energy."""
        model = self.config.prep_model
        reads = math.ceil(words / model.access_width_words)
        writes = math.ceil(words / model.write_access_width_words)
        energy.add("read", reads * self.timing.read_pj)
        energy.add("write", writes * self.timing.write_pj)

    # ------------------------------------------------------------------
    def _trace_verifier(self):
        """The cached pre-replay bounds verifier (SPV001 only).

        Geometry is frozen for the device's lifetime, so one verifier
        (with its geometry-derived bounds) serves every execute_trace
        call instead of being rebuilt per call.
        """
        if self._bounds_verifier is None:
            from repro.verify.trace_verifier import TraceVerifier

            self._bounds_verifier = TraceVerifier(
                geometry=self.config.geometry, rules=("SPV001",)
            )
        return self._bounds_verifier

    # ------------------------------------------------------------------
    def _functional_enabled(self, requested: bool) -> bool:
        return requested

    def _apply_functional(self, vpc) -> None:
        """Move/compute real data through the word store."""
        if vpc.opcode is VPCOpcode.TRAN:
            self.store.write(vpc.des, self.store.read(vpc.src1, vpc.size))
            return
        if vpc.opcode is VPCOpcode.SMUL:
            src1 = self.store.read(vpc.src1, 1)
        else:
            src1 = self.store.read(vpc.src1, vpc.size)
        src2 = self.store.read(vpc.src2, vpc.size)
        result = self.processor.apply(vpc.opcode, src1, src2)
        self.store.write(vpc.des, result)

    # ------------------------------------------------------------------
    @property
    def pim_subarrays(self) -> int:
        return self.config.geometry.pim_subarrays


def _spans_to_breakdown(spans: List[_Span]) -> TimeBreakdown:
    """Sweep busy spans into exclusive/overlapped time categories.

    Time covered only by "rw" spans splits into read/write; time covered
    only by "pim" spans becomes shift+process in the pipelined proportion
    (the engine-level split is finer, but at trace level the subarray is
    a black box); time covered by both classes at once is overlapped.
    """
    if not spans:
        return TimeBreakdown()
    return sweep_spans(
        np.array([s.start for s in spans]),
        np.array([s.finish for s in spans]),
        np.array([s.kind == "rw" for s in spans], dtype=bool),
    )
