"""Vectorized event-mode trace execution.

The scalar :meth:`~repro.core.device.StreamPIMDevice.execute_trace` loop
interprets one VPC at a time: per command it decomposes addresses,
builds a fresh cycle/energy profile, and merges dataclass breakdowns —
tens of microseconds of Python per command, which is what limits the
event mode to reduced problem sizes.

This module is the columnar fast path selected with
``execute_trace(..., engine="vector")``.  It splits the work into

* **bulk array passes** for everything value-parallel: subarray ids of
  every operand (one integer division per column), per-command durations
  and energies (profiled once per unique ``(opcode, size)`` shape and
  gathered), decode-ready times, and the exclusive-category time sweep
  (:func:`sweep_spans`);
* a **minimal busy-until scan** for the one genuinely sequential part —
  the per-subarray blocking recurrence — reduced to a handful of float
  ``max``/``add`` operations per command over precomputed columns;
* a **batched functional apply** that replays data movement on a dense,
  address-compacted buffer: commands are levelled by their word hazards
  within each op, and each level runs as a few gather/compute/scatter
  batches per ``(opcode, size)`` group.

Equivalence contract: for every trace the vector engine produces
*bit-identical* results to the scalar executor — the same ``RunStats``
(total time, time/energy breakdowns, counters) and the same word-store
contents.  Every floating-point accumulation is performed in the same
order with the same IEEE operations; the differential tests in
``tests/test_vector_exec.py`` assert exact equality over every shipped
workload generator.
"""

from __future__ import annotations

import math

from typing import Dict, List, Tuple

import numpy as np

from repro.isa.columnar import (
    ADD_BYTE,
    ColumnarTrace,
    MUL_BYTE,
    SMUL_BYTE,
    TRAN_BYTE,
)
from repro.isa.encoding import BYTE_TO_OPCODE
from repro.isa.vpc import VPC, VPCOpcode
from repro.rm.nanowire import ShiftError
from repro.sim.errors import SimulationFault
from repro.sim.stats import EnergyBreakdown, RunStats, TimeBreakdown


def _ordered_sum(values: np.ndarray) -> float:
    """Strict left-to-right float sum (matches sequential accumulation).

    The scalar executor accumulates breakdown components with repeated
    Python float additions; reproducing its results exactly requires the
    same association order, which pairwise reductions (``np.sum``) do
    not guarantee.  ``np.cumsum`` is a running total and therefore
    exactly that order; dropping exact zeros first is safe
    (adding 0.0 never changes a finite accumulator) and keeps the pass
    short.
    """
    compressed = values[np.nonzero(values)]
    if not len(compressed):
        return 0.0
    return float(compressed.cumsum()[-1])


def _ordered_sum_carry(carry: float, values: np.ndarray) -> float:
    """Continue a strict left-to-right float sum across a chunk boundary.

    ``_ordered_sum_carry(_ordered_sum(a), b)`` is bit-identical to
    ``_ordered_sum(concatenate((a, b)))``: the carry is the running
    total so far, and prepending it to the next chunk's compressed
    values preserves the association order exactly.  A zero carry can
    be dropped because every kept value is nonzero and ``0.0 + x == x``
    bitwise for finite nonzero ``x`` — the same argument that lets
    :func:`_ordered_sum` compress zeros.
    """
    compressed = values[np.nonzero(values)]
    if not len(compressed):
        return carry
    if carry:
        # Exact-zero test on purpose (not a tolerance): a zero carry is
        # dropped for the same reason _ordered_sum compresses zeros.
        compressed = np.concatenate(
            (np.array([carry], dtype=np.float64), compressed)
        )
    return float(compressed.cumsum()[-1])


def sweep_spans(
    starts: np.ndarray, finishes: np.ndarray, is_rw: np.ndarray
) -> TimeBreakdown:
    """Sweep busy spans into exclusive time categories (vectorized).

    Array-pass replacement for the O(spans^2) interval scan: sort the
    unique edges once, count rw/pim coverage per elementary interval
    with difference arrays, and reduce the per-interval contributions in
    edge order (bit-identical to the sequential scan).
    """
    if len(starts) == 0:
        return TimeBreakdown()
    starts = np.asarray(starts, dtype=np.float64)
    finishes = np.asarray(finishes, dtype=np.float64)
    is_rw = np.asarray(is_rw, dtype=bool)
    edges = np.unique(np.concatenate((starts, finishes)))
    n_edges = len(edges)
    if n_edges < 2:
        return TimeBreakdown()
    first = np.searchsorted(edges, starts)
    last = np.searchsorted(edges, finishes)
    rw_delta = np.bincount(
        first[is_rw], minlength=n_edges
    ) - np.bincount(last[is_rw], minlength=n_edges)
    pim_delta = np.bincount(
        first[~is_rw], minlength=n_edges
    ) - np.bincount(last[~is_rw], minlength=n_edges)
    rw_cover = np.cumsum(rw_delta)[:-1] > 0
    pim_cover = np.cumsum(pim_delta)[:-1] > 0
    widths = np.diff(edges)
    both = rw_cover & pim_cover
    rw_only = rw_cover & ~pim_cover
    pim_only = pim_cover & ~rw_cover
    return TimeBreakdown(
        read_ns=_ordered_sum(widths[rw_only] * 0.3),
        write_ns=_ordered_sum(widths[rw_only] * 0.7),
        process_ns=_ordered_sum(widths[pim_only]),
        overlapped_ns=_ordered_sum(widths[both]),
    )


def _unique_profiles(
    device, opcode: np.ndarray, size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-command (duration, shift_pj, compute_pj) via shape dedup.

    ``SubarrayEngine.profile`` depends only on ``(opcode, size)``;
    real traces contain a handful of distinct shapes, so profiling each
    unique shape once and gathering is exact and cheap.
    """
    key = (opcode.astype(np.int64) << 48) | size
    uniq, inverse = np.unique(key, return_inverse=True)
    duration = np.empty(len(uniq), dtype=np.float64)
    shift_pj = np.empty(len(uniq), dtype=np.float64)
    compute_pj = np.empty(len(uniq), dtype=np.float64)
    for j, packed in enumerate(uniq.tolist()):
        code = packed >> 48
        words = packed & ((1 << 48) - 1)
        vpc_opcode = BYTE_TO_OPCODE[code]
        if vpc_opcode is VPCOpcode.TRAN:
            proto = VPC.tran(0, 0, words)
        else:
            proto = VPC(vpc_opcode, 0, 0, 0, words)
        profile = device.engine_model.profile(proto)
        duration[j] = profile.time_ns
        shift_pj[j] = profile.energy.shift_pj
        compute_pj[j] = profile.energy.compute_pj
    return duration[inverse], shift_pj[inverse], compute_pj[inverse]


def _copy_costs(
    device, words: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(duration, read_pj, write_pj) of a cross-subarray copy per size.

    Delegates each unique word count to the device's scalar cost model
    (same ``math.ceil`` float divisions) so the gathered values are the
    exact floats the scalar executor computes.
    """
    uniq, inverse = np.unique(words, return_inverse=True)
    model = device.config.prep_model
    duration = np.empty(len(uniq), dtype=np.float64)
    read_pj = np.empty(len(uniq), dtype=np.float64)
    write_pj = np.empty(len(uniq), dtype=np.float64)
    for j, count in enumerate(uniq.tolist()):
        duration[j] = device._copy_cost_ns(count)
        reads = math.ceil(count / model.access_width_words)
        writes = math.ceil(count / model.write_access_width_words)
        read_pj[j] = reads * device.timing.read_pj
        write_pj[j] = writes * device.timing.write_pj
    return duration[inverse], read_pj[inverse], write_pj[inverse]


def check_addresses(device, cols: ColumnarTrace) -> None:
    """Fail fast on out-of-range addresses.

    Matches the IndexError the scalar path's address decomposition
    raises (same first offender: lowest trace index, then the scalar's
    src1 -> src2 -> des order).
    """
    src1 = cols.src1
    src2 = cols.src2
    des = cols.des
    compute = cols.is_compute
    total_words = device.address_map.total_words
    bad_src1 = (src1 < 0) | (src1 >= total_words)
    bad_src2 = compute & ((src2 < 0) | (src2 >= total_words))
    bad_des = (des < 0) | (des >= total_words)
    bad_any = bad_src1 | bad_src2 | bad_des
    if bad_any.any():
        index = int(np.argmax(bad_any))
        if bad_src1[index]:
            value = int(src1[index])
        elif bad_src2[index]:
            value = int(src2[index])
        else:
            value = int(des[index])
        raise IndexError(
            f"address {value} out of range [0, {total_words})"
        )


class VectorExecState:
    """Resumable vector execution: one trace, fed as ordered chunks.

    Hoists everything :func:`execute_columnar` used to keep in local
    variables — the per-subarray busy-until map, the bus/total clocks,
    the span record, the breakdown accumulators, and the functional
    word state — so a trace can be executed incrementally while later
    chunks are still being lowered (the streamed compile/execute
    pipeline).  The contract is bit-identity: feeding a trace as any
    sequence of chunks and calling :meth:`finish` produces exactly the
    ``RunStats``, word-store contents, and span triple that one
    whole-trace :func:`execute_columnar` call produces.

    The float accumulations that make that non-trivial are handled
    explicitly: energy components carry the running left-to-right sum
    across chunks (:func:`_ordered_sum_carry`), decode-ready times are
    derived from the global command index, and the time sweep
    (:func:`sweep_spans`, which globally sorts span edges) runs once in
    :meth:`finish` over the accumulated spans.

    Functional state advances per chunk through the dependency-levelled
    batched apply (:func:`_apply_functional_batched`); chunks whose
    values could interact with the operand-range checks fall back to
    the exact per-command loop (:func:`_apply_functional_exact`), so
    error behaviour (message and offending command) is preserved.  A
    fault session always takes the exact loop, which applies its drift
    corruption command by command.
    """

    def __init__(
        self,
        device,
        workload: str = "trace",
        functional: bool = True,
        faults=None,
        span_sink=None,
    ) -> None:
        if faults is not None and faults.abort_index is not None:
            raise ValueError(
                "abort fault sessions need the whole trace up front; "
                "use execute_columnar"
            )
        self.device = device
        self.workload = workload
        self.functional = device._functional_enabled(functional)
        self.faults = faults
        self.span_sink = span_sink
        #: Commands consumed so far (the global index of the next one).
        self.offset = 0
        self.pim_vpcs = 0
        self.chunks_fed = 0
        #: Chunks the batched apply handed to the exact loop.
        self.fallbacks = 0
        self._busy: Dict[int, float] = {}
        self._bus_busy = 0.0
        self._finish_time = 0.0
        self._span_start: List[float] = []
        self._span_finish: List[float] = []
        self._span_rw: List[bool] = []
        self._read_pj = 0.0
        self._write_pj = 0.0
        self._shift_pj = 0.0
        self._compute_pj = 0.0
        self._stats: "RunStats | None" = None

    def feed(self, cols: ColumnarTrace, check: bool = True) -> None:
        """Advance the execution by one chunk of the trace.

        ``check=False`` skips the address-range gate for callers that
        already ran it (the phased wrapper checks the whole trace up
        front; the streamed pipeline verifies each chunk through the
        SPV rules, which subsume it).
        """
        if self._stats is not None:
            raise RuntimeError("execution already finished")
        n = len(cols)
        if n == 0:
            return
        if check:
            check_addresses(self.device, cols)

        device = self.device
        opcode = cols.opcode
        size = cols.size
        compute = cols.is_compute
        self.pim_vpcs += int(compute.sum())

        # The scheduler's dependency relation names the resources each
        # command serialises on; it is a pure per-command map, so
        # per-chunk evaluation equals the whole-trace one.  (Lazy
        # import: core.device imports this module.)
        from repro.core.scheduler import trace_dependencies

        deps = trace_dependencies(
            cols, device.address_map.words_per_subarray
        )

        is_mul = opcode == MUL_BYTE
        profile_ns, profile_shift, profile_compute = _unique_profiles(
            device, opcode, size
        )
        copy_ns, copy_read, copy_write = _copy_costs(device, size)
        result_words = np.where(is_mul, 1, size)
        result_ns, result_read, result_write = _copy_costs(
            device, result_words
        )

        operand_copy = deps.remote >= 0
        result_copy = compute & (deps.dest >= 0)
        cross_tran = deps.uses_bus

        # --------------------------------------------------------------
        # Energy: per-command contributions are fully static; lay them
        # out in the scalar executor's event order (operand copy,
        # profile, result copy — three slots per command) and continue
        # the running left-to-right reduction across chunks.
        # --------------------------------------------------------------
        read_contrib = np.zeros(3 * n)
        write_contrib = np.zeros(3 * n)
        shift_contrib = np.zeros(3 * n)
        compute_contrib = np.zeros(3 * n)
        slot0 = 3 * np.flatnonzero(operand_copy)
        read_contrib[slot0] = copy_read[operand_copy]
        write_contrib[slot0] = copy_write[operand_copy]
        profiled = compute | ~cross_tran
        slot1 = 3 * np.flatnonzero(profiled) + 1
        shift_contrib[slot1] = profile_shift[profiled]
        compute_contrib[slot1] = profile_compute[profiled]
        slot1_cross = 3 * np.flatnonzero(cross_tran) + 1
        read_contrib[slot1_cross] = copy_read[cross_tran]
        write_contrib[slot1_cross] = copy_write[cross_tran]
        slot2 = 3 * np.flatnonzero(result_copy) + 2
        read_contrib[slot2] = result_read[result_copy]
        write_contrib[slot2] = result_write[result_copy]
        self._read_pj = _ordered_sum_carry(self._read_pj, read_contrib)
        self._write_pj = _ordered_sum_carry(self._write_pj, write_contrib)
        self._shift_pj = _ordered_sum_carry(self._shift_pj, shift_contrib)
        self._compute_pj = _ordered_sum_carry(
            self._compute_pj, compute_contrib
        )

        # --------------------------------------------------------------
        # Busy-until scan: the only sequential dependence.  The decode
        # clock continues from the global command index, and the busy
        # map / bus clock persist on the state across chunks.
        # --------------------------------------------------------------
        decode_ns = device.config.vpc_decode_ns
        ready_list = (
            np.arange(
                self.offset + 1, self.offset + n + 1, dtype=np.float64
            )
            * decode_ns
        ).tolist()
        busy = self._busy
        busy_get = busy.get
        bus_busy = self._bus_busy
        finish_time = self._finish_time
        start_append = self._span_start.append
        finish_append = self._span_finish.append
        rw_append = self._span_rw.append

        for (
            ready,
            code,
            home,
            remote,
            dest,
            profile_dur,
            copy_dur,
            result_dur,
            has_operand_copy,
            has_result_copy,
            is_cross,
        ) in zip(
            ready_list,
            opcode.tolist(),
            deps.home.tolist(),
            deps.remote.tolist(),
            deps.dest.tolist(),
            profile_ns.tolist(),
            copy_ns.tolist(),
            result_ns.tolist(),
            operand_copy.tolist(),
            result_copy.tolist(),
            cross_tran.tolist(),
        ):
            if code != TRAN_BYTE:
                home_busy = busy_get(home, 0.0)
                start = ready if ready > home_busy else home_busy
                if has_operand_copy:
                    remote_busy = busy_get(remote, 0.0)
                    begin = start if start > remote_busy else remote_busy
                    start = begin + copy_dur
                    busy[remote] = start
                    start_append(begin)
                    finish_append(start)
                    rw_append(True)
                finish = start + profile_dur
                busy[home] = finish
                start_append(start)
                finish_append(finish)
                rw_append(False)
                if has_result_copy:
                    dest_busy = busy_get(dest, 0.0)
                    begin = finish if finish > dest_busy else dest_busy
                    finish = begin + result_dur
                    busy[dest] = finish
                    start_append(begin)
                    finish_append(finish)
                    rw_append(True)
            elif not is_cross:
                source_busy = busy_get(home, 0.0)
                begin = ready if ready > source_busy else source_busy
                finish = begin + profile_dur
                busy[home] = finish
                start_append(begin)
                finish_append(finish)
                rw_append(False)
            else:
                begin = bus_busy if bus_busy > ready else ready
                source_busy = busy_get(home, 0.0)
                if source_busy > begin:
                    begin = source_busy
                dest_busy = busy_get(dest, 0.0)
                if dest_busy > begin:
                    begin = dest_busy
                finish = begin + copy_dur
                bus_busy = finish
                busy[home] = finish
                busy[dest] = finish
                start_append(begin)
                finish_append(finish)
                rw_append(True)
            if finish > finish_time:
                finish_time = finish

        self._bus_busy = bus_busy
        self._finish_time = finish_time

        if self.functional:
            if self.faults is not None:
                _apply_functional_exact(
                    device,
                    cols,
                    faults=self.faults,
                    index_offset=self.offset,
                )
            elif not _apply_functional_batched(device, cols):
                self.fallbacks += 1
                _apply_functional_exact(
                    device, cols, index_offset=self.offset
                )
        self.offset += n
        self.chunks_fed += 1

    def finish(self) -> RunStats:
        """Close the execution and assemble the final ``RunStats``.

        Idempotent: subsequent calls return the same object.  The span
        sink (when attached) receives the whole-trace
        ``(starts, finishes, is_rw)`` triple here, exactly as the
        phased path emits it.
        """
        if self._stats is not None:
            return self._stats
        stats = RunStats(
            platform="StPIM",
            workload=self.workload,
            time_ns=self._finish_time,
            time_breakdown=TimeBreakdown(),
            energy=EnergyBreakdown(
                read_pj=self._read_pj,
                write_pj=self._write_pj,
                shift_pj=self._shift_pj,
                compute_pj=self._compute_pj,
            ),
        )
        stats.bump("pim_vpcs", self.pim_vpcs)
        stats.bump("move_vpcs", self.offset - self.pim_vpcs)
        starts_array = np.array(self._span_start, dtype=np.float64)
        finishes_array = np.array(self._span_finish, dtype=np.float64)
        rw_array = np.array(self._span_rw, dtype=bool)
        # sweep_spans globally sorts span edges, so it must see the
        # whole span record at once — per-chunk sweeps would not merge
        # intervals that straddle a chunk boundary identically.
        stats.time_breakdown = sweep_spans(
            starts_array, finishes_array, rw_array
        )
        if self.span_sink is not None:
            self.span_sink.append(
                (starts_array, finishes_array, rw_array)
            )
        if self.faults is not None:
            stats.time_breakdown.add("recovery", self.faults.recovery_ns)
            stats.energy.add("recovery", self.faults.recovery_pj)
            stats.time_ns = self._finish_time + self.faults.recovery_ns
        self._stats = stats
        return stats


def execute_columnar(
    device,
    cols: ColumnarTrace,
    workload: str = "trace",
    functional: bool = True,
    faults=None,
    span_sink=None,
) -> RunStats:
    """Execute a columnar trace; equivalent to the scalar event loop.

    Verification is the caller's job (``StreamPIMDevice.execute_trace``
    runs the vectorized SPV001 gate before dispatching here).

    ``faults`` is an optional resolved
    :class:`~repro.resilience.session.FaultSession`: the session's
    pre-sampled decisions (silent corruption indices, recovery totals,
    abort position) are applied exactly as the scalar loop applies them,
    so fault-injected runs stay bit-identical across engines.

    ``span_sink``, when not None, receives one
    ``(starts, finishes, is_rw)`` array triple — the exact busy
    intervals the time sweep consumed, in emission order — so the
    observability layer (:mod:`repro.obs`) can batch-build named spans
    *after* the run without adding any per-event work here.

    This is the phased path: one :class:`VectorExecState` fed the whole
    trace as a single chunk, so it shares the streamed pipeline's
    batched functional apply and exact fallback.
    """
    check_addresses(device, cols)

    if faults is not None and faults.abort_index is not None:
        # The scalar loop raises mid-trace with every earlier VPC
        # already applied; reproduce that observable state exactly.
        if device._functional_enabled(functional):
            _apply_functional_exact(
                device, cols, faults=faults, limit=faults.abort_index
            )
        raise faults.abort_error()

    state = VectorExecState(
        device,
        workload=workload,
        functional=functional,
        faults=faults,
        span_sink=span_sink,
    )
    state.feed(cols, check=False)
    return state.finish()


# ----------------------------------------------------------------------
# Functional apply
# ----------------------------------------------------------------------
#: Most (segment, command) access pairs one levelling block expands to.
#: A larger block is split into two consecutive halves; that split is
#: exact, because blocks run in trace order (a block boundary is a
#: barrier) — it only trades batch width for bounded memory.
_PAIR_BUDGET = 1 << 20
#: Most words one batched gather copies (bounds the transient rows).
_GATHER_WORDS = 1 << 20


def _merge_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of half-open ranges as sorted disjoint segments."""
    order = np.argsort(starts)
    starts = starts[order]
    running_end = np.maximum.accumulate(ends[order])
    breaks = np.empty(len(starts), dtype=bool)
    breaks[0] = True
    breaks[1:] = starts[1:] > running_end[:-1]
    segment_starts = starts[breaks]
    last = np.concatenate(
        (np.flatnonzero(breaks)[1:] - 1, [len(starts) - 1])
    )
    return segment_starts, running_end[last]


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` per row, loop-free."""
    return np.repeat(starts - _exclusive_cumsum(counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


class _DenseWords:
    """The words the first ``count`` commands of a chunk touch, dense.

    Every read and write range is merged into disjoint segments laid
    end to end in :attr:`buffer`, which is seeded from the word store
    one segment at a time (unwritten words read 0).  ``a``/``b``/``d``
    are the commands' compacted src1/src2/des offsets; :meth:`flush`
    writes the destination ranges back.  Shared by the batched apply
    and the exact per-command loop, so both see the same buffer.
    """

    def __init__(self, store, cols: ColumnarTrace, count: int) -> None:
        self.opcode = opcode = cols.opcode[:count]
        self.size = size = cols.size[:count].astype(np.int64)
        self.compute = compute = cols.is_compute[:count]
        src1 = cols.src1[:count].astype(np.int64)
        src2 = cols.src2[:count].astype(np.int64)
        self._des = des = cols.des[:count].astype(np.int64)
        self.src1_len = np.where(opcode == SMUL_BYTE, 1, size)
        self.des_len = np.where(opcode == MUL_BYTE, 1, size)

        self._starts, ends = _merge_ranges(
            np.concatenate((src1, src2[compute], des)),
            np.concatenate(
                (
                    src1 + self.src1_len,
                    (src2 + size)[compute],
                    des + self.des_len,
                )
            ),
        )
        lengths = ends - self._starts
        self._offsets = _exclusive_cumsum(lengths)
        self.buffer = np.empty(int(lengths.sum()), dtype=np.int64)
        read = store.read
        for start, length, offset in zip(
            self._starts.tolist(), lengths.tolist(), self._offsets.tolist()
        ):
            self.buffer[offset : offset + length] = read(start, length)
        self.a = self._compact(src1)
        # src2 of TRAN rows is the no-operand sentinel, outside every
        # segment; substitute src1 so the lookup stays in range (the
        # value is never used for TRAN rows).
        self.b = self._compact(np.where(compute, src2, src1))
        self.d = self._compact(des)

    def _compact(self, addresses: np.ndarray) -> np.ndarray:
        index = np.searchsorted(self._starts, addresses, side="right") - 1
        return self._offsets[index] + (addresses - self._starts[index])

    def flush(self, store) -> None:
        """Write every destination range back to the word store."""
        starts, ends = _merge_ranges(self._des, self._des + self.des_len)
        write = store.write
        for start, end, base in zip(
            starts.tolist(), ends.tolist(), self._compact(starts).tolist()
        ):
            write(start, self.buffer[base : base + (end - start)])


def _apply_functional_exact(
    device, cols: ColumnarTrace, faults=None, limit=None, index_offset=0
) -> None:
    """Exact per-command functional replay on the dense buffer.

    Applies one command at a time through ``RMProcessor.apply`` (with
    its operand-range checks), producing exactly the word-store
    contents — and the exact ``ValueError`` at the exact command — of
    the scalar per-VPC loop.  It serves fault sessions and chunks the
    batched apply hands back (:func:`_apply_functional_batched`).

    ``faults`` corrupts destination slices at the session's undetected-
    drift indices (same rotation, same point in the apply sequence as
    the scalar hook); ``limit`` truncates the apply at an abort index so
    the flushed store matches the scalar loop's state when it raised.
    ``index_offset`` is the global trace index of ``cols[0]`` when the
    trace arrives as chunks — fault indices and diagnostics stay in
    whole-trace terms.
    """
    count = len(cols) if limit is None else min(limit, len(cols))
    if count == 0:
        return
    words = _DenseWords(device.store, cols, count)
    buffer = words.buffer
    op_list = words.opcode.tolist()
    a_list = words.a.tolist()
    b_list = words.b.tolist()
    d_list = words.d.tolist()
    size_list = words.size.tolist()
    apply_compute = device.processor.apply
    drift_map = faults.drift if faults is not None else None
    if not drift_map:
        drift_map = None
        des_len_list = None
    else:
        des_len_list = words.des_len.tolist()

    i = -1
    try:
        for i in range(count):
            code = op_list[i]
            size = size_list[i]
            a = a_list[i]
            d = d_list[i]
            if code == TRAN_BYTE:
                if a != d:
                    chunk = buffer[a : a + size]
                    if abs(a - d) < size:
                        chunk = chunk.copy()
                    buffer[d : d + size] = chunk
            else:
                first_len = 1 if code == SMUL_BYTE else size
                result = apply_compute(
                    BYTE_TO_OPCODE[code],
                    buffer[a : a + first_len],
                    buffer[b_list[i] : b_list[i] + size],
                )
                buffer[d : d + len(result)] = result
            if drift_map is not None:
                drift = drift_map.get(index_offset + i)
                if drift:
                    span = des_len_list[i]
                    buffer[d : d + span] = faults.corrupt_values(
                        buffer[d : d + span], drift
                    )
    except ShiftError as exc:
        raise SimulationFault(
            f"shift escaped the nanowire model during replay: {exc}",
            index=index_offset + i,
        ) from exc
    words.flush(device.store)


def _apply_functional_batched(device, cols: ColumnarTrace) -> bool:
    """Dependency-levelled batched apply of one chunk.

    Each op block (``cols.op_slices()``) is levelled
    (:func:`_block_levels`) and executed one level at a time, grouped
    by ``(opcode, size)``: every operand row of a group is gathered
    through a strided row view, then every result is scattered.  Ops
    run in trace order, so an op boundary is an exact barrier.

    The processor's per-command operand checks are replaced by a
    monitor: the seeded buffer and every compute result are checked for
    negatives.  If none appears, no operand check could have fired —
    every value a command read was a non-negative seed or result, and
    int64 arithmetic wraps identically in any order — so the buffer
    equals the exact loop's and is flushed.  Otherwise this returns
    False *without touching the store*, and the caller replays the
    chunk through :func:`_apply_functional_exact`, which reproduces
    the canonical ``ValueError`` at the first offending command.
    """
    if len(cols) == 0:
        return True
    words = _DenseWords(device.store, cols, len(cols))
    if bool((words.buffer < 0).any()):
        return False
    for lo, hi in cols.op_slices():
        if not _apply_block(words, lo, hi):
            return False
    words.flush(device.store)
    return True


def _apply_block(words: _DenseWords, lo: int, hi: int) -> bool:
    """Apply ``[lo, hi)``, halving it while it is over the pair budget."""
    levels = _block_levels(words, lo, hi)
    if levels is None:
        mid = (lo + hi) // 2
        return _apply_block(words, lo, mid) and _apply_block(words, mid, hi)
    return _run_levels(words, lo, hi, levels)


def _block_levels(words: _DenseWords, lo: int, hi: int):
    """Level of every command in ``[lo, hi)``, or None if over budget.

    A command's level is 1 + the highest level of any earlier command
    it has a RAW, WAR or WAW hazard with (0 if none), so the commands
    of one level touch no word another of them writes.  Hazards are
    found loop-free: the block's range endpoints cut the buffer into
    elementary segments, every access expands to the segments it
    covers, and one sort orders the (segment, command, read-before-
    write) pairs — the pair expansion of
    :class:`repro.verify.dataflow.DataflowIndex`.  In each segment a
    read depends on the last earlier write; a write on the last earlier
    write and every read since.  A frontier (Kahn) pass over those
    edges assigns the levels.
    """
    m = hi - lo
    compute = words.compute[lo:hi]
    a = words.a[lo:hi]
    b = words.b[lo:hi][compute]
    d = words.d[lo:hi]
    cmd = np.arange(m, dtype=np.int64)
    ev_start = np.concatenate((a, b, d))
    ev_end = np.concatenate(
        (
            a + words.src1_len[lo:hi],
            b + words.size[lo:hi][compute],
            d + words.des_len[lo:hi],
        )
    )
    # Sort key of each access within a segment: command, then reads
    # before writes (an in-place command reads before it rewrites).
    ev_key = np.concatenate((cmd, cmd[compute], cmd)) * 2
    ev_key[len(a) + len(b) :] += 1

    # Elementary segment of every endpoint: its rank among the distinct
    # endpoints (one sort; cheaper than unique + searchsorted).
    endpoints = np.concatenate((ev_start, ev_end))
    order = np.argsort(endpoints)
    ranked = endpoints[order]
    distinct = np.ones(len(ranked), dtype=bool)
    distinct[1:] = ranked[1:] != ranked[:-1]
    segment_of = np.empty(len(ranked), dtype=np.int64)
    segment_of[order] = np.cumsum(distinct) - 1
    seg_lo = segment_of[: len(ev_start)]
    counts = segment_of[len(ev_start) :] - seg_lo
    if m > 1 and int(counts.sum()) > _PAIR_BUDGET:
        return None
    key = _expand(seg_lo, counts) * (2 * m) + np.repeat(ev_key, counts)
    key.sort()
    seg = key // (2 * m)
    p_write = (key & 1).astype(bool)
    p_cmd = (key - seg * (2 * m)) >> 1

    pos = np.arange(len(key), dtype=np.int64)
    new_segment = np.ones(len(key), dtype=bool)
    new_segment[1:] = seg[1:] != seg[:-1]
    seg_first = np.maximum.accumulate(np.where(new_segment, pos, 0))
    last_write = np.full(len(key), -1, dtype=np.int64)
    last_write[1:] = np.maximum.accumulate(np.where(p_write, pos, -1))[:-1]
    last_write = np.where(last_write >= seg_first, last_write, -1)

    raw = ~p_write & (last_write >= 0)
    written = np.flatnonzero(p_write)
    since = np.maximum(last_write[written], seg_first[written])
    deps = written - since
    src = np.concatenate(
        (p_cmd[last_write[raw]], p_cmd[_expand(since, deps)])
    )
    dst = np.concatenate((p_cmd[raw], np.repeat(p_cmd[written], deps)))
    keep = src != dst
    return _frontier_levels(src[keep], dst[keep], m)


def _frontier_levels(src: np.ndarray, dst: np.ndarray, m: int) -> np.ndarray:
    """Longest-path depth of each node of a DAG, one frontier a step."""
    level = np.zeros(m, dtype=np.int64)
    if not len(src):
        return level
    targets_by_src = dst[np.argsort(src)]
    out_count = np.bincount(src, minlength=m)
    out_start = _exclusive_cumsum(out_count)
    indegree = np.bincount(dst, minlength=m)
    frontier = np.flatnonzero(indegree == 0)
    depth = 0
    while len(frontier):
        level[frontier] = depth
        counts = out_count[frontier]
        targets = targets_by_src[_expand(out_start[frontier], counts)]
        np.subtract.at(indegree, targets, 1)
        frontier = np.sort(targets[indegree[targets] == 0])
        if len(frontier) > 1:
            frontier = frontier[
                np.concatenate(([True], frontier[1:] != frontier[:-1]))
            ]
        depth += 1
    return level


def _run_levels(
    words: _DenseWords, lo: int, hi: int, level: np.ndarray
) -> bool:
    """Execute ``[lo, hi)`` level by level, batched per (opcode, size)."""
    opcode = words.opcode[lo:hi]
    size = words.size[lo:hi]
    order = np.lexsort((size, opcode, level))
    level = level[order]
    opcode = opcode[order]
    size = size[order]
    a = words.a[lo:hi][order]
    b = words.b[lo:hi][order]
    d = words.d[lo:hi][order]
    cut = np.flatnonzero(
        (level[1:] != level[:-1])
        | (opcode[1:] != opcode[:-1])
        | (size[1:] != size[:-1])
    ) + 1
    buffer = words.buffer
    views: Dict[int, np.ndarray] = {}
    for start, stop in zip(
        [0] + cut.tolist(), cut.tolist() + [len(order)]
    ):
        code = int(opcode[start])
        width = int(size[start])
        rows = views.get(width)
        if rows is None:
            # The windows overlap, but the rows one batch writes are
            # disjoint: a level holds no two writers of the same word.
            rows = views[width] = np.lib.stride_tricks.sliding_window_view(
                buffer, width, writeable=True
            )
        step = max(1, _GATHER_WORDS // width)
        for first in range(start, stop, step):
            last = min(first + step, stop)
            ra = a[first:last]
            rd = d[first:last]
            if code == TRAN_BYTE:
                rows[rd] = rows[ra]
                continue
            rb = b[first:last]
            if code == MUL_BYTE:
                result = np.einsum("ij,ij->i", rows[ra], rows[rb])
                buffer[rd] = result
            elif code == ADD_BYTE:
                result = rows[ra] + rows[rb]
                rows[rd] = result
            else:  # SMUL
                result = buffer[ra][:, None] * rows[rb]
                rows[rd] = result
            if bool((result < 0).any()):
                return False
    return True
