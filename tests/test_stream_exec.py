"""Streamed compile/execute pipeline: chunk-boundary invariance.

The streaming contract (``src/repro/core/stream.py``) is that chunking
is *unobservable* in the results: for any chunk size, a streamed run's
``RunStats``, word-store contents, and emitted spans are bit-identical
to the phased ``to_trace -> materialize -> execute_trace`` sequence on
both the vector engine and the scalar reference.  Hypothesis drives
random task shapes through chunk sizes spanning the degenerate cases
(one record per chunk, a prime stride, a typical stride, and a chunk
larger than the whole trace); a parametrized sweep covers every shipped
workload generator.

The second half pins the producer-side invariant: chunks are cut only
at operation boundaries (a multi-record op group never splits across
chunks), drains without a boundary yield nothing, and a drained
builder refuses ``build()``.
"""

import numpy as np
import pytest

from repro.cli import _check_specs
from repro.core.device import StreamPIMDevice
from repro.core.stream import (
    iter_trace_chunks,
    run_stream,
    task_chunk_producer,
)
from repro.core.task import PimTask, TaskOp
from repro.isa.columnar import (
    ColumnarTrace,
    ColumnarTraceBuilder,
    TRAN_BYTE,
)
from repro.obs import Collector

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: The degenerate chunk sizes the contract must survive; None stands
#: for "larger than the whole trace" (resolved per-test).
CHUNK_SIZES = (1, 7, 64, None)
_HUGE_CHUNK = 1 << 30

_SETTINGS = settings(max_examples=15, deadline=None)


def _build_task(device, seed, m, k, n, with_add, with_scale, with_matvec):
    """A deterministic random task covering every op record shape."""
    rng = np.random.default_rng(seed)
    task = PimTask(device)
    task.add_matrix("A", rng.integers(0, 50, size=(m, k)))
    task.add_matrix("B", rng.integers(0, 50, size=(k, n)))
    task.add_matrix("C", shape=(m, n))
    task.add_operation(TaskOp.MATMUL, "A", "B", "C")
    if with_add:
        task.add_matrix("D", rng.integers(0, 50, size=(m, n)))
        task.add_matrix("E", shape=(m, n))
        task.add_operation(TaskOp.MAT_ADD, "C", "D", "E")
    if with_scale:
        task.add_scalar("alpha", int(rng.integers(1, 9)))
        task.add_matrix("F", shape=(m, n))
        task.add_operation(TaskOp.MAT_SCALE, "C", "F", scalar="alpha")
    if with_matvec:
        task.add_vector("x", rng.integers(0, 50, size=k))
        task.add_matrix("y", shape=(1, m))
        task.add_operation(TaskOp.MATVEC, "A", "x", "y")
    return task


def _phased(make_task, engine):
    """Reference run: full lowering, then one phased execution."""
    device = StreamPIMDevice()
    collector = Collector()
    device.observe(collector)
    task = make_task(device)
    trace = task.to_trace()
    task.materialize()
    stats = device.execute_trace(
        trace, workload="stream", functional=True, engine=engine
    )
    return stats, device.store.snapshot(), collector.spans, trace


def _streamed(make_task, chunk_vpcs):
    """Streamed run: chunks execute as lowering produces them."""
    device = StreamPIMDevice()
    collector = Collector()
    device.observe(collector)
    task = make_task(device)
    result, telemetry = run_stream(
        device,
        task_chunk_producer(task, chunk_vpcs=chunk_vpcs),
        workload="stream",
        functional=True,
    )
    return result, device.store.snapshot(), collector.spans, telemetry


class TestChunkBoundaryInvariance:
    """Chunking is unobservable: streamed == phased == scalar."""

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        k=st.integers(1, 5),
        n=st.integers(1, 5),
        with_add=st.booleans(),
        with_scale=st.booleans(),
        with_matvec=st.booleans(),
        chunk=st.sampled_from(CHUNK_SIZES),
    )
    def test_random_tasks(
        self, seed, m, k, n, with_add, with_scale, with_matvec, chunk
    ):
        def make_task(device):
            return _build_task(
                device, seed, m, k, n, with_add, with_scale, with_matvec
            )

        ref_stats, ref_store, ref_spans, ref_trace = _phased(
            make_task, "vector"
        )
        chunk_vpcs = chunk if chunk is not None else _HUGE_CHUNK
        result, store, spans, telemetry = _streamed(make_task, chunk_vpcs)

        assert result.stats == ref_stats
        assert store == ref_store
        assert spans == ref_spans
        assert result.trace == ref_trace
        if chunk == 1:
            # One record per chunk still cuts only at op boundaries:
            # chunk count equals op count, not record count.
            ops = 1 + with_add + with_scale + with_matvec
            assert result.chunks == ops
        if chunk is None:
            assert result.chunks == 1

        scalar_stats, scalar_store, _, _ = _phased(make_task, "scalar")
        assert result.stats == scalar_stats
        assert store == scalar_store

    @pytest.mark.parametrize(
        "spec", list(_check_specs(0.01)), ids=lambda spec: spec.name
    )
    def test_shipped_workloads(self, spec):
        def make_task(device):
            return spec.build_task(device)

        try:
            ref_stats, ref_store, ref_spans, ref_trace = _phased(
                make_task, "vector"
            )
        except ValueError as exc:
            # Generators the functional model rejects (power_iter's
            # negative intermediates) must be rejected identically by
            # the streamed path.
            with pytest.raises(ValueError) as excinfo:
                _streamed(make_task, 64)
            assert str(excinfo.value) == str(exc)
            return
        result, store, spans, _ = _streamed(make_task, 64)
        assert result.stats == ref_stats
        assert store == ref_store
        assert spans == ref_spans
        assert result.trace == ref_trace


class TestOpBoundaryChunks:
    """Chunks are cut at operation boundaries, never inside an op."""

    def _three_op_task(self, device):
        return _build_task(
            device, 11, 3, 4, 2,
            with_add=True, with_scale=True, with_matvec=False,
        )

    def test_chunk_per_op_at_min_size(self):
        task = self._three_op_task(StreamPIMDevice())
        chunks = list(task.to_trace_chunks(chunk_vpcs=1))
        assert len(chunks) == 3
        reference = self._three_op_task(StreamPIMDevice()).to_trace()
        merged = np.concatenate([chunk.records for chunk in chunks])
        assert ColumnarTrace(merged) == reference

    def test_huge_chunk_yields_whole_trace(self):
        task = self._three_op_task(StreamPIMDevice())
        chunks = list(task.to_trace_chunks(chunk_vpcs=_HUGE_CHUNK))
        assert len(chunks) == 1
        reference = self._three_op_task(StreamPIMDevice()).to_trace()
        assert chunks[0] == reference

    def test_chunk_vpcs_must_be_positive(self):
        task = self._three_op_task(StreamPIMDevice())
        with pytest.raises(ValueError):
            list(task.to_trace_chunks(chunk_vpcs=0))
        with pytest.raises(ValueError):
            list(iter_trace_chunks(ColumnarTrace.from_trace([]), 0))

    def test_drain_waits_for_op_boundary(self):
        builder = ColumnarTraceBuilder()
        builder.emit(TRAN_BYTE, 0, None, 100, 4)
        builder.emit(TRAN_BYTE, 4, None, 200, 4)
        # Records are buffered but no op has finished: nothing drains.
        assert list(builder.drain_chunks(min_records=1)) == []
        assert builder.pending_records() == 0
        builder.mark_op_boundary()
        assert builder.pending_records() == 2
        [chunk] = list(builder.drain_chunks(min_records=1))
        assert len(chunk) == 2

    def test_min_records_and_force(self):
        builder = ColumnarTraceBuilder()
        builder.emit(TRAN_BYTE, 0, None, 100, 4)
        builder.mark_op_boundary()
        assert list(builder.drain_chunks(min_records=5)) == []
        [chunk] = list(builder.drain_chunks(min_records=5, force=True))
        assert len(chunk) == 1
        with pytest.raises(ValueError):
            list(builder.drain_chunks(min_records=0))

    def test_build_after_drain_raises(self):
        builder = ColumnarTraceBuilder()
        builder.emit(TRAN_BYTE, 0, None, 100, 4)
        builder.mark_op_boundary()
        list(builder.drain_chunks(min_records=1))
        with pytest.raises(RuntimeError):
            builder.build()
