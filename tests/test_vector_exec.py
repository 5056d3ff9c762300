"""Vector trace engine: exact scalar equivalence + supporting machinery."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cli import _check_specs, main
from repro.core.device import StreamPIMDevice
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import VPCTrace, write_trace_binary
from repro.isa.vpc import VPC
from repro.sim import vector_exec
from repro.sim.engine import Engine
from repro.sim.stats import TimeBreakdown
from repro.sim.vector_exec import (
    _apply_functional_batched,
    _apply_functional_exact,
    sweep_spans,
)
from repro.verify.trace_verifier import TraceVerificationError

_BREAKDOWN_FIELDS = (
    "read_ns", "write_ns", "shift_ns", "process_ns", "overlapped_ns"
)
_ENERGY_FIELDS = ("read_pj", "write_pj", "shift_pj", "compute_pj")


def _run_both(trace, config=None, functional=True):
    """The same trace through both engines on fresh devices."""
    scalar_device = StreamPIMDevice(config) if config else StreamPIMDevice()
    vector_device = StreamPIMDevice(config) if config else StreamPIMDevice()
    return scalar_device, vector_device, (
        lambda: scalar_device.execute_trace(
            trace, workload="diff", functional=functional
        ),
        lambda: vector_device.execute_trace(
            trace, workload="diff", functional=functional, engine="vector"
        ),
    )


def _assert_identical(scalar_stats, vector_stats):
    """Exact (bitwise) equality of every reported quantity."""
    assert vector_stats.time_ns == scalar_stats.time_ns
    for name in _BREAKDOWN_FIELDS:
        assert getattr(vector_stats.time_breakdown, name) == getattr(
            scalar_stats.time_breakdown, name
        ), name
    for name in _ENERGY_FIELDS:
        assert getattr(vector_stats.energy, name) == getattr(
            scalar_stats.energy, name
        ), name
    assert vector_stats.counters == scalar_stats.counters
    assert vector_stats.platform == scalar_stats.platform
    assert vector_stats.workload == scalar_stats.workload


class TestDifferentialAllWorkloads:
    """Scalar and vector engines agree exactly on every generator."""

    @pytest.mark.parametrize(
        "spec",
        list(_check_specs(0.01)),
        ids=lambda spec: spec.name,
    )
    def test_workload_is_bit_identical(self, spec):
        task = spec.build_task()
        trace = task.to_trace()
        config = task.device.config
        scalar_device = StreamPIMDevice(config)
        vector_device = StreamPIMDevice(config)
        task.materialize(scalar_device)
        task.materialize(vector_device)

        cols = ColumnarTrace.from_trace(trace)
        try:
            scalar_stats = scalar_device.execute_trace(
                trace, workload=spec.name
            )
        except ValueError as exc:
            # Some generators (power_iter) produce traces the functional
            # model rejects (negative intermediates); both engines must
            # reject them identically, and timing parity is then checked
            # without the functional replay.
            with pytest.raises(ValueError) as excinfo:
                vector_device.execute_trace(
                    cols, workload=spec.name, engine="vector"
                )
            assert str(excinfo.value) == str(exc)
            scalar_stats = StreamPIMDevice(config).execute_trace(
                trace, workload=spec.name, functional=False
            )
            vector_stats = StreamPIMDevice(config).execute_trace(
                cols, workload=spec.name, functional=False, engine="vector"
            )
            _assert_identical(scalar_stats, vector_stats)
            return

        vector_stats = vector_device.execute_trace(
            cols, workload=spec.name, engine="vector"
        )
        _assert_identical(scalar_stats, vector_stats)
        # Functional replay left both word stores in the same state —
        # same addresses present, same values.
        assert vector_device.store.snapshot() == scalar_device.store.snapshot()


class TestEngineSelection:
    def test_vector_accepts_object_trace(self):
        trace = VPCTrace([VPC.tran(0, 64, 8), VPC.add(0, 64, 128, 8)])
        _, _, (run_scalar, run_vector) = _run_both(trace)
        _assert_identical(run_scalar(), run_vector())

    def test_unknown_engine_rejected(self):
        device = StreamPIMDevice()
        with pytest.raises(ValueError, match="engine"):
            device.execute_trace(VPCTrace([]), engine="warp")

    def test_empty_trace(self):
        trace = VPCTrace([])
        _, _, (run_scalar, run_vector) = _run_both(trace)
        _assert_identical(run_scalar(), run_vector())


class TestVerifyGateParity:
    """Both engines reject out-of-bounds traces with the same report."""

    def _oob_trace(self, device):
        # The read range hangs off the end of the device (SPV001).
        total = device.address_map.total_words
        return VPCTrace(
            [VPC.tran(0, 64, 8), VPC.tran(total - 2, 128, 8)]
        )

    def _oob_address_trace(self, device):
        # The start address itself is unmappable (IndexError at replay).
        total = device.address_map.total_words
        return VPCTrace(
            [VPC.tran(0, 64, 8), VPC.tran(total + 10, 128, 8)]
        )

    def test_same_diagnostics(self):
        scalar_device = StreamPIMDevice()
        vector_device = StreamPIMDevice()
        trace = self._oob_trace(scalar_device)
        with pytest.raises(TraceVerificationError) as scalar:
            scalar_device.execute_trace(trace, workload="oob")
        with pytest.raises(TraceVerificationError) as vector:
            vector_device.execute_trace(
                trace, workload="oob", engine="vector"
            )
        scalar_errors = [d.render() for d in scalar.value.report.errors]
        vector_errors = [d.render() for d in vector.value.report.errors]
        assert scalar_errors == vector_errors
        assert len(scalar_errors) > 0

    def test_unverified_replay_raises_index_error(self):
        scalar_device = StreamPIMDevice()
        vector_device = StreamPIMDevice()
        trace = self._oob_address_trace(scalar_device)
        with pytest.raises(IndexError) as scalar:
            scalar_device.execute_trace(
                trace, workload="oob", functional=False, verify=False
            )
        with pytest.raises(IndexError) as vector:
            vector_device.execute_trace(
                trace,
                workload="oob",
                functional=False,
                verify=False,
                engine="vector",
            )
        assert str(vector.value) == str(scalar.value)

    def test_cached_verifier_is_reused(self):
        device = StreamPIMDevice()
        trace = VPCTrace([VPC.tran(0, 64, 8)])
        device.execute_trace(trace, functional=False)
        first = device._bounds_verifier
        assert first is not None
        device.execute_trace(trace, functional=False, engine="vector")
        assert device._bounds_verifier is first


def _reference_breakdown(starts, finishes, is_rw):
    """Quadratic reference: classify every covered instant directly."""
    edges = sorted(set(starts) | set(finishes))
    result = TimeBreakdown()
    for left, right in zip(edges, edges[1:]):
        rw = pim = False
        for start, finish, kind_rw in zip(starts, finishes, is_rw):
            if start <= left and right <= finish:
                if kind_rw:
                    rw = True
                else:
                    pim = True
        width = right - left
        if rw and pim:
            result.add("overlapped", width)
        elif pim:
            result.add("process", width)
        elif rw:
            result.add("read", width * 0.3)
            result.add("write", width * 0.7)
    return result


class TestSweepSpans:
    def test_empty(self):
        empty = np.array([], dtype=np.float64)
        breakdown = sweep_spans(empty, empty, np.array([], dtype=bool))
        assert breakdown.total_ns == 0.0

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(7)
        starts = rng.uniform(0.0, 100.0, size=64)
        widths = rng.uniform(0.0, 20.0, size=64)
        finishes = starts + widths
        is_rw = rng.integers(0, 2, size=64).astype(bool)
        fast = sweep_spans(starts, finishes, is_rw)
        slow = _reference_breakdown(
            starts.tolist(), finishes.tolist(), is_rw.tolist()
        )
        for name in _BREAKDOWN_FIELDS:
            assert getattr(fast, name) == pytest.approx(
                getattr(slow, name)
            ), name

    def test_zero_width_spans_contribute_nothing(self):
        starts = np.array([5.0, 5.0])
        finishes = np.array([5.0, 5.0])
        is_rw = np.array([True, False])
        assert sweep_spans(starts, finishes, is_rw).total_ns == 0.0


class TestEnginePendingCounter:
    def test_schedule_and_run(self):
        engine = Engine()
        for delay in (1.0, 2.0, 3.0):
            engine.schedule(delay, lambda: None)
        assert engine.pending == 3
        engine.run()
        assert engine.pending == 0

    def test_cancel_decrements(self):
        engine = Engine()
        keep = engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        drop.cancel()
        assert engine.pending == 1
        drop.cancel()  # idempotent
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0
        keep.cancel()  # cancel after execution must not go negative
        assert engine.pending == 0

    def test_step_consumes_one_live_event(self):
        engine = Engine()
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        first.cancel()
        assert engine.pending == 1
        assert engine.step() is True
        assert engine.pending == 0
        assert engine.step() is False


class TestCliIntegration:
    def test_sweep_jobs_matches_sequential(self, capsys):
        argv = ["sweep", "--workloads", "atax", "--scale", "0.01"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential
        assert "atax" in sequential

    def test_replay_vector_engine(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        trace = VPCTrace([VPC.tran(0, 64, 8), VPC.add(0, 64, 128, 8)])
        write_trace_binary(trace, path)
        assert main(["replay", str(path), "--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["replay", str(path), "--engine", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert vector_out == scalar_out


# ----------------------------------------------------------------------
# Batched functional apply vs the exact loop and the scalar engine
# ----------------------------------------------------------------------
#: Every random command lives in this many words, so ranges alias and
#: overlap often.
_WINDOW = 24
_INT64_MAX = (1 << 63) - 1


@st.composite
def _functional_traces(draw, values=st.integers(0, 3)):
    """(commands, op_starts or None, seed words) over a small window."""
    commands = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(("tran", "mul", "add", "smul")))
        size = draw(st.integers(1, 6))
        place = st.integers(0, _WINDOW - size)
        src1 = draw(place)
        src2 = draw(place)
        des = draw(place)
        if kind == "tran":
            commands.append(VPC.tran(src1, des, size))
        elif kind == "add" and draw(st.booleans()):
            # In place: the destination is one of the operands.
            commands.append(VPC.add(src1, src2, src1, size))
        else:
            commands.append(getattr(VPC, kind)(src1, src2, des, size))
    op_starts = None
    if draw(st.booleans()):
        cuts = st.sets(st.integers(1, max(1, len(commands) - 1)))
        op_starts = [0] + sorted(draw(cuts)) if len(commands) > 1 else [0]
    seed = draw(st.lists(values, min_size=_WINDOW, max_size=_WINDOW))
    return commands, op_starts, seed


def _columnar(commands, op_starts):
    cols = ColumnarTrace.from_trace(VPCTrace(commands))
    if op_starts is not None:
        cols = ColumnarTrace(cols.records, op_starts=op_starts)
    return cols


def _seeded(seed):
    device = StreamPIMDevice()
    device.store.write(0, seed)
    return device


def _python_reference(commands, seed):
    """Unbounded-integer replay: final words, or None if any result
    leaves int64 (where the engines must wrap or reject)."""
    words = dict(enumerate(seed))
    for vpc in commands:
        a = [words.get(vpc.src1 + i, 0) for i in range(vpc.size)]
        if vpc.opcode.name == "TRAN":
            result = a
        else:
            b = [words.get(vpc.src2 + i, 0) for i in range(vpc.size)]
            if vpc.opcode.name == "MUL":
                result = [sum(x * y for x, y in zip(a, b))]
            elif vpc.opcode.name == "ADD":
                result = [x + y for x, y in zip(a, b)]
            else:
                result = [a[0] * y for y in b]
        if any(value > _INT64_MAX for value in result):
            return None
        for i, value in enumerate(result):
            words[vpc.des + i] = value
    return words


def _first_error(run, commands, op_starts, seed):
    """(index, message) of the first command a replay rejects."""
    for count in range(1, len(commands) + 1):
        starts = None
        if op_starts is not None:
            starts = [s for s in op_starts if s < count]
        try:
            run(_seeded(seed), commands[:count], starts)
        except ValueError as exc:
            return count - 1, str(exc)
    return None


def _run_exact(device, commands, op_starts):
    _apply_functional_exact(device, _columnar(commands, op_starts))


def _run_vector(device, commands, op_starts):
    device.execute_trace(_columnar(commands, op_starts), engine="vector")


def _run_scalar(device, commands, op_starts):
    device.execute_trace(VPCTrace(commands))


class TestBatchedApplyProperty:
    """The batched apply equals the exact loop and the scalar engine."""

    @settings(max_examples=200, deadline=None)
    @given(case=_functional_traces())
    def test_store_matches_exact_and_scalar(self, case):
        commands, op_starts, seed = case
        reference = _python_reference(commands, seed)
        # Wrapping chains are the next test's subject.
        assume(reference is not None)
        cols = _columnar(commands, op_starts)
        batched = _seeded(seed)
        # Nothing wraps and no seed is negative: no fallback.
        assert _apply_functional_batched(batched, cols)
        exact = _seeded(seed)
        _apply_functional_exact(exact, cols)
        scalar = _seeded(seed)
        scalar.execute_trace(VPCTrace(commands))
        vector = _seeded(seed)
        vector.execute_trace(cols, engine="vector")
        # A tiny pair budget splits every op into small sub-blocks.
        split = _seeded(seed)
        with mock.patch.object(vector_exec, "_PAIR_BUDGET", 2):
            assert _apply_functional_batched(split, cols)

        assert batched.store.snapshot() == reference
        assert split.store.snapshot() == reference
        assert exact.store.snapshot() == reference
        assert scalar.store.snapshot() == reference
        assert vector.store.snapshot() == reference

    @settings(max_examples=100, deadline=None)
    @given(
        case=_functional_traces(
            values=st.sampled_from((0, 1, 2, 2, -1, 1 << 31, 1 << 62))
        )
    )
    def test_rejects_at_the_same_index(self, case):
        commands, op_starts, seed = case
        exact = _first_error(_run_exact, commands, op_starts, seed)
        assert _first_error(_run_vector, commands, op_starts, seed) == exact
        assert _first_error(_run_scalar, commands, op_starts, seed) == exact
        if exact is None:
            scalar = _seeded(seed)
            _run_scalar(scalar, commands, None)
            vector = _seeded(seed)
            _run_vector(vector, commands, op_starts)
            assert vector.store.snapshot() == scalar.store.snapshot()

    def test_wrapped_product_read_later_raises(self):
        # 2**62 * 2 wraps to a negative word; the ADD then reads it.
        commands = [VPC.smul(0, 1, 4, 1), VPC.add(4, 5, 6, 1)]
        seed = [1 << 62, 2] + [0] * (_WINDOW - 2)
        device = _seeded(seed)
        assert not _apply_functional_batched(device, _columnar(commands, None))
        assert device.store.snapshot() == dict(enumerate(seed))
        expected = (1, "operands must be non-negative integers")
        for run in (_run_exact, _run_vector, _run_scalar):
            assert _first_error(run, commands, None, seed) == expected

    def test_wrapped_product_never_read_falls_back_exactly(self):
        commands = [VPC.smul(0, 1, 4, 1), VPC.tran(1, 8, 2)]
        seed = [1 << 62, 2] + [0] * (_WINDOW - 2)
        vector = _seeded(seed)
        result = vector.execute_trace_stream([_columnar(commands, None)])
        assert result.fallbacks == 1
        scalar = _seeded(seed)
        _run_scalar(scalar, commands, None)
        assert vector.store.snapshot() == scalar.store.snapshot()
        assert vector.store.read(4, 1)[0] < 0
