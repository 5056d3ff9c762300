"""Spans around the calls into each layer, kept in memory.

A span records its name, start, end, parent span, thread (track), the
item or request id it serves and an optional count (commands, bytes,
cache hits).  The benchmark opens spans around the public calls it
makes itself; :func:`instrument` wraps the inner layers that those
calls reach (task building, lowering, trace cache, verify, vector
engine) for the duration of a traced run.  With the tracer disabled a
span is a shared no-op and nothing is wrapped, which is how the
end-to-end runs measure.

Self time is a span's duration minus the time its same-thread child
spans cover.  Spans on one thread nest strictly, so per thread the
self times plus the time no span covers add up to the thread's wall
time; :func:`layer_report` checks that.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import BENCH_SELF_LINE, PER_LAYER, SELF_TIME_LINES

# Span record fields (a list, so the count can be filled in on exit).
NAME, START, END, PARENT, TRACK, ITEM, COUNT = range(7)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record", "index")

    def __init__(self, tracer, record, index):
        self.tracer = tracer
        self.record = record
        self.index = index

    def __enter__(self):
        self.tracer._stack().append(self.index)
        self.record[START] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.record[END] = time.perf_counter()
        self.tracer._stack().pop()
        return False


class Tracer:
    """Collects spans in memory; disabled tracers record nothing."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, item=None, parent: Optional[int] = None):
        """Open a span; ``parent`` links a thread's root to another's."""
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        if stack:
            parent = stack[-1]
        if item is None and parent is not None:
            item = self.spans[parent][ITEM]
        record = [name, 0.0, 0.0, parent, threading.get_ident(), item, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        return _Span(self, record, index)

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {
                "name": r[NAME],
                "start": r[START],
                "end": r[END],
                "parent": r[PARENT],
                "track": r[TRACK],
                "item": r[ITEM],
                "count": r[COUNT],
            }
            for r in self.spans
        ]


def _wrapped(tracer: Tracer, fn: Callable, name_of, count_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.span(name_of(args, kwargs))
        with span:
            result = fn(*args, **kwargs)
        if count_of is not None and span is not _NULL_SPAN:
            span.record[COUNT] = count_of(args, result)
        return result

    return wrapper


def _exec_name(args, kwargs) -> str:
    functional = kwargs.get("functional", args[3] if len(args) > 3 else True)
    return (
        "sim.vector_exec.functional" if functional else "sim.vector_exec.timing"
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the inner layers' public calls in spans while inside."""
    import repro.sim.vector_exec as vector_exec
    from repro.core.task import PimTask
    from repro.isa.trace_cache import TraceCache
    from repro.verify.trace_verifier import TraceVerifier
    from repro.workloads.spec import WorkloadSpec

    def fixed(name):
        return lambda args, kwargs: name

    patches = [
        (WorkloadSpec, "build_task", fixed("workloads.build_task"), None),
        (PimTask, "to_trace", fixed("core.task.lower"),
         lambda args, result: len(result)),
        (TraceCache, "put", fixed("isa.trace_cache.put"),
         lambda args, result: result.stat().st_size),
        (TraceCache, "get", fixed("isa.trace_cache.get"),
         lambda args, result: int(result is not None)),
        (TraceVerifier, "verify_columnar", fixed("verify.bounds"), None),
        (vector_exec, "execute_columnar", _exec_name,
         lambda args, result: len(args[1])),
    ]
    originals = []
    for owner, attr, name_of, count_of in patches:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrapped(tracer, original, name_of, count_of))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus its same-thread children's."""
    covered = [0.0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent is not None and spans[parent][TRACK] == record[TRACK]:
            covered[parent] += record[END] - record[START]
    return [r[END] - r[START] - c for r, c in zip(spans, covered)]


def layer_report(
    spans: List[list],
    main_track: int,
    traced_wall: float,
    untraced_wall: float,
    passes: int,
) -> Tuple[Dict[str, float], bool]:
    """Per-layer lines of one traced phase, per pass, and whether the
    self times plus the uncovered time reconcile with the wall time.

    ``main_track`` is the thread whose wall time ``traced_wall`` is;
    other threads contribute their root spans' durations.  The
    uncovered line is the main thread's wall time outside its root
    spans.
    """
    selfs = self_times(spans)
    lines: Dict[str, float] = {line: 0.0 for line in SELF_TIME_LINES.values()}
    lines[BENCH_SELF_LINE] = 0.0
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    main_roots = 0.0
    other_roots = 0.0
    for record, own in zip(spans, selfs):
        name = record[NAME]
        lines[SELF_TIME_LINES.get(name, BENCH_SELF_LINE)] += own
        calls[name] = calls.get(name, 0) + 1
        if record[COUNT] is not None:
            counts[name] = counts.get(name, 0) + record[COUNT]
        parent = record[PARENT]
        if parent is None or spans[parent][TRACK] != record[TRACK]:
            duration = record[END] - record[START]
            if record[TRACK] == main_track:
                main_roots += duration
            else:
                other_roots += duration
    uncovered = traced_wall - main_roots
    accounted = traced_wall + other_roots
    residual = sum(lines.values()) + uncovered - accounted
    reconciled = abs(residual) <= 1e-6 * max(1.0, accounted)

    def per_cmd(name: str) -> float:
        cmds = counts.get(name, 0)
        own = lines[SELF_TIME_LINES[name]]
        return own * 1e9 / cmds if cmds else 0.0

    # Lines of layers this workload does not reach stay 0.
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({line: value / passes for line, value in lines.items()})
    gets = calls.get("isa.trace_cache.get", 0)
    evals = calls.get("analysis.predictor.eval", 0)
    out.update(
        {
            "core.task.lower_ns_per_cmd": per_cmd("core.task.lower"),
            "isa.trace_cache.bytes_written": counts.get(
                "isa.trace_cache.put", 0
            ) / passes,
            "isa.trace_cache.hit_ratio": (
                counts.get("isa.trace_cache.get", 0) / gets if gets else 0.0
            ),
            "sim.vector_exec.functional_ns_per_cmd": per_cmd(
                "sim.vector_exec.functional"
            ),
            "sim.vector_exec.timing_ns_per_cmd": per_cmd(
                "sim.vector_exec.timing"
            ),
            "analysis.predictor.eval_s": (
                lines["analysis.predictor.eval_total_s"] / evals
                if evals
                else 0.0
            ),
            "trace.wall_s": traced_wall / passes,
            "trace.untraced_wall_s": untraced_wall / passes,
            "trace.overhead_s": (traced_wall - untraced_wall) / passes,
            "trace.uncovered_s": uncovered / passes,
            "trace.accounted_s": accounted / passes,
            "trace.spans": float(len(spans)),
        }
    )
    return out, reconciled
