"""serve-closed-loop: two connections against a real ``serve`` process.

The server runs as ``python -m repro.cli serve`` with one worker, a
private unix socket and an empty private trace cache.  Each of two
connections sends its next request when the previous reply arrives.
Requests are ``run`` (StPIM or one baseline platform) and ``compile``
over four small workloads; each carries a deadline, the latency limit.
After the loop every reply is checked against the same request run in
this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.common import (
    SETUP_REPEATS,
    Context,
    Outcome,
    accuracy_metrics,
    find_spec,
    peak_rss_mb,
    percentile,
)
from perfbench.tracing import instrument, layer_report

#: Served workloads and scales.  gemm runs at 0.03: at 0.05 its StPIM
#: run and cached compile take ~20 ms in the worker, level with the
#: server's 20 ms tick, so whether they miss a tick (and land at
#: 60 ms instead of 40 ms) flips from run to run and moves p95 by half.
WORKLOADS = (("atax", 0.05), ("bicg", 0.05), ("mvt", 0.05), ("gemm", 0.03))
TINY_WORKLOADS = tuple((name, 0.01) for name, _ in WORKLOADS)
PLATFORMS = ("StPIM", "CORUSCANT")
DEADLINE_MS = 1000.0
CONNECTIONS = 2
#: Requests per connection in one window of ``req_p95_ms``.
WINDOW = 50
#: Requests drawn per connection; a run stops on time long before.
PLAN_LENGTH = 20000
READY_TIMEOUT_S = 60.0


@dataclass
class Reply:
    method: str
    key: str
    latency_ms: float
    ok: bool
    result: Optional[dict]


def request_mix(workloads, seed: int) -> List[Tuple[str, dict]]:
    """The distinct requests: run on each platform, compile, per workload."""
    mix = []
    for workload, scale in workloads:
        for platform in PLATFORMS:
            mix.append(
                ("run", {"workload": workload, "platform": platform,
                         "scale": scale})
            )
        mix.append(
            ("compile", {"workload": workload, "scale": scale, "seed": seed})
        )
    return mix


def request_key(method: str, params: dict) -> str:
    return method + json.dumps(params, sort_keys=True)


def result_sha(result: dict) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode("utf-8")
    ).hexdigest()


class Server:
    """One ``repro-streampim serve`` process on a private socket."""

    def __init__(self, ctx: Context, tag: str) -> None:
        # Relative to the checkout root (the working directory), which
        # keeps the path inside the unix-socket length limit.
        base = ctx.tmp.relative_to(ctx.root)
        self.tag = tag
        self.socket = str(base / f"{tag}.sock")
        self.cache_dir = ctx.tmp / f"{tag}-cache"
        self.log = open(ctx.tmp / f"{tag}.log", "wb")
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", self.socket,
                "--workers", "1",
                "--max-batch", str(CONNECTIONS),
                "--tenant-rate", "100000",
                "--tenant-burst", "100000",
                "--cache-dir", str(self.cache_dir),
            ],
            stdout=self.log,
            stderr=subprocess.STDOUT,
            # Its own process group, so a failed run can stop the
            # server's workers along with it.
            start_new_session=True,
        )
        ctx.children.append(self.process)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self) -> None:
        from repro.serve import ServeClient, ServeClientError

        deadline = time.time() + READY_TIMEOUT_S
        while time.time() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited during start-up ({self.process.returncode})"
                )
            if os.path.exists(self.socket):
                try:
                    with ServeClient(socket_path=self.socket) as probe:
                        stats = probe.stats()
                except ServeClientError:
                    stats = None
                workers = stats.result["pool"]["workers"] if stats and stats.ok else {}
                if workers and all(
                    w.get("alive") and not w.get("starting")
                    for w in workers.values()
                ):
                    return
            time.sleep(0.01)
        raise RuntimeError("server did not become ready")

    def stop(self, client=None) -> None:
        """Drain (over ``client`` if given) and wait for the exit."""
        from repro.serve import ServeClient, ServeClientError

        try:
            if client is None:
                with ServeClient(socket_path=self.socket) as own:
                    own.drain()
            else:
                client.drain()
        except (ServeClientError, OSError):
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()


def connection_loop(client, plan, stop_at, limit, tracer, parent, out):
    """Closed loop on one connection: next request after each reply."""
    from repro.serve import ServeClientError

    with tracer.span("serve.conn", parent=parent):
        for index, (method, params) in enumerate(plan):
            if limit is not None and index >= limit:
                break
            if limit is None and time.perf_counter() >= stop_at:
                break
            t0 = time.perf_counter()
            with tracer.span("serve.rtt", item=f"{method}-{index}"):
                try:
                    response = client.call(
                        method, params, deadline_ms=DEADLINE_MS
                    )
                except ServeClientError:
                    response = None
            latency_ms = 1e3 * (time.perf_counter() - t0)
            ok = response is not None and response.ok
            out.append(
                Reply(
                    method,
                    request_key(method, params),
                    latency_ms,
                    ok and latency_ms <= DEADLINE_MS,
                    response.result if ok else None,
                )
            )


@dataclass
class Phase:
    replies: List[List[Reply]]
    loop_wall: float
    wall: float
    executed: List[float]
    counts: Dict[str, float]


def run_phase(ctx, server, plans, seconds=None, limits=None, reexecute=False):
    """The closed loop, then optionally every sent request in process.

    Both connections run until ``seconds`` pass or each has sent its
    ``limits`` entry; connection 0 runs on this thread, connection 1 on
    one more.  The server is drained and stopped afterwards.
    """
    from repro.serve import ServeClient

    tracer = ctx.tracer
    replies: List[List[Reply]] = [[] for _ in range(CONNECTIONS)]
    clients = [
        ServeClient(socket_path=server.socket, timeout_s=30.0)
        for _ in range(CONNECTIONS)
    ]
    try:
        before = clients[0].stats().result
        t0 = time.perf_counter()
        with tracer.span("serve.loop") as loop:
            stop_at = t0 + seconds if seconds is not None else None
            helper = threading.Thread(
                target=connection_loop,
                args=(clients[1], plans[1], stop_at,
                      limits[1] if limits else None, tracer,
                      getattr(loop, "index", None), replies[1]),
            )
            helper.start()
            connection_loop(
                clients[0], plans[0], stop_at,
                limits[0] if limits else None, tracer, None, replies[0],
            )
            helper.join()
        loop_wall = time.perf_counter() - t0
        executed = []
        if reexecute:
            sent = [
                plans[c][i]
                for c in range(CONNECTIONS)
                for i in range(len(replies[c]))
            ]
            executed = in_process(
                tracer, sent, ctx.tmp / f"{server.tag}-exec-cache"
            )
        wall = time.perf_counter() - t0
        after = clients[0].stats().result
        clients[1].close()
        server.stop(clients[0])
    finally:
        for client in clients:
            client.close()
    return Phase(
        replies, loop_wall, wall, executed, server_counts(before, after)
    )


def server_counts(before: dict, after: dict) -> Dict[str, float]:
    def counter(stats, name):
        return stats["metrics"].get(name, 0)

    depth = after["metrics"].get("serve.queue.depth", {})
    return {
        "serve.batch_dispatches": float(
            after["core"]["batch"]["dispatches"]
            - before["core"]["batch"]["dispatches"]
        ),
        "serve.batched_requests": float(
            after["core"]["batch"]["batched_requests"]
            - before["core"]["batch"]["batched_requests"]
        ),
        "serve.queue_depth": float(depth.get("max") or 0),
        "serve.retries": float(
            counter(after, "serve.retries") - counter(before, "serve.retries")
        ),
        "serve.worker_restarts": float(
            after["pool"]["restarts"] - before["pool"]["restarts"]
        ),
    }


def in_process(tracer, requests, cache_dir) -> List[float]:
    """Each request through ``execute_request`` here; latencies in ms."""
    from repro.serve.supervisor import execute_request

    latencies = []
    for method, params in requests:
        t0 = time.perf_counter()
        with tracer.span("serve.exec", item=method):
            execute_request(
                method, dict(params), None, {"cache_dir": str(cache_dir)}
            )
        latencies.append(1e3 * (time.perf_counter() - t0))
    return latencies


def check_replies(ctx, outcome, replies, workloads) -> None:
    """Compare every reply with an in-process reference.

    The references' hashes are the workload's item digests, labelled
    without the seed so ``sim_digest`` does not depend on it.
    """
    from repro.core.compile import compile_workload
    from repro.serve.supervisor import execute_request

    expected: Dict[str, str] = {}
    for method, params in request_mix(workloads, ctx.seed):
        key = request_key(method, params)
        if method == "run":
            envelope = execute_request("run", dict(params), None, {})
            expected[key] = result_sha(envelope["result"])
        else:
            compiled = compile_workload(
                find_spec(params["workload"], params["scale"]),
                seed=params["seed"],
                use_cache=False,
            )
            expected[key] = hashlib.sha256(
                compiled.trace.to_bytes()
            ).hexdigest()
        label = " ".join(
            [method, params["workload"], params.get("platform", ""),
             str(params["scale"])]
        )
        outcome.item_digests[label] = expected[key]
    corrupt = ctx.corrupt
    for reply in (r for conn in replies for r in conn):
        if reply.ok and reply.method == "run":
            got = result_sha(reply.result)
            if corrupt:
                got, corrupt = "corrupted", False
        elif reply.ok:
            got = reply.result["trace_sha256"]
        else:
            got = None
        outcome.record(
            got == expected[reply.key],
            f"{reply.key}: {'wrong result' if got else 'refused or late'}",
        )


def accuracy(workloads, seed: int) -> List[Tuple[float, float, float]]:
    """Vector-engine, predicted and round-model time of each served
    workload (the round model is what ``run`` answers with)."""
    from repro.analysis.predictor import TracePredictor
    from repro.baselines import StreamPIMPlatform
    from repro.core.compile import compile_workload

    runs = []
    for workload, scale in workloads:
        spec = find_spec(workload, scale)
        compiled = compile_workload(spec, seed=seed, use_cache=False)
        device, trace = compiled.device, compiled.trace
        vector_ns = device.execute_trace(
            trace, workload=workload, engine="vector", functional=False
        ).time_ns
        predicted_ns = TracePredictor(
            trace, device.address_map.words_per_subarray
        ).predict(device).time_ns
        runs.append(
            (vector_ns, predicted_ns, StreamPIMPlatform().run(spec).time_ns)
        )
    return runs


def latency_ms(reply: Reply) -> float:
    """A failed or late request counts at no less than the deadline."""
    return reply.latency_ms if reply.ok else max(reply.latency_ms, DEADLINE_MS)


def windowed_p95(replies: List[List[Reply]]) -> float:
    """Median over consecutive windows of each window's 95th percentile.

    Window k holds requests [k*WINDOW, (k+1)*WINDOW) of every
    connection.  Latencies sit on the server's 20 ms tick, so a pooled
    p95 lands in the thin upper tail of the two-tick mode and moves
    with every brief stall of the host; the median over windows does
    not.
    """
    count = min(len(conn) for conn in replies) // WINDOW
    if count == 0:
        return percentile([latency_ms(r) for conn in replies for r in conn], 95)
    return statistics.median(
        percentile(
            [
                latency_ms(r)
                for conn in replies
                for r in conn[k * WINDOW:(k + 1) * WINDOW]
            ],
            95,
        )
        for k in range(count)
    )


def serve_closed_loop(ctx: Context) -> Outcome:
    workloads = TINY_WORKLOADS if ctx.tiny else WORKLOADS
    mix = request_mix(workloads, ctx.seed)
    # Each connection sends the mix in blocks, every request once per
    # block in a seeded order, so every run sends the same shares.
    plans = []
    for connection in range(CONNECTIONS):
        rng = np.random.default_rng([ctx.seed, connection])
        plans.append(
            [
                mix[i]
                for _ in range(PLAN_LENGTH // len(mix))
                for i in rng.permutation(len(mix))
            ]
        )
    outcome = Outcome()

    # Set-up: start a fresh server to readiness; keep the last one.
    ready = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server(ctx, f"srv{repeat}")
        ready.append(server.ready_s)
    setup_s = statistics.median(ready)

    if ctx.trace:
        replies = traced_phases(ctx, outcome, server, plans)
    else:
        phase = run_phase(ctx, server, plans, seconds=ctx.seconds)
        replies, wall = phase.replies, phase.loop_wall
        flat = [r for conn in replies for r in conn]
        commands = sum(
            r.result["commands"] for r in flat if r.ok and r.method == "compile"
        )
        outcome.metrics.update(
            {
                "setup_s": setup_s,
                "cmds_per_s": commands / wall,
                "peak_rss_mb": peak_rss_mb(children=True),
                "req_p50_ms": percentile([latency_ms(r) for r in flat], 50),
                "req_p95_ms": windowed_p95(replies),
                "req_per_s": sum(r.ok for r in flat) / wall,
                **accuracy_metrics(accuracy(workloads, ctx.seed)),
            }
        )
    check_replies(ctx, outcome, replies, workloads)
    return outcome


def traced_phases(ctx: Context, outcome: Outcome, server, plans):
    """Half the seconds untraced, then the same requests traced.

    Each phase is the closed loop on a fresh server plus every sent
    request once more through in-process ``execute_request`` (the exec
    side of ``serve.overhead_ms``).  The traced phase's wall time minus
    the untraced one's is the tracing overhead.  Returns the replies of
    both phases.
    """
    tracer = ctx.tracer
    untraced = run_phase(
        ctx, server, plans, seconds=ctx.seconds / 2, reexecute=True
    )
    sent = [len(conn) for conn in untraced.replies]
    server = Server(ctx, "traced")
    tracer.enabled = True
    with instrument(tracer):
        traced = run_phase(ctx, server, plans, limits=sent, reexecute=True)
    tracer.enabled = False
    lines, reconciled = layer_report(
        tracer.spans, threading.get_ident(), traced.wall, untraced.wall, 1
    )
    lines.update(traced.counts)
    rtt = [r.latency_ms for conn in traced.replies for r in conn]
    lines["serve.rtt_ms"] = statistics.fmean(rtt)
    lines["serve.exec_ms"] = statistics.fmean(traced.executed)
    lines["serve.overhead_ms"] = lines["serve.rtt_ms"] - lines["serve.exec_ms"]
    outcome.metrics.update(lines)
    if not reconciled:
        outcome.record(False, "span self times do not reconcile")
    return [untraced.replies[c] + traced.replies[c] for c in range(CONNECTIONS)]
