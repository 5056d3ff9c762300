"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-functional --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and writes its spans to ``.perfbench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Nothing is written outside
the checkout: caches, sockets and temporary files live in
``.perfbench_tmp/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-functional", "design-sweep", "serve-closed-loop")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes"
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="corrupt one output before it is checked (smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {src}/repro not found; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(
            f"perfbench: imported repro from {repro.__file__}, not {src}",
            file=sys.stderr,
        )
        return 2

    from perfbench.common import END_TO_END, PER_LAYER, Context
    from perfbench.serve_loop import serve_closed_loop
    from perfbench.tracing import Tracer
    from perfbench.workloads import cold_functional, design_sweep

    run = {
        "cold-functional": cold_functional,
        "design-sweep": design_sweep,
        "serve-closed-loop": serve_closed_loop,
    }[args.workload]

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    # Everything the program or its children would cache or spill goes
    # into the private temporary directory, never the user's home.
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_STREAMPIM_CACHE_DIR"] = str(tmp / "default-cache")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    tempfile.tempdir = str(tmp)
    ctx = Context(
        root=ROOT,
        tmp=tmp,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        corrupt=args.corrupt,
        tracer=Tracer(enabled=False),
    )
    try:
        outcome = run(ctx)
    finally:
        for process in ctx.children:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in outcome.notes[:20]:
        print(note)
    if len(outcome.notes) > 20:
        print(f"... and {len(outcome.notes) - 20} more")
    for name, unit in wanted.items():
        print(f"  {name:40s} {outcome.metrics[name]:16.6f} {unit}")
    print(f"sim_digest {outcome.digest}")
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(ctx.tracer.to_json()))
        print(f"spans {spans_path.relative_to(ROOT)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
