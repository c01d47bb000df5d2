"""Benchmark of the contractgames library.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process, as a closed loop: one op at a
time, the next starting when the previous returns. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs every input twice,
untraced and traced, and reports the per-layer metrics. Without --workload
all workloads run one after another. The last line of output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.

Run from the root of a source checkout: the library is imported from its
`src/` directory. README.md beside this file explains the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("equilibria", "synthesis", "optimize")
# Set-up is timed in this many fresh processes (the measuring worker is the
# last of them) and reported as the median.
SETUP_RUNS = 5
# Every process this script starts must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Worker: runs inside the fresh process
# ---------------------------------------------------------------------------

def import_library():
    src = ROOT / "src"
    if not (src / "contractgames" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src}/contractgames")
    sys.path.insert(0, str(src))
    import contractgames

    if Path(contractgames.__file__).resolve().parent != src / "contractgames":
        sys.exit(f"perfbench: imported contractgames from {contractgames.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unset: OpenBLAS starts one thread per CPU",
    }


def worker(args) -> dict:
    import_library()
    import resource

    import harness
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    first = wl.make_input(0)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    def make_input(i):
        return first if i == 0 else wl.make_input(i)

    variants = [harness.Variant("plain", wl.run)]
    tracer = tracing.Tracer()
    if args.trace:
        targets = workloads.trace_targets()

        @contextlib.contextmanager
        def traced_op(i):
            with tracing.installed(tracer, "contractgames", targets), tracer.op(i):
                yield

        variants.append(harness.Variant("traced", wl.run, traced_op))
    loop = harness.closed_loop(make_input, variants, wl.check, args.seconds, wl.period)

    OUT_DIR.mkdir(exist_ok=True)
    if args.seed == workloads.DEFAULT_SEED:
        (OUT_DIR / f"answers-{wl.name}-seed{args.seed}.json").write_text(json.dumps(wl.answers))
    result = {
        "ready": ready,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:5],
        "env": environment(),
        "plain": harness.timing_summary(
            loop.durations["plain"], sum(1 for f in loop.failures if f[1] == "plain")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{wl.name}.tsv")
        layers = workloads.layer_metrics(
            tracer, sum(loop.durations["traced"]), sum(loop.durations["plain"]))
        result["layers"] = {name: {"value": value, "unit": workloads.LAYER_METRICS[name]}
                            for name, value in layers.items()}
        result["by_name"] = tracing.by_name(tracer.spans)
        result["traced_ops"] = len(loop.durations["traced"])
    return result


# ---------------------------------------------------------------------------
# Parent: starts the workers, times set-up, prints the metrics
# ---------------------------------------------------------------------------

def _spawn(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: worker for {args.workload} exceeded the time limit")
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker for {args.workload} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - start, result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # setup_s is an end-to-end metric, so traced runs time set-up only once.
    extra_setups = 0 if args.trace else SETUP_RUNS - 1
    setups = [_spawn(args, True, deadline)[0] for _ in range(extra_setups)]
    setup, res = _spawn(args, False, deadline)
    setups.append(setup)

    env = res["env"]
    print(f"== workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 client)")
    print("   env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    attempted, failed = res["attempted"], res["failed"]
    for i, variant, reason in res["failures"]:
        print(f"   FAILED op {i} ({variant}): {reason}")
    print(f"   failed_ratio {failed}/{attempted} = {_fmt(failed / attempted)}")
    plain = res["plain"]
    if args.trace:
        metrics = res["layers"]
        print(f"   per-layer metrics over {res['traced_ops']} traced ops "
              f"(each input also run untraced)")
        for name, m in metrics.items():
            print(f"   {name:42s} {_fmt(m['value']):>12s} {m['unit']}")
        print("   all traced functions: calls/op, self s/op")
        ops = res["traced_ops"]
        for name, (calls, total) in sorted(res["by_name"].items()):
            print(f"     {name:40s} {calls / ops:12.1f} {total / ops:12.6g}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": plain["op_p50_s"],
            "ops_per_s": plain["ops_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        ops = plain["ops"]
        notes = {
            "setup_s": f"median of {len(setups)} set-ups: "
                       + " ".join(_fmt(s) for s in setups),
            "op_p50_s": f"n={ops} ops",
            "ops_per_s": f"{ops - failed} ops completed in {_fmt(plain['busy_s'])} s of op time",
            "peak_rss_mb": "ru_maxrss of the worker process",
        }
        for name, m in metrics.items():
            print(f"   {name:12s} {_fmt(m['value']):>12s} {m['unit']:4s} ({notes[name]})")
        tail = plain["op_tail"]
        if tail is None:
            print(f"   op_tail_s    omitted: {ops} ops, fewer than 20")
        else:
            q, value, beyond = tail
            print(f"   op_tail_s    {_fmt(value):>12s} s    "
                  f"(p{q:g}, n={ops} ops, {beyond} above it)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for name in names:
        args.workload = name
        print(json.dumps(run_workload(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
