"""Benchmark for kgenus: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload shape_reports --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

A run sets up (a fresh interpreter that imports kgenus and warms every
operation kind, several times), builds the workload's pass of distinct
operations from the seed, runs one untimed warm-up pass that also
records each operation's reference output, then repeats the pass in a
new seeded order until --seconds are spent.  Everything is closed-loop
and single-process: one operation at a time, no threads; the set-up
probes are the only child processes, one at a time.  Each operation's
latency is the median over the passes of its timed batch
(sub-millisecond calls run several times per sample).  Outputs are
checked once per distinct input against independent computations
(verify.py), and every repetition must reproduce the reference output
exactly.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a run whose library calls are wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
BATCH_NS = 5_000_000   # a timed sample repeats a call for at least ~5 ms
TAIL_BEYOND = 10       # the tail is the value with ten operations beyond it

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def probe(name: str) -> tuple[float, float, float]:
    """One set-up probe: (wall seconds, import ms, numpy import ms)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), name], cwd=ROOT,
                          stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, check=True)
    wall = perf_counter() - start
    report = json.loads(proc.stdout)
    return wall, report["import_ms"], report["numpy_import_ms"]


def measure(wl, ops, reference, batch, seconds, seed, min_passes):
    """Repeat the pass until the next one would end after `seconds`.

    Returns per-operation samples (ns), the number of passes and the
    indices whose repeated output differed from the reference."""
    rng = random.Random(f"order:{wl.name}:{seed}")
    samples: list[list[float]] = [[] for _ in ops]
    mismatched: set[int] = set()
    order = list(range(len(ops)))
    passes = 0
    start = perf_counter()
    while passes < min_passes or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        rng.shuffle(order)
        for j in order:
            op, k = ops[j], batch[j]
            t0 = perf_counter_ns()
            for _ in range(k):
                result = op()
            samples[j].append((perf_counter_ns() - t0) / k)
            if result != reference[j]:
                mismatched.add(j)
        passes += 1
    return samples, passes, mismatched


def run(name: str, seed: int, seconds: float, trace: bool, limit: int | None = None,
        probes: int = SETUP_PROBES, min_passes: int | None = None) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup = [probe(name) for _ in range(probes)]
    sys.path.insert(0, str(ROOT / "src"))
    import kgenus

    specs = wl.inputs(seed)[:limit]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ops = [wl.operation(kgenus, s) for s in specs]
    reference: list = [None] * len(ops)
    batch = [1] * len(ops)
    # warm-up pass: fills lazy caches, records reference outputs and
    # sizes each batch from the call's own duration
    for j, op in enumerate(ops):
        t0 = perf_counter_ns()
        reference[j] = op()
        batch[j] = max(1, math.ceil(BATCH_NS / max(1, perf_counter_ns() - t0)))
    if tracer:
        tracer.reset()
    try:
        samples, passes, mismatched = measure(
            wl, ops, reference, batch, seconds, seed, min_passes or wl.min_passes)
    finally:
        if tracer:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outcomes = [wl.check(spec, ref) for spec, ref in zip(specs, reference)]
    errors = [e for o in outcomes for e in o.errors]
    errors += [f"output of {specs[j]!r} changed between repetitions" for j in sorted(mismatched)]
    for line in errors[:20]:
        print(f"perfbench: WRONG: {line}", file=sys.stderr)
    n = len(ops)
    medians = [statistics.median(s) for s in samples]
    ops_per_s = n / (sum(medians) / 1e9)
    result = {"correct": not errors, "attempted": n * passes,
              "failed": sum(o.failed for o in outcomes) * passes}

    if not trace:
        values = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(medians) / 1e6,
            "latency_tail_ms": sorted(medians)[n - 1 - TAIL_BEYOND] / 1e6,
            "setup_s": statistics.median(wall for wall, _, _ in setup),
            "peak_rss_mb": peak_kb / 1024,
        }
        result["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        return result

    from tracing import PER_LAYER, layer_metrics
    snap = tracer.snapshot()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(snap))
    print(f"perfbench: traced ops_per_s {ops_per_s:.6g} over {passes} passes", file=sys.stderr)
    values = layer_metrics(snap, sum(batch) * passes,
                           statistics.median(ms for _, ms, _ in setup),
                           statistics.median(ms for _, _, ms in setup))
    result["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit, _ in PER_LAYER}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the benchmark's own tests and a brief pass of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kgenus" / "__init__.py").is_file():
        print(f"perfbench: no kgenus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        import selftest
        return selftest.main()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
