"""mubwitness benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (sample, triangle, region or classify) through the
package's public entry points, checks every operation's output, and
prints as its last stdout line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, items_per_s, peak_rss_mb); with --trace 1 they
are the per-layer ones, from a traced run whose spans and counts are
written to perfbench/out/trace-<workload>.json and .npz.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import bench_plan


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0       # operations whose output failed a check


@dataclass
class Window:
    """Timed passes of one workload."""

    items: int = 0
    seconds: float = 0.0
    passes: int = 0
    pass_items: int = 0
    best: list = field(default_factory=list)   # fastest time of each operation of a pass

    @property
    def rate(self) -> float:
        """Items per second of a pass rebuilt from each operation's fastest run.

        On a shared host the speed swings between a fast and a slow state
        within seconds; each operation's fastest repetition is the
        steadiest estimate of the program's own speed (README.md, Noise).
        For a one-operation pass this is the fastest pass."""
        return self.pass_items / sum(self.best) if self.best else 0.0

    @property
    def total_rate(self) -> float:
        return self.items / self.seconds if self.seconds else 0.0


def run_pass(workload, tally: Tally, window: Window) -> None:
    """Time each operation of one pass, then check its output (untimed)."""
    clock = time.perf_counter
    if not window.best:
        window.best = [math.inf] * len(workload.ops)
        window.pass_items = sum(op.items for op in workload.ops)
    for k, op in enumerate(workload.ops):
        tally.attempted += 1
        t0 = clock()
        try:
            out = op.call()
        except Exception:
            window.seconds += clock() - t0
            tally.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        dt = clock() - t0
        window.seconds += dt
        window.items += op.items
        window.best[k] = min(window.best[k], dt)
        problems = op.check(out)
        if problems:
            tally.failed += 1
            tally.wrong += 1
            for line in problems[:5]:
                print(f"check failed [{workload.name}]: {line}", file=sys.stderr)
    window.passes += 1


def measure(workload, seconds: float, tally: Tally) -> Window:
    """Whole passes until the timed operations add up to `seconds`."""
    window = Window()
    while window.passes == 0 or window.seconds < seconds:
        run_pass(workload, tally, window)
    return window


def cold_child(workload: str, seed: int, out_path: str) -> float:
    """One cold start in a fresh interpreter (run alone, never concurrently)."""
    res = subprocess.run(
        [sys.executable, str(bench_plan.BENCH_DIR / "bench_cold.py"), workload, str(seed),
         out_path],
        capture_output=True, text=True, env=bench_plan.pin_threads(dict(os.environ)),
        timeout=150,
    )
    if res.returncode != 0:
        raise RuntimeError(f"cold start failed: {res.stderr.strip()[-500:]}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workdir) -> tuple[Tally, dict]:
    warm = str(workdir / "warmup.csv")
    setups = [bench_plan.cold_start(args.workload, args.seed, warm)]
    _check_source()
    import bench_workloads

    workload = bench_workloads.make(args.workload, args.seed, workdir)
    for _ in range(bench_plan.SETUP_REPEATS - 1):
        setups.append(cold_child(args.workload, args.seed, warm))
    tally = Tally()
    window = measure(workload, args.seconds, tally)
    print(f"{args.workload}: {window.items} items in {window.passes} passes, "
          f"{window.seconds:.3f} s timed, {window.rate:.1f} items/s from the fastest "
          f"operations, {window.total_rate:.1f} items/s overall; "
          f"set-ups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return tally, {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": window.rate, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def traced(args, workdir) -> tuple[Tally, dict]:
    import bench_trace

    tracer = bench_trace.Tracer()
    bench_plan.cold_start(args.workload, args.seed, str(workdir / "warmup.csv"),
                          after_import=tracer.install)
    _check_source()
    import bench_workloads

    tally = Tally()
    workload = bench_workloads.make(args.workload, args.seed, workdir)
    tracer.uninstall()
    plain = measure(workload, args.seconds, tally)
    tracer.install()
    segments = {}

    def segment(label, wl, run):
        tracer.begin_segment(label)
        win = run(wl)
        segments[label] = {"index": len(tracer.segments) - 1, "items": win.items,
                           "seconds": win.seconds, "passes": win.passes}
        if wl.csv_path is not None:
            segments[label]["csv_bytes"] = os.path.getsize(wl.csv_path) * win.passes
        return win

    def one_pass(wl):
        win = Window()
        run_pass(wl, tally, win)
        return win

    window = segment("window", workload, lambda wl: measure(wl, args.seconds, tally))
    for other in bench_trace.coverage_workloads(args.workload):
        # The other workload's own warm-up first, so its one-time work
        # stays out of its traced pass.
        tracer.begin_segment(f"{other}-setup")
        bench_plan.run_cli(bench_plan.warmup_argv(other, args.seed, str(workdir / "warmup.csv")))
        segment(other, bench_workloads.make(other, args.seed, workdir), one_pass)
    tracer.uninstall()

    spans = tracer.spans()
    metrics = bench_trace.layer_metrics(spans, args.workload, segments)
    overhead = (plain.rate / window.rate - 1.0) if window.rate else 0.0
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "untraced_items_per_s": plain.rate, "traced_items_per_s": window.rate,
        "tracing_overhead": overhead, "segments": segments,
        "span_names": list(bench_trace.NAMES), "segment_labels": tracer.segments,
        "span_count": int(len(spans["sid"])), "metrics": metrics,
    }
    stem = bench_plan.OUT_DIR / f"trace-{args.workload}"
    import numpy as np

    np.savez(str(stem) + ".npz", **spans)
    with open(str(stem) + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"{args.workload}: tracing overhead {100 * overhead:.1f}% "
          f"({plain.rate:.1f} -> {window.rate:.1f} items/s), {len(spans['sid'])} spans "
          f"in {stem}.json/.npz", file=sys.stderr)
    return tally, metrics


def _check_source() -> None:
    import mubwitness

    if not os.path.realpath(mubwitness.__file__).startswith(os.path.realpath(bench_plan.SRC)):
        raise SystemExit(f"error: mubwitness imported from {mubwitness.__file__}, "
                         f"not from {bench_plan.SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_plan.pin_threads()  # before numpy is imported anywhere
    bench_plan.use_source_tree()
    workdir = bench_plan.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally, metrics = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
