#!/usr/bin/env python3
"""Benchmark for gridchroma: exact-verification workloads, end to end and
layer by layer.

    python3 benchmark/run.py --workload towers --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 1

One process runs one workload, single-threaded and closed-loop: item
after item, pass after pass, until the next pass would end past
`--seconds` (at least one pass runs).  Every pass gets freshly built
inputs.  Each item's output is checked against its pinned value before
its time counts.  Times are host-scaled: the host's speed drifts by up
to 2x for minutes at a time, so a fixed probe runs before and after
every item and set-up, and each time is reported in reference seconds,
its seconds times PROBE_REFERENCE_S over the median probe time around
it.  An item's time is the median of its scaled passes.  `--workload
all` runs each workload in a fresh child process, one after another.

With `--trace 0` the result reports the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate, and the result reports
the per-layer metrics of the traced passes (see spans.py) plus the
tracing overhead.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Standard library only.  The package is imported from `src/` next to this
directory; without it the run exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 31
# probes taken in each gap between items, and the probe time that one
# reference second assumes: a scaled time is what the call would take on
# a host where one probe takes PROBE_REFERENCE_S
PROBES_PER_GAP = 3
PROBE_REFERENCE_S = 0.001
PROBE_VERTICES = 400
PROBE_STEPS = (1, 7, 31, 97)


def probe_s() -> float:
    """Seconds of one fixed pure-Python job shaped like the package's
    work: build a 400-vertex graph as a dict of sets, then walk it
    breadth-first.  It calls nothing of the package, and runs with the
    garbage collector off, so its time follows the host, not the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        n = PROBE_VERTICES
        adj = {v: set() for v in range(n)}
        for v in range(n):
            for step in PROBE_STEPS:
                w = (v * 13 + step) % n
                if w != v:
                    adj[v].add(w)
                    adj[w].add(v)
        seen, queue = {0}, deque([0])
        while queue:
            for w in sorted(adj[queue.popleft()]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probes(count: int = PROBES_PER_GAP) -> list[float]:
    return [probe_s() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Reference seconds per second, from the probes around a call."""
    return PROBE_REFERENCE_S / statistics.median(samples)


def load_package():
    """Import gridchroma afresh from the checkout's `src/`."""
    package_dir = os.path.join(SRC, "gridchroma")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SystemExit(f"run.py: no gridchroma package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m.split(".")[0] == "gridchroma"]:
        del sys.modules[name]
    pkg = importlib.import_module("gridchroma")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != package_dir:
        raise SystemExit(f"run.py: imported gridchroma from {pkg.__file__}, not {package_dir}")
    return pkg


def setup(workload: str, seed: int):
    """Import the package afresh and build the workload's inputs; returns
    the package, the items and the host-scaled seconds taken.  Garbage is
    collected first, untimed, so no set-up pays for collecting what an
    earlier one left."""
    gc.collect()
    before = probes()
    start = time.perf_counter()
    pkg = load_package()
    items = workloads.build(workload, pkg, seed)
    seconds = time.perf_counter() - start
    return pkg, items, seconds * scale(before + probes())


@dataclass
class PassResult:
    item_s: list = field(default_factory=list)
    item_scale: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    tracer: Optional[spans.Tracer] = None
    item_counts: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Seconds of the pass's verified items, not scaled."""
        return sum(s for s in self.item_s if s is not None)

    @property
    def scaled_s(self) -> list:
        """Each item's host-scaled time, None where its gate failed."""
        return [None if s is None else s * f for s, f in zip(self.item_s, self.item_scale)]


def run_pass(items, tracer: Optional[spans.Tracer] = None) -> PassResult:
    """Run every item once.  item_s holds each item's call time, or None
    where its gate failed; gate checks and probes are not timed.
    item_scale holds the scale from the probes just before and just after
    the item.  A traced pass also keeps each item's per-layer counts,
    those that moved."""
    result = PassResult(attempted=len(items), tracer=tracer)
    probed = probes()
    for item in items:
        before = tracer.counts() if tracer is not None else None
        start = time.perf_counter()
        try:
            if tracer is None:
                output = item.call()
            else:
                with tracer.span(item.span):
                    output = item.call()
            elapsed = time.perf_counter() - start
            why = item.check(output)
        except Exception as exc:  # an item that raises is a failed item
            why = f"raised {exc!r}"
        if why:
            result.failures.append((item.name, why))
        result.item_s.append(None if why else elapsed)
        after = probes()
        result.item_scale.append(scale(probed + after))
        probed = after
        if tracer is not None:
            moved = {k: v - before[k] for k, v in tracer.counts().items() if v != before[k]}
            result.item_counts.append((item.name, moved))
    return result


def traced_pass(pkg, items) -> PassResult:
    tracer = spans.Tracer()
    with tracer.installed(pkg):
        return run_pass(items, tracer)


def measure(workload: str, seed: int, seconds: float, trace: bool, pkg):
    """Passes until the next one would end past `seconds`; with trace,
    each round is an untraced pass followed by a traced one.  Every pass
    gets freshly built inputs, so no pass reuses what an earlier one
    cached in them."""
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(workloads.build(workload, pkg, seed)))
        if trace:
            traced.append(traced_pass(pkg, workloads.build(workload, pkg, seed)))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return plain, traced


def item_times(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """Each item's median verified time over the passes, host-scaled
    unless `scaled` is false; items that failed in every pass are left
    out."""
    per_item = zip(*(p.scaled_s if scaled else p.item_s for p in passes))
    return [
        statistics.median(s for s in times if s is not None)
        for times in per_item
        if any(s is not None for s in times)
    ]


def end_to_end(plain: list[PassResult], setup_s: float) -> dict:
    times = item_times(plain) or [0.0]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "wall_s": (sum(times), "s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "item_p90_ms": (1000 * p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain: list[PassResult], traced: list[PassResult]):
    """Median over traced passes of each layer metric, plus the overhead
    of tracing; counts are identical in every pass."""
    passes = [spans.layer_metrics(p.tracer, p.wall_s) for p in traced]
    metrics = {
        name: (statistics.median(values[name][0] for values, _ in passes), unit)
        for name, (_, unit) in passes[0][0].items()
    }
    untraced_s = sum(item_times(plain))
    traced_s = sum(item_times(traced))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1 if untraced_s else 0.0, "ratio")
    return metrics, passes[0][1], traced[0].tracer.absent


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        code = code or child.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        pkg, items, seconds = setup(args.workload, args.seed)
        setup_times.append(seconds)
    header = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": len(items),
        "probe_ms": 1000 * statistics.median(probes(15)),
    }
    print("header " + json.dumps(header), flush=True)

    plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), pkg)
    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    metrics = end_to_end(plain, statistics.median(setup_times))
    shown = dict(metrics)
    if traced:
        metrics, absent_metrics, absent_targets = per_layer(plain, traced)
        shown.update(metrics)
        pass_s = statistics.median(p.wall_s for p in traced)
        print(f"{'traced pass':26s} {pass_s:.6g} s (median; layer shares divide by it)")
        if absent_targets:
            print(f"absent targets: {', '.join(absent_targets)}")
            print(f"absent metrics (reported as 0): {', '.join(absent_metrics)}")
        for name, counts in dict(traced[0].item_counts).items():
            print(f"trace {name}: {json.dumps(counts)}")
    for name, why in failures:
        print(f"FAIL {name}: {why}")
    print(f"{'passes':26s} {len(plain)} untraced, {len(traced)} traced")
    print(f"{'unscaled wall':26s} {sum(item_times(plain, scaled=False)):.6g} s "
          f"(median scale {statistics.median(f for p in plain for f in p.item_scale):.4g})")
    print(f"{'items':26s} {attempted} attempted, {len(items)} per pass")
    print(f"{'fail_frac':26s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} items)")
    for name, (value, unit) in shown.items():
        print(f"{name:26s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
