"""Run one divlab benchmark workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times set-up in fresh processes, repeats the
workload's verdict for about S seconds (at least once) with tracing off,
checks the outputs and prints the end-to-end metrics: times at the reference
machine speed (see gauge.py), as medians over the run, with the times as
measured printed beside them as notes. With ``--trace 1`` it runs the verdict
once untraced and twice traced, prints the per-layer metrics, requires the
exact counters of the two traced passes to agree, and writes the spans of
the first pass to ``.perfbench_out/``. Each metric is printed on its own
line with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Never used while the benchmark was written; check later claims on it too.
HELD_OUT_SEED = 7919
# set-up processes per run, half before and half after the timed verdicts
SETUP_RUNS = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "block_p50_ms": "ms",
    "block_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def environment(workload: str, seed: int) -> dict:
    import numpy
    from workloads import nproc

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def percentile(values: list, q: float) -> float:
    """Linear-interpolated q-th percentile of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def time_setup(workload: str, seed: int, runs: int) -> list:
    """(raw_s, scaled_s) of set-up in each of `runs` fresh processes.

    Each process runs the gauge's kernel right after its set-up, and its
    set-up time is scaled by that kernel time as a gauge part would be.
    """
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        raw, ref = map(float, proc.stdout.split()[-2:])
        times.append((raw, raw * gauge.NOMINAL_S / ref))
    return times


def untraced(work, seconds: float) -> tuple:
    work.install_hooks()
    work.warmup()
    verdicts = []
    start = time.perf_counter()
    # stop before a verdict that would end well past the budget
    while not verdicts or time.perf_counter() - start + statistics.mean(v.wall_s for v in verdicts) / 2 < seconds:
        verdicts.append(work.verdict())
    work.extra()
    checks = work.check(verdicts[0])
    checks.require(
        all(v.text == verdicts[0].text for v in verdicts),
        "repeated verdicts emitted different outputs",
    )
    work.remove_hooks()
    wall = statistics.median(v.scaled_wall_s for v in verdicts)
    blocks = [scaled * 1e3 for v in verdicts for _, scaled in v.blocks]
    metrics = {
        "wall_s": wall,
        "trials_per_s": verdicts[0].trials / wall,
        "block_p50_ms": percentile(blocks, 50),
        "block_p90_ms": percentile(blocks, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = sorted(v.wall_s for v in verdicts)
    checks.notes.append(f"{len(verdicts)} verdicts of {verdicts[0].trials} trials; {len(blocks)} blocks")
    checks.notes.append(f"measured wall_s: median {statistics.median(raw)!r}, range {raw[0]:.3f}-{raw[-1]:.3f}")
    return metrics, checks


def traced(work, save_path: Path) -> tuple:
    from spans import Tracer, analyse
    from layers import EXACT, layer_metrics

    work.install_hooks()
    work.warmup()
    plain = work.verdict()
    work.remove_hooks()
    tracer = Tracer()
    tracer.install()
    # verify_divergences runs the gauge's kernel inside report's run_suite
    tracer.span_own(gauge, "kernel_s")
    work.install_hooks()
    passes = []
    try:
        for i in range(2):
            tracer.reset()
            verdict = work.verdict()
            work.extra()
            passes.append((verdict, layer_metrics(work, verdict, analyse(tracer))))
            if i == 0:
                save_path.parent.mkdir(exist_ok=True)
                tracer.save(save_path)
    finally:
        work.remove_hooks()
        tracer.uninstall()
    checks = work.check(plain)
    (first, metrics), (second, again) = passes
    for name in EXACT:
        checks.require(metrics[name] == again[name], f"{name} differs between traced passes: {metrics[name]} vs {again[name]}")
    checks.require(first.text == plain.text == second.text, "tracing changed the emitted output")
    metrics["trace.overhead_frac"] = statistics.median([first.scaled_wall_s, second.scaled_wall_s]) / plain.scaled_wall_s - 1.0
    return metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "divlab" / "__init__.py").is_file():
        print(f"error: no divlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    from layers import PER_LAYER_UNITS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.workload, args.seed)), flush=True)
    if args.trace:
        work = WORKLOADS[args.workload](args.seed, traced=True)
        metrics, checks = traced(work, OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
        units = PER_LAYER_UNITS
    else:
        setup = time_setup(args.workload, args.seed, SETUP_RUNS // 2)
        work = WORKLOADS[args.workload](args.seed)
        metrics, checks = untraced(work, args.seconds)
        setup += time_setup(args.workload, args.seed, SETUP_RUNS - SETUP_RUNS // 2)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
        checks.notes.append(f"measured setup_s: median {statistics.median(raw for raw, _ in setup)!r} of {len(setup)} processes")
        units = END_TO_END_UNITS
    for note in checks.notes:
        print("note " + note)
    for problem in checks.problems:
        print("CHECK FAILED " + problem)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"failed_frac {checks.failed / checks.attempted!r} ({checks.failed} of {checks.attempted} operations)")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
