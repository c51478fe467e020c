"""Benchmark for cmcurve: one closed-loop client in one process, no pool.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Runs from the root of a checkout, against the cmcurve sources in its src/
directory. Set-up is repeated and its median reported; the fixed, seeded
list of operations then runs in whole rounds, two at least, until T
seconds have passed. Every output is checked against refmath, which does
not use cmcurve. The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. The machine this was
written on is a shared VM whose speed swings by up to a factor of two over
minutes, which no number of repetitions inside one run averages out. So
every interval is timed between two runs of a fixed integer kernel and
scaled by KERNEL_REF_S over their mean: the times are seconds at a fixed
reference speed. Each operation then counts at the fastest of its rounds.
wall_s and cpu_s are the sums of those times over the list, op_p50_s and
op_p75_s their median and upper quartile, setup_s the median set-up,
peak_rss_mb the peak resident set before any reference code runs. The
measured, unscaled times go to standard error.

With --trace 1 the run does one untraced set-up and round, then one traced
set-up and round, and reports the per-layer figures of the traced pair
(measured span times, unscaled) and the tracing overhead (traced minus
untraced round, scaled); its spans go to
.perfbench/traces/<workload>-seed<S>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 2
KERNEL_ITERS = 15000
# The kernel's time in the fast phases of the machine the benchmark was
# written on (a shared 2-core VM, Python 3.11): the speed that every
# reported time is scaled to.
KERNEL_REF_S = 1.5e-3

from spans import Tracer, count_terms, layer_metrics, rebound  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Program:
    """The cmcurve entry points the benchmark calls, each optionally
    wrapped in a span."""

    def __init__(self, modules, tracer: Tracer | None = None):
        cm, classpoly, crt, primegen, quadforms = modules
        entry = {
            "construct_curve": (cm.construct_curve, "cm.construct_curve", None),
            "discriminant": (quadforms.discriminant, "quadforms.discriminant", None),
            "find_crt_primes": (primegen.find_crt_primes, "primegen.find_crt_primes", None),
            "build_shards": (classpoly.build_shards, "classpoly.build_shards", None),
            "build_basis": (crt.build_basis, "crt.build_basis", None),
            "crt_mod_n": (crt.crt_mod_n, "crt.crt_mod_n", count_terms),
            "find_all_roots": (cm.find_all_roots, "cm.find_all_roots", None),
        }
        for attr, (fn, span, count) in entry.items():
            setattr(self, attr, tracer.wrap(span, fn, count) if tracer else fn)
        self.PolyModM = classpoly.PolyModM


def import_program():
    """Import cmcurve afresh from this checkout's src/ (earlier imports of
    it are dropped first) and return its layer modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cmcurve" or m.startswith("cmcurve.")]:
        del sys.modules[name]
    import cmcurve
    from cmcurve import classpoly, cm, crt, primegen, quadforms
    if Path(cmcurve.__file__).resolve().parent != SRC / "cmcurve":
        raise SystemExit(f"error: imported cmcurve from {cmcurve.__file__}")
    return cm, classpoly, crt, primegen, quadforms


def setup(wl, workdir, tracer=None):
    """One timed set-up: import the program, then the workload's own
    program calls. Returns (seconds, modules, program, state)."""
    start = time.perf_counter()
    modules = import_program()
    prog = Program(modules, tracer)
    if tracer is None:
        state = wl.setup(prog, workdir)
    else:
        with rebound(tracer, modules[0], modules[1]):
            state = wl.setup(prog, workdir)
    return time.perf_counter() - start, modules, prog, state


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def kernel_seconds() -> float:
    """Time of a fixed pure-Python integer loop, the machine's speed now."""
    start = time.perf_counter()
    x, acc = 1234567, 0
    for _ in range(KERNEL_ITERS):
        x = x * x % 1000000007
        acc += x & 255
    return time.perf_counter() - start


def calibrated(fn):
    """fn(), and the factor that scales times taken around it to the
    reference speed: KERNEL_REF_S over the mean kernel time just before
    and just after."""
    before = kernel_seconds()
    result = fn()
    return result, 2 * KERNEL_REF_S / (before + kernel_seconds())


def run_round(wl, prog, state, workdir, rnd, tracer=None):
    """One pass over the operation list: per-operation wall and CPU
    seconds at the reference speed, raw wall seconds, outputs and the
    number of failed operations."""
    cache = wl.round_cache(workdir, state, rnd)
    walls, cpus, raw, outputs, failed = [], [], [], [], 0

    def timed(i, op):
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            outputs.append((i, wl.run_op(prog, state, op, cache)))
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"op {i} failed: {exc!r}", file=sys.stderr)
            return time.perf_counter() - start, cpu_seconds() - cpu0, 1
        return time.perf_counter() - start, cpu_seconds() - cpu0, 0

    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        (wall, cpu, fails), scale = calibrated(lambda: timed(i, op))
        walls.append(wall * scale)
        cpus.append(cpu * scale)
        raw.append(wall)
        failed += fails
    return walls, cpus, raw, outputs, failed


def measure(wl, seconds, workdir):
    """End-to-end metrics: median set-up, then whole rounds until `seconds`
    have passed (two at least); each operation counts at its fastest."""
    setups, raw_setups = [], []
    for _ in range(wl.setup_reps):
        (took, _, prog, state), scale = calibrated(lambda: setup(wl, workdir))
        setups.append(took * scale)
        raw_setups.append(took)
    wl.prepare(state)
    deadline = time.perf_counter() + seconds
    walls, cpus, raws, outputs, failed, rnd = [], [], [], [], 0, 0
    while rnd < MIN_ROUNDS or time.perf_counter() < deadline:
        w, c, r, outs, fails = run_round(wl, prog, state, workdir, rnd)
        walls.append(w)
        cpus.append(c)
        raws.append(r)
        outputs += outs
        failed += fails
        rnd += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest = [min(ts) for ts in zip(*walls)]
    print(f"{wl.name}: {rnd} rounds of {len(wl.ops)} operations; measured round "
          f"walls {[round(sum(r), 3) for r in raws]} s, fastest sum "
          f"{sum(min(ts) for ts in zip(*raws)):.3f} s, set-ups "
          f"{[round(s, 4) for s in raw_setups]} s", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(fastest), "s"),
        "op_p50_s": (statistics.median(fastest), "s"),
        "op_p75_s": (statistics.quantiles(fastest, n=4)[2], "s"),
        "cpu_s": (sum(min(cs) for cs in zip(*cpus)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return state, outputs, rnd * len(wl.ops), failed, metrics


def measure_traced(wl, seed, workdir):
    """Per-layer metrics from one traced set-up and round, after one
    untraced set-up and round that give the tracing overhead."""
    _, _, prog, state = setup(wl, workdir)
    wl.prepare(state)
    plain, _, _, outputs, failed = run_round(wl, prog, state, workdir, 0)
    tracer = Tracer()
    _, modules, prog, state = setup(wl, workdir, tracer)
    with rebound(tracer, modules[0], modules[1]):
        traced, _, _, outs, fails = run_round(wl, prog, state, workdir, 1, tracer)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / "traces" / f"{wl.name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer)
    metrics["trace.wall_s"] = (sum(traced), "s")
    metrics["trace.overhead_s"] = (sum(traced) - sum(plain), "s")
    return state, outputs + outs, 2 * len(wl.ops), failed + fails, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cmcurve" / "__init__.py").is_file():
        print(f"error: no cmcurve sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            state, outputs, attempted, failed, metrics = measure_traced(
                wl, args.seed, workdir)
        else:
            state, outputs, attempted, failed, metrics = measure(
                wl, args.seconds, workdir)
        errors = wl.check(state, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
