"""Run the benchmark on a parent revision and on the change, in alternating
pairs, and summarise the end-to-end metrics into one JSON file.

    python3 scripts/bench_pairs.py --parent REV --seeds 11 12 --pairs 10 \\
        --out BENCH_<n>.json [--workloads NAME ...]

The parent's committed files are exported with `git archive` into a
temporary directory; the change is the working tree of this checkout. For
every workload in BENCHMARK.json, or those named by --workloads, pair i
runs `perfbench/run.py --trace 0` for the benchmark's run length once on
each side with seed
seeds[i % len(seeds)], the parent first in even pairs and the change first
in odd ones, so a drift in machine speed hits both sides alike. The output
gives, per workload and metric, each side's median and quartiles and the
number of pairs the change won, with nproc and the Python version, and a
verdict by the rules of a simplicity review:

    gain        the change won at least 9 of every 10 pairs, and its median
                is better than the parent's by more than the parent's
                interquartile range;
    regressed   the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json, a fraction of the
                parent's median;
    unresolved  neither, and the parent's interquartile range exceeds that
                bound, unless every run of the change beats every run of the
                parent: the runs spread too widely to tell;
    unchanged   none of these.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL_LINES = 40  # of a failed run, in the error message


def _spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(par, chg, better: str, bound: float) -> dict:
    """One metric's summary over the pairs: each side's median and
    quartiles, the pairs the change won and the verdict, as the module
    docstring defines it. par and chg are the values pair by pair, better
    is "lower" or "higher", and a win is a strictly better value."""
    sign = 1 if better == "lower" else -1
    parent, change = _spread(par), _spread(chg)
    median, spread = parent["median"], parent["q3"] - parent["q1"]
    wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
    if 10 * wins >= 9 * len(par) and sign * (median - change["median"]) > spread:
        verdict = "gain"
    elif sign * (change["median"] - median) > bound * median:
        verdict = "regressed"
    elif spread > bound * median and max(sign * c for c in chg) >= min(sign * p for p in par):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent": parent, "change": change, "change_wins": wins, "verdict": verdict}


def summarize(pairs, end_to_end) -> dict:
    """Per-metric summary of one workload's pairs.

    pairs is a list of (parent, change) results as perfbench/run.py prints
    them; end_to_end lists the metrics as BENCHMARK.json does, each with
    its name, better ("lower" or "higher") and bound.
    """
    metrics = {}
    for m in end_to_end:
        name = m["name"]
        metrics[name] = compare(
            [p["metrics"][name]["value"] for p, _ in pairs],
            [c["metrics"][name]["value"] for _, c in pairs],
            m["better"], m["bound"],
        )
    return {
        "pairs": len(pairs),
        "correct": all(p["correct"] and c["correct"] for p, c in pairs),
        "failed": sum(p["failed"] + c["failed"] for p, c in pairs),
        "metrics": metrics,
    }


def export(rev: str, into: Path) -> Path:
    """The committed files of rev, extracted under `into`."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree. It neither reads nor writes bytecode (the
    cache prefix is a fresh empty directory), so both sides compile their
    sources alike, whatever __pycache__ a tree holds."""
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, env=env,
        )
    lines = proc.stdout.strip().splitlines()
    run = f"{tree}: {workload} seed {seed} (exit code {proc.returncode})"
    stderr_tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL_LINES:])
    if not lines:
        raise SystemExit(f"{run} printed nothing\n{stderr_tail}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{run} ended without a JSON line\n{stderr_tail}") from None


def parse_args(argv, workloads) -> argparse.Namespace:
    """The command line; workloads names the benchmark's workloads, of
    which --workloads picks some (all by default), each once."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", choices=workloads,
                    default=workloads, metavar="NAME")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    args.workloads = list(dict.fromkeys(args.workloads))
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = export(args.parent, Path(tmp)), ROOT
        summary = {}
        for wl in args.workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = [parent, change] if i % 2 == 0 else [change, parent]
                got = {tree: run_once(tree, wl, seed, seconds) for tree in order}
                pairs.append((got[parent], got[change]))
                walls = [got[t]["metrics"]["wall_s"]["value"] for t in (parent, change)]
                print(f"{wl} pair {i} seed {seed}: wall_s parent {walls[0]:.3f}, "
                      f"change {walls[1]:.3f}", file=sys.stderr)
            summary[wl] = summarize(pairs, spec["end_to_end"])
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                         check=True, capture_output=True, text=True).stdout.strip()
    doc = {
        "parent": rev,
        "change": "working tree",
        "seeds": args.seeds,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": summary,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
