"""Spans around calls into cmcurve's layers, recorded from outside.

The program is not instrumented. Tracing rebinds the names through which
`cm` and `classpoly` call into the other layers (and the benchmark's own
entry points) to wrappers that record a span per call: name, operation
id, parent span, start and end. Spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the part covered by
their direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """fn wrapped to record a span; count(counts, args, result) may
        add to the tracer's counters."""

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.op, name, start, end)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        inclusive: dict = defaultdict(float)
        covered: dict = defaultdict(float)
        for _, parent, _, name, start, end in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            self_time[name] += end - start - covered[sid]
        return inclusive, self_time

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


def _count_scan(counts, args, result):
    counts["classpoly.scanned_p"] += args[1].p
    counts["classpoly.confirmed"] += len(result)


def count_terms(counts, args, result):
    counts["crt.terms"] += len(args[1])


def _counter(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def patch_table(cm, classpoly):
    """(module, attribute, span name, counter) for every rebound name."""
    return [
        (cm, "derive_cm_params", "cm.derive_cm_params", None),
        (cm, "discriminant", "quadforms.discriminant", None),
        (cm, "find_crt_primes", "primegen.find_crt_primes", None),
        (cm, "build_shards", "classpoly.build_shards", None),
        (cm, "build_basis", "crt.build_basis", None),
        (cm, "crt_mod_n", "crt.crt_mod_n", count_terms),
        (cm, "find_root_mod_n", "cm.find_root_mod_n", None),
        (cm, "order_filter", "curves.order_filter", None),
        (cm, "verify_order", "cm.verify_order", None),
        (cm, "point_count_naive", "curves.exact_count", None),
        (cm, "point_count_bsgs", "curves.exact_count", None),
        (classpoly, "find_j_invariants", "classpoly.find_j_invariants", _count_scan),
        (classpoly, "load_shard", "classpoly.load_shard", None),
        (classpoly, "save_shard", "classpoly.save_shard", None),
        (classpoly, "order_filter", "curves.order_filter",
         _counter("classpoly.probe_survivors")),
        (classpoly, "point_count_naive", "curves.exact_count",
         _counter("classpoly.exact_counts")),
        (classpoly, "point_count_bsgs", "curves.exact_count",
         _counter("classpoly.exact_counts")),
    ]


@contextmanager
def rebound(tracer: Tracer, cm, classpoly):
    """Route the program's inter-layer calls through tracer wrappers."""
    table = patch_table(cm, classpoly)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
    try:
        for mod, attr, name, count in table:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans and counters."""
    inc, own = tracer.totals()
    c = tracer.counts
    scanned = c["classpoly.scanned_p"]
    exact = c["classpoly.exact_counts"]
    terms = c["crt.terms"]
    return {
        "classpoly.busy_s": (own["classpoly.build_shards"]
                             + own["classpoly.find_j_invariants"], "s"),
        "classpoly.build_us_per_p": (
            1e6 * inc["classpoly.find_j_invariants"] / scanned if scanned else 0.0, "us"),
        "classpoly.scanned_p": (scanned, "count"),
        "classpoly.probe_survivors": (c["classpoly.probe_survivors"], "count"),
        "classpoly.exact_counts": (exact, "count"),
        "classpoly.confirm_ratio": (
            c["classpoly.confirmed"] / exact if exact else 0.0, "ratio"),
        "classpoly.save_s": (inc["classpoly.save_shard"], "s"),
        "classpoly.load_s": (inc["classpoly.load_shard"], "s"),
        "curves.exact_count_s": (own["curves.exact_count"], "s"),
        "curves.order_filter_s": (own["curves.order_filter"], "s"),
        "cm.construct_s": (own["cm.construct_curve"], "s"),
        "cm.derive_s": (own["cm.derive_cm_params"], "s"),
        "cm.verify_s": (own["cm.verify_order"], "s"),
        "cm.root_s": (inc["cm.find_root_mod_n"] + inc["cm.find_all_roots"], "s"),
        "crt.basis_s": (inc["crt.build_basis"], "s"),
        "crt.lift_s": (inc["crt.crt_mod_n"], "s"),
        "crt.lift_us_per_term": (
            1e6 * inc["crt.crt_mod_n"] / terms if terms else 0.0, "us"),
        "primegen.busy_s": (inc["primegen.find_crt_primes"], "s"),
        "quadforms.busy_s": (inc["quadforms.discriminant"], "s"),
    }
