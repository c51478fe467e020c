"""The benchmark's tracer rebinds names on `cm` and `classpoly` from
outside (perfbench/spans.py). A refactor that renames or stops importing
one of them would make `--trace 1` fail, so every rebound name must exist;
one that calls a layer other than through those names would leave its
spans and counters empty, so a traced cold construction must reach them."""

import importlib.util
from pathlib import Path

from cmcurve import classpoly, cm

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_cm_and_classpoly():
    table = _spans_module().patch_table(cm, classpoly)
    assert {mod for mod, _, _, _ in table} == {cm, classpoly}
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _, _ in table
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []


def test_a_traced_cold_construct_reaches_every_counted_layer(tmp_path):
    # the names must also be the ones the pipeline calls through: a call
    # that bypasses a rebound global would leave its counter at zero, and
    # one that moves a filter would change the exact counts pinned here
    spans = _spans_module()
    tracer = spans.Tracer()
    with spans.rebound(tracer, cm, classpoly):
        cm.construct_curve(141767, 142521, cache_dir=tmp_path)
    assert dict(tracer.counts) == {
        # the four gamma_2 primes 17 + 71 + 197 + 521 and the spare 827
        "classpoly.scanned_p": 1633,
        "classpoly.probe_survivors": 17,
        "classpoly.exact_counts": 15,
        "classpoly.confirmed": 15,  # h = 3 j per shard
        "crt.terms": 24,  # h = 3 coefficients over 4 primes, to n and to 827
    }
    names = {span[3] for span in tracer.spans}
    for name in ("crt.build_basis", "crt.crt_mod_n", "cm.find_root_mod_n",
                 "cm.verify_order"):
        assert name in names
