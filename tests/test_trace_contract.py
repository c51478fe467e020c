"""The benchmark's tracer rebinds names on `cm` and `classpoly` from
outside (perfbench/spans.py). A refactor that renames or stops importing
one of them would make `--trace 1` fail, so every rebound name must exist."""

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
