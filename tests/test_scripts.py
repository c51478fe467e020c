"""Smoke tests: every shipped script runs end to end on D = -59."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_pipeline_demo(monkeypatch, capsys):
    demo = load_script("small_pipeline_demo")
    monkeypatch.setattr(sys, "argv", ["small_pipeline_demo.py"])
    demo.main()
    out = capsys.readouterr().out
    assert "coefficients mod 141767: [48400, 73152, 31177" in out
    assert "G_D mod 141767 = [12061, 68608, 3136, 1] (certified)" in out
    assert "exhaustive count: 142521 (wanted 142521)" in out


def test_big_classgroup_demo(tmp_path, monkeypatch, capsys):
    demo = load_script("big_classgroup_demo")
    monkeypatch.setattr(demo, "D", -59)
    monkeypatch.setattr(sys, "argv", ["big_classgroup_demo.py", "--cache", str(tmp_path)])
    demo.main()
    out = capsys.readouterr().out
    assert "building the shard at p = 5417" in out
    assert "constant = 1560" in out
    assert (tmp_path / "D59" / "p5417.json").exists()

    monkeypatch.setattr(demo, "N_TARGET", 141767)
    monkeypatch.setattr(sys, "argv", ["big_classgroup_demo.py", "--full-lift"])
    demo.main()
    out = capsys.readouterr().out
    assert "full pipeline: curve over F_141767 with 142521 points" in out
    assert "curve: y^2 = x^3 + 11187x + 7458 over F_141767 (j = 4160)" in out
