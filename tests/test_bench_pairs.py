"""The pair summary of scripts/bench_pairs.py, on synthetic runs, and its
command line."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _module():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(correct=True, failed=0, **values):
    return {"correct": correct, "failed": failed, "attempted": 10,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_medians_quartiles_and_wins():
    walls = [(10.0, 3.0), (12.0, 2.0), (11.0, 4.0), (13.0, 13.5), (9.0, 3.5)]
    pairs = [(_run(wall_s=p, rate=1.0), _run(wall_s=c, rate=r))
             for (p, c), r in zip(walls, (2.0, 0.5, 1.0, 3.0, 2.0))]
    out = _module().summarize(pairs, [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.25},
    ])
    assert out["pairs"] == 5 and out["correct"] and out["failed"] == 0
    wall = out["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert wall["change"] == {"median": 3.5, "q1": 3.0, "q3": 4.0}
    assert wall["change_wins"] == 4  # 13.5 against 13.0 is a loss
    assert out["metrics"]["rate"]["change_wins"] == 3  # equal is no win
    # 4 of 5 wins is no gain, and the spread 2 is within 0.25 * 11
    assert wall["verdict"] == out["metrics"]["rate"]["verdict"] == "unchanged"


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 9.9, 10.1]  # quartiles 9.925, 10.1


@pytest.mark.parametrize("chg, better, want", [
    # 9 of 10 pairs won, median 2.0 better, beyond the parent's spread
    ([8.0] * 9 + [11.0], "lower", "gain"),
    ([12.0] * 9 + [9.0], "higher", "gain"),
    # 8 of 10 pairs won is no gain, nor is a median better by less than
    # the spread
    ([8.0] * 8 + [11.0] * 2, "lower", "unchanged"),
    ([v - 0.15 for v in PARENT], "lower", "unchanged"),
    # a median worse by more than 0.25 * 10.0 regresses, by less does not
    ([12.6] * 10, "lower", "regressed"),
    ([7.4] * 10, "higher", "regressed"),
    ([12.4] * 10, "lower", "unchanged"),
])
def test_verdict_of_a_tight_parent(chg, better, want):
    assert _module().compare(PARENT, chg, better, 0.25)["verdict"] == want


def test_verdict_of_a_parent_spread_wider_than_the_bound():
    compare = _module().compare
    par = [5.0, 15.0] * 5  # median 10, quartiles 5 and 15
    assert compare(par, par, "lower", 0.25)["verdict"] == "unresolved"
    # a regression beyond the bound is still reported as one
    assert compare(par, [x + 3 for x in par], "lower", 0.25)["verdict"] == "regressed"
    # every run of the change beats every run of the parent: resolved
    assert compare(par, [4.0] * 10, "lower", 0.25)["verdict"] == "unchanged"
    assert compare(par, [4.9] * 5 + [16.0] * 5, "lower", 0.25)["verdict"] == "unresolved"


def test_summary_reports_incorrect_and_failed_runs():
    pairs = [(_run(wall_s=1.0), _run(wall_s=1.0, correct=False, failed=2)),
             (_run(wall_s=1.0, failed=1), _run(wall_s=1.0))]
    out = _module().summarize(pairs, [{"name": "wall_s", "better": "lower", "bound": 0.25}])
    assert not out["correct"]
    assert out["failed"] == 3
    assert out["metrics"]["wall_s"]["change_wins"] == 0


NAMES = ["construct_cold", "construct_warm", "lift_h96"]
BASE = ["--parent", "HEAD", "--seeds", "1", "2", "--pairs", "10", "--out", "x.json"]


def test_workloads_default_to_all_and_pick_named_ones_once():
    parse = _module().parse_args
    assert parse(BASE, NAMES).workloads == NAMES
    picked = parse(BASE + ["--workloads", "lift_h96", "construct_cold", "lift_h96"], NAMES)
    assert picked.workloads == ["lift_h96", "construct_cold"]
    assert (picked.parent, picked.seeds, picked.pairs) == ("HEAD", [1, 2], 10)


def test_arguments_rejected():
    parse = _module().parse_args
    for argv in (BASE + ["--workloads", "lift_h97"], BASE + ["--workloads"],
                 BASE[:5] + ["--pairs", "1"] + BASE[7:]):
        with pytest.raises(SystemExit):
            parse(argv, NAMES)


@pytest.mark.parametrize("stdout", ["", "op 0 done\nnot json"], ids=["empty", "not-json"])
def test_a_run_without_a_json_last_line_names_it_and_keeps_stderr(tmp_path, stdout):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"print({stdout!r})\n"
        "print('\\n'.join(f'line {i}' for i in range(100)), file=sys.stderr)\n"
        "print('Traceback: boom', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    with pytest.raises(SystemExit) as info:
        _module().run_once(tmp_path, "construct_warm", 11, 0.5)
    message = str(info.value.code)
    assert message.startswith(f"{tmp_path}: construct_warm seed 11 (exit code 3)")
    assert message.endswith("line 99\nTraceback: boom")
    assert "line 60" not in message  # only the tail of stderr


def test_both_sides_run_without_cached_bytecode(tmp_path, monkeypatch):
    # a tree's __pycache__ must not make one side import faster: every run
    # writes no bytecode and looks for it under a fresh, empty prefix
    module = _module()
    seen = []

    def fake_run(argv, **kwargs):
        env = kwargs["env"]
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((env["PYTHONDONTWRITEBYTECODE"], prefix, list(prefix.iterdir())))
        return subprocess.CompletedProcess(argv, 0, json.dumps({"correct": True}) + "\n", "")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    for _ in range(2):
        assert module.run_once(tmp_path, "lift_h96", 11, 0.5) == {"correct": True}
    assert [(flag, listed) for flag, _, listed in seen] == [("1", []), ("1", [])]
    assert seen[0][1] != seen[1][1]
    assert not any(prefix.exists() for _, prefix, _ in seen)
