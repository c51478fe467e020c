import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmcurve.cli import main
from cmcurve.curves import curve_from_j, point_count_naive

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_forms_json():
    code, out = run_cli("forms", "-D", "-59", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == "3"
    assert ["1", "1", "15"] in doc["forms"]
    assert ["3", "-1", "5"] in doc["forms"]
    assert abs(doc["log_B"] - 41.317) < 0.01


@pytest.mark.parametrize("as_json", [True, False])
def test_forms_enumerates_the_forms_once(as_json, monkeypatch):
    from cmcurve import quadforms

    calls, real = [], quadforms.reduced_forms
    monkeypatch.setattr(quadforms, "reduced_forms", lambda D: calls.append(D) or real(D))
    code, out = run_cli("forms", "-D", "-59", *(["--json"] if as_json else []))
    assert code == 0 and "15" in out
    assert calls == [-59]


def test_primes_json():
    code, out = run_cli("primes", "-D", "-59", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [p for p, _ in doc["primes"]] == [
        "17", "71", "197", "521", "827", "1907", "3797", "5417",
    ]
    assert doc["count"] == "8"
    assert "count_times_logd_over_logB" in doc


def test_count_command():
    code, out = run_cli("count", "-p", "17", "-j", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == "15"
    assert doc["a4"] == "12" and doc["a6"] == "8"


@pytest.mark.parametrize(
    "p, j, points",
    [("11", "2", "16"), ("67108879", "2", "67112568"), ("141767", "118481", "142521")],
    ids=["below-the-switch", "above-the-naive-cap", "bsgs"],
)
def test_count_picks_the_method_by_field_size(p, j, points):
    code, out = run_cli("count", "-p", p, "-j", j, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == points and "method" not in doc
    if int(p) <= 1 << 26:
        assert int(points) == point_count_naive(curve_from_j(int(j), int(p)))


def test_hdmodp_writes_cache(tmp_path):
    code, out = run_cli(
        "hdmodp", "-D", "-59", "-p", "17", "--cache", str(tmp_path), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == ["5", "12", "12", "1"]
    assert (tmp_path / "D59" / "p17.json").exists()


def test_hdmodp_json_prints_the_cache_file(tmp_path):
    code, out = run_cli(
        "hdmodp", "-D", "-59", "-p", "17", "--cache", str(tmp_path), "--json"
    )
    assert code == 0
    assert out == (tmp_path / "D59" / "p17.json").read_text()


def test_text_mode_renders_the_json_document():
    # the same keys in the same order; nested lists print comma-joined
    code, out = run_cli("hdmodp", "-D", "-59", "-p", "17")
    assert code == 0
    assert out.splitlines() == [
        "D: -59", "p: 17", "t: 3", "h: 3", "j_set: 2 7 13", "coeffs: 5 12 12 1",
    ]
    code, out = run_cli("forms", "-D", "-59")
    assert code == 0
    assert out.splitlines()[:3] == ["D: -59", "h: 3", "forms: 1,1,15 3,-1,5 3,1,5"]


def test_cache_flag_ignores_the_environment(tmp_path, monkeypatch):
    # CM_CACHE_DIR is tests/test_longrun.py's own variable; the CLI reads
    # only --cache
    env_cache = tmp_path / "from_env"
    flag_cache = tmp_path / "from_flag"
    monkeypatch.setenv("CM_CACHE_DIR", str(env_cache))
    code, _ = run_cli("hdmodp", "-D", "-59", "-p", "17", "--cache", str(flag_cache))
    assert code == 0
    assert (flag_cache / "D59" / "p17.json").exists()
    assert not env_cache.exists()


def test_lift_from_shard_directory(tmp_path):
    for p in (17, 71, 197, 521, 827, 1907, 3797, 5417):
        assert run_cli("hdmodp", "-D", "-59", "-p", str(p), "--cache", str(tmp_path))[0] == 0
    code, out = run_cli("lift", "--shards", str(tmp_path / "D59"), "-n", "141767", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == ["48400", "73152", "31177", "1"]
    code, out = run_cli("lift", "--shards", str(tmp_path / "D59"), "--integer", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs_signed"] == [
        "374643194001883136", "-140811576541184", "30197678080", "1",
    ]


def test_lift_refuses_shards_below_the_bound(tmp_path, capsys):
    # construct caches only the gamma_2 primes 17, 71, 197, 521 and the
    # spare 827: their product is far below H_D's bound, and a lift over
    # them is not H_D, in either mode
    code, _ = run_cli("construct", "-n", "141767", "-N", "142521", "--cache", str(tmp_path))
    assert code == 0
    assert sorted(f.name for f in (tmp_path / "D59").iterdir()) == [
        "p17.json", "p197.json", "p521.json", "p71.json", "p827.json",
    ]
    for mode in (["-n", "141767"], ["--integer"]):
        code, out = run_cli("lift", "--shards", str(tmp_path / "D59"), *mode)
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "ValueError: shards reach log M = 25.3527, below the bound 42.0121" in err


def test_readme_cli_block_runs_as_written(tmp_path):
    readme = (Path(SRC).parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    example = readme.split("$ cmcurve construct -n 141767 -N 142521 --json\n", 1)[1]
    expected = json.loads("".join(example.split("```", 1)[0].split()))
    env = dict(os.environ, PYTHONPATH=SRC)
    script = f'set -e\ncmcurve() {{ "{sys.executable}" -m cmcurve "$@"; }}\n{block}'
    run = subprocess.run(
        ["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "coeffs: 48400 73152 31177 1" in lines
    assert json.loads(next(line for line in lines if line.startswith('{"n"'))) == expected


def test_lift_requires_n_or_integer(tmp_path):
    run_cli("hdmodp", "-D", "-59", "-p", "17", "--cache", str(tmp_path))
    code, _ = run_cli("lift", "--shards", str(tmp_path / "D59"))
    assert code == 1


def test_construct_json():
    code, out = run_cli("construct", "-n", "141767", "-N", "142521", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == "-753"
    assert doc["D"] == "-59"
    assert doc["j"] == "4160"
    assert doc["a4"] == "11187" and doc["a6"] == "7458"
    assert doc["primes_used"] == ["17", "71", "197", "521"]
    assert "wall_times" not in doc


def test_construct_derives_the_cm_parameters_once(monkeypatch):
    from cmcurve import cm

    calls, real = [], cm.derive_cm_params
    monkeypatch.setattr(cm, "derive_cm_params", lambda n, N: calls.append(n) or real(n, N))
    code, out = run_cli("construct", "-n", "141767", "-N", "142521", "--json")
    assert code == 0 and json.loads(out)["t"] == "-753"
    assert calls == [141767]


def test_construct_timings_flag():
    code, out = run_cli("construct", "-n", "141767", "-N", "142521", "--json", "--timings")
    assert code == 0
    assert "wall_times" in json.loads(out)


def test_construct_timings_print_as_key_value_pairs():
    # text mode renders the nested timings as stage=seconds, not as a repr
    code, out = run_cli("construct", "-n", "141767", "-N", "142521", "--timings")
    assert code == 0
    key, _, pairs = out.splitlines()[-1].partition(": ")
    assert key == "wall_times"
    stages = dict(pair.split("=") for pair in pairs.split(" "))
    assert list(stages) == ["derive", "primes", "hilbert", "root", "construct"]
    assert all(float(v) >= 0 for v in stages.values())


def test_construct_outside_hasse_exit_code(capsys):
    code, _ = run_cli("construct", "-n", "141767", "-N", "999")
    assert code == 1
    assert "OutsideHasse" in capsys.readouterr().err


@pytest.mark.guard
def test_verify_outside_hasse_exit_code(capsys):
    # the same refusal as construct's
    code, out = run_cli("verify", "-n", "7", "-N", "100", "--a4", "1", "--a6", "1")
    assert code == 1 and out == ""
    assert "OutsideHasse: N = 100 outside [3, 13] for n = 7" in capsys.readouterr().err


def test_verify_command():
    code, out = run_cli(
        "verify", "-n", "141767", "-N", "142521", "--a4", "39103", "--a6", "120580", "--json"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, _ = run_cli(
        "verify", "-n", "141767", "-N", "141015", "--a4", "39103", "--a6", "120580", "--json"
    )
    assert code == 1


def test_usage_error_exit_code():
    for argv in (
        ["construct"],  # missing required arguments
        ["construct", "-n", "141767", "-N", "142521", "--seed", "7"],
        ["count", "-p", "141767", "-j", "118481", "--method", "bsgs"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["count", "-p", "15", "-j", "2", "--json"], "p = 15"),
        (["verify", "-n", "21", "-N", "20", "--a4", "1", "--a6", "1"], "n = 21"),
        (["hdmodp", "-D", "-59", "-p", "15"], "p = 15"),  # 4*15 - 59 = 1^2
        (["hdmodp", "-D", "-11", "-p", "3"], "p = 3"),  # 4*3 - 11 = 1^2
    ],
    ids=["count", "verify", "hdmodp", "hdmodp-3"],
)
def test_modulus_must_be_a_prime_above_3(argv, name, capsys):
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert f"ValueError: {name} is not a prime greater than 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "-n", "7", "-N", "3", "--jobs", "0"],
        ["hdmodp", "-D", "-59", "-p", "17", "--jobs", "0"],
    ],
    ids=["construct", "hdmodp"],
)
def test_jobs_is_checked(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert "ValueError: jobs must be >= 1" in capsys.readouterr().err
