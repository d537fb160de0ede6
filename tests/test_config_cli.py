import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from dupkit import config as cfg
from dupkit.cli import main
from dupkit.examples import example_n3
from dupkit.errors import ConcavityViolation, HypothesisViolated, ParseError
from dupkit.mechanisms import NO_CONSTRAINT
from dupkit.simulate import estimate_revenue

BASE = {
    "profile": {
        "curves": [{"triangle": {"q": 0.5, "r": 0.5}}, {"equal_revenue": 1.0}],
        "names": ["a", "b"],
    },
    "constants": {"alpha": 0.27, "beta": 0.4},
    "sampling": {"n_samples": 2000, "seed": 3},
}


def write_config(tmp_path, raw, name="conf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_parse_round_trip():
    text = json.dumps(BASE)
    conf = cfg.parse_config(text)
    assert cfg.emit_config(conf) == cfg.normalize(text)
    assert len(cfg.config_hash(conf)) == 16
    assert conf.profile.names == ("a", "b")
    assert conf.mechanism == "spa"  # default
    assert conf.n_samples == 2000


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        cfg.parse_config("{not json")
    with pytest.raises(ParseError):
        cfg.parse_config(json.dumps({**BASE, "surprise": 1}))
    with pytest.raises(ParseError):
        cfg.parse_config(json.dumps({"profile": {"curves": []}}))
    with pytest.raises(ParseError):
        cfg.parse_config(json.dumps({**BASE, "mechanism": "english"}))
    with pytest.raises(ParseError):
        cfg.parse_config(json.dumps({**BASE, "checks": ["single"], "constants": {}}))


def test_parse_gates_constants_before_sampling():
    bad = {**BASE, "checks": ["single"], "constants": {"alpha": 0.6, "beta": 0.4}}
    with pytest.raises(HypothesisViolated):
        cfg.parse_config(json.dumps(bad))


def test_parse_names_bad_curve():
    raw = {
        "profile": {
            "curves": [{"piecewise": [[0, 0], [0.2, 0.1], [0.6, 0.5], [1, 0]]}],
            "names": ["bulge"],
        }
    }
    with pytest.raises(ConcavityViolation, match="bulge"):
        cfg.parse_config(json.dumps(raw))


def test_run_experiment_pass_and_fail():
    passing = {**BASE, "checks": ["warmup"], "plan": {"mode": "all_once"}}
    conf = cfg.parse_config(json.dumps(passing))
    report, code = cfg.run_experiment(conf)
    assert code == 0
    assert report["checks"][0]["passed"] is True
    assert report["config_hash"] == cfg.config_hash(conf)
    assert report["estimate"]["n_samples"] == 2000
    assert report["exante_opt"] > 0

    failing = {
        **BASE,
        "checks": ["warmup"],
        "mechanism": "posted",
        "mechanism_params": {"prices": [1e9, 1e9]},
    }
    report, code = cfg.run_experiment(cfg.parse_config(json.dumps(failing)))
    assert code == 1
    assert report["estimate"]["mean"] == 0.0
    assert report["checks"][0]["passed"] is False


def test_report_csv_is_flat():
    conf = cfg.parse_config(json.dumps(BASE))
    report, _ = cfg.run_experiment(conf)
    text = cfg.report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("estimate.mean,") for line in lines)
    for key in ("timings.exante_s", "timings.sampling_s", "timings.summary_s", "samples_per_s"):
        assert any(line.startswith(key + ",") for line in lines)


def test_report_timings_match_estimate():
    conf = cfg.parse_config(json.dumps(BASE))
    report, _ = cfg.run_experiment(conf)
    est = estimate_revenue(conf.profile, NO_CONSTRAINT, "spa", 2000, 3)
    assert report["estimate"] == {
        "mean": est.mean,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "estimator": est.estimator,
        "blocks": est.blocks,
    }
    timings = report["timings"]
    assert sorted(timings) == ["exante_s", "sampling_s", "summary_s"]
    assert all(t >= 0.0 for t in timings.values())
    assert report["samples_per_s"] == pytest.approx(2000 / timings["sampling_s"])


def test_cli_exante(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["exante", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["opt"] == pytest.approx(1.5, abs=1e-9)
    assert payload["names"] == ["a", "b"]


def test_cli_simulate_writes_file(tmp_path):
    path = write_config(tmp_path, {**BASE, "plan": {"mode": "all_once"}})
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", path, "--samples", "500", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["estimate"]["n_samples"] == 500
    assert report["mechanism"] == "spa"


def test_cli_simulate_seed_override_changes_estimate(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    main(["simulate", "--config", path, "--seed", "1"])
    first = json.loads(capsys.readouterr().out)
    main(["simulate", "--config", path, "--seed", "1"])
    again = json.loads(capsys.readouterr().out)
    main(["simulate", "--config", path, "--seed", "2"])
    other = json.loads(capsys.readouterr().out)
    # stage timings are wall-clock telemetry; everything else must repeat
    for report in (first, again):
        del report["timings"], report["samples_per_s"]
    assert first == again
    assert first["estimate"]["mean"] != other["estimate"]["mean"]


def test_cli_select_rules(tmp_path, capsys):
    raw = {**BASE, "constants": {"beta": 0.5, "eps": 0.1, "k": 1}}
    path = write_config(tmp_path, raw)
    for rule in ("beta", "noisy", "sample", "kset"):
        assert main(["select", "--config", path, "--rule", rule, "--seed", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == rule
        assert payload["selected"] in (0, 1, [0], [1])
    # missing eps for the noisy rule is a usage error
    bare = write_config(tmp_path, {**BASE, "constants": {"beta": 0.5}}, "bare.json")
    assert main(["select", "--config", bare, "--rule", "noisy"]) == 2


def test_cli_bounds(capsys):
    assert main(["bounds", "--which", "single", "--alpha", "0.27", "--beta", "0.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.108, abs=1e-12)
    assert main(["bounds", "--which", "single", "--alpha", "0.6", "--beta", "0.4"]) == 2
    assert main(["bounds", "--which", "single", "--alpha", "0.27"]) == 2
    capsys.readouterr()


def test_cli_examples_two_triangles(capsys):
    assert main(["examples", "two-triangles", "--grid-steps", "200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_ratio"] == 0.75
    assert payload["argmin"]["alpha"] == 1.0


def test_cli_classify(tmp_path, capsys):
    raw = {
        "profile": {"curves": [{"triangle": {"q": 1.0, "r": 1.0}}, {"equal_revenue": 1.0}]},
        "constants": {"alpha": 0.27, "beta": 0.4},
    }
    path = write_config(tmp_path, raw)
    assert main(["classify", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classifier"] == "single_item"
    assert payload["case"] in ("case1", "case2")
    assert payload["witness"]


def test_cli_verify_single_criterion(capsys):
    assert main(["verify", "--only", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS  1." in out
    assert "1/1 criteria passed" in out


@pytest.mark.parametrize("only", ["x", "0", "10", ",", "1,x"])
def test_cli_verify_only_must_name_criteria(only):
    proc = subprocess.run([sys.executable, "-m", "dupkit.cli", "verify", "--only", only],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ParseError" and "--only" in err["detail"]


def test_cli_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["exante", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["exante", "--config", str(bad)]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


@pytest.mark.parametrize("mechanism", ["vcg", "vcg_constrained"])
@pytest.mark.parametrize("k", [0, -1])
def test_cli_simulate_bad_k_is_usage_error(tmp_path, mechanism, k):
    raw = {**BASE, "mechanism": mechanism, "mechanism_params": {"k": k}}
    path = write_config(tmp_path, raw)
    proc = subprocess.run(
        [sys.executable, "-m", "dupkit.cli", "simulate", "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "DomainError"


@pytest.mark.parametrize(
    "command, change, field",
    [
        ("exante", {"profile": {"curves": [{"piecewise": [[0, 0], [0.5, math.inf], [1, 0]]}]}},
         "'profile.curves[0]'"),
        ("exante", {"profile": {"curves": [{"triangle": {"q": 0.5, "r": math.inf}}]}},
         "'profile.curves[0]'"),
        ("exante", {"profile": {"curves": [{"point_mass": math.nan}]}}, "'profile.curves[0]'"),
        ("exante", {"profile": {"curves": [{"equal_revenue": math.inf}]}}, "'profile.curves[0]'"),
        ("simulate", {"plan": "all_once"}, "'plan'"),
        ("simulate", {"plan": {"mode": "single_of", "index": "x"}}, "'plan.index'"),
        ("simulate", {"sampling": {"n_samples": "lots"}}, "'sampling.n_samples'"),
        ("simulate", {"sampling": {"n_samples": 100, "estimator": "trimmed"}},
         "'sampling.estimator'"),
        ("simulate", {"mechanism": "posted"}, "prices"),
        ("simulate", {"mechanism": "posted", "mechanism_params": {"prices": [1.0]}}, "prices"),
        ("exante", {"checks": 5}, "'checks'"),
        ("exante", {"constants": {"alpha": "x"}, "checks": ["single"]}, "'constants.alpha'"),
        ("exante", {"profile": {**BASE["profile"], "names": 5}}, "'profile.names'"),
        ("simulate", {"plan": {"mode": "single_of", "index": 1.7}}, "'plan.index'"),
        ("exante", {"constants": {"k": 1.5}}, "'constants.k'"),
        ("simulate", {"sampling": {"n_samples": True}}, "'sampling.n_samples'"),
        ("simulate", {"plan": {"mode": "all_once", "pair_constrained": "false"}},
         "'plan.pair_constrained'"),
        ("simulate", {"sampling": {"n_samples": 1e300}}, "'sampling.n_samples'"),
        ("simulate", {"sampling": {"n_samples": 10**30}}, "'sampling.n_samples'"),
    ],
    ids=["inf-piecewise", "inf-triangle", "nan-point-mass", "inf-equal-revenue", "plan-string",
         "plan-index", "n-samples", "estimator", "posted-no-prices", "posted-short-prices",
         "checks-not-list", "constant-not-number", "names-not-list", "plan-index-float",
         "k-float", "n-samples-bool", "pair-constrained-string", "n-samples-huge-float",
         "n-samples-huge-int"],
)
def test_cli_bad_input_is_usage_error(tmp_path, command, change, field):
    path = write_config(tmp_path, {**BASE, **change})
    proc = subprocess.run(
        [sys.executable, "-m", "dupkit.cli", command, "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert field in json.loads(proc.stderr)["detail"]


# Each subcommand's arguments without the flag; argparse rejects the flag
# before any config is read.
_ARGV = {
    "exante": ["exante", "--config", "c.json"],
    "classify": ["classify", "--config", "c.json"],
    "select": ["select", "--config", "c.json", "--rule", "beta"],
    "examples": ["examples", "two-triangles"],
    "examples-lbhr": ["examples", "lbhr"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(cmd, flag) for cmd in ("exante", "classify") for flag in ("--seed", "--samples", "--workers")]
    + [("select", "--samples"), ("select", "--workers"), ("examples", "--workers"),
       ("examples", "--seed"), ("examples", "--samples"), ("examples-lbhr", "--grid-steps")],
)
def test_cli_rejects_flags_nothing_reads(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*_ARGV[command], flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["simulate", "--config"], ["examples", "n3"]])
def test_cli_samples_flag_above_maximum_is_parse_error(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = [*argv, write_config(tmp_path, BASE)]
    assert main([*argv, "--samples", str(cfg.MAX_SAMPLES + 1)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and "--samples" in err["detail"]
    assert cfg.parse_config(json.dumps({**BASE, "sampling": {"n_samples": cfg.MAX_SAMPLES}}))


def test_cli_never_writes_nonfinite_json(tmp_path):
    # a constant nothing gates, and curves whose values overflow to inf
    def huge(name, *curves):
        raw = {"profile": {"curves": list(curves)}, "sampling": {"n_samples": 1000}}
        return ["simulate", "--config", write_config(tmp_path, raw, name)]

    cases = [
        (["bounds", "--which", "warmup", "--alpha", "nan"], "'constants.alpha'"),
        (huge("er.json", {"equal_revenue": 1e308}, {"equal_revenue": 1e308}), "'exante_opt'"),
        (huge("tri.json", {"equal_revenue": 1e300}, {"triangle": {"q": 0.5, "r": 1e300}}),
         "'estimate.stderr'"),
    ]
    # sampling worker threads must not print float warnings either
    cases += [([*argv, "--workers", "2"], field) for argv, field in cases[1:]]
    for argv, field in cases:
        proc = subprocess.run([sys.executable, "-m", "dupkit.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)  # the whole of stderr is one JSON object
        assert err["error"] == "NonFiniteResult" and field in err["detail"]


def test_report_env_block(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["simulate", "--config", path, "--workers", "2"]) == 0
    env = json.loads(capsys.readouterr().out)["env"]
    assert env["numpy"] == np.__version__
    assert env["python"] == platform.python_version()
    assert (env["workers"], env["cpu_count"]) == (2, os.cpu_count())
    assert main(["simulate", "--config", path, "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
    assert rows["env.numpy"] == np.__version__ and rows["env.workers"] == "0"
    assert rows["env.cpu_count"] == str(os.cpu_count())


def test_cli_examples_n3_reads_seed_zero_and_samples_zero(capsys):
    assert main(["examples", "n3", "--seed", "0", "--samples", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _, est = example_n3(2000, 0)
    assert (payload["spa_six_bidder_mean"], payload["stderr"]) == (est.mean, est.stderr)
    assert main(["examples", "n3", "--seed", "0", "--samples", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_cli_csv_format(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["exante", "--config", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("key,value")
    assert "opt," in out


def test_cli_module_entrypoint(tmp_path):
    path = write_config(tmp_path, BASE)
    proc = subprocess.run(
        [sys.executable, "-m", "dupkit.cli", "exante", "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["opt"] == pytest.approx(1.5, abs=1e-9)
