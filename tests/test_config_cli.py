import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dupkit import cli, config as cfg
from dupkit.cli import main
from dupkit.duplication import all_once, extend_profile, k_copies_of, set_once, single_of
from dupkit.examples import example_n3
from dupkit.errors import (
    ConcavityViolation,
    DominanceViolation,
    DupkitError,
    HypothesisViolated,
    LemmaViolation,
    NonConvergence,
    ParseError,
    UnboundedExpectation,
)
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


_PLAN_PROFILE = {"curves": [{"triangle": {"q": 0.5, "r": 0.5}}, {"point_mass": 0.4},
                            {"equal_revenue": 1.0}], "names": ["a", "b", "c"]}


def _extension(profile, plan):
    """extend_profile's curves, names and pairs, or the error it raises."""
    try:
        ext, con = extend_profile(profile, plan)
    except DupkitError as exc:
        return repr(exc)
    return ext.curves, ext.names, con.pairs


@pytest.mark.parametrize("pair_constrained", [False, True])
@pytest.mark.parametrize("mode, build, out_of_range", [
    ("single_of", lambda pc: replace(single_of(1), pair_constrained=pc), {"index": 3}),
    ("k_copies_of", lambda pc: replace(k_copies_of(1, 3), pair_constrained=pc), {"index": 3}),
    ("set_once", lambda pc: set_once((2, 0), pair_constrained=pc), {"indices": [0, 3]}),
    ("all_once", lambda pc: all_once(pair_constrained=pc), None),
])
def test_config_plan_extends_as_its_constructor(tmp_path, mode, build, out_of_range,
                                                pair_constrained):
    # every plan field is set, those the mode ignores too
    plan = {"mode": mode, "index": 1, "copies": 3, "indices": [2, 0],
            "pair_constrained": pair_constrained}
    text = json.dumps({**BASE, "profile": _PLAN_PROFILE, "plan": plan})
    want = _extension(cfg.parse_config(json.dumps({**BASE, "profile": _PLAN_PROFILE})).profile,
                      build(pair_constrained))
    if isinstance(want, str):  # a plan its constructor cannot extend is refused at parse
        with pytest.raises(ParseError, match="'plan.pair_constrained'"):
            cfg.parse_config(text)
    else:
        ext, con = cfg.parse_config(text).sampled
        assert (ext.curves, ext.names, con.pairs) == want
    if out_of_range:
        raw = {**BASE, "profile": _PLAN_PROFILE, "plan": {**plan, **out_of_range}}
        assert main(["simulate", "--config", write_config(tmp_path, raw), "--samples", "10"]) == 2


def test_report_csv_is_flat():
    conf = cfg.parse_config(json.dumps(BASE))
    report, _ = cfg.run_experiment(conf)
    text = cli.report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("estimate.mean,") for line in lines)
    for key in ("timings.exante_s", "timings.sampling_s", "timings.summary_s",
                "timings.processes", "samples_per_s"):
        assert any(line.startswith(key + ",") for line in lines)
    # 2,000 draws are one chunk, which no process shares
    assert "timings.processes,1" in lines


def test_report_csv_quotes_fields_that_hold_a_delimiter(tmp_path, capsys):
    raw = {**BASE, "profile": {**BASE["profile"], "names": ["a,b", 'c\nd"']}}
    assert main(["exante", "--config", write_config(tmp_path, raw), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(len(row) == 2 for row in rows)
    assert rows[-2:] == [["names[0]", "a,b"], ["names[1]", 'c\nd"']]
    # every other value reads as it did before it could be quoted
    assert cli.report_to_csv({"none": None, "inf": math.inf, "ok": True}) == (
        "key,value\nnone,None\ninf,inf\nok,True\n")


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
    assert sorted(timings) == ["exante_s", "processes", "sampling_s", "summary_s"]
    assert all(t >= 0.0 for t in timings.values())
    assert timings["processes"] == 1
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


def _refuse(*args, **kwargs):
    raise AssertionError("ran before refusing the report path")


@pytest.mark.parametrize("where", ["--out", "output.path", "missing-folder"])
def test_cli_unwritable_report_path_is_refused_before_any_run(tmp_path, capsys, monkeypatch,
                                                             where):
    # a directory, or a file in a folder that does not exist, fails before
    # any solve or draw, naming the flag or config field that gave it
    monkeypatch.setattr(cfg, "sample_revenues", _refuse)
    monkeypatch.setattr(cfg, "solve_exante", _refuse)
    bad = str(tmp_path / "no-such-folder" / "r.json" if where == "missing-folder" else tmp_path)
    raw, argv = dict(BASE), ["--out", bad]
    if where == "output.path":
        raw["output"], argv = {"path": bad}, []
    path = write_config(tmp_path, raw)
    assert main(["simulate", "--config", path, *argv]) == 2
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert out == "" and err["error"] == "ParseError"
    assert ("config field 'output.path'" if where == "output.path" else "--out") in err["detail"]


@pytest.mark.parametrize("argv", [
    ["exante", "--config"], ["classify", "--config"], ["select", "--rule", "beta", "--config"],
    ["bounds", "--which", "warmup"], ["examples", "lbhr"], ["examples", "two-triangles"],
])
def test_every_command_refuses_a_directory_as_out(tmp_path, capsys, monkeypatch, argv):
    for name in ("solve_exante", "example_lbhr", "min_ratio_two_triangles", "select_by_beta"):
        monkeypatch.setattr(cli, name, _refuse)
    if argv[-1] == "--config":
        argv = [*argv, write_config(tmp_path, BASE)]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--out" in json.loads(err)["detail"]


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


def _error_classes(cls=DupkitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


# the classes that report a failed check or certified claim; the rest are
# usage errors
_EXIT_1 = {LemmaViolation, NonConvergence, UnboundedExpectation, DominanceViolation}


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda c: c.__name__)
def test_cli_exit_code_follows_error_class(monkeypatch, capsys, error):
    def handler(args, config):
        raise error("raised by the handler")

    monkeypatch.setitem(cli._HANDLERS, "examples", handler)
    assert main(["examples", "lbhr"]) == error.exit_code == (1 if error in _EXIT_1 else 2)
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": error.__name__, "detail": "raised by the handler"}


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


# Configs whose fields each pass alone but that describe no run BASE's two
# bidders can make, and the field each refusal names.
_BAD_RUNS = {
    "plan-index-out-of-range": ({"plan": {"mode": "single_of", "index": 7}}, "'plan.index'"),
    "plan-indices-out-of-range": ({"plan": {"mode": "set_once", "indices": [0, 5]}},
                                  "'plan.indices'"),
    "pair-constrained-copies": (
        {"plan": {"mode": "k_copies_of", "copies": 2, "pair_constrained": True}},
        "'plan.pair_constrained'"),
    "posted-prices-short-of-clones": (
        {"mechanism": "posted", "mechanism_params": {"prices": [1.0, 1.0]},
         "plan": {"mode": "all_once"}}, "'mechanism_params.prices'"),
    "posted-negative-prices": ({"mechanism": "posted", "mechanism_params": {"prices": [-1, -1]}},
                               "'mechanism_params.prices'"),
    "posted-bool-prices": ({"mechanism": "posted", "mechanism_params": {"prices": [True, True]}},
                           "'mechanism_params.prices'"),
    "output-path-bool": ({"output": {"path": True}}, "'output.path'"),
}


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
        ("classify", {"constants": {"alpha": 0.27, "beta": 0.4, "k": 0}}, "'constants.k'"),
        ("classify", {"constants": {"alpha": 0.27, "beta": 0.4, "k": -1}}, "'constants.k'"),
        ("simulate", {"plan": {"mode": "k_copies_of", "copies": 10**30}}, "'plan.copies'"),
        ("simulate", {"mechanism_params": {"seed": 1}}, "'mechanism_params.seed'"),
        ("simulate", {"mechanism": "spa", "mechanism_params": {"k": 3}}, "'mechanism_params.k'"),
        ("simulate", {"mechanism": "spa", "mechanism_params": {"prices": [1.0, 0.5]}},
         "'mechanism_params.prices'"),
        ("classify", {"constants": {"beta": 0.4}}, "'constants.alpha'"),
    ] + [("exante", change, field) for change, field in _BAD_RUNS.values()],
    ids=["inf-piecewise", "inf-triangle", "nan-point-mass", "inf-equal-revenue", "plan-string",
         "plan-index", "n-samples", "estimator", "posted-no-prices", "posted-short-prices",
         "checks-not-list", "constant-not-number", "names-not-list", "plan-index-float",
         "k-float", "n-samples-bool", "pair-constrained-string", "n-samples-huge-float",
         "n-samples-huge-int", "classify-k-zero", "classify-k-negative",
         "plan-copies-huge", "mechanism-params-unknown", "spa-with-k", "spa-with-prices",
         "classify-no-alpha", *_BAD_RUNS],
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


@pytest.mark.parametrize("name", list(_BAD_RUNS))
def test_every_command_refuses_a_bad_run_by_field(tmp_path, capsys, monkeypatch, name):
    # refused at parse: no command solves the ex ante relaxation or draws
    monkeypatch.setattr(cli, "solve_exante", None)
    monkeypatch.setattr(cfg, "solve_exante", None)
    change, field = _BAD_RUNS[name]
    path = write_config(tmp_path, {**BASE, **change})
    for argv in (["exante"], ["classify"], ["select", "--rule", "beta"], ["simulate"]):
        assert main([*argv, "--config", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and field in json.loads(err)["detail"]


# Each subcommand's arguments without the flag; argparse rejects the flag
# before any config is read.
_ARGV = {
    "exante": ["exante", "--config", "c.json"],
    "classify": ["classify", "--config", "c.json"],
    "select": ["select", "--config", "c.json", "--rule", "beta"],
    "examples": ["examples", "two-triangles"],
    "examples-lbhr": ["examples", "lbhr"],
    "simulate": ["simulate", "--config", "c.json"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(cmd, flag) for cmd in ("exante", "classify") for flag in ("--seed", "--samples", "--workers")]
    + [("select", "--samples"), ("select", "--workers"), ("examples", "--workers"),
       ("examples", "--seed"), ("examples", "--samples"), ("examples-lbhr", "--grid-steps"),
       ("simulate", "--workers")],
)
def test_cli_rejects_flags_nothing_reads(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*_ARGV[command], flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [cfg.MAX_SAMPLES + 1, 1, 0, -1])
@pytest.mark.parametrize("argv", [["simulate", "--config"], ["examples", "n3"]])
def test_cli_samples_flag_out_of_range_is_parse_error(tmp_path, capsys, monkeypatch, argv,
                                                      samples):
    # refused before anything is solved or drawn
    monkeypatch.setattr(cfg, "solve_exante", None)
    monkeypatch.setattr(cli, "example_n3", None)
    if argv[0] == "simulate":
        argv = [*argv, write_config(tmp_path, BASE)]
    assert main([*argv, "--samples", str(samples)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and err["detail"].startswith("--samples: ")
    for n in (2, cfg.MAX_SAMPLES):
        assert cfg.parse_config(json.dumps({**BASE, "sampling": {"n_samples": n}}))


@pytest.mark.parametrize("steps", [cli.MAX_GRID_STEPS + 1, 99, 0, -1])
def test_cli_grid_steps_out_of_range_is_parse_error(capsys, monkeypatch, steps):
    monkeypatch.setattr(cli, "min_ratio_two_triangles", None)  # refused before any grid is built
    assert main(["examples", "two-triangles", "--grid-steps", str(steps)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and err["detail"].startswith("--grid-steps: ")


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
    for argv, field in cases:
        proc = subprocess.run([sys.executable, "-m", "dupkit.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        err = json.loads(proc.stderr)  # the whole of stderr is one JSON object
        assert err["error"] == "NonFiniteResult" and field in err["detail"]


def test_report_env_block(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    want = {"numpy": np.__version__, "python": platform.python_version(),
            "cpu_count": os.cpu_count()}
    assert main(["simulate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["env"] == want
    assert main(["simulate", "--config", path, "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
    env = {key[len("env."):]: val for key, val in rows.items() if key.startswith("env.")}
    assert env == {key: str(val) for key, val in want.items()}


def test_cli_simulate_starts_no_thread(tmp_path, capsys, monkeypatch):
    # a run of more than one sampling chunk draws every chunk in the
    # caller's thread, to the same estimate
    raw = {**BASE, "sampling": {**BASE["sampling"], "n_samples": 70_001}}
    path = write_config(tmp_path, raw)
    assert main(["simulate", "--config", path]) == 0
    want = json.loads(capsys.readouterr().out)["estimate"]

    def no_thread(self):
        raise AssertionError("simulate started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(["simulate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["estimate"] == want
    # n3's six bidders at 10^6 draws: six uniform-drawing rows of 8 MB, so
    # with two CPUs the call splits across two processes, still without a
    # thread, to the serial estimate; the first such run forks the worker
    # and the second reuses it, and the report and its CSV say how many
    # processes filled the call
    n3 = [{"equal_revenue": 1.0}, *[{"triangle": {"q": 0.5, "r": 0.5}}] * 2]
    raw = {**BASE, "profile": {"curves": n3}, "plan": {"mode": "all_once"},
           "sampling": {"n_samples": 1_000_000, "seed": 7}}
    path = write_config(tmp_path, raw, "n3.json")
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["simulate", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    want = report["estimate"]
    assert forks == [] and report["timings"]["processes"] == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for fmt in ("json", "csv"):
        assert main(["simulate", "--config", path, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            report = json.loads(out)
            assert report["estimate"] == want and report["timings"]["processes"] == 2
        else:
            rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
            assert rows["timings.processes"] == "2"
            assert rows["estimate.mean"] == repr(want["mean"])
    assert len(forks) == 1


def test_cli_examples_n3_reads_seed_zero_and_samples_zero(capsys):
    assert main(["examples", "n3", "--seed", "0", "--samples", "2000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _, est = example_n3(2000, 0)
    assert (payload["spa_six_bidder_mean"], payload["stderr"]) == (est.mean, est.stderr)
    # 0 is read as a count, not as an absent flag, and refused by name
    assert main(["examples", "n3", "--seed", "0", "--samples", "0"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError" and err["detail"].startswith("--samples: ")


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


# A config that sets every field the parser reads; the fuzz below changes
# one of them at a time.
_FUZZ_BASE = {
    "profile": {"curves": [{"triangle": {"q": 0.5, "r": 0.5}}, {"equal_revenue": 1.0},
                           {"piecewise": [[0, 0], [0.5, 0.4], [1, 0.2]]}, {"point_mass": 0.7}],
                "names": ["a", "b", "c", "d"]},
    "mechanism": "vcg",
    "mechanism_params": {"k": 1},
    "plan": {"mode": "k_copies_of", "index": 1, "copies": 2, "indices": [0, 2],
             "pair_constrained": False},
    "constants": {"alpha": 0.27, "beta": 0.4, "gamma": 0.2, "delta": 0.1, "eps": 0.0, "k": 2},
    "checks": ["warmup"],
    "sampling": {"n_samples": 300, "seed": 3, "estimator": "plain"},
    "output": {"format": "json"},
}


def _field_paths(node, path=()):
    """Every path into node: its keys and list positions, nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield (*path, key)
        if isinstance(val, (dict, list)):
            yield from _field_paths(val, (*path, key))


# output.format is left alone: csv is a valid value and is not JSON
_FUZZ_PATHS = [p for p in _field_paths(_FUZZ_BASE) if p != ("output", "format")]
_WORDS = ["spa", "vcg", "vcg_constrained", "myerson", "lookahead", "spald", "posted", "all_once",
          "single_of", "k_copies_of", "set_once", "plain", "median_of_means", "warmup", "k-free",
          "triangle", "q", "r", "k", "prices", "seed", "workers", "profile", "n_samples"]
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
    st.sampled_from([10**8, 2**63, 10**30, -(10**30)]), st.sampled_from(_WORDS),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=2),
    max_leaves=6,
)


# Plans and posted prices drawn against the profile's four bidders; the
# base plan's two clones make the posted mechanism's bidders six.
_plans = st.fixed_dictionaries(
    {"mode": st.sampled_from(sorted(cfg.PLAN_SOURCES))},
    optional={"index": st.integers(-1, 5), "copies": st.integers(1, 3),
              "indices": st.lists(st.integers(-1, 5), max_size=4), "pair_constrained": st.booleans()},
)
_prices = st.lists(st.one_of(st.floats(-1, 3), st.sampled_from([math.nan, math.inf, 0, True])),
                   min_size=5, max_size=7)
_run_edits = st.one_of(
    _plans.map(lambda plan: [(("plan",), plan, False)]),
    _prices.map(lambda prices: [(("mechanism",), "posted", False),
                                (("mechanism_params",), {"prices": prices}, False)]),
)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in output")

    return json.loads(text, parse_constant=refuse)


def _run_edited_config(edits, command):
    """Run command on _FUZZ_BASE with each (path, value, delete) edit applied,
    and check the exit-code contract."""
    raw = json.loads(json.dumps(_FUZZ_BASE))
    for path, value, delete in edits:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if delete and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "conf.json")
        with open(conf, "w") as fh:
            fh.write(json.dumps(raw))
        argv = [command, "--config", conf] + (["--samples", "300"] if command == "simulate" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if err.getvalue():
        assert code != 0 and "error" in _strict_json(err.getvalue())
    if code == 2:  # bad input names its config field, and a result that is not finite its own
        assert re.search(r"(config|report) field '", _strict_json(err.getvalue())["detail"])
    if out.getvalue():
        _strict_json(out.getvalue())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_PATHS), st.one_of(st.just(None), _values), st.booleans(),
       st.sampled_from(["simulate", "exante", "classify"]))
@example(("plan", "copies"), 10**30, False, "simulate")
@example(("mechanism_params",), {"seed": 1}, False, "simulate")
@example(("mechanism_params", "k"), True, False, "simulate")
@example(("constants", "beta"), 12, False, "classify")
def test_cli_config_fuzz_keeps_exit_contract(path, value, delete, command):
    _run_edited_config([(path, value, delete)], command)


@settings(max_examples=150, deadline=None)
@given(_run_edits, st.sampled_from(["simulate", "exante", "classify"]))
def test_cli_plan_and_price_fuzz_keeps_exit_contract(edits, command):
    _run_edited_config(edits, command)


# The fuzz above samples these cases; this sweep runs each of them: every
# fuzz path set to each value below, or deleted, under every command that
# reads a config, so a case such as constants.beta = 12 under classify is
# always checked.
_SWEEP_VALUES = [None, True, 0, -1, 12, 0.5, math.inf, 10**30, "spa", [1], {}]


@pytest.mark.parametrize("command", ["simulate", "exante", "classify"])
@pytest.mark.parametrize("value, delete", [(None, True)] + [(v, False) for v in _SWEEP_VALUES],
                         ids=["delete", *map(repr, _SWEEP_VALUES)])
@pytest.mark.parametrize("path", _FUZZ_PATHS, ids=lambda p: ".".join(map(str, p)))
def test_cli_config_sweep_keeps_exit_contract(path, value, delete, command):
    _run_edited_config([(path, value, delete)], command)
