"""Experiment configuration: a JSON document describing one reproducible run.

Shape:

    {
      "profile": {"curves": [{"triangle": {"q": 1.0, "r": 1.0}},
                             {"equal_revenue": 1.0},
                             {"point_mass": 2.0},
                             {"piecewise": [[0,0],[0.5,0.5],[1,0.25]]}],
                  "names": ["a", "b", "c", "d"]},
      "mechanism": "spa",
      "mechanism_params": {"prices": [1.0, 0.5]},
      "plan": {"mode": "all_once", "pair_constrained": true},
      "constants": {"alpha": 0.27, "beta": 0.4, "gamma": 0.2,
                    "delta": 0.1, "eps": 0.0, "k": 1},
      "checks": ["single"],
      "sampling": {"n_samples": 100000, "seed": 7, "estimator": "plain"},
      "output": {"path": "report.json", "format": "json"}
    }

Everything but "profile" is optional.  The parse builds the run the config
describes (the profile with the plan's clones appended, and the mechanism
parameters with k defaulted from constants.k) and checks it, so every
command refuses a bad config, naming its field, before any solve or draw.
Constants named by "checks" are validated against their formula
hypotheses at parse time too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import os
import platform
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import analysis, curves as cv
from .duplication import DuplicatePlan, extend_profile
from .errors import ConcavityViolation, DomainError, HypothesisViolated, ParseError
from .exante import solve_exante
from .simulate import (
    MECHANISM_PARAMS,
    _estimator,
    _mechanism_fault,
    _summarize,
    sample_revenues,
    sampling_processes,
)

# Fewest and most draws a config or --samples may ask for.  One draw has no
# error bar (stderr 0.0), and the revenue array is held whole, 8 bytes a draw.
MIN_SAMPLES, MAX_SAMPLES = 2, 100_000_000
# Most clones a k_copies_of plan may ask for: each clone adds a bidder row
# to every chunk a call samples.
MAX_COPIES = 1_000

# The bidders each plan mode clones, in append order (None: every bidder
# once), from the plan's index, copies and indices.
PLAN_SOURCES = {
    "single_of": lambda index, copies, indices: (index,),
    "k_copies_of": lambda index, copies, indices: (index,) * copies,
    "set_once": lambda index, copies, indices: indices,
    "all_once": lambda index, copies, indices: None,
}

BOUND_FUNCS = {
    "single": lambda c: analysis.bound_single(c["alpha"], c["beta"]),
    "single-noisy": lambda c: analysis.bound_single_noisy(c["alpha"], c["beta"], c["eps"]),
    "sample": lambda c: analysis.bound_sample(c["alpha"], c["beta"], c["gamma"]),
    "k-free": lambda c: analysis.bound_k_free(c["beta"], c["gamma"], c["delta"]),
    "k-free-remark": lambda c: analysis.bound_k_free_remark(c["beta"], c["gamma"], c["delta"]),
    "k-constrained": lambda c: analysis.bound_k_constrained(c["beta"], c["gamma"], c["delta"]),
    "k-noisy": lambda c: analysis.bound_k_noisy(c["beta"], c["gamma"], c["delta"], c["eps"]),
    "warmup": lambda c: analysis.warmup_constant(),
}


@contextlib.contextmanager
def constants_refused(rule: str):
    """A bound's or rule's refusal of the constants it was given, naming the
    config field."""
    try:
        yield
    except (DomainError, HypothesisViolated) as exc:
        raise type(exc)(f"config field 'constants': {rule}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    profile: cv.BidderProfile
    mechanism: str
    mechanism_params: dict
    sampled: tuple  # the profile with the plan's clones appended, and their PairConstraint
    constants: dict
    checks: tuple
    n_samples: int
    seed: int
    estimator: str
    output_path: str | None
    output_format: str
    raw: dict


def check_samples(n_samples: int, name: str) -> int:
    """n_samples, refused as name unless it lies in [MIN_SAMPLES, MAX_SAMPLES]."""
    if not MIN_SAMPLES <= n_samples <= MAX_SAMPLES:
        raise ParseError(f"{name}: must be in [{MIN_SAMPLES}, {MAX_SAMPLES}], got {n_samples}")
    return n_samples


def _fail(field: str, why: str):
    raise ParseError(f"config field {field!r}: {why}")


def _object(raw: dict, field: str) -> dict:
    val = raw.get(field, {})
    if not isinstance(val, dict):
        _fail(field, "must be an object")
    return val


def _int(val, field: str) -> int:
    """A JSON integer; floats and booleans are refused, not truncated."""
    if not isinstance(val, int) or isinstance(val, bool):
        _fail(field, f"must be an integer, got {val!r}")
    return val


def _bool(val, field: str) -> bool:
    if not isinstance(val, bool):
        _fail(field, f"must be true or false, got {val!r}")
    return val


def _curve_from_spec(spec, pos: int, name: str) -> cv.RevenueCurve:
    field = f"profile.curves[{pos}]"
    if not isinstance(spec, dict) or len(spec) != 1:
        _fail(field, "expected exactly one of triangle/piecewise/point_mass/equal_revenue")
    fmt, body = next(iter(spec.items()))
    try:
        if fmt == "triangle":
            return cv.make_triangle(float(body["q"]), float(body["r"]))
        if fmt == "piecewise":
            return cv.make_piecewise([(float(q), float(r)) for q, r in body])
        if fmt == "point_mass":
            return cv.make_point_mass(float(body))
        if fmt == "equal_revenue":
            return cv.make_equal_revenue(float(body))
    except ConcavityViolation as exc:
        raise ConcavityViolation(f"config field {field!r}: curve {name!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        _fail(field, f"bad {fmt} body: {exc}")
    _fail(field, f"unknown curve kind {fmt!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Validated config from JSON text; every curve is constructed eagerly."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    known = {
        "profile", "mechanism", "mechanism_params", "plan",
        "constants", "checks", "sampling", "output",
    }
    for key in raw:
        if key not in known:
            _fail(key, "unknown field")

    prof_spec = raw.get("profile")
    if not isinstance(prof_spec, dict) or "curves" not in prof_spec:
        _fail("profile", "must be an object with a 'curves' list")
    names = prof_spec.get("names")
    curve_specs = prof_spec["curves"]
    if not isinstance(curve_specs, list) or not curve_specs:
        _fail("profile.curves", "must be a nonempty list")
    if names is not None:
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            _fail("profile.names", f"must be a list of strings, got {names!r}")
        if len(names) != len(curve_specs):
            _fail("profile.names", "length must match curves")
    curves = [
        _curve_from_spec(spec, i, names[i] if names else f"#{i}")
        for i, spec in enumerate(curve_specs)
    ]
    profile = cv.make_profile(curves, tuple(names) if names else None)

    plan, mode = DuplicatePlan(()), None
    if "plan" in raw:
        p = _object(raw, "plan")
        mode = p.get("mode")
        if not (isinstance(mode, str) and mode in PLAN_SOURCES):
            _fail("plan.mode", f"must be one of {sorted(PLAN_SOURCES)}")
        copies = p.get("copies", 1)
        if not 1 <= _int(copies, "plan.copies") <= MAX_COPIES:
            _fail("plan.copies", f"must be in [1, {MAX_COPIES}], got {copies}")
        indices = p.get("indices", [])
        if not isinstance(indices, list):
            _fail("plan.indices", "must be a list of bidder indices")
        sources = PLAN_SOURCES[mode](_int(p.get("index", 0), "plan.index"), copies,
                                     tuple(_int(j, "plan.indices") for j in indices))
        plan = DuplicatePlan(sources, _bool(p.get("pair_constrained", False),
                                            "plan.pair_constrained"))
    try:
        sampled = extend_profile(profile, plan)
    except IndexError as exc:
        _fail("plan.indices" if mode == "set_once" else "plan.index", str(exc))
    except DomainError as exc:
        _fail("plan.pair_constrained", str(exc))

    constants = {"k": 1, **_object(raw, "constants")}
    if _int(constants["k"], "constants.k") < 1:
        _fail("constants.k", f"must be at least 1, got {constants['k']!r}")
    for name, val in constants.items():
        number = isinstance(val, numbers.Real) and not isinstance(val, bool)
        if name != "k" and not (number and math.isfinite(val)):
            _fail(f"constants.{name}", f"must be a finite number, got {val!r}")
    mech = raw.get("mechanism", "spa")
    mechanism_params = dict(_object(raw, "mechanism_params"))
    if isinstance(mech, str) and "k" in MECHANISM_PARAMS.get(mech, ()):
        mechanism_params.setdefault("k", constants["k"])
    if fault := _mechanism_fault(mech, sampled[0].n, mechanism_params):
        if fault[0] is None:
            _fail("mechanism", fault[1])
        raise DomainError(f"config field 'mechanism_params.{fault[0]}': {fault[1]}")
    checks = raw.get("checks", [])
    if not (isinstance(checks, list) and all(isinstance(x, str) for x in checks)):
        _fail("checks", f"must be a list of bound names, got {checks!r}")
    checks = tuple(checks)
    for name in checks:
        if name not in BOUND_FUNCS:
            _fail("checks", f"unknown bound {name!r}; use one of {sorted(BOUND_FUNCS)}")
        try:
            with constants_refused(f"bound {name!r}"):
                BOUND_FUNCS[name](constants)  # hypothesis gate, before any sampling
        except KeyError as exc:
            _fail("constants", f"bound {name!r} needs constant {exc}")

    sampling = _object(raw, "sampling")
    n_samples = _int(sampling.get("n_samples", 100_000), "sampling.n_samples")
    seed = _int(sampling.get("seed", 0), "sampling.seed")
    check_samples(n_samples, "config field 'sampling.n_samples'")
    try:
        estimator = _estimator(sampling.get("estimator", ""), sampled[0])
    except DomainError as exc:
        _fail("sampling.estimator", str(exc))

    output = _object(raw, "output")
    out_path = output.get("path")
    if not isinstance(out_path, (str, type(None))):
        _fail("output.path", f"must be a string or absent, got {out_path!r}")
    out_format = output.get("format", "json")
    if out_format not in ("json", "csv"):
        _fail("output.format", "must be 'json' or 'csv'")

    return ExperimentConfig(
        profile=profile,
        mechanism=mech,
        mechanism_params=mechanism_params,
        sampled=sampled,
        constants=constants,
        checks=checks,
        n_samples=n_samples,
        seed=seed,
        estimator=estimator,
        output_path=out_path,
        output_format=out_format,
        raw=raw,
    )


def normalize(text_or_raw) -> str:
    """Canonical JSON: sorted keys, fixed separators."""
    raw = json.loads(text_or_raw) if isinstance(text_or_raw, str) else text_or_raw
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def emit_config(config: ExperimentConfig) -> str:
    return normalize(config.raw)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(emit_config(config).encode()).hexdigest()[:16]


def run_experiment(config: ExperimentConfig):
    """Estimate revenue, evaluate configured bound checks, build the report.

    Returns (report dict, exit_code): 0 when every check passes, 1 otherwise.
    A check passes when estimate >= ratio * exante_opt - 4 * stderr.  The
    report's "timings" (seconds per stage, and "processes": how many
    processes filled the sampling call, 1 when it ran serial),
    "samples_per_s" and "env" (the numpy and Python versions and
    os.cpu_count()) are the only fields that are not reproducible from the
    config and seed.
    """
    t0 = perf_counter()
    exante = solve_exante(config.profile, k=config.constants["k"])
    t1 = perf_counter()
    profile, constraint = config.sampled
    # estimate_revenue's two stages, run here so each can be timed
    t2 = perf_counter()
    rev = sample_revenues(profile, constraint, config.mechanism, config.n_samples, config.seed,
                          **config.mechanism_params)
    t3 = perf_counter()
    est = _summarize(rev, config.seed, config.estimator)
    t4 = perf_counter()
    check_rows = []
    all_pass = True
    for name in config.checks:
        ratio = BOUND_FUNCS[name](config.constants)
        target = ratio * exante.opt
        passed = bool(est.mean >= target - 4.0 * est.stderr)
        all_pass &= passed
        check_rows.append(
            {"bound": name, "ratio": ratio, "target": target, "passed": passed}
        )
    report = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "mechanism": config.mechanism,
        "exante_opt": exante.opt,
        "exante_quantiles": list(exante.quantiles),
        "estimate": {
            "mean": est.mean,
            "stderr": est.stderr,
            "n_samples": est.n_samples,
            "estimator": est.estimator,
            "blocks": est.blocks,
        },
        "checks": check_rows,
        "timings": {"exante_s": t1 - t0, "sampling_s": t3 - t2, "summary_s": t4 - t3,
                    "processes": sampling_processes()},
        "samples_per_s": config.n_samples / (t3 - t2),
        "env": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
    }
    return report, (0 if all_pass else 1)

