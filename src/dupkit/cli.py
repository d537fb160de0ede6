"""Command line front end.

Exit codes separate "the math said no" from "the invocation was wrong":
0 success / all checks passed, 1 a checked bound or certified claim failed,
2 config or usage error.  Every numeric result is reproducible from the
invocation alone (config text + seed), so reports embed the config hash.
JSON output never holds NaN or infinity: a result that is not finite exits
2 with a NonFiniteResult error naming its field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import warnings

from . import analysis, config as cfg, curves as cv
from .duplication import (
    noisy_beta_reports,
    select_by_beta,
    select_by_noisy_beta,
    select_by_sample,
    select_k_set_noisy,
)
from .errors import (
    ConcavityViolation,
    DominanceViolation,
    DomainError,
    HypothesisViolated,
    LemmaViolation,
    NonConvergence,
    NonFiniteResult,
    ParseError,
    ProfileMismatch,
    UnboundedExpectation,
)
from .examples import example_lbhr, example_n3, min_ratio_two_triangles
from .exante import solve_exante
from .verify import BUDGETS, verify_all

_USAGE_ERRORS = (
    ParseError,
    DomainError,
    HypothesisViolated,
    ConcavityViolation,
    ProfileMismatch,
    NonFiniteResult,
    IndexError,
    OSError,
)
_CHECK_FAILURES = (
    LemmaViolation,
    NonConvergence,
    UnboundedExpectation,
    DominanceViolation,
)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _nonfinite_field(obj, path: str = ""):
    """Dotted path of the first non-finite number in a JSON-ready payload, or None."""
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return path if isinstance(obj, float) and not math.isfinite(obj) else None
    for sub, val in items:
        found = _nonfinite_field(val, sub)
        if found is not None:
            return found
    return None


def _emit(payload: dict, out_path, out_format: str) -> None:
    payload = _jsonable(payload)
    if out_format == "csv":
        text = cfg.report_to_csv(payload)
    else:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            field = _nonfinite_field(payload)
            raise NonFiniteResult(f"report field {field!r} is not a finite number") from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> cfg.ExperimentConfig:
    with open(path) as fh:
        return cfg.parse_config(fh.read())


def _samples_flag(args):
    """--samples, refused above cfg.MAX_SAMPLES before anything is drawn."""
    if args.samples is not None and args.samples > cfg.MAX_SAMPLES:
        raise ParseError(f"--samples must be at most {cfg.MAX_SAMPLES}, got {args.samples}")
    return args.samples


def _need(constants: dict, key: str) -> float:
    if key not in constants:
        raise DomainError(f"config constants must include {key!r} for this rule")
    return float(constants[key])


def _cmd_exante(args) -> int:
    config = _load_config(args.config)
    k = int(config.constants.get("k", 1))
    sol = solve_exante(config.profile, k=k)
    _emit(
        {
            "k": k,
            "opt": sol.opt,
            "dual": sol.dual,
            "quantiles": list(sol.quantiles),
            "names": list(config.profile.names or ()),
        },
        args.out,
        args.format or config.output_format,
    )
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if _samples_flag(args) is not None:
        config = dataclasses.replace(config, n_samples=args.samples)
    report, code = cfg.run_experiment(config, workers=args.workers or 0)
    _emit(report, args.out or config.output_path, args.format or config.output_format)
    return code


def _cmd_select(args) -> int:
    config = _load_config(args.config)
    constants = config.constants
    seed = args.seed if args.seed is not None else config.seed
    payload: dict = {"rule": args.rule}
    if args.rule == "beta":
        payload["selected"] = select_by_beta(config.profile, _need(constants, "beta"))
    elif args.rule == "noisy":
        reports = noisy_beta_reports(
            config.profile, _need(constants, "beta"), _need(constants, "eps"), seed
        )
        payload["reports"] = reports
        payload["selected"] = select_by_noisy_beta(reports)
    elif args.rule == "sample":
        rng = random.Random(seed)
        samples = [cv.sample_value(c, rng.random()) for c in config.profile.curves]
        payload["samples"] = samples
        payload["selected"] = select_by_sample(samples)
    else:  # kset
        reports = noisy_beta_reports(
            config.profile, _need(constants, "beta"), _need(constants, "eps"), seed
        )
        k = int(constants.get("k", 1))
        payload["reports"] = reports
        payload["selected"] = sorted(select_k_set_noisy(reports, k))
    _emit(payload, args.out, args.format or config.output_format)
    return 0


def _cmd_bounds(args) -> int:
    constants = {
        name: val
        for name, val in (
            ("alpha", args.alpha),
            ("beta", args.beta),
            ("gamma", args.gamma),
            ("delta", args.delta),
            ("eps", args.eps),
        )
        if val is not None
    }
    try:
        value = cfg.BOUND_FUNCS[args.which](constants)
    except KeyError as exc:
        raise DomainError(f"bound {args.which!r} needs constant {exc}")
    _emit(
        {"which": args.which, "constants": constants, "value": value},
        args.out,
        args.format,
    )
    return 0


def _cmd_examples(args) -> int:
    if args.which == "lbhr":
        rep = example_lbhr()
        payload = dataclasses.asdict(rep)
        payload["single_duplicate_gap"] = rep.exante_opt / rep.spa_dup_bidder2
    elif args.which == "n3":
        opt, est = example_n3(
            1_000_000 if _samples_flag(args) is None else args.samples,
            7 if args.seed is None else args.seed,
        )
        upper = est.mean + 4.0 * est.stderr
        payload = {
            "exante_opt": opt,
            "spa_six_bidder_mean": est.mean,
            "stderr": est.stderr,
            "certified_upper": upper,
            "below_three_halves": upper < 1.5,
        }
    else:  # two-triangles
        ratio, arg = min_ratio_two_triangles(args.grid_steps)
        payload = {"min_ratio": ratio, "argmin": arg}
    _emit(payload, args.out, args.format)
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args.config)
    constants = config.constants
    k = int(constants.get("k", 1))
    if k >= 2:
        sol = solve_exante(config.profile, k=k)
        case = analysis.classify_k(
            config.profile,
            k,
            _need(constants, "beta"),
            _need(constants, "gamma"),
            _need(constants, "delta"),
            sol,
        )
        which = "k_items"
    else:
        sol = solve_exante(config.profile, k=1)
        case = analysis.classify_single(
            config.profile, _need(constants, "alpha"), _need(constants, "beta"), sol
        )
        which = "single_item"
    _emit(
        {"classifier": which, "case": case.which, "opt": sol.opt, "witness": case.witness},
        args.out,
        args.format or config.output_format,
    )
    return 0


def _cmd_verify(args) -> int:
    only = None
    if args.only is not None:
        try:
            only = {int(tok) for tok in args.only.split(",") if tok.strip()}
        except ValueError:
            only = set()
        if not only or not only <= set(BUDGETS):
            raise ParseError(f"--only must list criterion numbers 1..9, got {args.only!r}")
    code, results, summary = verify_all(args.seed or 0, only)
    for res in results:
        print(f"criterion {res.number} took {res.elapsed:.1f}s "
              f"of {BUDGETS[res.number]:.0f}s budget", file=sys.stderr)
    print(summary)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dupkit",
        description="Revenue experiments with duplicate bidders on regular value distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """Add --out, --format and each named flag; a named --config is required."""
        if "config" in flags:
            p.add_argument("--config", required=True, help="path to a JSON experiment config")
        for flag in ("seed", "samples", "workers"):
            if flag in flags:
                p.add_argument(f"--{flag}", type=int, default=None)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    common(sub.add_parser("exante", help="solve the ex ante relaxation"), "config")
    common(sub.add_parser("simulate", help="run the configured experiment"),
           "config", "seed", "samples", "workers")

    p = sub.add_parser("select", help="pick whom to duplicate")
    p.add_argument("--rule", required=True, choices=("beta", "noisy", "sample", "kset"))
    common(p, "config", "seed")

    p = sub.add_parser("bounds", help="evaluate a closed-form guarantee")
    p.add_argument(
        "--which", required=True, choices=tuple(sorted(cfg.BOUND_FUNCS))
    )
    for name in ("alpha", "beta", "gamma", "delta", "eps"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("examples", help="reproduce a worked example")
    which = p.add_subparsers(dest="which", required=True)
    common(which.add_parser("lbhr"))
    common(which.add_parser("n3"), "seed", "samples")
    p = which.add_parser("two-triangles")
    p.add_argument("--grid-steps", type=int, default=1000)
    common(p)

    common(sub.add_parser("classify", help="which structural case an instance satisfies"),
           "config")

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")

    return parser


_HANDLERS = {
    "exante": _cmd_exante,
    "simulate": _cmd_simulate,
    "select": _cmd_select,
    "bounds": _cmd_bounds,
    "examples": _cmd_examples,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def _report_error(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}, allow_nan=False),
          file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A non-finite result exits 2 by value, so numpy's float warnings would only
    # print ahead of the JSON error; a process-wide filter reaches worker threads.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".* encountered in ", RuntimeWarning)
        try:
            return _HANDLERS[args.command](args)
        except _CHECK_FAILURES as exc:
            _report_error(exc)
            return 1
        except _USAGE_ERRORS as exc:
            _report_error(exc)
            return 2


if __name__ == "__main__":
    sys.exit(main())
