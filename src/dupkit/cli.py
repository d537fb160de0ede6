"""Command line front end.

Each report command is a handler (args, config) -> (payload, exit code)
that opens no file and writes nothing.  One runner, _run_report, reads
the config of a command that takes one (--seed and --samples replace its
sampling fields), refuses a report path that cannot be written before
any solve or draw, calls the handler and writes the payload.  The report
goes to --out, else (simulate only) to the config's output.path, else to
stdout, as --format, else the config's output.format, else JSON.  verify
prints its own text report.

Exit codes separate "the math said no" from "the invocation was wrong":
0 success / all checks passed, 1 a checked bound or certified claim failed,
2 config or usage error.  Every numeric result is reproducible from the
invocation alone (config text + seed), so reports embed the config hash.
JSON output never holds NaN or infinity: a result that is not finite exits
2 with a NonFiniteResult error naming its field.  CSV output is key,value
rows, and csv.writer quotes a field holding a comma, a quote or a newline.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
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
from .errors import DomainError, DupkitError, NonFiniteResult, ParseError
from .examples import MIN_GRID_STEPS, example_lbhr, example_n3, min_ratio_two_triangles
from .exante import solve_exante
from .verify import BUDGETS, verify_all

# Largest --grid-steps, kept as input validation: min_ratio_two_triangles
# builds one row of N steps, so memory does not bound it.
MAX_GRID_STEPS = 4_000
# The constants `bounds` takes as flags, in report order.
_BOUND_CONSTANTS = ("alpha", "beta", "gamma", "delta", "eps")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def leaves(obj, path: str = ""):
    """(dotted path, value) of every leaf of a JSON-ready payload, in order.

    Key k of an object at path p is p.k (k alone at the top), and item i
    of a list is p[i]; dicts and lists are walked, anything else is a leaf.
    """
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from leaves(val, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from leaves(val, f"{path}[{i}]")
    else:
        yield path, obj


def report_to_csv(report: dict) -> str:
    """Flat key,value rows: nested objects such as "timings" and "env" give
    dotted keys, and checks expand to one row per bound.  A value reads
    f"{val}" (None as None, infinity as inf), and a field holding a comma,
    a quote or a newline is quoted."""
    text = io.StringIO()
    rows = csv.writer(text, lineterminator="\n")
    rows.writerow(("key", "value"))
    rows.writerows((key, f"{val}") for key, val in leaves(report))
    return text.getvalue()


def _emit(payload: dict, out_path, out_format: str) -> None:
    payload = _jsonable(payload)
    if out_format == "csv":
        text = report_to_csv(payload)
    else:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            field = next((path for path, val in leaves(payload)
                          if isinstance(val, float) and not math.isfinite(val)), None)
            raise NonFiniteResult(f"report field {field!r} is not a finite number") from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _unwritable(path: str) -> str | None:
    """Why a report cannot be written to path, or None if it can."""
    if os.path.isdir(path):
        return "it is a directory"
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"folder {folder!r} does not exist"
    if not os.access(folder, os.W_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        return "it is not writable"
    return None


def _report_path(args, config: cfg.ExperimentConfig | None):
    """The report path (module docstring), None for stdout; a path that
    cannot be written is refused, naming its flag or field."""
    path, name = args.out, "--out"
    if not path and args.command == "simulate":
        path, name = config.output_path, "config field 'output.path'"
    if path and (why := _unwritable(path)):
        raise ParseError(f"{name}: cannot write the report to {path!r}: {why}")
    return path


def _samples_flag(args):
    """--samples where the command takes it, refused outside
    [cfg.MIN_SAMPLES, cfg.MAX_SAMPLES] before anything is solved or drawn."""
    samples = getattr(args, "samples", None)
    return None if samples is None else cfg.check_samples(samples, "--samples")


def _load_config(args) -> cfg.ExperimentConfig:
    """The config at --config, with --seed and --samples in place of its
    sampling fields where the command takes them and they are given."""
    with open(args.config) as fh:
        config = cfg.parse_config(fh.read())
    flags = {"seed": getattr(args, "seed", None), "n_samples": _samples_flag(args)}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _run_report(args, handler) -> int:
    """Load, refuse, run and write one report command (module docstring)."""
    config = _load_config(args) if hasattr(args, "config") else None
    out = _report_path(args, config)
    payload, code = handler(args, config)
    _emit(payload, out, args.format or (config.output_format if config else "json"))
    return code


def _grid_steps_flag(args) -> int:
    """--grid-steps, refused outside [MIN_GRID_STEPS, MAX_GRID_STEPS] before any grid is built."""
    if not MIN_GRID_STEPS <= args.grid_steps <= MAX_GRID_STEPS:
        raise ParseError(f"--grid-steps: must be in [{MIN_GRID_STEPS}, {MAX_GRID_STEPS}], "
                         f"got {args.grid_steps}")
    return args.grid_steps


def _need(constants: dict, key: str) -> float:
    if key not in constants:
        raise ParseError(f"config field 'constants.{key}': this rule needs it")
    return float(constants[key])


def _cmd_exante(args, config):
    sol = solve_exante(config.profile, k=config.constants["k"])
    return {
        "k": sol.k,
        "opt": sol.opt,
        "dual": sol.dual,
        "quantiles": list(sol.quantiles),
        "names": list(config.profile.names or ()),
    }, 0


def _cmd_simulate(args, config):
    return cfg.run_experiment(config)


def _cmd_select(args, config):
    constants = config.constants
    payload: dict = {"rule": args.rule}
    with cfg.constants_refused(f"rule {args.rule!r}"):
        if args.rule == "beta":
            payload["selected"] = select_by_beta(config.profile, _need(constants, "beta"))
        elif args.rule == "sample":
            rng = random.Random(config.seed)
            samples = [cv.sample_value(c, rng.random()) for c in config.profile.curves]
            payload["samples"] = samples
            payload["selected"] = select_by_sample(samples)
        else:  # noisy, kset
            reports = noisy_beta_reports(
                config.profile, _need(constants, "beta"), _need(constants, "eps"), config.seed
            )
            payload["reports"] = reports
            payload["selected"] = (select_by_noisy_beta(reports) if args.rule == "noisy"
                                   else sorted(select_k_set_noisy(reports, constants["k"])))
    return payload, 0


def _cmd_bounds(args, config):
    constants = {name: getattr(args, name) for name in _BOUND_CONSTANTS
                 if getattr(args, name) is not None}
    try:
        value = cfg.BOUND_FUNCS[args.which](constants)
    except KeyError as exc:
        raise DomainError(f"bound {args.which!r} needs constant {exc}")
    return {"which": args.which, "constants": constants, "value": value}, 0


def _cmd_examples(args, config):
    if args.which == "lbhr":
        rep = example_lbhr()
        payload = dataclasses.asdict(rep)
        payload["single_duplicate_gap"] = rep.exante_opt / rep.spa_dup_bidder2
    elif args.which == "n3":
        opt, est = example_n3(_samples_flag(args) or 1_000_000,
                              7 if args.seed is None else args.seed)
        upper = est.mean + 4.0 * est.stderr
        payload = {
            "exante_opt": opt,
            "spa_six_bidder_mean": est.mean,
            "stderr": est.stderr,
            "certified_upper": upper,
            "below_three_halves": upper < 1.5,
        }
    else:  # two-triangles
        ratio, arg = min_ratio_two_triangles(_grid_steps_flag(args))
        payload = {"min_ratio": ratio, "argmin": arg}
    return payload, 0


def _cmd_classify(args, config):
    constants = config.constants
    k = constants["k"]
    sol = solve_exante(config.profile, k=k)
    with cfg.constants_refused("classify"):
        if k >= 2:
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
            case = analysis.classify_single(
                config.profile, _need(constants, "alpha"), _need(constants, "beta"), sol
            )
            which = "single_item"
    return {"classifier": which, "case": case.which, "opt": sol.opt, "witness": case.witness}, 0


def _cmd_verify(args) -> int:
    only = None
    if args.only is not None:
        try:
            only = {int(tok) for tok in args.only.split(",") if tok.strip()}
        except ValueError:
            only = set()
        if not only or not only <= set(BUDGETS):
            raise ParseError(f"--only must list criterion numbers 1..{len(BUDGETS)}, "
                             f"got {args.only!r}")
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
        for flag in ("seed", "samples"):
            if flag in flags:
                p.add_argument(f"--{flag}", type=int, default=None)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    common(sub.add_parser("exante", help="solve the ex ante relaxation"), "config")
    common(sub.add_parser("simulate", help="run the configured experiment"),
           "config", "seed", "samples")

    p = sub.add_parser("select", help="pick whom to duplicate")
    p.add_argument("--rule", required=True, choices=("beta", "noisy", "sample", "kset"))
    common(p, "config", "seed")

    p = sub.add_parser("bounds", help="evaluate a closed-form guarantee")
    p.add_argument(
        "--which", required=True, choices=tuple(sorted(cfg.BOUND_FUNCS))
    )
    for name in _BOUND_CONSTANTS:
        p.add_argument(f"--{name}", type=float, default=None)
    common(p)

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


# the report commands' handlers; verify prints its own report
_HANDLERS = {
    "exante": _cmd_exante,
    "simulate": _cmd_simulate,
    "select": _cmd_select,
    "bounds": _cmd_bounds,
    "examples": _cmd_examples,
    "classify": _cmd_classify,
}


def _report_error(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}, allow_nan=False),
          file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A non-finite result exits 2 by value, so numpy's float warnings would only
    # print ahead of the JSON error.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".* encountered in ", RuntimeWarning)
        try:
            if args.command == "verify":
                return _cmd_verify(args)
            return _run_report(args, _HANDLERS[args.command])
        except DupkitError as exc:
            _report_error(exc)
            return exc.exit_code
        except (IndexError, OSError) as exc:
            _report_error(exc)
            return 2


if __name__ == "__main__":
    sys.exit(main())
