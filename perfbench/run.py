"""dupkit benchmark: one closed-loop workload per process, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): ``mc_large``,
``mc_sweep`` and ``exact``.  One caller issues ops back to back with
``workers=0``.  A round is the workload's fixed op list, drawn afresh from
(seed, round); rounds repeat until ``--seconds`` have passed.  Every answer
is re-checked outside the timed region.

``--trace 0`` prints the end-to-end figures:

* ``wall_s``: timed wall time of one pass over the op list, each op kind
  taken at its interquartile mean over the rounds;
* ``op_ms_p50``: median op latency, smoothed: the mean of the 40th, 45th,
  50th, 55th and 60th percentiles of all ops pooled (op costs come in steps
  by kind, and a bare median jumps across the step it sits on);
* ``op_ms_tail``: the tail percentile p fixed per workload
  (``workloads.TAIL_PERCENTILE``), smoothed the same way: the mean of the
  percentiles p-10, p-7.5, p-5, p-2.5 and p of all ops pooled;
* ``setup_s``: median over five child processes of the time from process
  start to the first timed op (import, inputs, one warm-up per code path);
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process after its first
  round, which holds no answer past its check and runs no reference kernel,
  so this is the peak of imports, inputs and the largest op;
* ``ref_ms``: time of the workload's reference kernel (reference.py),
  which runs after every op from the second round on, summed per round;
  the interquartile mean over the rounds;
* ``samples_per_s`` (draws per second spent inside simulate's sampling
  entry points, none on ``exact``), ``failed_frac`` and ``cover_miss_frac``
  (estimates of spa/vcg whose mean +- 4 stderr misses the quadrature
  value), each with its counts.

The JSON line carries ``setup_s``, ``peak_rss_mb`` and the three times
divided by ``ref_ms`` (``wall_ref``, ``op_p50_ref``, ``op_tail_ref``, in
units of one round's kernel runs): on the host this was tuned on, raw seconds drift
by up to a quarter between runs, and the ratio cancels most of it.  The
last three figures above can be 0 or undefined, so they are printed only.

``--trace 1`` runs the same rounds untraced and then traced, and reports
per-layer figures from the spans (rates over all traced rounds; ``.calls``,
``.draws`` and ``.evals`` counted in traced round 0, so they repeat exactly
for a seed), the stage table of stages.py, and ``trace.overhead_s``.  A rate
whose layer made no calls on the workload reads 0; its ``.calls`` count
says so.  Spans and the environment are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import KERNELS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 5
CURVE_QUERIES = ("rev", "value", "quantile_of_value", "slope_at", "segments")


def import_dupkit():
    """Import dupkit from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "dupkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dupkit sources at {src}")
    sys.path.insert(0, str(src))
    import dupkit

    if Path(dupkit.__file__).resolve().parent != (src / "dupkit").resolve():
        sys.exit(f"perfbench: imported dupkit from {dupkit.__file__}, not {src}")
    return dupkit


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Runner:
    """Runs rounds of one workload and keeps the accounting."""

    def __init__(self, wl, workload: str, seed: int, scale, workdir: str):
        self.build = wl.WORKLOADS[workload]
        self.kernel = KERNELS[workload]
        self.kernel_times = []
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.sampling = wl.Sampling()
        self.latencies = []  # (op kind, seconds), in the order run
        self.round_walls = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = wl.Notes()
        self.peak_rss_mb = None  # read after the first round

    def ops(self, rnd: int):
        return self.build(self.seed, rnd, self.scale, self.workdir)

    def run_round(self, ops, tracer=None):
        """Each op is timed, then checked untimed, and its answer dropped at once.

        The first round holds no answer past its check and runs no reference
        kernel, so the peak memory read after it is that of imports, inputs
        and the largest op.  Later rounds run the reference kernel after
        every op, which samples the host's speed all through the round.
        """
        wall = 0.0
        ref = 0.0
        with_ref = self.peak_rss_mb is not None
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
                tracer.enabled = True
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = op.run(self.sampling)
                else:
                    result = tracer.span(f"op.{op.kind}", op.run, self.sampling)
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            wall += dt
            self.latencies.append((op.kind, dt))
            self.account(op, result, error, self.sampling.calls)
            self.sampling.calls.clear()
            result = error = None
            if with_ref:
                t0 = perf_counter()
                self.kernel()
                ref += perf_counter() - t0
        if with_ref:
            self.kernel_times.append(ref)
        else:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.round_walls.append(wall)

    def account(self, op, result, error, calls):
        """Oracle for one op; returns True when it counts as failed."""
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                problems = op.check(result, calls, self.notes)
            except Exception as exc:  # an answer the oracle cannot read is wrong
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append((op.kind, problems))
        return bool(problems)

    def cover_misses(self):
        return sum(abs(mean - exact) > 4.0 * se + 1e-9 for mean, se, exact in self.notes.cover)


def setup(wl, workload: str, seed: int, workdir: str):
    """Warm every code path once at small size, then build round 0."""
    warm = Runner(wl, workload, seed, wl.SMALL, workdir)
    for op in warm.ops(-1):
        op.run(warm.sampling)
    runner = Runner(wl, workload, seed, wl.FULL, workdir)
    return runner, runner.ops(0)


def measure_setup(args) -> list:
    """Wall time from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT), text=True) as child:
            line = child.stdout.readline()
            dt = perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup child failed with exit code {code}")
        times.append(dt)
    return times


def run_rounds(runner, first_ops, seconds: float) -> int:
    """Untraced rounds until `seconds` have passed, and at least two (the
    first runs no reference kernel); returns the round count."""
    deadline = perf_counter() + seconds
    ops, rnd = first_ops, 0
    while True:
        runner.run_round(ops)
        rnd += 1
        if rnd >= 2 and perf_counter() >= deadline:
            return rnd
        ops = runner.ops(rnd)


def interquartile_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def op_list_wall(latencies) -> float:
    """Wall time of one pass over the op list: each op kind's interquartile
    mean over the rounds, summed.

    Every round runs each op kind once, so this is a round's wall time with
    a pause that hits one op in one round filtered out.  The mean of the
    middle half, unlike a median, moves smoothly when a kind's cost has two
    modes (exact draws a fresh instance per round, with or without an
    unbounded curve).
    """
    by_kind = {}
    for kind, dt in latencies:
        by_kind.setdefault(kind, []).append(dt)
    return sum(interquartile_mean(v) for v in by_kind.values())


def env_block(args, dupkit):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dupkit": str(Path(dupkit.__file__).parent),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": 0,
    }


def end_to_end(runner, setup_times, p_tail):
    """(gated, raw): the metrics in BENCHMARK.json, and the raw times they derive from."""
    lat = [dt for _, dt in runner.latencies]
    ref = interquartile_mean(runner.kernel_times)
    wall = op_list_wall(runner.latencies)
    p50 = float(np.mean(np.percentile(lat, [40.0, 45.0, 50.0, 55.0, 60.0])))
    tail = float(np.mean(np.percentile(lat, p_tail - np.arange(0.0, 10.1, 2.5))))
    gated = {
        "wall_ref": (wall / ref, "ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ref": (p50 / ref, "ref"),
        "op_tail_ref": (tail / ref, "ref"),
        "peak_rss_mb": (runner.peak_rss_mb, "MiB"),
    }
    raw = {
        "wall_s": (wall, "s"),
        "op_ms_p50": (p50 * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "ref_ms": (ref * 1e3, "ms"),
    }
    return gated, raw


def side_figures(runner):
    """Figures that can be 0 or undefined, with their counts; not in the JSON."""
    smp = runner.sampling
    misses = runner.cover_misses()
    notes = runner.notes
    cover, rev_end = notes.cover, notes.rev_end
    return {
        "samples_per_s": (smp.draws / smp.seconds if smp.seconds else None, "draws/s",
                          f"{smp.draws} draws in {smp.seconds:.4f} s"),
        "failed_frac": (runner.failed / max(runner.attempted, 1), "ratio",
                        f"{runner.failed} of {runner.attempted} ops"),
        "cover_miss_frac": (misses / len(cover) if cover else None, "ratio",
                            f"{misses} of {len(cover)} estimates"),
        "rev_end_below_zero_frac": (sum(rev_end) / len(rev_end) if rev_end else None, "ratio",
                                    f"{sum(rev_end)} of {len(rev_end)} curves"),
        "myerson_ref_floor_frac": (
            notes.ref_floor / notes.path_draws if notes.path_draws else None, "ratio",
            f"{notes.ref_floor} of {notes.path_draws} pathwise-checked draws"),
        "value_above_sup_frac": (
            notes.above_sup / notes.queries if notes.queries else None, "ratio",
            f"{notes.above_sup} of {notes.queries} value/quantile_of_value queries"),
    }


def layer_metrics(tracer, round0, untraced_wall, traced_wall, smp, stage, ref_s):
    """Per-layer figures from traced spans, plus the stage table."""
    from spans import EVALS, Stat
    from stages import MECHANISMS

    out = {}
    stats = tracer.stats
    round0, nested0 = round0

    def st(name, source=stats):
        return source.get(name) or Stat()

    def rate(num, den, factor=1.0):
        return num * factor / den if den else 0.0

    def put(name, value, unit):
        out[name] = (float(value), unit)

    u = st("simulate.uniforms")
    put("simulate.uniforms.calls", st("simulate.uniforms", round0).calls, "count")
    put("simulate.uniforms.ns_per_draw", rate(u.total_ns, u.work), "ns/draw")
    for m in MECHANISMS:
        s = st(f"simulate.sample_revenues.{m}")
        put(f"simulate.sample_revenues.{m}.self_ns_per_draw", rate(s.self_ns, s.work), "ns/draw")
    put("simulate.sample_revenues.draws", st("simulate.sample_revenues", round0).work, "count")
    put("simulate.sample_revenues.calls", st("simulate.sample_revenues", round0).calls, "count")
    for est in ("plain", "median_of_means"):
        s = st(f"simulate.estimate_revenue.{est}")
        put(f"simulate.estimate_revenue.{est}.self_ns_per_draw", rate(s.self_ns, s.work), "ns/draw")
    put("simulate.samples_per_s", rate(smp.draws, smp.seconds), "draws/s")

    s = st("duplication.best_single_duplicate")
    put("duplication.best_single_duplicate.self_ms_per_call", rate(s.self_ns, s.calls, 1e-6), "ms")
    for name, unit, factor in (
        ("duplication.extend_profile", "us", 1e-3),
        ("exante.solve_exante", "us", 1e-3),
        ("analysis.poisson_binomial", "us", 1e-3),
        ("simulate.expected_order_stat", "ms", 1e-6),
    ):
        s = st(name)
        put(f"{name}.calls", st(name, round0).calls, "count")
        put(f"{name}.{unit}_per_call", rate(s.total_ns, s.calls, factor), unit)
    eos = st("simulate.expected_order_stat")
    evals = tracer.nested[EVALS]
    put("simulate.expected_order_stat.evals_per_call", rate(evals, eos.calls), "count")
    put("simulate.expected_order_stat.evals", nested0.get(EVALS, 0), "count")
    for q in CURVE_QUERIES:
        s = st(f"curves.{q}")
        put(f"curves.{q}.calls", st(f"curves.{q}", round0).calls, "count")
        put(f"curves.{q}.ns_per_call", rate(s.total_ns, s.calls), "ns")
    for name in ("analysis.classify_single", "analysis.classify_k"):
        s = st(name)
        put(f"{name}.us_per_call", rate(s.total_ns, s.calls, 1e-3), "us")
    s = st("config.parse_config")
    put("config.parse_config.ms", rate(s.total_ns, s.calls, 1e-6), "ms")
    for name in ("config.run_experiment", "cli.main"):
        s = st(name)
        put(f"{name}.self_ms", rate(s.self_ns, s.calls, 1e-6), "ms")

    put("trace.wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    ops_ns = sum(v.total_ns for k, v in stats.items() if k.startswith("op."))
    sampling = sum(st(f"simulate.{f}").self_ns for f in
                   ("sample_revenues", "uniforms", "estimate_revenue", "paired_compare"))
    glue = sum(v.self_ns for k, v in stats.items()
               if k.split(".")[0] in ("duplication", "exante") and k.count(".") == 1)
    glue += st("simulate.sample_revenues").calls * stage["stage.call_overhead_us"][0] * 1e3
    put("trace.share.sampling", rate(sampling, ops_ns), "ratio")
    put("trace.share.glue", rate(glue, ops_ns), "ratio")
    put("trace.span_cost_ns", tracer_span_cost(), "ns")
    put("env.nproc", len(os.sched_getaffinity(0)), "count")
    put("env.ref_ms", ref_s * 1e3, "ms")
    out.update({k: (float(v), unit) for k, (v, unit) in stage.items()})
    return out


def tracer_span_cost(calls: int = 20_000) -> float:
    """Median cost in ns that one traced call adds to an empty function."""
    from spans import Tracer

    tracer = Tracer(span_cap=0)
    tracer.enabled = True

    def empty():
        return None

    traced = tracer.wrap("calibrate.empty", empty)
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        t1 = perf_counter()
        for _ in range(calls):
            empty()
        samples.append(((t1 - t0) - (perf_counter() - t1)) / calls * 1e9)
    return statistics.median(samples)


def report_line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<58} {shown:>14} {unit}{'   (' + note + ')' if note else ''}")


def write_trace_file(args, env, metrics, tracer, runner):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    from stages import WORKERS_PREDICTION

    doc = {
        "env": env,
        "workers_prediction": WORKERS_PREDICTION,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": runner.problems[:50],
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "op"],
        "spans": tracer.spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    dupkit = import_dupkit()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; use one of {sorted(wl.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = str(OUT / f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            setup(wl, args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, dupkit, wl, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


def run(args, dupkit, wl, workdir) -> int:
    env = env_block(args, dupkit)
    setup_times = measure_setup(args) if args.trace == 0 else []
    runner, first_ops = setup(wl, args.workload, args.seed, workdir)
    print(f"dupkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace == 0:
        rounds = run_rounds(runner, first_ops, args.seconds)
        p_tail = wl.TAIL_PERCENTILE[args.workload]
        metrics, raw = end_to_end(runner, setup_times, p_tail)
        n_ops = len(runner.latencies)
        print(f"  rounds={rounds} ops={n_ops} "
              f"round walls (s)={[round(t, 4) for t in runner.round_walls]} "
              f"setup samples (s)={[round(t, 4) for t in setup_times]}")
        tail_note = (f"mean of p{p_tail - 10:g}..p{p_tail:g} of {n_ops} ops, "
                     f"{n_ops * (100 - p_tail) / 100:.1f} beyond p{p_tail:g}")
        for name, (value, unit) in {**metrics, **raw}.items():
            report_line(name, value, unit, tail_note if "tail" in name else "")
        for name, (value, unit, note) in side_figures(runner).items():
            report_line(name, value, unit, note)
    else:
        from spans import Tracer
        from stages import WORKERS_PREDICTION, stage_table

        half = args.seconds / 2.0
        rounds = run_rounds(runner, first_ops, half)
        untraced_ops = len(runner.latencies)
        untraced_sampling = runner.sampling
        tracer = Tracer()
        wrapped = tracer.install(dupkit)
        runner.sampling = wl.Sampling()
        deadline = perf_counter() + half
        try:
            for traced_rounds in range(1, rounds + 1):
                runner.run_round(runner.ops(traced_rounds - 1), tracer)
                if traced_rounds == 1:
                    round0 = tracer.snapshot()
                if perf_counter() >= deadline:
                    break
        finally:
            tracer.uninstall()
        untraced_wall = op_list_wall(runner.latencies[:untraced_ops])
        traced_wall = op_list_wall(runner.latencies[untraced_ops:])
        stage = stage_table()
        metrics = layer_metrics(tracer, round0, untraced_wall, traced_wall,
                                untraced_sampling, stage, interquartile_mean(runner.kernel_times))
        path = write_trace_file(args, env, metrics, tracer, runner)
        print(f"  wrapped {wrapped} public functions; "
              f"untraced rounds={rounds} traced rounds={traced_rounds} "
              f"spans kept={len(tracer.spans)} dropped={tracer.spans_dropped} -> {path}")
        print(f"  stage.workers prediction: {WORKERS_PREDICTION}")
        for name, (value, unit) in metrics.items():
            report_line(name, value, unit)

    for kind, problems in runner.problems[:20]:
        print(f"  FAILED {kind}: {'; '.join(problems[:3])}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
