"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks, for every workload, that every metric named in BENCHMARK.json is
printed, finite and has a unit; that spans nest and their self times sum to
the traced wall; and that a deliberately corrupted answer of every op, an
op whose revenue array is off on its last draw only, and an op that raises
are each counted as a failed op.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile

import run

dupkit = run.import_dupkit()

import spans  # noqa: E402  (needs dupkit on the path)
import stages  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def metric_problems(metrics, names, where) -> list:
    problems = []
    for name in names:
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
            continue
        value, unit = metrics[name]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {name} = {value!r} is not finite")
        if not (isinstance(unit, str) and unit):
            problems.append(f"{where}: {name} has no unit")
    return problems


def corrupt(kind, result):
    """A wrong answer of the same shape as a correct one."""
    if kind.startswith("n4.") and hasattr(result, "shape"):
        bad = result.copy()
        for lo, _ in wl.slices_for(bad.shape[0]):
            bad[lo] += 1.0
        return bad
    if kind.startswith(("lbhr.", "n3.", "n4.", "n8.")):  # an Estimate
        return dataclasses.replace(result, mean=result.mean * 1.01)
    if kind.startswith("cli."):
        code, report = result
        return code, {**report, "estimate": {**report["estimate"],
                                             "mean": report["estimate"]["mean"] * 1.01}}
    if kind.startswith("sweep."):
        sol1, *rest = result
        return (dataclasses.replace(sol1, opt=sol1.opt * 1.01), *rest)
    if kind == "exact.closed_forms":
        opt, quads, n3 = result
        return opt, [quads[0] + 1e-3, *quads[1:]], n3
    if kind.startswith("exact."):
        *head, answers = result
        q, r, v, qv, s = answers[0][3]
        return (*head, [[*answers[0][:3], (q, r, v, 0.5 * q, s), *answers[0][4:]],
                        *answers[1:]])
    return None


def corrupt_path(op) -> list:
    """Problems found in an op run with sample_revenues off on its very last draw.

    The op's own answer and the oracle's recomputation share the defect, so
    only the pathwise slice in the final, partial chunk can catch it.
    """
    real = wl.sim.sample_revenues

    def off_at_end(*args, **kwargs):
        rev = real(*args, **kwargs)
        rev[-1] += 1.0
        return rev

    wl.sim.sample_revenues = off_at_end
    try:
        smp = wl.Sampling()
        result = op.run(smp)
        return op.check(result, smp.calls, wl.Notes())
    finally:
        wl.sim.sample_revenues = real


def check_workload(name, workdir) -> list:
    problems = []
    runner = run.Runner(wl, name, SEED, wl.SMALL, workdir)
    for rnd in range(2):
        runner.run_round(runner.ops(rnd))
    if runner.failed:
        problems.append(f"{name}: {runner.failed} ops failed: {runner.problems[:2]}")
    metrics, _ = run.end_to_end(runner, [0.25], wl.TAIL_PERCENTILE[name])
    problems += metric_problems(metrics, [m["name"] for m in SPEC["end_to_end"]], name)

    tracer = spans.Tracer(span_cap=10**7)
    tracer.install(dupkit)
    try:
        runner.sampling = wl.Sampling()
        runner.run_round(runner.ops(0), tracer)
        round0 = tracer.snapshot()
    finally:
        tracer.uninstall()
    stage = stages.stage_table(n_draws=4096, reps=1, quick_reps=2, pool_reps=1,
                               pool_draws=8192, pool_bsd_draws=500)
    untraced = run.op_list_wall(runner.latencies[:-len(runner.ops(0))])
    traced = run.op_list_wall(runner.latencies[-len(runner.ops(0)):])
    layers = run.layer_metrics(tracer, round0, untraced, traced, runner.sampling, stage, 0.01)
    problems += metric_problems(layers, [m["name"] for m in SPEC["per_layer"]], f"{name} traced")

    problems += [f"{name}: {p}" for p in spans.span_tree_problems(tracer.spans)[:3]]
    if tracer.spans_dropped:
        problems.append(f"{name}: {tracer.spans_dropped} spans dropped at tiny scale")
    self_sum = sum(spans.self_times(tracer.spans).values()) * 1e-9
    wall = runner.round_walls[-1]
    if not abs(self_sum - wall) <= 0.05 * wall + 1e-3:
        problems.append(f"{name}: self times sum to {self_sum:.6f} s, traced wall {wall:.6f} s")

    # a corrupted answer fed to the oracle is a failed op
    tried = 0
    for op in runner.ops(5):
        smp = wl.Sampling()
        result = op.run(smp)
        bad = corrupt(op.kind, result)
        if bad is None:
            continue
        tried += 1
        if runner.account(op, result, None, smp.calls):
            problems.append(f"{name}: correct answer of {op.kind} counted as failed")
        if not runner.account(op, bad, None, smp.calls):
            problems.append(f"{name}: corrupted answer of {op.kind} not counted as failed")
    if tried < len(runner.ops(5)):
        problems.append(f"{name}: only {tried} of {len(runner.ops(5))} ops corrupted")

    # an Estimate whose revenue array is wrong in the last, partial chunk
    if name != "exact":
        found = corrupt_path(runner.ops(5)[0])
        if not any("kernel" in p and "!= scalar" in p for p in found):
            problems.append(f"{name}: a wrong draw in the last chunk was not caught")

    def boom(smp):
        raise ValueError("deliberate")

    before = runner.failed
    runner.run_round([wl.Op("raises", boom, lambda *a: [])])
    if runner.failed != before + 1:
        problems.append(f"{name}: an op that raised was not counted as failed")
    return problems


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=str(run.OUT))
    try:
        problems = []
        for name in wl.WORKLOADS:
            found = check_workload(name, workdir)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems += found
    finally:
        shutil.rmtree(workdir)
    for p in problems:
        print("  " + p, file=sys.stderr)
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
