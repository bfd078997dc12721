"""One benchmark run: set-up, then the untraced or the traced measurement."""

from __future__ import annotations

import resource
import time
from pathlib import Path
from statistics import median

import harness
from harness import tail
from workloads import (
    NPROC,
    POOLED,
    WORKLOADS,
    LoopSamples,
    Ops,
    State,
    check_cli_outputs,
    check_sample_streams,
    cli_compare,
    run_rounds,
    time_to_target,
    timed_load,
    variants,
)

SETUP_REPEATS = 3
MIN_SEGMENTS = 2  # two compares at least, to check their traces match

# End-to-end metrics and their units.  Times are at reference speed (see
# harness.Reference).
E2E_UNITS = {
    "setup_s": "s",
    "iter_us.proposed": "us/iter",
    "iter_us.proposed.tail": "us/iter",
    "iter_us.proposed.pooled": "us/iter",
    "iter_us.adam": "us/iter",
    "iter_us.avg-sca": "us/iter",
    "compare_wall_s": "s",
    "compare_cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric it should move, where).
LAYER_MAP = {
    "schedules.calls": ("count", "iter_us.* on svm-loop"),
    "schedules.s": ("s", "iter_us.* on svm-loop"),
    "problems.draw.calls": ("count", "iter_us.proposed on quad-wide"),
    "problems.draw.s": ("s", "iter_us.proposed on quad-wide"),
    "problems.grad.calls": ("count", "iter_us.proposed/adam/avg-sca on svm-loop"),
    "problems.grad.s": ("s", "iter_us.proposed/adam/avg-sca on svm-loop"),
    "problems.grad.calls_per_iter": ("count/iter", "iter_us.proposed/adam/avg-sca on svm-loop"),
    "problems.grad.bytes_computed": ("B/iter", "iter_us.* on quad-wide"),
    "problems.eval.calls": ("count", "compare_wall_s on svm-cov-cli"),
    "problems.eval.s": ("s", "compare_wall_s on svm-cov-cli; time_to_target_s on quad-wide"),
    "problems.csr_build.s": ("s", "load_rows_per_s on svm-cov-cli"),
    "core.project.calls": ("count", "iter_us.proposed on quad-wide"),
    "core.project.s": ("s", "iter_us.proposed on quad-wide (a pure copy on svm-loop)"),
    "core.run.self_s": ("s", "iter_us.proposed on svm-loop"),
    "core.run.cpu_over_wall": ("ratio", "iter_us.proposed.pooled on quad-wide"),
    "core.pool.speedup": ("ratio", "iter_us.proposed.pooled on quad-wide; "
                                   "compare_cpu_s on svm-cov-cli"),
    "core.iters_to_target": ("count", "time_to_target_s on quad-wide"),
    "baselines.step.calls": ("count", "iter_us.pegasos/adam on svm-loop"),
    "baselines.step.s": ("s", "iter_us.pegasos/adam on svm-loop"),
    "baselines.run.self_s": ("s", "iter_us.<method> on svm-loop"),
    "io.parse.calls": ("count/compare", "load_rows_per_s, compare_wall_s on svm-cov-cli"),
    "io.parse.s": ("s", "load_rows_per_s, compare_wall_s on svm-cov-cli"),
    "io.parse.rows": ("count", "load_rows_per_s on svm-cov-cli"),
    "io.parse.bytes": ("B", "load_rows_per_s on svm-cov-cli"),
    "io.checksum.s": ("s", "compare_wall_s on svm-cov-cli"),
    "io.write_trace.s": ("s", "compare_wall_s on svm-cov-cli"),
    "io.write_manifest.s": ("s", "compare_wall_s on svm-cov-cli"),
    "io.write.bytes": ("B", "compare_wall_s on svm-cov-cli"),
    "cli.self_s": ("s", "compare_wall_s on svm-cov-cli"),
}
TRACED_METHODS = ("proposed", "proposed.pooled", "pegasos", "adam", "avg-sca")
for _m in TRACED_METHODS:
    LAYER_MAP[f"trace.overhead_us.{_m}"] = ("us/iter", f"none: traced minus untraced iter_us.{_m}")


def setup(name: str, seed: int, work: Path, import_s: float) -> tuple[State, float]:
    """Build the workload SETUP_REPEATS times, warm-up included.  Returns
    the last state and setup_s: import time plus the median build time,
    both at reference speed."""
    reference = harness.Reference(WORKLOADS[name].reference)
    import_s = reference.scale(import_s, reference.time_us())
    seconds = []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        directory.mkdir()
        before = reference.time_us()
        t0 = time.perf_counter()
        state = WORKLOADS[name].setup(seed, directory)
        for method in variants(state).values():
            method(seed)
        elapsed = time.perf_counter() - t0
        seconds.append(reference.scale(elapsed, (before + reference.time_us()) / 2))
    state.reference = reference
    return state, import_s + median(seconds)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, import_s: float,
        spans_dir: Path):
    """Returns (ops, metrics, printable lines)."""
    state, setup_s = setup(name, seed, work, import_s)
    ops = Ops()
    check_sample_streams(ops, state)
    plan = WORKLOADS[name].plan
    seed_base = 10_000 * seed
    if trace:
        metrics, lines = traced_run(ops, state, name, seed, seconds / 3, work, spans_dir,
                                    seed_base)
        return ops, metrics, lines

    loops = LoopSamples()
    walls, cpus, raw_walls, loads, outdirs = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(outdirs) < MIN_SEGMENTS or time.perf_counter() < deadline:
        j = len(outdirs)
        run_rounds(ops, state, variants(state), plan.rounds, seed_base + j * plan.rounds,
                   into=loops)
        outdirs.append(work / f"compare{j}")
        wall, cpu, raw_wall = cli_compare(ops, state, outdirs[-1])
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw_wall)
        if plan.load:
            loads.append(timed_load(ops, state))
    check_cli_outputs(ops, state, outdirs)
    if state.target_gap is not None:
        target = time_to_target(ops, state)

    us = loops.us_per_iter
    tail_value, tail_pct = tail(us["proposed"])
    reported = {
        "setup_s": (setup_s, f"imports + median of {SETUP_REPEATS} set-ups"),
        "iter_us.proposed": (median(us["proposed"]), f"n={len(us['proposed'])}"),
        "iter_us.proposed.tail": (tail_value, f"p{tail_pct:.1f}, n={len(us['proposed'])}"),
        "iter_us.proposed.pooled": (median(us[POOLED]),
                                    f"n_workers={NPROC}, n={len(us[POOLED])}"),
        "iter_us.adam": (median(us["adam"]), f"n={len(us['adam'])}"),
        "iter_us.avg-sca": (median(us["avg-sca"]), f"n={len(us['avg-sca'])}"),
        "compare_wall_s": (median(walls), f"n={len(walls)}"),
        "compare_cpu_s": (median(cpus), f"n={len(cpus)}"),
        "peak_rss_mb": (peak_rss_mb(), "whole process"),
    }
    metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, (v, _) in reported.items()}
    lines = [f"{name} {n} = {v:.6g} {E2E_UNITS[n]} ({note})" for n, (v, note) in reported.items()]
    raw = loops.raw_us_per_iter
    lines.append(f"{name} as measured, before scaling to reference speed: " + ", ".join(
        f"iter_us.{m}={median(raw[m]):.6g}" for m in raw) + f", compare_wall_s={median(raw_walls):.6g}")
    # Defined on some workloads only, so printed but not gated.
    if "pegasos" in us:
        lines.append(f"{name} iter_us.pegasos = {median(us['pegasos']):.6g} us/iter "
                     f"(n={len(us['pegasos'])}; not gated)")
    if loads:
        rows = state.problem.dataset.m
        lines.append(f"{name} load_rows_per_s = {rows / median(loads):.6g} rows/s "
                     f"(n={len(loads)}, {rows} rows, as measured; not gated)")
    if state.target_gap is not None:
        lines.append(f"{name} time_to_target_s = {target[0]:.6g} s (gap <= {state.target_gap}; "
                     "n=1, as measured; not gated)")
        lines.append(f"{name} iters_to_target = {target[1]} count (not gated)")
    return ops, metrics, lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(ops: Ops, state: State, name: str, seed: int, seconds: float, work: Path,
               spans_dir: Path, seed_base: int):
    """Per-layer metrics from a traced run, plus the tracing overhead.

    Untraced rounds run for ``seconds``, then as many traced ones, then one
    traced CLI compare (and load and target search where the workload has
    them).
    """
    rounds_per_call = WORKLOADS[name].plan.rounds
    untraced = LoopSamples()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        run_rounds(ops, state, variants(state), rounds_per_call, seed_base + rounds,
                   into=untraced)
        rounds += rounds_per_call
    rec = harness.Recorder()
    iters_to_target = 0
    with harness.traced(rec) as svm_class:
        if state.is_svm:
            problem = svm_class(state.problem.dataset, state.problem.lam,
                                state.problem.block_ranges)
            grad_bytes = harness.svm_grad_bytes(problem)
        else:
            problem = harness.traced_quadratic(state.problem, rec)
            grad_bytes = harness.quad_grad_bytes(problem)
        inst = harness.traced_instance(state.inst, rec, grad_bytes)
        schedule = harness.TracedSchedule(state.schedule, rec)

        def as_run(fn):
            def call(s):
                rec.new_run()
                return fn(s)
            return call

        methods = {m: as_run(fn) for m, fn in variants(state, inst, problem, schedule).items()}
        traced = run_rounds(ops, state, methods, rounds, seed_base)
        rec.new_run()
        cli_compare(ops, state, work / "traced-compare")
        if state.load_path is not None:
            rec.new_run()
            timed_load(ops, state)
        if state.target_gap is not None:
            rec.new_run()
            _, iters_to_target = time_to_target(ops, state, inst, schedule)
    spans_dir.mkdir(exist_ok=True)
    rec.write_csv(spans_dir / f"spans-{name}-seed{seed}.csv")

    spans = rec.spans
    summary = harness.summarize(spans)

    def total(span_name: str, key: str = "s") -> float:
        return summary[span_name][key] if span_name in summary else 0

    grad_per_iter = (harness.count_under(spans, "core.run", "problems.grad")
                     / harness.count_under(spans, "core.run", "problems.draw"))
    grad_calls = total("problems.grad", "calls")
    values = {
        "schedules.calls": total("schedules", "calls"),
        "schedules.s": total("schedules"),
        "problems.draw.calls": total("problems.draw", "calls"),
        "problems.draw.s": total("problems.draw"),
        "problems.grad.calls": grad_calls,
        "problems.grad.s": total("problems.grad"),
        "problems.grad.calls_per_iter": grad_per_iter,
        "problems.grad.bytes_computed":
            rec.totals["grad.bytes"] / grad_calls * grad_per_iter if grad_calls else 0,
        "problems.eval.calls": total("problems.eval", "calls"),
        "problems.eval.s": total("problems.eval"),
        "problems.csr_build.s": total("problems.csr_build"),
        "core.project.calls": total("core.project", "calls"),
        "core.project.s": total("core.project"),
        "core.run.self_s": total("core.run", "self_s"),
        "core.run.cpu_over_wall":
            untraced.cpu_s[POOLED] / untraced.wall_s[POOLED],
        "core.pool.speedup": (median(untraced.raw_us_per_iter["proposed"])
                              / median(untraced.raw_us_per_iter[POOLED])),
        "core.iters_to_target": iters_to_target,
        "baselines.step.calls": total("baselines.step", "calls"),
        "baselines.step.s": total("baselines.step"),
        "baselines.run.self_s": total("baselines.run", "self_s"),
        "io.parse.calls": harness.count_under(spans, "cli.main", "io.parse"),
        "io.parse.s": total("io.parse"),
        "io.parse.rows": rec.totals["parse.rows"],
        "io.parse.bytes": rec.totals["parse.bytes"],
        "io.checksum.s": total("io.checksum"),
        "io.write_trace.s": total("io.write_trace"),
        "io.write_manifest.s": total("io.write_manifest"),
        "io.write.bytes": rec.totals["write.bytes"],
        "cli.self_s": total("cli.main", "self_s"),
    }
    for m in TRACED_METHODS:
        values[f"trace.overhead_us.{m}"] = (
            median(traced.us_per_iter[m]) - median(untraced.us_per_iter[m])
            if m in traced.us_per_iter else 0.0)

    metrics = {n: {"value": values[n], "unit": LAYER_MAP[n][0]} for n in LAYER_MAP}
    lines = [f"{name} {n} = {values[n]:.6g} {unit} (should move: {moves})"
             for n, (unit, moves) in LAYER_MAP.items()]
    lines.append(f"{name} traced plan: {rounds} rounds of {state.chunk}-iteration runs per "
                 f"method, untraced then traced; one CLI compare; spans: {len(spans)}")
    return metrics, lines
