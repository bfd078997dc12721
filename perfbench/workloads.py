"""The benchmark's three workloads and the measurements they share.

Every load is a closed loop in one process: the benchmark calls into the
library or ``cli.main`` and waits for the call to return before making
the next one.  Only ``core.run`` with ``n_workers > 1``, the CLI's
default ``--workers`` and the pooled reference kernel start threads, at
most ``os.cpu_count()`` at a time.

* ``svm-loop``: planted separable SVM in memory (1000 x 20, 4 blocks,
  lambda 1e-2, B = 1, schedule (0.51, 0.75, 5.0), rho_avg 0.8, evaluated
  only at the end of a run).  Per-iteration Python overhead and the
  per-block SVM gradient dominate; I/O and evaluation are near zero.
* ``svm-cov-cli``: ``blockstoch compare`` on a COV1-shaped LIBSVM train
  file with a held-out test file, an explicit lambda, full-data evaluation
  every 20 iterations and the shipped ``--workers`` default.  Parsing, the
  CSR build, evaluation, trace and manifest writes and the pool dominate.
* ``quad-wide``: constrained quadratic with d = 2e5 in two blocks (Box,
  L2Ball), B = 1, target linspace(-2, 2) and an analytic optimum.  Each
  iteration is numpy array work with little Python overhead; this is the
  one shape where the thread pool can pay.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import covgen
import harness
from blockstoch import baselines, cli, core
from blockstoch import io as dataio
from blockstoch.core import Box, L2Ball, RunConfig
from blockstoch.problems import SvmProblem, make_quadratic, make_separable_dataset
from blockstoch.schedules import Schedule

NPROC = os.cpu_count() or 1
POOLED = "proposed.pooled"  # the proposed method at n_workers = NPROC


class Ops:
    """Operations attempted and failed.  An operation is one timed run,
    one CLI invocation or one output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def attempt(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            self.failures.append(what)
            raise


@dataclass
class State:
    """Inputs of one workload, built by its set-up."""

    problem: object                 # SvmProblem or QuadraticProblem
    schedule: Schedule
    chunk: int                      # iterations per timed library run
    rho_avg: float
    cli_argvs: list[list[str]]      # one compare; "{out}" is the output dir
    load_path: Optional[Path] = None
    accuracy_floor: Optional[float] = None
    target_gap: Optional[float] = None
    reference: Optional[harness.Reference] = None  # set by the benchmark after set-up
    inst: object = field(init=False)

    def __post_init__(self):
        self.inst = self.problem.instance()

    @property
    def is_svm(self) -> bool:
        return isinstance(self.problem, SvmProblem)


@dataclass(frozen=True)
class Plan:
    """One segment of a run: this many rounds of timed library runs (one
    per method), then one CLI compare and, if set, one LIBSVM load.  A run
    repeats segments until its seconds are up."""

    rounds: int
    load: bool = False


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

SVM_LOOP_SCHEDULE = (0.51, 0.75, 5.0)
SVM_LOOP_ITERS = 1000
COV_LAMBDA = 1e-4
COV_TRAIN_ROWS, COV_TEST_ROWS = 10_000, 2_500
COV_ITERS, COV_EVAL_EVERY = 1000, 20
# Over workload seeds 1-12, 41-42, 101-103, 201, 301-302 and 500-511 the
# proposed method's test accuracy after COV_ITERS iterations ranged from
# 0.59 to 0.87 (median 0.72), while its all-ones start scored 0.47-0.56 on
# these balanced labels.  0.55 flags a run that learned nothing.
COV_ACCURACY_FLOOR = 0.55
QUAD_DIM = 200_000
QUAD_RADIUS = 100.0
QUAD_CLI_ITERS = 50
# Objective gap to the analytic optimum that counts as reached, checked
# every TARGET_EVAL_EVERY iterations and given up after TARGET_CAP.
TARGET_GAP = 500.0
TARGET_EVAL_EVERY = 10
TARGET_CAP = 200


def setup_svm_loop(seed: int, work: Path) -> State:
    ds, _ = make_separable_dataset(1000, 20, seed=seed, name="svm-loop")
    data = work / "svm-loop.libsvm"
    dataio.write_libsvm(ds, data)
    rho_omega, rho_alpha, scale = SVM_LOOP_SCHEDULE
    argv = ["compare", "--data", str(data), "--lambda", "1e-2", "--blocks", "4",
            "--iters", str(SVM_LOOP_ITERS), "--eval-every", str(SVM_LOOP_ITERS),
            "--seed", str(seed), "--rho-omega", str(rho_omega),
            "--rho-alpha", str(rho_alpha), "--alpha-scale", str(scale),
            "--rho-avg", "0.8", "--outdir", "{out}"]
    return State(SvmProblem.with_blocks(ds, 1e-2, 4), Schedule(*SVM_LOOP_SCHEDULE),
                 chunk=100, rho_avg=0.8, cli_argvs=[argv])


def setup_svm_cov_cli(seed: int, work: Path) -> State:
    train_text, test_text, _ = covgen.make_split(seed, COV_TRAIN_ROWS, COV_TEST_ROWS)
    train, test = work / "cov-train.libsvm", work / "cov-test.libsvm"
    train.write_text(train_text, encoding="utf-8")
    test.write_text(test_text, encoding="utf-8")
    ds = dataio.load_libsvm(train)
    ds.matrix
    argv = ["compare", "--data", str(train), "--test-data", str(test),
            "--lambda", repr(COV_LAMBDA), "--iters", str(COV_ITERS),
            "--eval-every", str(COV_EVAL_EVERY), "--seed", str(seed), "--outdir", "{out}"]
    return State(SvmProblem.with_blocks(ds, COV_LAMBDA, 4), Schedule(), chunk=100,
                 rho_avg=1.0, cli_argvs=[argv], load_path=train,
                 accuracy_floor=COV_ACCURACY_FLOOR)


def quad_wide_problem(seed: int):
    """The quad-wide quadratic.  Its draws come from the run seed, so the
    workload seed only moves the ball's centre."""
    half = QUAD_DIM // 2
    center = np.random.default_rng(seed).uniform(-0.1, 0.1, half)
    return make_quadratic(
        QUAD_DIM, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, QUAD_DIM), n_blocks=2,
        feasible_sets=[Box(-np.ones(half), np.ones(half)), L2Ball(center, QUAD_RADIUS)])


def setup_quad_wide(seed: int, work: Path) -> State:
    # `compare` takes SVM data only, so the CLI's comparison of a wide
    # quadratic is one `run` per method it supports.
    argvs = [["run", "--method", method, "--synthetic", f"quad-d{QUAD_DIM}",
              "--blocks", "2", "--iters", str(QUAD_CLI_ITERS), "--eval-every", "10",
              "--seed", str(seed), "--outdir", "{out}"]
             for method in ("proposed", "adam", "avg-sca")]
    return State(quad_wide_problem(seed), Schedule(), chunk=5, rho_avg=1.0,
                 cli_argvs=argvs, target_gap=TARGET_GAP)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], State]
    plan: Plan
    reference: str  # kind of harness.Reference its timings are scaled with


WORKLOADS = {
    w.name: w for w in (
        Workload("svm-loop", setup_svm_loop, Plan(rounds=20), "small-array"),
        Workload("svm-cov-cli", setup_svm_cov_cli, Plan(rounds=15, load=True), "small-array"),
        Workload("quad-wide", setup_quad_wide, Plan(rounds=12), "wide-array"),
    )
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def variants(state: State, inst=None, problem=None, schedule=None) -> dict[str, Callable]:
    """Method name -> callable(seed) returning the final point of one
    library run of ``state.chunk`` iterations, evaluated at its end.

    Module attributes are looked up at call time, so ``harness.traced``
    sees these calls.  Runs with the same seed draw the same samples.
    """
    inst = state.inst if inst is None else inst
    problem = state.problem if problem is None else problem
    schedule = state.schedule if schedule is None else schedule

    def config(seed, workers=1):
        return RunConfig(schedule=schedule, batch_size=1, max_iters=state.chunk, seed=seed,
                         eval_every=state.chunk, n_workers=workers)

    out = {
        "proposed": lambda s: core.run(inst, config(s))[0],
        POOLED: lambda s: core.run(inst, config(s, NPROC))[0],
        "pegasos": lambda s: baselines.run_pegasos(problem, config(s))[0],
        "adam": lambda s: baselines.run_adam(inst, config(s))[0],
        "avg-sca": lambda s: baselines.run_averaged_sca(inst, config(s), state.rho_avg)[0],
    }
    if not state.is_svm:
        del out["pegasos"]  # Pegasos is defined for the SVM only.
    return out


@dataclass
class LoopSamples:
    """Per method: us/iter samples at reference speed and as measured,
    and total wall and CPU seconds as measured."""

    us_per_iter: dict[str, list[float]] = field(default_factory=dict)
    raw_us_per_iter: dict[str, list[float]] = field(default_factory=dict)
    wall_s: dict[str, float] = field(default_factory=dict)
    cpu_s: dict[str, float] = field(default_factory=dict)


def run_rounds(ops: Ops, state: State, methods: dict[str, Callable], n_rounds: int,
               seed_base: int, into: Optional[LoopSamples] = None) -> LoopSamples:
    """Round-robin timed runs; round i runs every method on seed
    seed_base + i, starting at a rotating method.  The reference kernel,
    on as many threads as the run uses, runs before and after each timed
    run; their mean gives the host's speed."""
    out = LoopSamples() if into is None else into
    names = list(methods)
    for i in range(n_rounds):
        finals = {}
        for j in range(len(names)):
            name = names[(i + j) % len(names)]
            workers = NPROC if name == POOLED else 1
            before = state.reference.time_us(workers)
            with ops.attempt(f"timed run {name}"):
                c0, t0 = time.process_time(), time.perf_counter_ns()
                finals[name] = methods[name](seed_base + i)
                wall = (time.perf_counter_ns() - t0) / 1e9
                cpu = time.process_time() - c0
            reference = (before + state.reference.time_us(workers)) / 2
            us = wall * 1e6 / state.chunk
            out.raw_us_per_iter.setdefault(name, []).append(us)
            out.us_per_iter.setdefault(name, []).append(
                state.reference.scale(us, reference, workers))
            out.wall_s[name] = out.wall_s.get(name, 0.0) + wall
            out.cpu_s[name] = out.cpu_s.get(name, 0.0) + cpu
        ops.check("pooled and single-worker iterates bitwise equal",
                  finals["proposed"].tobytes() == finals[POOLED].tobytes())
        ops.check("final iterates finite", all(np.all(np.isfinite(x)) for x in finals.values()))
    return out


def check_sample_streams(ops: Ops, state: State) -> None:
    """All methods consume the same batches for the same seed."""
    iters = 50 if state.is_svm else 3  # quad-wide logs 1.6 MB per batch
    config = RunConfig(schedule=state.schedule, max_iters=iters, eval_every=iters, seed=7)
    logs = {"proposed": [], "adam": [], "avg-sca": []}
    core.run(state.inst, config, sample_log=logs["proposed"])
    baselines.run_adam(state.inst, config, sample_log=logs["adam"])
    baselines.run_averaged_sca(state.inst, config, state.rho_avg, sample_log=logs["avg-sca"])
    if state.is_svm:
        logs["pegasos"] = []
        baselines.run_pegasos(state.problem, config, sample_log=logs["pegasos"])
    reference = logs["proposed"]
    ops.check("sample streams match across methods",
              len(reference) == iters and all(
                  len(log) == iters and all(np.array_equal(a, b) for a, b in zip(log, reference))
                  for log in logs.values()))


def cli_compare(ops: Ops, state: State, outdir: Path) -> tuple[float, float, float]:
    """One CLI comparison; returns its wall and CPU seconds at reference
    speed, and its wall seconds as measured.  The CLI's own printout is
    captured so the benchmark's last line stays its own.

    The reference kernel runs before and after, on one thread and on the
    pool.  CPU seconds are scaled by the one-thread kernel; wall seconds,
    which also wait on the default pool, by the mean of both.
    """
    def references():
        return state.reference.time_us(), state.reference.time_us(NPROC)

    argvs = [[str(outdir) if a == "{out}" else a for a in argv] for argv in state.cli_argvs]
    single, pooled = references()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = []
        for argv in argvs:
            with ops.attempt("CLI invocation"):
                codes.append(cli.main(argv))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    single_after, pooled_after = references()
    for code in codes:
        ops.check("CLI exits 0", code == 0)
    ref = state.reference
    scaled_cpu = ref.scale(cpu, (single + single_after) / 2)
    scaled_wall = (ref.scale(wall, (single + single_after) / 2)
                   + ref.scale(wall, (pooled + pooled_after) / 2, NPROC)) / 2
    return scaled_wall, scaled_cpu, wall


def check_cli_outputs(ops: Ops, state: State, outdirs: list[Path]) -> None:
    """Repeats of one compare write byte-identical traces.  On the SVM the
    proposed method ends below its start's objective and clears the
    test-accuracy floor where one is set."""
    first = sorted(p.name for p in outdirs[0].glob("*.trace.csv"))
    expected = sum(len(cli.METHODS) if argv[0] == "compare" else 1 for argv in state.cli_argvs)
    ops.check("CLI wrote one trace per method", len(first) == expected)
    for other in outdirs[1:]:
        ops.check("CLI traces byte-identical across repeats", all(
            (outdirs[0] / name).read_bytes() == (other / name).read_bytes() for name in first))
    if state.is_svm:
        start = state.inst.true_objective(state.inst.default_start())
        for outdir in outdirs:
            manifest = dataio.read_manifest(outdir / "proposed.manifest.txt")
            ops.check("proposed final objective below its start's",
                      float(manifest["final_objective"]) < start)
            if state.accuracy_floor is not None:
                ops.check(f"proposed test accuracy >= {state.accuracy_floor}",
                          float(manifest["test_accuracy"]) >= state.accuracy_floor)


def timed_load(ops: Ops, state: State) -> float:
    """Seconds for ``load_libsvm`` plus the first ``SvmDataset.matrix``."""
    with ops.attempt("LIBSVM load"):
        t0 = time.perf_counter()
        ds = dataio.load_libsvm(state.load_path)
        matrix = ds.matrix
        seconds = time.perf_counter() - t0
    ops.check("loaded rows and non-zeros", ds.m == COV_TRAIN_ROWS
              and matrix.nnz == COV_TRAIN_ROWS * 12 and ds.num_features == covgen.NUM_FEATURES)
    return seconds


def time_to_target(ops: Ops, state: State, inst=None, schedule=None) -> tuple[float, int]:
    """(seconds, iterations) for proposed to reach the target gap.

    A first run finds the first evaluation at or below the gap; a second
    run of exactly that many iterations, with the same evaluations, is
    timed from outside.
    """
    inst = state.inst if inst is None else inst
    schedule = state.schedule if schedule is None else schedule
    optimum = state.problem.optimal_value()

    def config(iters):
        return RunConfig(schedule=schedule, max_iters=iters, eval_every=TARGET_EVAL_EVERY,
                         seed=11)

    with ops.attempt("target search run"):
        _, trace = core.run(inst, config(TARGET_CAP))
    hits = [r.k for r in trace if r.objective - optimum <= state.target_gap]
    if not ops.check(f"gap {state.target_gap} reached within {TARGET_CAP} iterations", bool(hits)):
        raise RuntimeError("quad-wide target not reached")
    with ops.attempt("timed target run"):
        t0 = time.perf_counter()
        x, _ = core.run(inst, config(hits[0]))
        seconds = time.perf_counter() - t0
    ops.check("final gap within target", state.problem.objective(x) - optimum <= state.target_gap)
    return seconds, hits[0]
