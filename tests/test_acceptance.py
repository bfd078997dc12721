"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria with stated runtime budgets assert them too.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Criteria that need the reference datasets (COV1/RCV1) skip with a
notice when the files are absent.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from blockstoch import (
    AdamParams,
    Box,
    RunConfig,
    Schedule,
    SvmProblem,
    adam_step,
    explicit_weights,
    make_nonconvex_toy,
    make_quadratic,
    make_separable_dataset,
    minimize_surrogate,
    pegasos_step,
    run,
    run_averaged_sca,
    run_pegasos,
    stationarity_residual,
    svm_accuracy,
    run_adam,
)
from blockstoch.cli import main as cli_main
from blockstoch.io import load_libsvm, parse_libsvm, libsvm_lines, ParseError, subsample

import oracles
from test_io import datasets_equal, _find_reference
from test_problems import dense_example


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


def test_criterion_01_explicit_weight_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240101)
    # Recursive tracker equals the explicit weighted sum.
    for _ in range(50):
        k = int(rng.integers(2, 101))
        omegas = np.concatenate(([1.0], rng.uniform(0.05, 1.0, size=k - 1)))
        grads = rng.standard_normal((k, 4))
        recursive = oracles.tracker_by_recursion(omegas, grads)
        explicit = explicit_weights(omegas) @ grads
        scale = np.maximum(np.abs(recursive), 1e-30)
        assert np.max(np.abs(explicit - recursive) / scale) <= 1e-10
    # Weight normalization for k up to 1e4.  Dense small-k coverage plus a
    # uniform checkpoint grid; the full length is always included (roundoff
    # drift is largest there).
    checkpoints = list(range(1, 257)) + list(range(257, 10_001, 157)) + [10_000]
    for _ in range(50):
        omegas = np.concatenate(([1.0], rng.uniform(0.01, 1.0, size=10_000 - 1)))
        for k in checkpoints:
            total = explicit_weights(omegas[:k]).sum()
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-12
    assert time.perf_counter() - started < 5.0
    report(1, "recursive tracker = explicit sum (1e-10 rel, 50 streams); "
              "weights sum to 1 +/- 1e-12 up to k=1e4")


def test_criterion_02_surrogate_identity_and_grid_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240202)
    from blockstoch import Unconstrained, L2Ball
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        kind = rng.integers(0, 3)
        if kind == 0:
            fs = Unconstrained(d)
        elif kind == 1:
            lo = rng.uniform(-2, 0, d)
            fs = Box(lo, lo + rng.uniform(0.1, 2, d))
        else:
            fs = L2Ball(rng.standard_normal(d), float(rng.uniform(0.2, 2)))
        x = rng.standard_normal(d)
        h = rng.standard_normal(d)
        alpha = float(rng.uniform(0.01, 2))
        np.testing.assert_array_equal(
            minimize_surrogate(x, h, alpha, fs),
            fs.project(x - alpha * h))
    for trial in range(50):
        if trial % 2 == 0:
            lo = rng.uniform(-0.6, 0.0, 2)
            fs = Box(lo, lo + rng.uniform(0.3, 1.0, 2))
        else:
            fs = L2Ball(rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.2, 0.5)))
        x = fs.project(rng.standard_normal(2))
        h = rng.standard_normal(2)
        alpha = float(rng.uniform(0.05, 0.8))
        got = minimize_surrogate(x, h, alpha, fs)
        want = oracles.grid_surrogate_argmin(x, h, alpha, fs, resolution=1e-3)
        assert np.max(np.abs(got - want)) <= 1e-3
    assert time.perf_counter() - started < 10.0
    report(2, "closed form = projection exactly (1000 cases) and matches the "
              "1e-3 grid oracle on 50 box/ball cases")


def test_criterion_03_step_bound_never_violated():
    quad = make_quadratic(10, noise_stddev=1.0, n_blocks=2,
                          feasible_sets=[Box(-2 * np.ones(5), 2 * np.ones(5)),
                                         Box(-np.ones(5), 3 * np.ones(5))])
    inst = quad.instance()
    counters = {"iterations": 0, "violations": 0}

    def check(info):
        counters["iterations"] += 1
        for sl in inst.block_slices:
            step = np.linalg.norm(info.x[sl] - info.x_prev[sl])
            if step > 2.0 * info.alpha * np.linalg.norm(info.h[sl]) + 1e-12:
                counters["violations"] += 1

    run(inst, RunConfig(max_iters=10_000, eval_every=1000, seed=303),
        iteration_callback=check)
    assert counters["iterations"] == 10_000
    assert counters["violations"] == 0
    report(3, "per-block step bound held at all 10^4 iterations (0 violations)")


def test_criterion_04_tracker_converges_to_true_gradient():
    # Batch size is free here; B=128 puts the tracker's stochastic floor
    # (~ sqrt(d * omega_k / (2B)) at sigma=1) safely under the tolerance.
    started = time.perf_counter()
    quad = make_quadratic(10, noise_stddev=1.0)
    config = RunConfig(max_iters=100_000, eval_every=100, seed=2024, batch_size=128)
    _, trace = run(quad.instance(), config)
    tail = [r.tracker_error for r in trace if r.k > 90_000]
    assert len(tail) == 100
    median = float(np.median(tail))
    assert median <= 1e-2
    assert time.perf_counter() - started < 30.0
    report(4, f"median tracker error over final 10% of 1e5 iterations = {median:.2e} <= 1e-2")


def test_criterion_05_convex_convergence_to_clamped_optimum():
    started = time.perf_counter()
    target = np.linspace(-2.0, 2.0, 10)
    quad = make_quadratic(10, noise_stddev=1.0, target=target,
                          feasible_sets=[Box(-np.ones(10), np.ones(10))])
    np.testing.assert_array_equal(quad.optimum(), np.clip(target, -1.0, 1.0))
    config = RunConfig(max_iters=100_000, eval_every=1000, seed=11)
    _, trace = run(quad.instance(), config)
    gap = trace[-1].objective - quad.optimal_value()
    assert trace[-1].k == 100_000
    assert gap <= 1e-3
    assert time.perf_counter() - started < 30.0
    report(5, f"objective gap at k=1e5 on the box-clamped quadratic = {gap:.2e} <= 1e-3")


def test_criterion_06_nonconvex_runs_reach_stationary_points():
    started = time.perf_counter()
    inst = make_nonconvex_toy()
    start_rng = np.random.default_rng(777)
    residuals = []
    for trial in range(20):
        x0 = start_rng.uniform(-2.0, 2.0, size=2)
        config = RunConfig(max_iters=20_000, eval_every=20_000,
                           seed=1000 + trial, batch_size=64)
        x, _ = run(replace(inst, x0=x0), config)
        residuals.append(stationarity_residual(inst, x, 1e-3))
    worst = max(residuals)
    assert worst <= 1e-2
    assert time.perf_counter() - started < 60.0
    report(6, f"20 random starts all reached stationary points "
              f"(max residual {worst:.2e} <= 1e-2)")


def _svm_race_config(seed: int, iters: int) -> RunConfig:
    # Step sizes tuned for this problem family, as the benchmark protocol
    # tunes per dataset.
    return RunConfig(schedule=Schedule(0.51, 0.75, 5.0), max_iters=iters,
                     eval_every=iters, seed=seed, batch_size=1)


def test_criterion_07_svm_desk_scale_comparison():
    started = time.perf_counter()
    ds, _ = make_separable_dataset(1000, 20, margin=1.0, seed=2025)
    problem = SvmProblem.with_blocks(ds, 1e-2, 4)
    config = _svm_race_config(seed=3, iters=20_000)
    accuracies = {}
    x, _ = run(problem.instance(), config)
    accuracies["proposed"] = svm_accuracy(x, ds)
    w, _ = run_pegasos(problem, config)
    accuracies["pegasos"] = svm_accuracy(w, ds)
    w, _ = run_adam(problem.instance(), config, AdamParams())
    accuracies["adam"] = svm_accuracy(w, ds)
    w, _ = run_averaged_sca(problem.instance(), config, rho_avg=0.8)
    accuracies["avg-sca"] = svm_accuracy(w, ds)
    assert all(a == 1.0 for a in accuracies.values()), accuracies
    assert time.perf_counter() - started < 120.0
    report(7, "all four methods reach train accuracy 1.0 on the planted "
              "separable set within 2e4 iterations")

    path = _find_reference("cov1")
    if path is None:
        pytest.skip("ACCEPTANCE 7 (COV1 half) SKIPPED: dataset not present; "
                    "set BLOCKSTOCH_COV1 or place data/cov1.libsvm")
    try:
        full = load_libsvm(path)
    except ParseError:
        full = load_libsvm(path, remap_zero_one=True)
    sub = subsample(full, min(1.0, 5000 / full.m), seed=7)
    cov = SvmProblem.with_blocks(sub, 1e-6, 4)
    config = _svm_race_config(seed=5, iters=10_000)
    x, trace_prop = run(cov.instance(), config)
    _, trace_peg = run_pegasos(cov, config)
    _, trace_avg = run_averaged_sca(cov.instance(), config, rho_avg=0.8)
    assert trace_prop[-1].objective <= trace_peg[-1].objective
    assert trace_prop[-1].objective <= trace_avg[-1].objective
    assert time.perf_counter() - started < 120.0
    report(7, "COV1 subsample: proposed objective at k=1e4 <= Pegasos and "
              "<= averaged variant on the shared sample stream")


def test_criterion_08_baseline_unit_identities():
    # Pegasos t=1: the shrink factor is exactly zero, so any two weight
    # vectors on the violating side give the identical update.
    ex = dense_example([1.0, -0.5], 1)
    out_a = pegasos_step(np.array([-1.0, 0.0]), ex, 0.5, t=1)
    out_b = pegasos_step(np.array([0.0, 2.0]), ex, 0.5, t=1)
    np.testing.assert_array_equal(out_a, out_b)
    np.testing.assert_allclose(out_a, [2.0, -1.0])
    np.testing.assert_array_equal(
        pegasos_step(np.array([5.0, 0.0]), dense_example([1.0, 0.0], 1), 0.5, t=1),
        [0.0, 0.0])
    # Adam: zero gradient with zero moments is an exact fixed point.
    w = np.array([1.0, -2.0, 3.0])
    m = v = np.zeros(3)
    for t in range(1, 4):
        w2, m, v = adam_step(w, np.zeros(3), m, v, t)
        np.testing.assert_array_equal(w2, w)
    # Averaged variant with pinned weight reproduces the core iterate exactly.
    quad = make_quadratic(6, noise_stddev=1.0, target=np.arange(6.0), n_blocks=3)
    config = RunConfig(max_iters=500, eval_every=100, seed=21)
    x_core, trace_core = run(quad.instance(), config)
    x_avg, trace_avg = run_averaged_sca(quad.instance(), config, rho_avg=0.0)
    np.testing.assert_array_equal(x_core, x_avg)
    assert ([(r.k, r.objective, r.step_norm, r.tracker_error) for r in trace_core]
            == [(r.k, r.objective, r.step_norm, r.tracker_error) for r in trace_avg])
    report(8, "pegasos t=1 shrink-to-zero, adam zero-gradient fixed point, "
              "and pinned-weight equivalence are all exact")


def test_criterion_09_cli_traces_bitwise_reproducible(tmp_path):
    blobs = []
    for label in "abcd":
        outdir = tmp_path / label
        code = cli_main(["run", "--method", "proposed", "--synthetic", "quad-d8",
                         "--blocks", "4", "--iters", "400", "--eval-every", "100",
                         "--seed", "12", "--outdir", str(outdir)])
        assert code == 0
        blobs.append((outdir / "proposed.trace.csv").read_bytes())
    assert len(set(blobs)) == 1
    report(9, "four repeated cmd_run traces are bitwise identical")


def test_criterion_10_parser_suite():
    rng = np.random.default_rng(20241010)
    # Round-trip on 1000 generated lines.
    lines = []
    for _ in range(1000):
        label = "+1" if rng.random() < 0.5 else "-1"
        count = int(rng.integers(0, 12))
        idx = np.sort(rng.choice(500, size=count, replace=False)) + 1
        parts = [label]
        for i in idx:
            value = float(rng.standard_normal() * 10.0 ** rng.integers(-6, 6))
            if value == 0.0:
                value = 1.0
            parts.append(f"{i}:{value!r}")
        lines.append(" ".join(parts))
    ds = parse_libsvm(lines, num_features=500)
    again = parse_libsvm(libsvm_lines(ds), num_features=500)
    assert datasets_equal(ds, again)
    # Fuzz corpus: structured errors only, never a crash.
    for _ in range(10_000):
        size = int(rng.integers(0, 80))
        text = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes().decode("latin-1")
        try:
            parse_libsvm(text.splitlines())
        except ParseError:
            pass
    report(10, "1000-line round-trip intact; 1e4 fuzz inputs all yield "
               "datasets or structured errors")

    missing = [name for name in ("cov1", "rcv1") if _find_reference(name) is None]
    if missing:
        pytest.skip(f"ACCEPTANCE 10 (sparsity half) SKIPPED: {', '.join(missing)} "
                    "not present; set BLOCKSTOCH_COV1/BLOCKSTOCH_RCV1")
    for name, expected in (("cov1", 22.22), ("rcv1", 0.16)):
        try:
            ds = load_libsvm(_find_reference(name))
        except ParseError:
            ds = load_libsvm(_find_reference(name), remap_zero_one=True)
        assert abs(ds.sparsity_percent() - expected) <= 0.5
    report(10, "reference-dataset sparsity within 0.5pp of the known statistics")
