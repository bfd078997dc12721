"""Reference optimizers: Pegasos, Adam, and the averaged variant."""

import numpy as np
import pytest

from blockstoch import (
    AdamParams,
    BlockSpec,
    L2Ball,
    NumericalFailureError,
    ProblemInstance,
    RunConfig,
    Schedule,
    SvmProblem,
    Unconstrained,
    adam_step,
    averaging_weight,
    check_rho_avg,
    make_quadratic,
    make_separable_dataset,
    pegasos_step,
    run,
    run_adam,
    run_averaged_sca,
    run_pegasos,
    svm_sample_grad,
)

from test_problems import dense_example


def records_without_time(trace):
    return [(r.k, r.objective, r.step_norm, r.tracker_error) for r in trace]


class TestPegasosStep:
    def test_first_step_ignores_weights(self):
        ex = dense_example([1.0, -2.0], 1)
        a = pegasos_step(np.array([5.0, 5.0]), ex, 0.5, t=1)
        b = pegasos_step(np.array([-9.0, 3.0]), ex, 0.5, t=1)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, np.array([1.0, -2.0]) / 0.5)

    def test_first_step_with_satisfied_margin_is_zero(self):
        ex = dense_example([1.0, 0.0], 1)
        w = np.array([3.0, 7.0])  # y <x, w> = 3
        np.testing.assert_array_equal(pegasos_step(w, ex, 0.5, t=1), [0.0, 0.0])

    def test_pure_shrink_when_margin_satisfied(self):
        ex = dense_example([1.0, 0.0], 1)
        w = np.array([4.0, 2.0])
        np.testing.assert_allclose(pegasos_step(w, ex, 1.0, t=2), w / 2.0)

    def test_zero_weights_take_scaled_example(self):
        ex = dense_example([0.5, 1.5], -1)
        out = pegasos_step(np.zeros(2), ex, 0.25, t=4)
        np.testing.assert_allclose(out, -np.array([0.5, 1.5]) / (0.25 * 4))

    def test_contraction_factor(self):
        rng = np.random.default_rng(0)
        ex = dense_example([1.0, 1.0], 1)
        for t in (2, 5, 50):
            w = rng.uniform(2.0, 3.0, size=2)  # margin > 1 guaranteed
            out = pegasos_step(w, ex, 1e-2, t)
            assert np.linalg.norm(out) == pytest.approx(
                (1.0 - 1.0 / t) * np.linalg.norm(w))

    def test_boundary_convention_differs_from_tracked_gradient(self):
        # Pegasos skips the data term at margin exactly 1 (strict <); the
        # tracked sample gradient includes it (non-strict <=).
        ex = dense_example([1.0, 0.0], 1)
        w = np.array([1.0, 0.0])
        np.testing.assert_allclose(pegasos_step(w, ex, 1.0, t=2), w / 2.0)
        np.testing.assert_array_equal(svm_sample_grad(w, ex, 1.0), [0.0, 0.0])

    def test_validation(self):
        ex = dense_example([1.0], 1)
        with pytest.raises(ValueError):
            pegasos_step(np.zeros(1), ex, 0.1, t=0)
        with pytest.raises(ValueError):
            pegasos_step(np.zeros(1), ex, 0.0, t=1)


class TestAdamStep:
    def test_zero_gradient_fixed_point(self):
        w = np.array([1.0, -2.0, 3.0])
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 6):
            w2, m, v = adam_step(w, np.zeros(3), m, v, t)
            np.testing.assert_array_equal(w2, w)
            w = w2

    def test_first_step_is_signlike(self):
        params = AdamParams(lr=1e-3)
        w = np.zeros(4)
        g = np.array([2.0, -0.5, 1e-3, -7.0])
        w2, _, _ = adam_step(w, g, np.zeros(4), np.zeros(4), 1, params)
        expected = -params.lr * g / (np.abs(g) + params.eps)
        np.testing.assert_allclose(w2, expected, rtol=1e-12)
        assert np.all(np.abs(w2 + params.lr * np.sign(g)) <= 1e-5 * params.lr)

    def test_repeated_gradient_keeps_direction(self):
        g = np.array([1.5])
        w = np.array([1.0])
        m = v = np.zeros(1)
        w1, m, v = adam_step(w, g, m, v, 1)
        w2, m, v = adam_step(w1, g, m, v, 2)
        assert w1[0] < w[0] and w2[0] < w1[0]

    def test_scalar_quadratic_decreases(self):
        # F(x) = x^2 / 2, exact gradients.
        x = np.array([1.0])
        m = v = np.zeros(1)
        values = [0.5 * x[0] ** 2]
        for t in range(1, 6):
            x, m, v = adam_step(x, x.copy(), m, v, t, AdamParams(lr=0.05))
            values.append(0.5 * x[0] ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_projection_applied(self):
        ball = L2Ball(np.zeros(2), 0.5)
        w = np.array([0.5, 0.0])
        g = np.array([-10.0, -10.0])
        w2, _, _ = adam_step(w, g, np.zeros(2), np.zeros(2), 1,
                             AdamParams(lr=1.0), project=ball.project)
        assert np.linalg.norm(w2) <= 0.5 + 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AdamParams(lr=0.0)
        with pytest.raises(ValueError):
            AdamParams(beta1=1.0)
        with pytest.raises(ValueError):
            AdamParams(beta2=-0.1)
        with pytest.raises(ValueError):
            AdamParams(eps=0.0)

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_lr_must_be_finite(self, lr):
        with pytest.raises(ValueError, match=r"^lr=.*positive and finite"):
            AdamParams(lr=lr)


def constant_problem(dim=3, start=None):
    """Zero-gradient instance: every iterate stays put."""
    x0 = np.full(dim, 2.0) if start is None else np.asarray(start, dtype=float)
    return ProblemInstance(
        blocks=(BlockSpec(dim, Unconstrained(dim)),),
        sample_batch=lambda rng, size: np.zeros(size),
        batch_grad=lambda batch, x, l: np.zeros(dim),
        true_objective=lambda x: 0.0,
        x0=x0,
    )


class TestAveragedSca:
    def test_weight_sequence(self):
        assert averaging_weight(1, 1.0) == 1.0
        assert averaging_weight(8, 1.0) == pytest.approx(1.0 / 8.0)
        assert averaging_weight(16, 0.95) == pytest.approx(16.0 ** -0.95)
        assert averaging_weight(100, 0.0) == 1.0

    def test_pinned_weight_equals_core_iterate(self):
        quad = make_quadratic(5, noise_stddev=1.0, target=np.arange(5.0), n_blocks=2)
        config = RunConfig(max_iters=600, eval_every=100, seed=21, batch_size=2)
        x_core, trace_core = run(quad.instance(), config)
        x_avg, trace_avg = run_averaged_sca(quad.instance(), config, rho_avg=0.0)
        np.testing.assert_array_equal(x_core, x_avg)
        assert records_without_time(trace_core) == records_without_time(trace_avg)

    def test_constant_iterate_is_averaging_fixed_point(self):
        inst = constant_problem()
        config = RunConfig(max_iters=200, eval_every=50, seed=0)
        x_avg, trace = run_averaged_sca(inst, config, rho_avg=1.0)
        np.testing.assert_array_equal(x_avg, inst.x0)
        assert all(r.step_norm == 0.0 for r in trace)

    def test_averaging_lags_core_iterate(self):
        # Low noise keeps the core iterate's floor well under the averaged
        # iterate's transient bias over the whole comparison window.
        quad = make_quadratic(1, noise_stddev=0.01, target=[3.0])
        config = RunConfig(max_iters=10_000, eval_every=100, seed=33)
        _, trace_core = run(quad.instance(), config)
        _, trace_avg = run_averaged_sca(quad.instance(), config, rho_avg=1.0)
        core_by_k = {r.k: r.objective for r in trace_core}
        for r in trace_avg:
            if r.k >= 1000:
                assert r.objective >= core_by_k[r.k]


class TestFullRuns:
    def test_pegasos_trains_separable(self):
        ds, _ = make_separable_dataset(150, 6, margin=0.5, seed=3)
        problem = SvmProblem.with_blocks(ds, 1e-3, 2)
        config = RunConfig(max_iters=2000, eval_every=500, seed=7)
        w, trace = run_pegasos(problem, config)
        assert trace[-1].objective < trace[0].objective
        assert trace[-1].tracker_error is None

    def test_pegasos_rejects_non_finite_iterate(self):
        # 1 / (lam t) overflows to inf, as in every other method's failure.
        ds, _ = make_separable_dataset(50, 6, seed=1)
        config = RunConfig(max_iters=20, eval_every=10)
        with pytest.raises(NumericalFailureError,
                           match=r"^non-finite iterate at iteration \d+, block \d+$"):
            run_pegasos(SvmProblem.with_blocks(ds, 1e-320, 2), config)

    def test_adam_minimizes_quadratic(self):
        quad = make_quadratic(3, noise_stddev=0.1, target=[1.0, -1.0, 0.5])
        config = RunConfig(max_iters=4000, eval_every=1000, seed=9)
        x, trace = run_adam(quad.instance(), config, AdamParams(lr=0.01))
        np.testing.assert_allclose(x, quad.target, atol=0.05)

    def test_adam_respects_constraints(self):
        quad = make_quadratic(2, noise_stddev=0.0, target=[5.0, 5.0],
                              feasible_sets=[L2Ball(np.zeros(2), 1.0)])
        config = RunConfig(max_iters=500, eval_every=100, seed=1)
        x, _ = run_adam(quad.instance(), config, AdamParams(lr=0.05))
        assert np.linalg.norm(x) <= 1.0 + 1e-9

    def test_shared_sample_stream(self):
        ds, _ = make_separable_dataset(60, 8, seed=13)
        problem = SvmProblem.with_blocks(ds, 1e-2, 2)
        config = RunConfig(max_iters=150, eval_every=50, seed=11, batch_size=2)
        logs = {}
        logs["proposed"] = []
        run(problem.instance(), config, sample_log=logs["proposed"])
        logs["pegasos"] = []
        run_pegasos(problem, config, sample_log=logs["pegasos"])
        logs["adam"] = []
        run_adam(problem, config, sample_log=logs["adam"])
        logs["avg-sca"] = []
        run_averaged_sca(problem, config, sample_log=logs["avg-sca"])
        reference = [b.tolist() for b in logs["proposed"]]
        assert len(reference) == 100
        for name, log in logs.items():
            assert [b.tolist() for b in log] == reference, name


class TestCheckRhoAvg:
    def test_rho_avg_must_beat_alpha_exponent(self):
        schedule = Schedule(0.6, 0.9)
        with pytest.raises(ValueError):
            check_rho_avg(0.8, schedule)
        check_rho_avg(1.0, schedule)
        check_rho_avg(0.0, schedule)

    @pytest.mark.parametrize("rho_avg", [np.inf, np.nan])
    def test_rho_avg_must_be_finite(self, rho_avg):
        # An infinite exponent makes every weight after the first 0.
        with pytest.raises(ValueError, match=r"^rho_avg="):
            check_rho_avg(rho_avg, Schedule(0.6, 0.9))
