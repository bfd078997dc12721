"""Reference optimizers: Pegasos, Adam, and the averaged variant."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from blockstoch import (
    AdamParams,
    BlockSpec,
    Box,
    L2Ball,
    NumericalFailureError,
    ProblemInstance,
    RunConfig,
    Schedule,
    SvmDataset,
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
)
from blockstoch.io import parse_libsvm, subsample
from blockstoch.problems import hinge_pass

from oracles import naive_pegasos_step, svm_sample_grad
from test_problems import dense_example


def sparse_svm():
    """A 40-row SVM over 10 features with about 3 stored entries per row
    and random labels, so a batch mixes rows on both sides of the margin;
    lambda 0.05 in 3 blocks."""
    rng = np.random.default_rng(21)
    dense = rng.standard_normal((40, 10)) * (rng.random((40, 10)) < 0.3)
    rows = sparse.csr_matrix(dense)
    ds = SvmDataset(rows.indptr, rows.indices, rows.data,
                    np.where(rng.random(40) < 0.5, -1, 1), 10)
    return ds, SvmProblem.with_blocks(ds, 0.05, 3)


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
        # The same per row of a batch of 2: row 0 (e1, +1) sits at margin 1 and
        # row 1 (e2, -1) at margin 0.  Mini-batch Pegasos's step (run_pegasos's
        # hinge pass) takes row 1 only; the oracle's batch gradient takes both.
        ds = SvmDataset([0, 1, 2], [0, 1], [1.0, 1.0], [1.0, -1.0], 2)
        step = w / 2.0
        hinge_pass(ds)(step, w, [0, 1], 1.0 / (1.0 * 2 * 2), strict=True)
        np.testing.assert_array_equal(step, [0.5, -0.25])
        np.testing.assert_array_equal(step, naive_pegasos_step(w, ds, [0, 1], 1.0, 2))
        grad = SvmProblem(ds, 1.0).instance().batch_grad(np.array([0, 1]), w, 0)
        np.testing.assert_array_equal(grad, [0.5, 0.5])

    def test_validation(self):
        ex = dense_example([1.0], 1)
        with pytest.raises(ValueError):
            pegasos_step(np.zeros(1), ex, 0.1, t=0)
        with pytest.raises(ValueError):
            pegasos_step(np.zeros(1), ex, 0.0, t=1)
        # SvmProblem's lam rule, message included.
        for lam in (np.inf, np.nan):
            with pytest.raises(ValueError, match=rf"^lam={lam}: must be positive and finite$"):
                pegasos_step(np.zeros(1), ex, lam, t=1)


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
        expected = -params.lr * g / (np.abs(g) + 1e-8)
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

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AdamParams(lr=0.0)

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_lr_must_be_finite(self, lr):
        with pytest.raises(ValueError, match=r"^lr=.*positive and finite"):
            AdamParams(lr=lr)

    @pytest.mark.parametrize("shared_moments", [False, True])
    @pytest.mark.parametrize("params", [None, AdamParams(lr=0.03)])
    @pytest.mark.parametrize("t", [1, 7, 1000])
    def test_pure_and_bitwise_the_textbook_form(self, t, params, shared_moments):
        # params None calls adam_step with its default AdamParams.
        rng = np.random.default_rng(t)
        w, g, m = rng.standard_normal((3, 50))
        v = rng.random(50)
        if shared_moments:
            m = v
        inputs = (w, g, m, v)
        before = [a.tobytes() for a in inputs]
        p = AdamParams() if params is None else params
        w2, m2, v2 = adam_step(w, g, m, v, t, *(() if params is None else (params,)))
        assert [a.tobytes() for a in inputs] == before
        b1, b2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's values, fixed in the library
        m_ref = b1 * m + (1 - b1) * g
        v_ref = b2 * v + (1 - b2) * g * g
        w_ref = w - p.lr * (m_ref / (1 - b1 ** t)) / (np.sqrt(v_ref / (1 - b2 ** t)) + eps)
        assert (w2.tobytes(), m2.tobytes(), v2.tobytes()) == \
            (w_ref.tobytes(), m_ref.tobytes(), v_ref.tobytes())
        assert not any(np.shares_memory(out, a) for out in (w2, m2, v2) for a in inputs)


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

    @pytest.mark.parametrize("rho_avg", [np.nan, -1.0, np.inf, 0.5, 0.8, 0.9])
    def test_rejects_a_non_averaging_exponent(self, rho_avg):
        # NaN would report a NaN point unchecked, -1 a growing weight, inf a
        # point frozen at x^1, and 0.5 to 0.9 a weight that does not vanish
        # faster than Schedule()'s step k^-0.9.  Each is refused before the
        # first draw, by the rule the CLI applies.
        inst = make_quadratic(4, target=np.ones(4), n_blocks=2).instance()
        draws = []
        inst = replace(inst, sample_batch=lambda rng, size: draws.append(size))
        with pytest.raises(ValueError, match=r"^rho_avg=.* alpha exponent 0\.9 "):
            run_averaged_sca(inst, RunConfig(max_iters=20, eval_every=10), rho_avg)
        assert draws == []


class TestFullRuns:
    def test_pegasos_trains_separable(self):
        ds, _ = make_separable_dataset(150, 6, margin=0.5, seed=3)
        problem = SvmProblem.with_blocks(ds, 1e-3, 2)
        config = RunConfig(max_iters=2000, eval_every=500, seed=7)
        w, trace = run_pegasos(problem, config)
        assert trace[-1].objective < trace[0].objective
        assert trace[-1].tracker_error is None

    def test_pegasos_at_batch_1_is_pegasos_step(self):
        ds, problem = sparse_svm()
        log = []
        w, _ = run_pegasos(problem, RunConfig(max_iters=100, eval_every=100, seed=4),
                           sample_log=log)
        ref = np.ones(ds.num_features)
        for t, batch in enumerate(log, start=1):
            i = int(batch[0])
            a, b = ds.indptr[i], ds.indptr[i + 1]
            ref = pegasos_step(ref, (ds.indices[a:b], ds.values[a:b], ds.labels[i]), 0.05, t)
        np.testing.assert_array_equal(w, ref)

    def test_pegasos_steps_on_the_whole_batch(self):
        ds, problem = sparse_svm()
        log = []
        w, _ = run_pegasos(problem, RunConfig(max_iters=100, eval_every=100, seed=4,
                                              batch_size=4), sample_log=log)
        ref = np.ones(ds.num_features)
        for t, batch in enumerate(log, start=1):
            ref = naive_pegasos_step(ref, ds, batch.tolist(), 0.05, t)
        assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)

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

    @pytest.mark.parametrize("dim, iters, batch", [
        *(pytest.param(9, i, b, id=f"{i}-{b}") for i in (1, 2, 37, 200) for b in (1, 4)),
        *(pytest.param(20_000, 3, b, id=f"wide-3-{b}") for b in (1, 4))])
    def test_projected_adam_is_the_hand_loop_bit_for_bit(self, dim, iters, batch):
        # One batch per iteration from the seed's stream, the joint gradient,
        # the textbook step and the joint projection give run_adam's point and
        # last record byte for byte: with a free, a Box and an L2Ball block,
        # and on a wide Box/L2Ball quadratic whose projections are both
        # active from the first iteration.
        if dim == 9:
            ball = L2Ball(np.array([0.1, 0.0, -0.1]), 1.2)
            sets = [Unconstrained(3), Box(-np.ones(3), np.full(3, 0.5)), ball]
            lr = 0.05
        else:
            half = dim // 2
            ball = L2Ball(np.random.default_rng(3).uniform(-0.1, 0.1, half), 1.0)
            sets = [Box(-np.ones(half), np.full(half, 0.5)), ball]
            lr = 0.5
        quad = make_quadratic(dim, target=np.linspace(-3.0, 3.0, dim), n_blocks=len(sets),
                              feasible_sets=sets)
        inst, params = quad.instance(), AdamParams(lr=lr)
        config = RunConfig(max_iters=iters, eval_every=iters, seed=5, batch_size=batch)
        rng = np.random.default_rng(config.seed)
        w = inst.default_start()
        m, v, g = np.zeros(dim), np.zeros(dim), np.empty(dim)
        for t in range(1, iters + 1):
            inst.gather_grad(inst.sample_batch(rng, batch), w, g)
            w, m, v = adam_step(w, g, m, v, t, params)
            w = inst.project(w)
        x, trace = run_adam(inst, config, params)
        assert x.tobytes() == w.tobytes()
        assert [r.k for r in trace] == [iters]
        assert trace[0].objective == inst.true_objective(w)
        if dim > 9:
            assert np.isin([-1.0, 0.5], w[:half]).all()
            assert np.linalg.norm(w[half:] - ball.center) == pytest.approx(1.0)
        elif iters >= 37:  # both projections are active by then
            assert w[5] == 0.5 and np.linalg.norm(w[6:] - ball.center) == pytest.approx(1.2)
        # The step's buffers belong to the run, not the instance: a second
        # run gives the same bytes in other memory and leaves the first's alone.
        again, _ = run_adam(inst, config, params)
        assert again.tobytes() == x.tobytes() == w.tobytes()
        assert not np.shares_memory(again, x)

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
        run_adam(problem.instance(), config, sample_log=logs["adam"])
        logs["avg-sca"] = []
        run_averaged_sca(problem.instance(), config, sample_log=logs["avg-sca"])
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


def test_cov_shaped_race_twin_of_criterion_7():
    """Criterion 7's COV1 half, run offline on the benchmark's COV1-shaped
    generator (``perfbench/covgen.py``): a 10^4-row train split halved by
    ``subsample(..., seed=7)`` to 5000 rows, 4 blocks, the criterion's
    lambda, schedule and seed, 10^4 single-sample iterations.  The proposed
    method's final objective must not exceed Pegasos's or the averaged
    variant's.  At lambda = 1e-6 Pegasos's step 1/(lambda t) is huge, which
    leaves its objective about 90x the proposed method's, so that inequality
    tests Pegasos's step size more than the method; the averaged variant's
    margin is the close one (about 0.1%).  The seeds and sizes were fixed
    before the first run; a change that flips either inequality reports it
    rather than re-picking them."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import covgen

    train = parse_libsvm(covgen.make_split(1, 10_000, 2_500)[0].splitlines())
    sub = subsample(train, 0.5, seed=7)
    assert sub.m == 5000
    problem = SvmProblem.with_blocks(sub, 1e-6, 4)
    config = RunConfig(schedule=Schedule(0.51, 0.75, 5.0), max_iters=10_000,
                       eval_every=10_000, seed=5, batch_size=1)
    proposed = run(problem.instance(), config)[1][-1].objective
    pegasos = run_pegasos(problem, config)[1][-1].objective
    averaged = run_averaged_sca(problem.instance(), config, rho_avg=0.8)[1][-1].objective
    print(f"proposed {proposed!r}, pegasos {pegasos!r} "
          f"({pegasos / proposed - 1.0:+.4%}), avg-sca {averaged!r} "
          f"({averaged / proposed - 1.0:+.4%})")
    assert proposed <= pegasos
    assert proposed <= averaged
