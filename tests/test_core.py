"""Core engine: tracker recursion, projections, surrogate step, run loop."""

import numpy as np
import pytest

import math
import warnings
from dataclasses import replace

from blockstoch import (
    BlockSpec,
    Box,
    L2Ball,
    NumericalFailureError,
    ProblemInstance,
    RunConfig,
    Schedule,
    StepNormBelow,
    SvmProblem,
    Unconstrained,
    UnsupportedOperationError,
    explicit_weights,
    make_quadratic,
    make_separable_dataset,
    minimize_surrogate,
    project,
    run,
    run_adam,
    run_averaged_sca,
    run_pegasos,
    stationarity_residual,
)
from blockstoch import core
from blockstoch.core import _check_finite

import oracles


def records_without_time(trace):
    return [(r.k, r.objective, r.step_norm, r.tracker_error) for r in trace]


# ---------------------------------------------------------------------------
# The tracker recursion, as run applies it
# ---------------------------------------------------------------------------

class TestTracker:
    """h^k = (1 - omega_k) h^{k-1} + omega_k g^k on the joint vector, where
    g^k is the batch gradient that run gathers at iteration k."""

    @staticmethod
    def recorded_run(iters):
        """(g^k, (omega_k, h^k)) for k = 1..iters of a two-block run."""
        quad = make_quadratic(5, noise_stddev=1.0, target=np.linspace(-1.0, 1.0, 5),
                              n_blocks=2,
                              feasible_sets=[Box(-np.ones(2), np.ones(2)), Unconstrained(3)])
        inst = quad.instance()
        grads, trackers = [], []

        def batch_grad(batch, x, l):
            if l == 0:
                grads.append(np.empty(inst.dim))
            grads[-1][inst.block_slices[l]] = g_l = inst.batch_grad(batch, x, l)
            return g_l

        run(replace(inst, batch_grad=batch_grad),
            RunConfig(max_iters=iters, eval_every=iters, seed=3, batch_size=2),
            iteration_callback=lambda info: trackers.append((info.omega, info.h.copy())))
        return list(zip(grads, trackers))

    def test_first_tracker_is_first_batch_gradient(self):
        [(g1, (omega1, h1))] = self.recorded_run(1)
        assert omega1 == 1.0
        assert h1.tobytes() == g1.tobytes()

    def test_each_tracker_mixes_in_the_batch_gradient(self):
        steps = self.recorded_run(50)
        for (_, (_, h_prev)), (g, (omega, h)) in zip(steps, steps[1:]):
            assert 0.0 < omega < 1.0
            assert h.tobytes() == ((1.0 - omega) * h_prev + omega * g).tobytes()


# ---------------------------------------------------------------------------
# explicit_weights
# ---------------------------------------------------------------------------

class TestExplicitWeights:
    def test_single_term(self):
        np.testing.assert_array_equal(explicit_weights([1.0]), [1.0])

    def test_two_terms(self):
        np.testing.assert_allclose(explicit_weights([1.0, 0.5]), [0.5, 0.5])

    def test_three_terms(self):
        w = explicit_weights([1.0, 0.5, 0.25])
        np.testing.assert_allclose(w, [0.375, 0.375, 0.25])
        assert abs(w.sum() - 1.0) < 1e-15

    def test_first_weight_must_be_one(self):
        with pytest.raises(ValueError):
            explicit_weights([0.9, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 500))
            om = np.concatenate(([1.0], rng.uniform(0.01, 1.0, size=k - 1)))
            total = explicit_weights(om).sum()
            assert abs(total - 1.0) < 1e-12

    def test_matches_recursion(self):
        # The recursive tracker must equal the explicit weighted sum for
        # any admissible sequence and any gradient stream.
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 101))
            om = np.concatenate(([1.0], rng.uniform(0.05, 1.0, size=k - 1)))
            grads = rng.standard_normal((k, 3))
            recursive = oracles.tracker_by_recursion(om, grads)
            explicit = explicit_weights(om) @ grads
            np.testing.assert_allclose(explicit, recursive, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

class TestProject:
    def test_box_feasible_point_unchanged(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(project(box, [0.5, 0.5]), [0.5, 0.5])

    def test_box_clamps(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(project(box, [3.0, -2.0]), [1.0, -1.0])

    def test_ball_radial_scaling(self):
        ball = L2Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(project(ball, [3.0, 4.0]), [0.6, 0.8])

    def test_unconstrained_identity(self):
        free = Unconstrained(3)
        p = np.array([5.0, -2.0, 0.0])
        np.testing.assert_array_equal(project(free, p), p)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        exact_sets = [
            Box(rng.uniform(-2, 0, 4), rng.uniform(0, 2, 4)),
            Unconstrained(4),
        ]
        for s in exact_sets:
            for _ in range(25):
                p = 3.0 * rng.standard_normal(4)
                once = project(s, p)
                np.testing.assert_array_equal(project(s, once), once)
        # The radial rescale can drift a boundary point by one ulp.
        ball = L2Ball(rng.standard_normal(4), 1.5)
        for _ in range(25):
            p = 3.0 * rng.standard_normal(4)
            once = project(ball, p)
            np.testing.assert_allclose(project(ball, once), once, rtol=1e-15, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(Box([0.0], [1.0]), [0.5, 0.5])
        with pytest.raises(ValueError):
            project(L2Ball([0.0, 0.0], 1.0), [0.5])

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])
        with pytest.raises(ValueError):
            L2Ball([0.0], -1.0)

    def test_box_with_infinite_bounds(self):
        half = Box([1.0, 1.0], [np.inf, np.inf])
        np.testing.assert_array_equal(project(half, [0.0, 5.0]), [1.0, 5.0])
        whole = Box([-np.inf], [np.inf])
        np.testing.assert_array_equal(project(whole, [5.0]), [5.0])

    def test_box_rejects_nan_bounds(self):
        with pytest.raises(ValueError, match="NaN"):
            Box([np.nan], [1.0])
        with pytest.raises(ValueError, match="NaN"):
            Box([0.0, 0.0], [1.0, np.nan])

    def test_ball_rejects_non_finite_center(self):
        for center in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="center"):
                L2Ball(center, 1.0)


# ---------------------------------------------------------------------------
# minimize_surrogate
# ---------------------------------------------------------------------------

class TestMinimizeSurrogate:
    def test_zero_tracker_moves_nothing(self):
        x = np.array([0.3, -0.8])
        out = minimize_surrogate(x, np.zeros(2), 0.7, Box([-1, -1], [1, 1]))
        np.testing.assert_array_equal(out, x)

    def test_unconstrained_stationarity(self):
        out = minimize_surrogate([1.0, 1.0], [2.0, 0.0], 0.5, Unconstrained(2))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_box_clamped_case(self):
        out = minimize_surrogate([0.1, 0.5], [2.0, 0.0], 0.5, Box([0, 0], [1, 1]))
        np.testing.assert_allclose(out, [0.0, 0.5])

    def test_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            minimize_surrogate([0.0], [1.0], 0.0, Unconstrained(1))
        with pytest.raises(ValueError):
            minimize_surrogate([0.0], [1.0], -1.0, Unconstrained(1))

    def test_equals_projection_closed_form(self):
        rng = np.random.default_rng(5)
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
            got = minimize_surrogate(x, h, alpha, fs)
            want = project(fs, x - alpha * h)
            np.testing.assert_array_equal(got, want)

    def test_step_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            lo = rng.uniform(-2, 0, 3)
            fs = Box(lo, lo + rng.uniform(0.5, 2, 3))
            x = project(fs, rng.standard_normal(3))
            h = 2 * rng.standard_normal(3)
            alpha = float(rng.uniform(0.01, 1))
            out = minimize_surrogate(x, h, alpha, fs)
            assert np.linalg.norm(out - x) <= 2 * alpha * np.linalg.norm(h) + 1e-12

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(12):
            if trial % 2 == 0:
                lo = rng.uniform(-0.8, 0.0, 2)
                fs = Box(lo, lo + rng.uniform(0.3, 1.0, 2))
            else:
                fs = L2Ball(rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.2, 0.5)))
            x = project(fs, rng.standard_normal(2))
            h = rng.standard_normal(2)
            alpha = float(rng.uniform(0.05, 0.8))
            got = minimize_surrogate(x, h, alpha, fs)
            want = oracles.grid_surrogate_argmin(x, h, alpha, fs)
            assert np.max(np.abs(got - want)) <= 1e-3


# ---------------------------------------------------------------------------
# The engine's step against the two-part SCA step
# ---------------------------------------------------------------------------

TAU = 2.0


def sca_step(feasible_set, x_prev, h, alpha):
    """x_hat = P(x - h / (2 tau)), then x + gamma (x_hat - x) with the
    gamma = 2 tau alpha at which the two forms agree when unconstrained."""
    x_hat = project(feasible_set, x_prev - h / (2.0 * TAU))
    return x_prev + 2.0 * TAU * alpha * (x_hat - x_prev)


class TestScaForm:
    # alpha_scale 0.2 keeps gamma_k = 2 tau alpha_k at most 0.8, inside SCA's (0, 1].
    SCHEDULE = Schedule(alpha_scale=0.2)

    def test_unconstrained_blocks_take_the_sca_step(self):
        quad = make_quadratic(6, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 6),
                              n_blocks=3)
        inst = quad.instance()
        seen = []

        def check(info):
            for sl, spec in zip(inst.block_slices, inst.blocks):
                want = sca_step(spec.feasible_set, info.x_prev[sl], info.h[sl], info.alpha)
                np.testing.assert_allclose(info.x[sl], want, rtol=1e-12, atol=1e-14)
            seen.append(info.k)

        run(inst, RunConfig(schedule=self.SCHEDULE, max_iters=200, eval_every=100, seed=8),
            iteration_callback=check)
        assert seen == list(range(1, 201))

    def test_forms_differ_where_a_box_bound_is_active(self):
        # From x = 0.5 in [0, 1] toward the target 5: both forms project onto
        # the upper bound, and the smoothing step then stops short of it.
        box = Box([0.0], [1.0])
        quad = make_quadratic(1, noise_stddev=0.0, target=[5.0], feasible_sets=[box])
        seen = []

        def check(info):
            assert (info.alpha, info.h.tolist(), info.x.tolist()) == (0.2, [-4.5], [1.0])
            seen.append(sca_step(box, info.x_prev, info.h, info.alpha))

        run(quad.instance(), RunConfig(schedule=self.SCHEDULE, max_iters=1, eval_every=1),
            x0=np.array([0.5]), iteration_callback=check)
        np.testing.assert_allclose(seen, [[0.9]], rtol=1e-15)

    def test_run_takes_the_surrogate_minimizer_of_every_block(self):
        quad = make_quadratic(6, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 6),
                              n_blocks=2,
                              feasible_sets=[Box(-np.ones(3), np.ones(3)),
                                             L2Ball([0.05, -0.02, 0.0], 0.8)])
        inst = quad.instance()
        seen = []

        def check(info):
            for sl, spec in zip(inst.block_slices, inst.blocks):
                want = minimize_surrogate(info.x_prev[sl], info.h[sl], info.alpha,
                                          spec.feasible_set)
                assert info.x[sl].tobytes() == want.tobytes(), (info.k, sl)
            seen.append(info.k)

        run(inst, RunConfig(max_iters=300, eval_every=100, seed=4, batch_size=4),
            iteration_callback=check)
        assert seen == list(range(1, 301))


# ---------------------------------------------------------------------------
# stationarity_residual
# ---------------------------------------------------------------------------

class TestStationarityResidual:
    def test_zero_at_optimum(self):
        quad = make_quadratic(3, noise_stddev=0.0, target=[1.0, -2.0, 0.5])
        inst = quad.instance()
        assert stationarity_residual(inst, quad.optimum(), 1e-3) <= 1e-8

    def test_unconstrained_equals_gradient_norm(self):
        quad = make_quadratic(4, noise_stddev=0.0, target=[0.0, 0.0, 0.0, 0.0])
        inst = quad.instance()
        x = np.array([1.0, 2.0, -1.0, 0.5])
        expected = float(np.linalg.norm(inst.true_gradient(x)))
        got = stationarity_residual(inst, x, 0.01)
        assert abs(got - expected) <= 1e-9 * expected

    def test_interior_unit_gradient(self):
        # grad F = (1, 0) at the probe point: residual is exactly 1.
        quad = make_quadratic(2, noise_stddev=0.0, target=[0.0, 0.0],
                              feasible_sets=[Box([-5, -5], [5, 5])], n_blocks=1)
        x = np.array([1.0, 0.0])
        got = stationarity_residual(quad.instance(), x, 1e-3)
        assert abs(got - 1.0) <= 1e-6

    def test_requires_true_gradient(self):
        inst = ProblemInstance(
            blocks=(BlockSpec(1, Unconstrained(1)),),
            sample_batch=lambda rng, size: np.zeros(size),
            batch_grad=lambda batch, x, l: np.zeros(1),
        )
        with pytest.raises(UnsupportedOperationError):
            stationarity_residual(inst, np.zeros(1), 1e-3)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def count_projections(monkeypatch) -> dict:
    """Count the calls of Unconstrained.project and Box.project."""
    calls = {Unconstrained: 0, Box: 0}
    for cls in calls:
        def counted(self, p, cls=cls, original=cls.project):
            calls[cls] += 1
            return original(self, p)
        monkeypatch.setattr(cls, "project", counted)
    return calls


class ProxySet:
    """A set that forwards to another and counts its projections, as a
    tracing wrapper would."""

    def __init__(self, inner):
        self.inner, self.dim, self.calls = inner, inner.dim, 0

    def project(self, p):
        self.calls += 1
        return self.inner.project(p)

    def centroid(self):
        return self.inner.centroid()


def scalar_tracking_problem():
    """F(x) = E[(x - z)^2 / 2], z ~ N(0, 1), over the box [-10, 10]."""
    return make_quadratic(1, noise_stddev=1.0, target=[0.0],
                          feasible_sets=[Box([-10.0], [10.0])])


class TestRun:
    def test_scalar_problem_converges(self):
        problem = scalar_tracking_problem()
        config = RunConfig(max_iters=10_000, eval_every=1000, seed=42)
        x, trace = run(problem.instance(), config, x0=np.array([5.0]))
        assert abs(x[0]) <= 0.1
        assert [r.k for r in trace] == list(range(1000, 10_001, 1000))

    def test_zero_iterations(self):
        problem = scalar_tracking_problem()
        x, trace = run(problem.instance(), RunConfig(max_iters=0), x0=np.array([2.0]))
        np.testing.assert_array_equal(x, [2.0])
        assert trace == []

    def test_infeasible_start_projected(self):
        problem = scalar_tracking_problem()
        x, trace = run(problem.instance(), RunConfig(max_iters=0), x0=np.array([42.0]))
        np.testing.assert_array_equal(x, [10.0])

    def test_step_projects_only_constrained_blocks(self, monkeypatch):
        calls = count_projections(monkeypatch)
        quad = make_quadratic(4, n_blocks=2, target=np.full(4, 3.0),
                              feasible_sets=[Unconstrained(2), Box(-np.ones(2), np.ones(2))])
        inst = quad.instance()

        def counts(iters):
            calls.update({Unconstrained: 0, Box: 0})
            x, _ = run(inst, RunConfig(max_iters=iters, eval_every=max(iters, 1), seed=2))
            return dict(calls), x

        (start, _), (after, x) = counts(0), counts(50)
        assert after[Unconstrained] == start[Unconstrained]
        assert after[Box] == start[Box] + 50
        assert x[0] > 1.0 and x[2] == 1.0

    def test_joint_projection_skips_only_unconstrained_blocks(self, monkeypatch):
        # ProblemInstance.project, which run_adam applies to every step, copies
        # Unconstrained blocks and projects every other set, a proxy included;
        # the only Unconstrained.project calls are the proxy's.
        calls = count_projections(monkeypatch)
        proxy = ProxySet(Unconstrained(1))
        inst = ProblemInstance(
            blocks=(BlockSpec(1, Unconstrained(1)), BlockSpec(1, Box([-1.0], [1.0])),
                    BlockSpec(1, proxy)),
            sample_batch=lambda rng, size: rng.standard_normal(size),
            batch_grad=lambda batch, x, l: x[l:l + 1] - 3.0 + batch.mean(),
        )
        assert [sl.start for sl, _ in inst.constrained_blocks] == [1, 2]
        np.testing.assert_array_equal(inst.project([5.0, -5.0, 5.0]), [5.0, -1.0, 5.0])
        assert (calls, proxy.calls) == ({Unconstrained: 1, Box: 1}, 1)
        run_adam(inst, RunConfig(max_iters=20, eval_every=20, seed=2))
        assert (calls, proxy.calls) == ({Unconstrained: 21, Box: 21}, 21)

    def test_deterministic_across_repeats(self):
        quad = make_quadratic(5, noise_stddev=1.0, n_blocks=2)
        config = RunConfig(max_iters=400, eval_every=50, seed=17, batch_size=2)
        x1, t1 = run(quad.instance(), config)
        x2, t2 = run(quad.instance(), config)
        np.testing.assert_array_equal(x1, x2)
        assert records_without_time(t1) == records_without_time(t2)

    def test_iterates_stay_feasible(self):
        quad = make_quadratic(4, noise_stddev=2.0, target=[5.0, 5.0, -5.0, -5.0],
                              n_blocks=2,
                              feasible_sets=[Box([-1, -1], [1, 1]),
                                             L2Ball([0.0, 0.0], 0.5)])
        inst = quad.instance()
        seen = []

        def check(info):
            for spec, sl in zip(inst.blocks, inst.block_slices):
                x_l = info.x[sl]
                assert np.linalg.norm(x_l - project(spec.feasible_set, x_l)) <= 1e-9
            seen.append(info.k)

        run(inst, RunConfig(max_iters=300, eval_every=100, seed=1),
            iteration_callback=check)
        assert seen == list(range(1, 301))

    def test_first_iteration_uses_full_weight(self):
        # omega_1 = 1 forces h^1 to equal the first batch gradient exactly,
        # which also pins h^0 = 0.
        quad = make_quadratic(3, noise_stddev=0.0, target=[1.0, 2.0, 3.0])
        inst = quad.instance()
        start = inst.default_start()
        captured = {}

        def grab(info):
            if info.k == 1:
                captured["h"] = info.h.copy()

        run(inst, RunConfig(max_iters=1, eval_every=1, seed=0), iteration_callback=grab)
        np.testing.assert_array_equal(captured["h"], inst.true_gradient(start))

    def test_step_bound_every_iteration(self):
        quad = make_quadratic(6, noise_stddev=1.0, n_blocks=3)
        inst = quad.instance()

        def check(info):
            for sl in inst.block_slices:
                step = np.linalg.norm(info.x[sl] - info.x_prev[sl])
                assert step <= 2.0 * info.alpha * np.linalg.norm(info.h[sl]) + 1e-12

        run(inst, RunConfig(max_iters=500, eval_every=100, seed=23),
            iteration_callback=check)

    def test_tracker_bounded_by_gradient_bound(self):
        # Bounded sample gradients keep the tracker inside the same ball.
        rng_bound = 1.0

        def sample_batch(rng, size):
            return rng.uniform(-rng_bound, rng_bound, size=(size, 2))

        inst = ProblemInstance(
            blocks=(BlockSpec(2, Box([-1, -1], [1, 1])),),
            sample_batch=sample_batch,
            batch_grad=lambda batch, x, l: batch.mean(axis=0),
        )
        bound = np.sqrt(2.0) * rng_bound

        def check(info):
            assert np.linalg.norm(info.h) <= bound + 1e-12

        run(inst, RunConfig(max_iters=400, eval_every=100, seed=5, batch_size=3),
            iteration_callback=check)

    def test_step_norm_termination(self):
        quad = make_quadratic(2, noise_stddev=0.0, target=[1.0, 1.0])
        config = RunConfig(max_iters=100_000, eval_every=1000, seed=0,
                           termination=StepNormBelow(1e-6))
        x, trace = run(quad.instance(), config, x0=np.array([2.0, 2.0]))
        assert trace[-1].k < 100_000
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-4)

    def test_wrong_gradient_shape_rejected(self):
        # One shared gather checks the block shape for every method; a (1,)
        # gradient must not be broadcast over a 3-dim block, and a list is
        # not an array.
        methods = {"proposed": run, "adam": run_adam, "avg-sca": run_averaged_sca}
        for dim, bad in ((2, np.zeros(3)), (3, np.zeros(1)), (3, np.float64(0.0)),
                         (3, [0.0, 0.0, 0.0])):
            inst = ProblemInstance(
                blocks=(BlockSpec(dim, Unconstrained(dim)),),
                sample_batch=lambda rng, size: np.zeros(size),
                batch_grad=lambda batch, x, l, bad=bad: bad,
            )
            for name, method in methods.items():
                with pytest.raises(ValueError) as info:
                    method(inst, RunConfig(max_iters=1, eval_every=1))
                assert str(info.value) == (f"block 0 gradient has shape "
                                           f"{getattr(bad, 'shape', None)}, "
                                           f"expected ({dim},)"), name

    def test_non_finite_gradient_raises_with_location(self):
        # Realization k is the token k, however many batches one call draws.
        count = 0

        def sample_batch(rng, size):
            nonlocal count
            batch = np.arange(count + 1, count + size + 1)
            count += size
            return batch

        def batch_grad(batch, x, l):
            if batch[0] >= 3:
                return np.array([np.nan])
            return np.array([1.0])

        inst = ProblemInstance(
            blocks=(BlockSpec(1, Unconstrained(1)),),
            sample_batch=sample_batch,
            batch_grad=batch_grad,
        )
        with pytest.raises(NumericalFailureError) as info:
            run(inst, RunConfig(max_iters=10, eval_every=1, seed=0))
        assert info.value.k == 3
        assert info.value.block == 0

    def test_tracker_error_shrinks(self):
        quad = make_quadratic(4, noise_stddev=0.5)
        config = RunConfig(max_iters=20_000, eval_every=500, seed=2, batch_size=32)
        _, trace = run(quad.instance(), config)
        errors = [r.tracker_error for r in trace]
        tail = sorted(errors[-4:])
        assert tail[len(tail) // 2] <= 1e-2
        assert np.median(errors[-4:]) < np.median(errors[:4])


# ---------------------------------------------------------------------------
# The shared driver: one stop rule, one failure report for every method
# ---------------------------------------------------------------------------

class OverflowingSet:
    """A one-dimensional 'set' whose projection overflows any non-zero point."""

    dim = 1

    def project(self, p):
        with np.errstate(over="ignore"):
            return np.asarray(p, dtype=np.float64) * 1e308 * 1e308

    def centroid(self):
        return np.zeros(1)


def poisoned_problem(sets, late_grads):
    """Two 1-D blocks starting at 0.  Realization k is the token k; block
    l's batch gradient is 0 for the first two tokens and late_grads[l] from
    the third token on."""
    count = 0

    def sample_batch(rng, size):
        nonlocal count
        batch = np.arange(count + 1, count + size + 1)
        count += size
        return batch

    def batch_grad(batch, x, l):
        return np.array([late_grads[l] if batch[0] >= 3 else 0.0])

    return ProblemInstance(
        blocks=tuple(BlockSpec(1, OverflowingSet() if s == "overflow" else Unconstrained(1))
                     for s in sets),
        sample_batch=sample_batch,
        batch_grad=batch_grad,
    )


def every_method(problem: SvmProblem):
    """Method name -> callable(config) on the given SVM problem."""
    inst = problem.instance()
    return {
        "proposed": lambda c: run(inst, c),
        "pegasos": lambda c: run_pegasos(problem, c),
        "adam": lambda c: run_adam(inst, c),
        "avg-sca": lambda c: run_averaged_sca(inst, c, rho_avg=0.8),
    }


class TestDriver:
    def test_step_norm_below_stops_every_method_at_first_small_step(self):
        ds, _ = make_separable_dataset(60, 6, seed=4)
        schedule = Schedule(0.51, 0.75, 5.0)
        full = RunConfig(schedule=schedule, max_iters=300, eval_every=1, seed=9)
        for name, method in every_method(SvmProblem.with_blocks(ds, 1e-2, 2)).items():
            _, every_step = method(full)
            ratios = [r.step_norm / schedule.alpha(r.k) for r in every_step]
            eps = min(ratios[:150])
            first = next(k for k, ratio in enumerate(ratios, 1) if ratio <= eps)
            x, trace = method(replace(full, eval_every=50, termination=StepNormBelow(eps)))
            assert [r.k for r in trace] == [k for k in range(50, first, 50)] + [first], name
            assert records_without_time(trace[-1:]) == \
                records_without_time(every_step[first - 1:first]), name
            x_first, _ = method(replace(full, max_iters=first, eval_every=first))
            np.testing.assert_array_equal(x, x_first)

    @pytest.mark.parametrize("sets, late_grads, block, what", [
        (("flat", "flat"), (1.0, np.nan), 1, "sample gradient"),
        (("flat", "overflow"), (1.0, 1.0), 1, "iterate"),
        # Block 0's iterate comes before block 1's gradient in the scan.
        (("overflow", "flat"), (1.0, np.nan), 0, "iterate"),
    ])
    def test_numerical_failure_is_reported_alike_by_every_method(
            self, sets, late_grads, block, what):
        config = RunConfig(max_iters=10, eval_every=1, seed=0)
        methods = {
            "proposed": lambda inst: run(inst, config),
            "adam": lambda inst: run_adam(inst, config),
            "avg-sca": lambda inst: run_averaged_sca(inst, config),
        }
        for name, method in methods.items():
            with pytest.raises(NumericalFailureError) as info:
                method(poisoned_problem(sets, late_grads))
            assert (info.value.k, info.value.block) == (3, block), name
            assert str(info.value) == f"non-finite {what} at iteration 3, block {block}", name


SLICES = (slice(0, 2), slice(2, 3), slice(3, 6))


class TestCheckFinite:
    # (gradient entries, iterate entries, (block, what) named, or None):
    # blocks in order, within a block the gradient before the iterate.
    @pytest.mark.parametrize("g_bad, x_bad, named", [
        ({}, {}, None),
        ({1: np.nan}, {}, (0, "sample gradient")),
        ({}, {0: np.inf}, (0, "iterate")),
        ({5: -np.inf}, {1: np.nan}, (0, "iterate")),
        ({2: np.nan}, {2: np.inf}, (1, "sample gradient")),
        ({4: np.inf}, {3: -np.inf}, (2, "sample gradient")),
        ({0: 1e200, 3: np.nan}, {1: -1e200}, (2, "sample gradient")),
        ({0: 1e200}, {5: np.nan, 2: 1e200}, (2, "iterate")),
    ])
    @pytest.mark.parametrize("with_gradient", [True, False])
    def test_names_first_failing_block(self, g_bad, x_bad, named, with_gradient):
        g, x = np.ones(6), np.full(6, -0.5)
        for vector, bad in ((g, g_bad), (x, x_bad)):
            for j, value in bad.items():
                vector[j] = value
        if not with_gradient:
            g = None
            named = next(((l, "iterate") for l, sl in enumerate(SLICES)
                          if not np.isfinite(x[sl]).all()), None)
        if named is None:
            _check_finite(7, SLICES, g, x)
            return
        with pytest.raises(NumericalFailureError) as info:
            _check_finite(7, SLICES, g, x)
        assert (info.value.k, info.value.block) == (7, named[0])
        assert str(info.value) == f"non-finite {named[1]} at iteration 7, block {named[0]}"

    def test_overflowing_sum_of_squares_passes_quietly(self):
        g, x = np.full(6, 1e200), np.full(6, -1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.vdot(g, g) == np.inf  # the fast path fails, the scan passes
            _check_finite(1, SLICES, g, x)
            _check_finite(1, SLICES, None, x)

    # The trace's plain step norm and Adam's squared gradient overflow, and warn.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_run_with_huge_finite_gradient_does_not_raise(self):
        inst = ProblemInstance(
            blocks=(BlockSpec(2, Unconstrained(2)), BlockSpec(1, Unconstrained(1))),
            sample_batch=lambda rng, size: np.zeros(size),
            batch_grad=lambda batch, x, l: np.full(2 - l, 1e200),
        )
        # Every gradient's sum of squares overflows, so every check scans.
        config = RunConfig(max_iters=10, eval_every=5, seed=0)
        for method in (run, run_averaged_sca):
            x, trace = method(inst, config)
            assert np.isfinite(x).all()
            assert [r.k for r in trace] == [5, 10]
        # Adam squares 1e200 into an infinite second moment, which would
        # freeze every coordinate.
        with pytest.raises(NumericalFailureError,
                           match="^non-finite second moment at iteration 1, block 0$"):
            run_adam(inst, config)


def two_coordinate_problem(grad):
    """Blocks of one coordinate each, starting at 0, with the constant
    batch gradient ``grad``."""
    return ProblemInstance(
        blocks=(BlockSpec(1, Unconstrained(1)), BlockSpec(1, Unconstrained(1))),
        sample_batch=lambda rng, size: np.zeros(size),
        batch_grad=lambda batch, x, l: np.array([grad[l]]),
    )


class TestOverflow:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_step_norm_of_huge_finite_step_is_finite(self):
        steps = {}

        def keep(info):
            steps[info.k] = info.x - info.x_prev

        _, trace = run(two_coordinate_problem([1e200, 1.0]),
                       RunConfig(max_iters=10, eval_every=5, seed=0), iteration_callback=keep)
        assert [r.k for r in trace] == [5, 10]
        for r in trace:
            assert math.isfinite(r.step_norm)
            assert r.step_norm == pytest.approx(math.hypot(*steps[r.k]), rel=1e-15)

    def test_finite_step_norm_is_the_plain_norm(self):
        rng = np.random.default_rng(4)
        for scale in (1e-300, 1.0, 1e150):
            x, x_prev = scale * rng.standard_normal(7), scale * rng.standard_normal(7)
            assert core._step_norm(x, x_prev) == float(np.linalg.norm(x - x_prev))
        nan = np.array([np.nan, 1.0])
        assert math.isnan(core._step_norm(nan, np.zeros(2)))
        assert core._step_norm(np.array([np.inf, 1.0]), np.zeros(2)) == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_adam_second_moment_overflow_is_located(self):
        for grad, block in (([1e200, 1.0], 0), ([1.0, -1e200], 1)):
            with pytest.raises(NumericalFailureError) as info:
                run_adam(two_coordinate_problem(grad), RunConfig(max_iters=10, eval_every=5))
            assert (info.value.k, info.value.block) == (1, block)
            assert str(info.value) == f"non-finite second moment at iteration 1, block {block}"

    def test_adam_second_moment_sum_overflow_passes_quietly(self):
        # v holds about 1e197: finite, but its sum of squares overflows, so
        # the check scans the blocks and finds nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, trace = run_adam(two_coordinate_problem([1e100, 1.0]),
                                RunConfig(max_iters=10, eval_every=5))
        assert np.isfinite(x).all()
        assert [r.k for r in trace] == [5, 10]


class TestDrawPrefetch:
    @staticmethod
    def counted(inst):
        """The instance, and the list of sizes its sample_batch is asked for."""
        sizes = []

        def sample_batch(rng, size):
            sizes.append(size)
            return inst.sample_batch(rng, size)

        return replace(inst, sample_batch=sample_batch), sizes

    def test_svm_run_draws_at_most_twice(self):
        ds, _ = make_separable_dataset(1000, 20, seed=3)
        problem = SvmProblem.with_blocks(ds, 1e-2, 4)
        config = RunConfig(schedule=Schedule(0.51, 0.75, 5.0), max_iters=1000, eval_every=20,
                           seed=5)
        inst, sizes = self.counted(problem.instance())
        x, trace = run(inst, config)
        assert len(sizes) <= 2 and sum(sizes) == 1000
        x_ref, trace_ref = run(problem.instance(), config)
        assert x.tobytes() == x_ref.tobytes()
        assert records_without_time(trace) == records_without_time(trace_ref)

    def test_batch_above_budget_draws_every_iteration(self):
        dim = core.DRAW_BYTES // 8 // 2 + 1
        inst, sizes = self.counted(make_quadratic(dim, noise_stddev=1.0).instance())
        run(inst, RunConfig(batch_size=2, max_iters=5, eval_every=5))
        assert sizes == [2] * 5

    def test_draw_sizes_fill_budget_and_stop_at_last_iteration(self):
        # A batch of 4 x 4096 float64 is DRAW_BYTES / 8, so eight batches a call.
        inst, sizes = self.counted(make_quadratic(4096, noise_stddev=1.0).instance())
        run(inst, RunConfig(batch_size=4, max_iters=20, eval_every=10))
        assert sizes == [4, 32, 32, 12]

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_prefetched_stream_equals_one_draw_per_iteration(self, monkeypatch, batch_size):
        ds, _ = make_separable_dataset(200, 8, seed=1)
        problems = (SvmProblem.with_blocks(ds, 1e-2, 2).instance(),
                    make_quadratic(5, noise_stddev=1.0, n_blocks=2).instance())
        config = RunConfig(batch_size=batch_size, max_iters=300, eval_every=50, seed=2)
        for inst in problems:
            for method in (run, run_adam, run_averaged_sca):
                log, log_ref = [], []
                x, trace = method(inst, config, sample_log=log)
                with monkeypatch.context() as patch:
                    patch.setattr(core, "DRAW_BYTES", 0)  # one batch per call
                    x_ref, trace_ref = method(inst, config, sample_log=log_ref)
                assert x.tobytes() == x_ref.tobytes()
                assert records_without_time(trace) == records_without_time(trace_ref)
                assert len(log) == 100
                assert all(a.tobytes() == b.tobytes() for a, b in zip(log, log_ref))
                assert not any(np.shares_memory(a, b) for a, b in zip(log, log[1:]))

    def test_short_draw_is_rejected(self):
        inst = ProblemInstance(
            blocks=(BlockSpec(1, Unconstrained(1)),),
            sample_batch=lambda rng, size: np.zeros(size - 1),
            batch_grad=lambda batch, x, l: np.zeros(1),
        )
        with pytest.raises(ValueError, match=r"^sample_batch\(rng, 2\) returned 1 realizations$"):
            run(inst, RunConfig(batch_size=2, max_iters=3, eval_every=1))


class TestRunConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RunConfig(batch_size=0)
        with pytest.raises(ValueError):
            RunConfig(max_iters=-1)
        with pytest.raises(ValueError):
            RunConfig(eval_every=0)
        with pytest.raises(ValueError):
            RunConfig(max_iters=10, eval_every=11)
        with pytest.raises(ValueError):
            RunConfig(n_workers=0)
        with pytest.raises(ValueError):
            StepNormBelow(0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_step_norm_rule_needs_finite_eps(self, eps):
        # eps=inf would stop every run after its first iteration.
        with pytest.raises(ValueError, match=r"^termination"):
            StepNormBelow(eps)

    def test_rejects_negative_seed(self):
        # Caught when the config is built, not by numpy inside the run.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RunConfig(seed=-1)
        RunConfig(seed=0)

    def test_zero_iters_with_any_cadence(self):
        RunConfig(max_iters=0, eval_every=100)


class TestBlockSpec:
    def test_dim_must_match_set(self):
        with pytest.raises(ValueError):
            BlockSpec(3, Unconstrained(2))
        with pytest.raises(ValueError):
            BlockSpec(0, Unconstrained(1))

    def test_problem_needs_blocks(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                blocks=(),
                sample_batch=lambda rng, size: np.zeros(size),
                batch_grad=lambda batch, x, l: np.zeros(1),
            )
