"""Core engine: tracker recursion, projections, surrogate step, run loop."""

import numpy as np
import pytest

import math
import os
import subprocess
import sys
import threading
import time
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
    SvmDataset,
    SvmProblem,
    Unconstrained,
    explicit_weights,
    make_quadratic,
    make_separable_dataset,
    minimize_surrogate,
    run,
    run_adam,
    run_averaged_sca,
    run_pegasos,
    stationarity_residual,
)
from blockstoch import core
from blockstoch.core import _check_finite
from blockstoch.io import write_libsvm

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

    @pytest.mark.parametrize("omega", [0.0, -0.5, 1.5, np.nan, np.inf])
    def test_later_weights_must_lie_in_unit_interval(self, omega):
        with pytest.raises(ValueError, match=r"^all mixing weights must lie in \(0, 1\]$"):
            explicit_weights([1.0, omega, 0.5])

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
        np.testing.assert_array_equal(box.project([0.5, 0.5]), [0.5, 0.5])

    def test_box_clamps(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(box.project([3.0, -2.0]), [1.0, -1.0])

    def test_box_nan_and_signed_zeros(self):
        # Pins today's np.clip results, which np.minimum(np.maximum(p, lo), hi)
        # must reproduce before it may replace np.clip.
        box = Box([0.0, -1.0, -np.inf, 0.0], [1.0, 0.0, np.inf, 0.0])
        assert np.isnan(box.project(np.full(4, np.nan))).all()
        for point, signs in (([-0.0, 0.0, -0.0, -0.0], [False, False, True, False]),
                             ([0.0, -0.0, 0.0, 0.0], [False] * 4)):
            got = box.project(np.array(point))
            np.testing.assert_array_equal(got, np.zeros(4))
            np.testing.assert_array_equal(np.signbit(got), signs)

    def test_ball_radial_scaling(self):
        ball = L2Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(ball.project([3.0, 4.0]), [0.6, 0.8])

    @pytest.mark.parametrize("point, expected, radius", [
        ([1e200, 0.0], [1.0, 0.0], 1.0),
        ([0.0, np.inf], [0.0, 1.0], 1.0),
        ([-np.inf, np.inf], [-math.sqrt(0.5), math.sqrt(0.5)], 1.0),
        ([-1e300, 1e300], [-math.sqrt(0.5), math.sqrt(0.5)], 1.0),
        ([1.5e308, -1.5e308], [math.sqrt(0.5), -math.sqrt(0.5)], 1.0),
        ([np.nan, 0.0], [np.nan, np.nan], 1.0),
        ([np.nan, np.inf], [np.nan, np.nan], 1.0),
        ([1e150, 0.0], [1.0, 0.0], 1e-200),
        ([3e250, -4e250], [0.6, -0.8], 1e-100),
    ], ids=["overflowing-norm", "infinite-entry", "two-infinite-entries",
            "two-overflowing-entries", "norm-past-largest-float", "nan", "nan-and-inf",
            "tiny-radius", "tiny-radius-overflowing-norm"])
    def test_ball_projects_far_points_along_their_direction(self, point, expected, radius):
        # The plain radial scaling sent [1e200, 0] to the centre (radius / inf
        # is 0), an infinite entry to NaN with a RuntimeWarning, and a point
        # 1e350 radii out to the centre (radius / dist underflows to 0).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = L2Ball([0.0, 0.0], radius).project(point)
        np.testing.assert_allclose(got, radius * np.array(expected), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("point", [[3.0, 4.0, 12.0], [1e200, 0.0, 0.0], [0.0, np.inf, 0.0]],
                             ids=["outside", "overflowing-norm", "infinite-entry"])
    def test_ball_projection_of_an_outside_point_is_pure(self, point):
        # The scaling tail works in the offset it made: p and the centre keep
        # their bytes, and the result shares memory with neither.
        ball = L2Ball([0.5, -0.25, 1.0], 1.0)
        p = np.array(point)
        before = (p.tobytes(), ball.center.tobytes())
        got = ball.project(p)
        assert (p.tobytes(), ball.center.tobytes()) == before
        assert not np.shares_memory(got, p) and not np.shares_memory(got, ball.center)
        assert np.linalg.norm(got - ball.center) == pytest.approx(1.0)

    def test_box_centroid_is_the_three_where_form(self):
        # Finite pairs, one-sided and two-sided infinite bounds, pairs whose
        # sum overflows, and signed zeros, byte for byte against the
        # three-np.where reference form wherever its midpoint is finite.  An
        # overflowing pair takes the midpoint of its halves, inside the box,
        # and no entry raises a floating-point warning.
        lo = np.array([-1.0, 2.0, -np.inf, -np.inf, 1e308, -1.5e308, -1e308, -0.0, -0.0, 0.0, 3.0])
        hi = np.array([3.0, np.inf, -4.0, np.inf, 1.5e308, -1e308, 1e308, 0.0, -0.0, 0.0, 3.0])
        box = Box(lo, hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = box.centroid()
        with np.errstate(over="ignore", invalid="ignore"):
            mid = (lo + hi) / 2.0
            mid = np.where(np.isfinite(mid), mid, lo / 2.0 + hi / 2.0)
        ref = np.where(np.isfinite(lo) & np.isfinite(hi), mid, 0.0)
        ref = np.where(np.isfinite(lo) & ~np.isfinite(hi), lo, ref)
        ref = np.where(~np.isfinite(lo) & np.isfinite(hi), hi, ref)
        assert got.tobytes() == ref.tobytes()
        assert got[4] == 1.25e308 and got[5] == -1.25e308 and got[3] == 0.0
        assert np.all((lo <= got) & (got <= hi))
        assert not np.signbit(got[7]) and np.signbit(got[8])

    def test_unconstrained_identity(self):
        free = Unconstrained(3)
        p = np.array([5.0, -2.0, 0.0])
        np.testing.assert_array_equal(free.project(p), p)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        exact_sets = [
            Box(rng.uniform(-2, 0, 4), rng.uniform(0, 2, 4)),
            Unconstrained(4),
        ]
        for s in exact_sets:
            for _ in range(25):
                p = 3.0 * rng.standard_normal(4)
                once = s.project(p)
                np.testing.assert_array_equal(s.project(once), once)
        # The radial rescale can drift a boundary point by one ulp.
        ball = L2Ball(rng.standard_normal(4), 1.5)
        for _ in range(25):
            p = 3.0 * rng.standard_normal(4)
            once = ball.project(p)
            np.testing.assert_allclose(ball.project(once), once, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("read_only", [False, True])
    def test_joint_projection_is_pure(self, read_only):
        # ProblemInstance.project copies x, then projects the copy in place:
        # x keeps its bytes (a read-only x too) and the result is fresh, also
        # where no block is constrained and the pass changes nothing.
        ball = L2Ball(np.zeros(2), 1.0)
        mixed = make_quadratic(6, n_blocks=3, feasible_sets=[
            Unconstrained(2), Box(-np.ones(2), np.ones(2)), ball]).instance()
        free = make_quadratic(6, n_blocks=3).instance()
        x = np.array([5.0, -5.0, 5.0, -5.0, 3.0, 4.0])
        x.flags.writeable = not read_only
        before = x.tobytes()
        for inst, expected in ((mixed, np.concatenate([x[:2], [1.0, -1.0], ball.project(x[4:])])),
                               (free, x)):
            out = inst.project(x)
            assert x.tobytes() == before
            assert out.flags.writeable and not np.shares_memory(out, x)
            assert out.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box([0.0], [1.0]).project([0.5, 0.5])
        with pytest.raises(ValueError):
            L2Ball([0.0, 0.0], 1.0).project([0.5])

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])
        with pytest.raises(ValueError):
            L2Ball([0.0], -1.0)
        # A coordinate bounded by +inf below or -inf above holds no finite
        # point; its centroid would lie outside the box.
        for lower, upper, i in (([np.inf], [np.inf], 0), ([-np.inf], [-np.inf], 0),
                                ([0.0, np.inf], [1.0, np.inf], 1)):
            with pytest.raises(ValueError, match=f"^box coordinate {i} holds no finite point$"):
                Box(lower, upper)

    def test_box_with_infinite_bounds(self):
        half = Box([1.0, 1.0], [np.inf, np.inf])
        np.testing.assert_array_equal(half.project([0.0, 5.0]), [1.0, 5.0])
        whole = Box([-np.inf], [np.inf])
        np.testing.assert_array_equal(whole.project([5.0]), [5.0])

    def test_box_rejects_nan_bounds(self):
        with pytest.raises(ValueError, match="NaN"):
            Box([np.nan], [1.0])
        with pytest.raises(ValueError, match="NaN"):
            Box([0.0, 0.0], [1.0, np.nan])

    def test_ball_rejects_non_finite_center(self):
        for center in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="center"):
                L2Ball(center, 1.0)

    def test_bound_and_center_faults_are_located(self):
        with pytest.raises(ValueError, match="^lower entry 1 is NaN$"):
            Box([0.0, np.nan], [1.0, 1.0])
        with pytest.raises(ValueError, match="^upper entry 1 is NaN$"):
            Box([0.0, 0.0], [1.0, np.nan])
        with pytest.raises(ValueError, match=r"^center entry 1 is not finite \(inf\)$"):
            L2Ball([0.0, np.inf], 1.0)

    def test_crossed_bounds_are_located(self):
        with pytest.raises(ValueError) as info:
            Box([0, 2], [1, 1])
        assert str(info.value) == "lower entry 1 (2.0) exceeds upper entry 1 (1.0)"


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
        for alpha in (np.inf, np.nan):
            with pytest.raises(ValueError, match=r"^alpha_k must be positive and finite"):
                minimize_surrogate([0.0, 1.0], [1.0, 0.0], alpha, Unconstrained(2))

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
            want = fs.project(x - alpha * h)
            np.testing.assert_array_equal(got, want)

    def test_step_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            lo = rng.uniform(-2, 0, 3)
            fs = Box(lo, lo + rng.uniform(0.5, 2, 3))
            x = fs.project(rng.standard_normal(3))
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
            x = fs.project(rng.standard_normal(2))
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
    x_hat = feasible_set.project(x_prev - h / (2.0 * TAU))
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

        run(replace(quad.instance(), x0=np.array([0.5])),
            RunConfig(schedule=self.SCHEDULE, max_iters=1, eval_every=1), iteration_callback=check)
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
        with pytest.raises(ValueError):
            stationarity_residual(inst, np.zeros(1), 1e-3)

    @pytest.mark.parametrize("alpha_probe", [0.0, -1.0, np.inf, np.nan])
    def test_alpha_probe_must_be_positive_and_finite(self, alpha_probe):
        inst = make_quadratic(2, noise_stddev=0.0, target=[0.0, 0.0]).instance()
        with pytest.raises(ValueError, match=r"^alpha_probe=.* must be positive and finite$"):
            stationarity_residual(inst, np.array([1.0, 0.0]), alpha_probe)


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
        x, trace = run(replace(problem.instance(), x0=np.array([5.0])), config)
        assert abs(x[0]) <= 0.1
        assert [r.k for r in trace] == list(range(1000, 10_001, 1000))

    def test_zero_iterations(self):
        problem = scalar_tracking_problem()
        x, trace = run(replace(problem.instance(), x0=np.array([2.0])), RunConfig(max_iters=0))
        np.testing.assert_array_equal(x, [2.0])
        assert trace == []

    def test_infeasible_start_projected(self):
        problem = scalar_tracking_problem()
        x, trace = run(replace(problem.instance(), x0=np.array([42.0])), RunConfig(max_iters=0))
        np.testing.assert_array_equal(x, [10.0])

    def test_every_method_starts_from_the_instances_projected_x0(self):
        # One start for every method: replace(inst, x0=p) sets it, and no
        # iteration moves it.  Pegasos takes the instance through inst=.
        p = np.array([3.0, -0.5, 3.0, 4.0])
        sets = [Box(-np.ones(2), np.ones(2)), L2Ball(np.zeros(2), 1.0)]
        quad = replace(make_quadratic(4, n_blocks=2, feasible_sets=sets).instance(), x0=p)
        problem = SvmProblem.with_blocks(make_separable_dataset(10, 4, seed=1)[0], 0.1, 2)
        svm = replace(problem.instance(), x0=p)
        np.testing.assert_allclose(quad.project(p), [1.0, -0.5, 0.6, 0.8], rtol=1e-15)
        config = RunConfig(max_iters=0)
        starts = {
            "proposed": (quad, run(quad, config)[0]),
            "adam": (quad, run_adam(quad, config)[0]),
            "avg-sca": (quad, run_averaged_sca(quad, config)[0]),
            "pegasos": (svm, run_pegasos(problem, config, inst=svm)[0]),
        }
        for name, (inst, x) in starts.items():
            np.testing.assert_array_equal(x, inst.project(p), err_msg=name)

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
        # ProblemInstance.project and run_adam's steps, through the one
        # projection pass, leave Unconstrained blocks as they are and project
        # every other set, a proxy included; the only Unconstrained.project
        # calls are the proxy's.
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
                assert np.linalg.norm(x_l - spec.feasible_set.project(x_l)) <= 1e-9
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
        config = RunConfig(max_iters=100_000, eval_every=1000, seed=0, term_eps=1e-6)
        x, trace = run(replace(quad.instance(), x0=np.array([2.0, 2.0])), config)
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
            x, trace = method(replace(full, eval_every=50, term_eps=eps))
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
            assert core._dot(x, g) == -np.inf  # the fast path fails, the scan passes
            _check_finite(1, SLICES, g, x)
            _check_finite(1, SLICES, None, x)

    @pytest.mark.parametrize("n", [core.ROW_BLAS_MAX, core.ROW_BLAS_MAX + 1])
    def test_both_reductions_are_quiet_and_name_the_same_block(self, n):
        # np.vdot decides up to ROW_BLAS_MAX entries, _dot beyond: neither
        # warns, and either way the scan names the block.
        slices = (slice(0, 2), slice(2, n // 2), slice(n // 2, n))
        big = np.full(n, 1e200)
        cases = [  # (gradient, iterate, second moment entries, (block, what) named)
            ({n - 1: np.nan}, {}, None, (2, "sample gradient")),
            ({}, {n // 2 - 1: np.inf}, None, (1, "iterate")),
            ({3: 0.0}, {3: -np.inf}, None, (1, "iterate")),  # inf * 0 is NaN
            ({n // 2: -np.inf}, {n - 1: np.nan}, None, (2, "sample gradient")),
            ({0: 1e200}, {1: np.nan}, None, (0, "iterate")),
            ({}, {}, {n - 1: np.inf}, (2, "second moment")),
            ({}, {}, {2: np.nan}, (1, "second moment")),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core._dot(big, -big) == -np.inf
            _check_finite(1, slices, big, -big)
            _check_finite(1, slices, None, big)
            _check_finite(1, slices, np.ones(n), big, big)
            for g_bad, x_bad, v_bad, named in cases:
                g, x, v = np.ones(n), np.full(n, -0.5), None if v_bad is None else np.ones(n)
                for vector, bad in ((g, g_bad), (x, x_bad), (v, v_bad or {})):
                    for j, value in bad.items():
                        vector[j] = value
                with pytest.raises(NumericalFailureError) as info:
                    _check_finite(7, slices, g, x, v)
                assert (info.value.k, info.value.block) == (7, named[0])
                assert str(info.value) == f"non-finite {named[1]} at iteration 7, block {named[0]}"

    # Adam's squared gradient overflows, and warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_run_with_huge_finite_gradient_does_not_raise(self):
        inst = ProblemInstance(
            blocks=(BlockSpec(2, Unconstrained(2)), BlockSpec(1, Unconstrained(1))),
            sample_batch=lambda rng, size: np.zeros(size),
            batch_grad=lambda batch, x, l: np.full(2 - l, 1e200),
        )
        # The checked x is the post-step iterate, about -1e200 times the step
        # size, so x . g overflows to -inf at every iteration and every check
        # scans the blocks, finding nothing.
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
            d = x - x_prev
            # The plain norm is the square root of the engine's one-thread sum.
            assert core._norm(x - x_prev) == math.sqrt(core._dot(d, d))
            assert core._norm(x - x_prev) == pytest.approx(float(np.linalg.norm(d)), rel=1e-15)
        assert math.isnan(core._norm(np.array([np.nan, 1.0])))
        assert core._norm(np.array([np.inf, 1.0])) == math.inf

    def test_tracker_error_and_residual_of_huge_finite_gradient_are_finite(self):
        # Every reported norm follows step_norm's rule: h - grad F and the
        # projected-gradient gap overflow the plain sum of squares here.
        inst = ProblemInstance(
            blocks=(BlockSpec(2, Unconstrained(2)),),
            sample_batch=lambda rng, size: np.zeros(size),
            batch_grad=lambda batch, x, l: np.zeros(2),
            true_gradient=lambda x: np.array([1e200, 1e200]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = run(inst, RunConfig(max_iters=1, eval_every=1))
            residual = stationarity_residual(inst, np.zeros(2), 1e-3)
        assert trace[0].tracker_error == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert residual == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_adam_second_moment_overflow_is_located(self):
        for grad, block in (([1e200, 1.0], 0), ([1.0, -1e200], 1)):
            with pytest.raises(NumericalFailureError) as info:
                run_adam(two_coordinate_problem(grad), RunConfig(max_iters=10, eval_every=5))
            assert (info.value.k, info.value.block) == (1, block)
            assert str(info.value) == f"non-finite second moment at iteration 1, block {block}"

    def test_adam_second_moment_sum_overflow_passes_quietly(self):
        # v holds about 1e197: finite, and the one check reduction w . v
        # stays finite and quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, trace = run_adam(two_coordinate_problem([1e100, 1.0]),
                                RunConfig(max_iters=10, eval_every=5))
        assert np.isfinite(x).all()
        assert [r.k for r in trace] == [5, 10]

    def test_adam_state_product_overflow_scans_and_passes_quietly(self):
        # Finite w and v whose product overflows: the one reduction fails,
        # and the block scan runs and finds nothing, without a warning.
        w, v, g = np.full(6, 1e200), np.full(6, 1e200), np.ones(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core._dot(w, v) == np.inf
            _check_finite(1, SLICES, g, w, v)

    @pytest.mark.parametrize("grad, block", [([1.0, np.nan], 1), ([np.inf, 1.0], 0)])
    def test_adam_non_finite_gradient_is_located(self, grad, block):
        # The gradient makes v non-finite, so w . v fails and the scan names it.
        with pytest.raises(NumericalFailureError) as info:
            with np.errstate(invalid="ignore"):
                run_adam(two_coordinate_problem(grad), RunConfig(max_iters=10, eval_every=5))
        assert str(info.value) == f"non-finite sample gradient at iteration 1, block {block}"


def _numpy_blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25, or no BLAS entry
        return ""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.skipif("openblas" not in _numpy_blas_name().lower(),
                    reason="OPENBLAS_NUM_THREADS acts only on an OpenBLAS numpy")
class TestBlasThreadCount:
    """No run's bits depend on the BLAS thread count.  The products in
    ``src/`` and how each is summed:

    - ``core._dot`` (numpy's own one-thread loop) for every problem-sized
      vector: objectives, norms, tracker and step sizes;
    - ``np.vdot`` in ``core._check_finite`` up to ``core.ROW_BLAS_MAX``
      entries, ``_dot`` beyond: only whether the sum is finite is read,
      which no summation order changes;
    - ``core._row_dot`` for the SVM oracle's row margin, Pegasos's margin and
      the planted separator's norm: BLAS ddot up to ``core.ROW_BLAS_MAX``
      entries, where OpenBLAS keeps it on one thread, ``_dot`` beyond;
    - scipy's sequential CSR products for full-data evaluation;
    - the one exception: ``features @ w_star`` (dgemv) in
      ``make_separable_dataset``, so only the separator of a wide generated
      dataset is compared here, not its rows.

    The child runs a quadratic and an SVM with rows longer than
    ``ROW_BLAS_MAX``, the SVM under all four methods and ``blockstoch
    compare``; both are wider than the 10^4 entries where OpenBLAS splits a
    dot product over its threads."""

    CHILD = r'''
import contextlib, hashlib, io, sys
from pathlib import Path
import numpy as np
from blockstoch import (Box, L2Ball, RunConfig, SvmProblem, make_quadratic,
                        make_separable_dataset, run, run_adam, run_averaged_sca, run_pegasos)
from blockstoch.cli import METHODS, main
from blockstoch.io import load_libsvm
data, outdir = sys.argv[1:]

def show(x, trace):
    rows = [(r.k, r.objective, r.step_norm, r.tracker_error) for r in trace]
    print(x.tobytes().hex(), repr(rows))

half = 15000  # d = 30000, above the 10^4 entries where OpenBLAS splits a dot
inst = make_quadratic(2 * half, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, 2 * half),
                      n_blocks=2, feasible_sets=[Box(-np.ones(half), np.ones(half)),
                                                 L2Ball(np.full(half, 0.01), 30.0)]).instance()
config = RunConfig(max_iters=20, eval_every=5, seed=3)  # avg-sca needs rho_avg > alpha's 0.9
for x, trace in (run(inst, config), run_adam(inst, config), run_averaged_sca(inst, config, 1.0)):
    show(x, trace)
svm = SvmProblem.with_blocks(load_libsvm(data), 1e-2, 3)
inst = svm.instance()
config = RunConfig(batch_size=2, max_iters=40, eval_every=20, seed=3)
for x, trace in (run(inst, config), run_pegasos(svm, config), run_adam(inst, config),
                 run_averaged_sca(inst, config, 1.0)):
    show(x, trace)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["compare", "--data", data, "--blocks", "3", "--batch", "2", "--iters", "40",
                 "--eval-every", "20", "--seed", "3", "--outdir", outdir])
assert code == 0
for method in METHODS:
    print(repr(Path(outdir, f"{method}.trace.csv").read_text()))
print(hashlib.sha256(make_separable_dataset(50, 30000, seed=2)[1].tobytes()).hexdigest())
'''

    def test_runs_are_bitwise_equal_under_one_and_two_blas_threads(self, tmp_path):
        # Rows of 10 500 stored entries, drawn and written without a BLAS call.
        m, n = 10, core.ROW_BLAS_MAX + 500
        rng = np.random.default_rng(5)
        data = tmp_path / "long-rows.libsvm"
        write_libsvm(SvmDataset(np.arange(0, m * n + 1, n), np.tile(np.arange(n), m),
                                rng.standard_normal(m * n), np.where(rng.random(m) < 0.5, -1, 1),
                                n), data)
        src = os.path.dirname(os.path.dirname(core.__file__))
        outputs = [subprocess.run([sys.executable, "-c", self.CHILD, str(data),
                                   str(tmp_path / f"compare-{threads}")],
                                  capture_output=True, text=True, check=True,
                                  env={**os.environ, "PYTHONPATH": src,
                                       "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        assert len(outputs[0].splitlines()) == 12
        assert outputs[0] == outputs[1]


def wide_quadratic():
    """A Box/L2Ball quadratic whose one batch of 1 holds more than DRAW_BYTES."""
    dim = core.DRAW_BYTES // 8 + 1
    half = dim // 2
    return make_quadratic(dim, noise_stddev=1.0, target=np.linspace(-2.0, 2.0, dim),
                          n_blocks=2, feasible_sets=[Box(-np.ones(half), np.ones(half)),
                                                     L2Ball(np.zeros(dim - half), 50.0)])


class TestDrawPrefetch:
    @staticmethod
    def counted(inst):
        """The instance, the list of sizes its sample_batch is asked for, and
        per call whether it ran on the main thread.  A call made while
        another is running fails."""
        sizes, on_main, busy = [], [], threading.Lock()

        def sample_batch(rng, size):
            assert busy.acquire(blocking=False), "two sample_batch calls at once"
            try:
                sizes.append(size)
                on_main.append(threading.current_thread() is threading.main_thread())
                return inst.sample_batch(rng, size)
            finally:
                busy.release()

        return replace(inst, sample_batch=sample_batch), sizes, on_main

    def test_svm_run_draws_at_most_twice(self, monkeypatch):
        ds, _ = make_separable_dataset(1000, 20, seed=3)
        problem = SvmProblem.with_blocks(ds, 1e-2, 4)
        config = RunConfig(schedule=Schedule(0.51, 0.75, 5.0), max_iters=1000, eval_every=20,
                           seed=5)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        inst, sizes, on_main = self.counted(problem.instance())
        x, trace = run(inst, config)
        assert len(sizes) <= 2 and sum(sizes) == 1000
        assert all(on_main)  # a batch far below DRAW_BYTES starts no worker
        x_ref, trace_ref = run(problem.instance(), config)
        assert x.tobytes() == x_ref.tobytes()
        assert records_without_time(trace) == records_without_time(trace_ref)

    def test_batch_above_budget_draws_every_iteration(self, monkeypatch):
        dim = core.DRAW_BYTES // 8 // 2 + 1
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        inst, sizes, on_main = self.counted(make_quadratic(dim, noise_stddev=1.0).instance())
        run(inst, RunConfig(batch_size=2, max_iters=5, eval_every=5))
        assert sizes == [2] * 5
        assert all(on_main)  # 5 < PREFETCH_MIN_ITERS: too short a run for the worker

    # term_eps 135 stops proposed at k = 4, adam at 1 and avg-sca at 2, each
    # with the next draw in flight.
    @pytest.mark.parametrize("term_eps", [None, 135.0])
    @pytest.mark.parametrize("method", [run, run_adam, run_averaged_sca])
    def test_worker_draws_keep_every_result(self, monkeypatch, method, term_eps):
        config = RunConfig(max_iters=core.PREFETCH_MIN_ITERS, eval_every=2, seed=4,
                           term_eps=term_eps)
        inst = wide_quadratic().instance()
        results = []
        for cpus in (1, 2):  # one usable CPU starts no worker
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            counted, sizes, on_main = self.counted(inst)
            log = []
            before, interval = threading.active_count(), sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
            try:
                x, trace = method(counted, config, sample_log=log)
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == before
            iters = trace[-1].k
            assert (iters < config.max_iters) == (term_eps is not None)
            assert len(log) == iters and sizes == [1] * len(sizes)
            if cpus == 1:
                assert on_main == [True] * iters
            else:  # every draw after the first on the worker; a stop leaves one unused
                assert on_main == [True] + [False] * (iters - (term_eps is None))
            results.append((x.tobytes(), records_without_time(trace),
                            [batch.tobytes() for batch in log]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_thread_outlives_a_run(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        config = RunConfig(max_iters=core.PREFETCH_MIN_ITERS,
                           eval_every=core.PREFETCH_MIN_ITERS)
        inst = wide_quadratic().instance()
        before = threading.active_count()  # clean runs: test_worker_draws_keep_every_result
        calls, ks = [], []

        def failing_draw(rng, size):
            calls.append(size)
            if len(calls) == 3:
                raise RuntimeError("third draw failed")
            return inst.sample_batch(rng, size)

        with pytest.raises(RuntimeError, match="^third draw failed$"):
            run(replace(inst, sample_batch=failing_draw), config,
                iteration_callback=lambda info: ks.append(info.k))
        assert ks == [1, 2] and len(calls) == 3
        assert threading.active_count() == before

        finished, grads = [], []

        def slow_draw(rng, size):  # the draw for k = 3 is still running when step 2 fails
            z = inst.sample_batch(rng, size)
            if len(finished) == 2:
                time.sleep(0.05)
            finished.append(size)
            return z

        def nan_at_k2(batch, x, l):  # two blocks: call 3 is block 0 of iteration 2
            grads.append(l)
            g = inst.batch_grad(batch, x, l)
            return np.full_like(g, np.nan) if len(grads) >= 3 else g

        failing = replace(inst, sample_batch=slow_draw, batch_grad=nan_at_k2)
        with pytest.raises(NumericalFailureError, match="at iteration 2, block 0"):
            run(failing, config)
        assert len(finished) == (3 if cpus > 1 else 2)
        assert threading.active_count() == before

    def test_draw_sizes_fill_budget_and_stop_at_last_iteration(self):
        # A batch of 4 x 4096 float64 is DRAW_BYTES / 8, so eight batches a call.
        inst, sizes, _ = self.counted(make_quadratic(4096, noise_stddev=1.0).instance())
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
            RunConfig(term_eps=0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_step_norm_rule_needs_finite_eps(self, eps):
        # eps=inf would stop every run after its first iteration.
        with pytest.raises(ValueError, match=r"^term_eps"):
            RunConfig(term_eps=eps)

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


def test_public_names():
    # One spelling per public operation: adding or removing an export is a
    # one-line diff here.
    import blockstoch
    assert set(blockstoch.__all__) == {
        "AdamParams",
        "BlockSpec",
        "Box",
        "FeasibleSet",
        "IterationInfo",
        "L2Ball",
        "NumericalFailureError",
        "ProblemInstance",
        "QuadraticProblem",
        "RunConfig",
        "Schedule",
        "SvmDataset",
        "SvmProblem",
        "TraceRecord",
        "Unconstrained",
        "adam_step",
        "averaging_weight",
        "check_rho_avg",
        "drive",
        "even_partition",
        "explicit_weights",
        "make_nonconvex_toy",
        "make_quadratic",
        "make_separable_dataset",
        "minimize_surrogate",
        "pegasos_step",
        "run",
        "run_adam",
        "run_averaged_sca",
        "run_pegasos",
        "stationarity_residual",
        "svm_accuracy",
        "svm_objective",
        "svm_true_gradient",
    }
