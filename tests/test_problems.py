"""Problem oracles: SVM pieces, synthetic quadratic, nonconvex toy."""

import numpy as np
import pytest

from blockstoch import (
    Box,
    L2Ball,
    SparseExample,
    SvmDataset,
    SvmProblem,
    Unconstrained,
    even_partition,
    make_nonconvex_toy,
    make_quadratic,
    make_separable_dataset,
    stationarity_residual,
    svm_accuracy,
    svm_objective,
    svm_sample_grad,
    svm_true_gradient,
)

import oracles


def dense_example(values, label):
    values = np.asarray(values, dtype=np.float64)
    keep = values != 0.0
    return SparseExample(np.flatnonzero(keep), values[keep], label)


def dense_dataset(rows, labels, name=""):
    """SvmDataset holding the non-zero entries of the dense rows."""
    rows = np.asarray(rows, dtype=np.float64)
    stored = rows != 0.0
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    return SvmDataset(indptr, np.nonzero(stored)[1], rows[stored], labels, rows.shape[1], name)


def random_dataset(rng, m=40, n=12, density=0.6, empty_rows=()):
    """Random rows, none empty except those listed in ``empty_rows``."""
    rows, labels = [], []
    for i in range(m):
        row = rng.standard_normal(n) * (rng.random(n) < density)
        if i in empty_rows:
            row[:] = 0.0
        elif not np.any(row):
            row[int(rng.integers(0, n))] = 1.0
        rows.append(row)
        labels.append(int(rng.choice([-1, 1])))
    return dense_dataset(rows, labels, "random")


# ---------------------------------------------------------------------------
# Sparse data containers
# ---------------------------------------------------------------------------

class TestContainers:
    @pytest.mark.parametrize("indptr, indices, values, labels, row, rule", [
        ([0, 1, 3], [0, 2, 1], [1.0, 1.0, 1.0], [1, 1], 1, "strictly increasing"),
        ([0, 1, 3], [0, 1, 1], [1.0, 1.0, 1.0], [1, 1], 1, "strictly increasing"),
        ([0, 1, 2], [0, 1], [1.0, 0.0], [1, 1], 1, "stored zero"),
        ([0, 1, 2], [0, 1], [1.0, 1.0], [1, 2], 1, r"label is not -1 or \+1 \(2.0\)"),
        ([0, 1, 2], [0, -1], [1.0, 1.0], [1, 1], 1, r"feature index outside \[0, 3\)"),
        ([0, 1, 1, 2], [0, 3], [1.0, 1.0], [1, 1, -1], 2, r"feature index outside \[0, 3\)"),
        ([0, 1, 2], [0, 1], [1.0, np.nan], [1, 1], 1, "value is not finite"),
        ([0, 1, 3], [0, 1, 2], [1.0, 2.0, -np.inf], [1, 1], 1, "value is not finite"),
        ([0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0], [1, 1, 1], 1, "indptr does not delimit"),
        ([0, 1, 4], [0, 1, 2], [1.0, 1.0, 1.0], [1, 1], 1, "indptr does not delimit"),
        ([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], [1, 1], 1, "indptr does not delimit"),
        ([1, 1, 2], [0, 1], [1.0, 1.0], [1, 1], 0, "indptr does not delimit"),
    ], ids=["unsorted", "repeated", "stored-zero", "label-2", "negative-index",
            "index-past-features", "nan", "inf", "indptr-falls", "indptr-past-end",
            "indptr-short-of-end", "indptr-not-from-zero"])
    def test_construction_rules_name_the_row(self, indptr, indices, values, labels,
                                             row, rule):
        with pytest.raises(ValueError, match=rf"^row {row}: .*{rule}"):
            SvmDataset(indptr, indices, values, labels, 3)

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="at least one example"):
            SvmDataset([0], [], [], [], 2)
        with pytest.raises(ValueError, match="num_features"):
            SvmDataset([0, 1], [0], [1.0], [1], 0)
        with pytest.raises(ValueError, match="indptr entries"):
            SvmDataset([0, 1], [0], [1.0], [1, 1], 2)

    def test_rows_restart_their_index_order(self):
        ds = SvmDataset([0, 2, 2, 3], [0, 3, 1], [1.0, -2.0, 0.5], [1, -1, 1], 4)
        assert ds.example(1).indices.size == 0
        ex = ds.example(2)
        np.testing.assert_array_equal(ex.indices, [1])
        assert ex.label == 1.0 and ex.values[0] == 0.5

    def test_matrix_and_sparsity(self):
        ds = dense_dataset([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]], [1, -1])
        assert ds.m == 2 and ds.nnz == 3
        assert ds.sparsity_percent() == pytest.approx(50.0)
        np.testing.assert_array_equal(ds.matrix.toarray(),
                                      [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_matrix_shares_the_arrays(self):
        ds = random_dataset(np.random.default_rng(3))
        for name, attr in (("data", "values"), ("indices", "indices"), ("indptr", "indptr")):
            assert getattr(ds.matrix, name) is getattr(ds, attr)

    def test_even_partition(self):
        assert even_partition(10, 3) == ((0, 3), (3, 6), (6, 10))
        assert even_partition(4, 1) == ((0, 4),)
        assert even_partition(4, 4) == ((0, 1), (1, 2), (2, 3), (3, 4))
        with pytest.raises(ValueError):
            even_partition(3, 4)
        sizes = [b - a for a, b in even_partition(47236, 8)]
        assert sum(sizes) == 47236 and max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# SVM operations
# ---------------------------------------------------------------------------

class TestSvmGradient:
    def test_zero_weights_hit_margin(self):
        ex = dense_example([0.5, 0.0, 1.0], -1)
        g = svm_sample_grad(np.zeros(3), ex, 0.3)
        np.testing.assert_array_equal(g, [0.5, 0.0, 1.0])

    def test_satisfied_margin_gives_pure_regularizer(self):
        w = np.array([2.0, 0.0])
        ex = dense_example([1.0, 0.0], 1)  # y <x, w> = 2
        np.testing.assert_allclose(svm_sample_grad(w, ex, 0.1), 0.1 * w)

    def test_violating_example(self):
        w = np.array([1.0, 0.0])
        ex = dense_example([1.0, 1.0], -1)
        np.testing.assert_array_equal(svm_sample_grad(w, ex, 1.0), [2.0, 1.0])

    def test_boundary_takes_active_side(self):
        w = np.array([1.0, 0.0])
        ex = dense_example([1.0, 0.0], 1)  # y <x, w> = 1 exactly
        np.testing.assert_array_equal(svm_sample_grad(w, ex, 0.5), [0.5 - 1.0, 0.0])

    def test_dimension_check(self):
        ex = dense_example([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError):
            svm_sample_grad(np.zeros(2), ex, 0.1)


class TestSvmObjective:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        assert svm_objective(np.zeros(ds.num_features), ds, 0.5) == pytest.approx(1.0)

    def test_single_example_values(self):
        ds = dense_dataset([[1.0]], [1])
        assert svm_objective(np.array([1.0]), ds, 2.0) == pytest.approx(1.0)
        assert svm_objective(np.array([0.5]), ds, 0.0) == pytest.approx(0.5)

    def test_matches_naive_accumulation(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, m=60, n=15)
        for _ in range(10):
            w = rng.standard_normal(15)
            fast = svm_objective(w, ds, 1e-3)
            slow = oracles.naive_svm_objective(w, ds, 1e-3)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_full_gradient_matches_sample_mean(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, m=25, n=8)
        w = rng.standard_normal(8)
        mean = np.mean([svm_sample_grad(w, ds.example(i), 0.05) for i in range(ds.m)], axis=0)
        np.testing.assert_allclose(svm_true_gradient(w, ds, 0.05), mean, rtol=1e-12, atol=1e-14)


class TestSvmAccuracy:
    def test_planted_separator_is_perfect(self):
        ds, w_star = make_separable_dataset(200, 10, margin=0.2, seed=4)
        assert svm_accuracy(w_star, ds) == 1.0

    def test_zero_weights_count_as_wrong(self):
        ds, _ = make_separable_dataset(50, 5, seed=5)
        assert svm_accuracy(np.zeros(5), ds) == 0.0

    def test_partial(self):
        ds = dense_dataset([[1.0], [1.0], [-2.0]], [1, -1, -1])
        assert svm_accuracy(np.array([1.0]), ds) == pytest.approx(2.0 / 3.0)


class TestSeparableGenerator:
    def test_margin_and_determinism(self):
        ds1, w1 = make_separable_dataset(300, 20, margin=0.5, seed=9)
        ds2, w2 = make_separable_dataset(300, 20, margin=0.5, seed=9)
        np.testing.assert_array_equal(w1, w2)
        margins = ds1.labels * (ds1.matrix @ w1)
        assert np.all(margins >= 0.5 - 1e-9)
        assert set(ds1.labels) == {-1.0, 1.0}
        np.testing.assert_array_equal(ds1.values, ds2.values)
        np.testing.assert_array_equal(ds1.labels, ds2.labels)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            make_separable_dataset(0, 5)
        with pytest.raises(ValueError):
            make_separable_dataset(5, 5, margin=0.0)

    def test_margin_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^margin=inf: "):
            make_separable_dataset(5, 5, margin=np.inf)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            make_separable_dataset(5, 5, seed=-1)


class TestSvmProblem:
    def test_block_ranges_validated(self):
        ds, _ = make_separable_dataset(20, 10, seed=1)
        with pytest.raises(ValueError):
            SvmProblem(ds, 0.0)
        with pytest.raises(ValueError):
            SvmProblem(ds, 0.1, ((0, 5), (6, 10)))
        with pytest.raises(ValueError):
            SvmProblem(ds, 0.1, ((0, 5), (5, 9)))

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_lambda_must_be_positive_and_finite(self, lam):
        ds, _ = make_separable_dataset(20, 10, seed=1)
        with pytest.raises(ValueError, match=r"^lam=.*positive and finite"):
            SvmProblem(ds, lam)

    def test_blocks_concatenate_to_joint_gradient(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, m=30, n=11)
        prob = SvmProblem.with_blocks(ds, 0.01, 3)
        inst = prob.instance()
        w = rng.standard_normal(11)
        for token in (0, 7, 29):
            joint = np.concatenate([inst.batch_grad(np.array([token]), w, l) for l in range(3)])
            direct = svm_sample_grad(w, ds.example(token), 0.01)
            np.testing.assert_array_equal(joint, direct)

    def test_batch_gradient_is_mean_of_singles(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, m=30, n=9)
        inst = SvmProblem.with_blocks(ds, 0.05, 2).instance()
        w = rng.standard_normal(9)
        tokens = rng.integers(0, 30, size=7)
        for l in range(2):
            batch = inst.batch_grad(tokens, w, l)
            singles = np.mean([inst.batch_grad(tokens[i:i + 1], w, l)
                               for i in range(tokens.size)], axis=0)
            np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n_blocks", [1, 4, 7])
    def test_block_cuts_are_the_searched_block_starts(self, n_blocks):
        ds = random_dataset(np.random.default_rng(8), m=30, n=11, density=0.3,
                            empty_rows=(0, 13, 29))
        prob = SvmProblem.with_blocks(ds, 0.01, n_blocks)
        edges = [a for a, _ in prob.block_ranges] + [ds.num_features]
        searched = [ds.indptr[i] + ds.indices[ds.indptr[i]:ds.indptr[i + 1]].searchsorted(edges)
                    for i in range(ds.m)]
        cuts = prob.block_cuts
        assert cuts.dtype == np.int64
        np.testing.assert_array_equal(cuts, searched)
        prob.instance()
        assert prob.block_cuts is cuts  # built once per problem

    @pytest.mark.parametrize("n_blocks", [1, 4, 7])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_grad_matches_searched_oracle_bitwise(self, n_blocks, batch_size):
        # Sparse rows over 7 blocks of 1-2 features: many rows miss some
        # blocks, and rows 0, 13 and 29 are empty.
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, m=30, n=11, density=0.3, empty_rows=(0, 13, 29))
        prob = SvmProblem.with_blocks(ds, 0.01, n_blocks)
        inst = prob.instance()
        hinge_active = set()
        for _ in range(20):
            w = rng.standard_normal(11)
            batch = inst.sample_batch(rng, batch_size)
            if batch_size == 3:
                batch[0] = 0  # an empty row in every small batch
            hinge_active.update((ds.labels * (ds.matrix @ w))[batch] <= 1.0)
            for l in range(n_blocks):
                got = inst.batch_grad(batch, w, l)
                want = oracles.searched_svm_batch_grad(prob, batch, w, l)
                assert got.tobytes() == want.tobytes(), (batch, l)
        assert hinge_active == {True, False}

    def test_default_start_is_all_ones(self):
        ds, _ = make_separable_dataset(10, 6, seed=2)
        inst = SvmProblem.with_blocks(ds, 0.1, 2).instance()
        np.testing.assert_array_equal(inst.default_start(), np.ones(6))


# ---------------------------------------------------------------------------
# Quadratic
# ---------------------------------------------------------------------------

class TestQuadratic:
    def test_noiseless_samples_equal_true_gradient(self):
        quad = make_quadratic(5, noise_stddev=0.0, target=[1, 2, 3, 4, 5])
        inst = quad.instance()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(5)
            batch = inst.sample_batch(rng, 1)
            got = np.concatenate([inst.batch_grad(batch, x, l)
                                  for l in range(len(inst.blocks))])
            np.testing.assert_array_equal(got, inst.true_gradient(x))

    def test_unconstrained_optimum_and_value(self):
        quad = make_quadratic(4, noise_stddev=0.5)
        np.testing.assert_array_equal(quad.optimum(), np.zeros(4))
        assert quad.optimal_value() == pytest.approx(0.5 * 0.25 * 4)

    def test_half_space_box_clamps_to_corner(self):
        quad = make_quadratic(3, noise_stddev=0.0,
                              feasible_sets=[Box(np.ones(3), np.full(3, np.inf))])
        np.testing.assert_array_equal(quad.optimum(), np.ones(3))
        assert quad.optimal_value() == pytest.approx(1.5)

    def test_anisotropic_box_optimum(self):
        quad = make_quadratic(2, noise_stddev=0.0, target=[3.0, -3.0],
                              curvature=[2.0, 7.0],
                              feasible_sets=[Box([-1, -1], [1, 1])])
        np.testing.assert_array_equal(quad.optimum(), [1.0, -1.0])

    def test_ball_needs_isotropic_curvature(self):
        quad = make_quadratic(2, target=[2.0, 0.0], curvature=[1.0, 3.0],
                              feasible_sets=[L2Ball([0.0, 0.0], 1.0)])
        with pytest.raises(ValueError):
            quad.optimum()
        iso = make_quadratic(2, target=[2.0, 0.0],
                             feasible_sets=[L2Ball([0.0, 0.0], 1.0)])
        np.testing.assert_allclose(iso.optimum(), [1.0, 0.0])

    def test_batch_gradient_is_mean_of_singles(self):
        quad = make_quadratic(6, noise_stddev=1.5, target=np.arange(6.0), n_blocks=3)
        inst = quad.instance()
        rng = np.random.default_rng(3)
        z_batch = inst.sample_batch(rng, 9)
        x = rng.standard_normal(6)
        for l in range(3):
            batch = inst.batch_grad(z_batch, x, l)
            singles = np.mean([inst.batch_grad(z_batch[i:i + 1], x, l)
                               for i in range(len(z_batch))], axis=0)
            np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-14)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            make_quadratic(0)
        with pytest.raises(ValueError):
            make_quadratic(3, curvature=[1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            make_quadratic(3, noise_stddev=-1.0)
        with pytest.raises(ValueError):
            make_quadratic(3, feasible_sets=[Unconstrained(1)])

    @pytest.mark.parametrize("sigma", [-3.0, np.inf, np.nan])
    def test_rejects_bad_noise(self, sigma):
        with pytest.raises(ValueError, match=r"^noise_stddev=.*finite and >= 0"):
            make_quadratic(3, noise_stddev=sigma)


# ---------------------------------------------------------------------------
# Nonconvex toy
# ---------------------------------------------------------------------------

class TestNonconvexToy:
    def test_constructed_stationary_points(self):
        inst = make_nonconvex_toy()
        np.testing.assert_array_equal(inst.true_gradient([1.0, 0.0]), [0.0, 0.0])
        np.testing.assert_array_equal(inst.true_gradient([-1.0, 0.0]), [0.0, 0.0])
        np.testing.assert_array_equal(inst.true_gradient([0.0, 0.0]), [0.0, 0.0])

    def test_interior_gradient_value(self):
        inst = make_nonconvex_toy()
        np.testing.assert_allclose(inst.true_gradient([0.5, 0.0]), [-1.5, 0.0])

    def test_residual_at_minimum(self):
        inst = make_nonconvex_toy()
        assert stationarity_residual(inst, np.array([-1.0, 0.0]), 1e-3) <= 1e-8

    @pytest.mark.parametrize("sigma", [-3.0, np.inf, np.nan])
    def test_rejects_bad_noise(self, sigma):
        with pytest.raises(ValueError, match=r"^noise_stddev=.*finite and >= 0"):
            make_nonconvex_toy(sigma)

    def test_noise_is_additive_and_linear(self):
        inst = make_nonconvex_toy(noise_stddev=2.0)
        rng = np.random.default_rng(4)
        z = inst.sample_batch(rng, 1)
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(inst.batch_grad(z, x, 0),
                                   inst.true_gradient(x) + z[0])


# ---------------------------------------------------------------------------
# The sampling contract: one draw of n batches is n draws, stacked
# ---------------------------------------------------------------------------

def assert_split_draws_equal(draw, n, size):
    """draw(rng, n * size) equals n calls draw(rng, size), stacked, and
    leaves the generator in the same state."""
    whole_rng, split_rng = np.random.default_rng(17), np.random.default_rng(17)
    whole = draw(whole_rng, n * size)
    split = np.concatenate([draw(split_rng, size) for _ in range(n)])
    assert whole.shape == split.shape
    assert whole.tobytes() == split.tobytes()
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state


BATCH_SIZES = [1, 3, 64]


class TestStreamSplitting:
    @pytest.mark.parametrize("m", [1, 2, 7, 10**3, 10**4, 581012,
                                   2**31 + 11, 2**32 + 5, 2**40 + 3])
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_integers(self, m, size):
        assert_split_draws_equal(lambda rng, k: rng.integers(0, m, size=k), 5, size)

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_svm_sample_batch(self, size):
        ds = random_dataset(np.random.default_rng(2), m=40, n=12)
        inst = SvmProblem.with_blocks(ds, 0.1, 3).instance()
        assert_split_draws_equal(inst.sample_batch, 5, size)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_quadratic_sample_batch(self, dim, size):
        quad = make_quadratic(dim, noise_stddev=0.7, target=np.linspace(-1.0, 2.0, dim))
        assert_split_draws_equal(quad.instance().sample_batch, 5, size)

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_nonconvex_toy_sample_batch(self, size):
        assert_split_draws_equal(make_nonconvex_toy(0.3).sample_batch, 5, size)


# ---------------------------------------------------------------------------
# Statistical contracts (fixed seeds)
# ---------------------------------------------------------------------------

class TestUnbiasedness:
    N = 100_000

    def test_quadratic_sampling(self):
        quad = make_quadratic(6, noise_stddev=0.7, target=np.arange(6.0) - 2.0,
                              curvature=np.linspace(0.5, 2.0, 6), n_blocks=2)
        inst = quad.instance()
        point_rng = np.random.default_rng(100)
        draw_rng = np.random.default_rng(200)
        for _ in range(10):
            x = 3.0 * point_rng.standard_normal(6)
            z = inst.sample_batch(draw_rng, self.N)
            samples = quad.curvature * (x[None, :] - z)
            mean = samples.mean(axis=0)
            stderr = samples.std(axis=0, ddof=1) / np.sqrt(self.N)
            gap = np.abs(mean - quad.gradient(x))
            assert np.all(gap <= 3.0 * stderr + 1e-12)
            # The batch oracle must agree with the mean of batches of one.
            for l in range(2):
                np.testing.assert_allclose(
                    inst.batch_grad(z[:50], x, l),
                    np.mean([inst.batch_grad(z[i:i + 1], x, l) for i in range(50)], axis=0),
                    rtol=1e-12, atol=1e-14)

    def test_svm_sampling(self):
        rng = np.random.default_rng(300)
        ds = random_dataset(rng, m=40, n=12)
        lam = 0.05
        inst = SvmProblem.with_blocks(ds, lam, 3).instance()
        dense = ds.matrix.toarray()
        draw_rng = np.random.default_rng(405)
        for _ in range(10):
            w = rng.standard_normal(12)
            tokens = inst.sample_batch(draw_rng, self.N)
            margins = ds.labels * (dense @ w)
            coeff = np.where(margins <= 1.0, ds.labels, 0.0)
            samples = lam * w[None, :] - coeff[tokens, None] * dense[tokens]
            mean = samples.mean(axis=0)
            stderr = samples.std(axis=0, ddof=1) / np.sqrt(self.N)
            gap = np.abs(mean - svm_true_gradient(w, ds, lam))
            assert np.all(gap <= 3.0 * stderr + 1e-12)
            # Dense reconstruction must match the sparse per-token oracle.
            small = tokens[:40]
            joint = np.concatenate([inst.batch_grad(small, w, l) for l in range(3)])
            np.testing.assert_allclose(joint, (lam * w[None, :]
                                               - coeff[small, None] * dense[small]).mean(axis=0),
                                       rtol=1e-12, atol=1e-14)


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        quad = make_quadratic(5, noise_stddev=0.3, target=[1, -1, 0, 2, -2],
                              curvature=[0.5, 1.0, 1.5, 2.0, 2.5])
        rng = np.random.default_rng(500)
        for _ in range(100):
            x = 4.0 * rng.standard_normal(5)
            fd = oracles.central_difference(quad.objective, x)
            np.testing.assert_allclose(quad.gradient(x), fd, rtol=1e-5, atol=1e-7)

    def test_toy_gradient(self):
        inst = make_nonconvex_toy()
        rng = np.random.default_rng(600)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            fd = oracles.central_difference(inst.true_objective, x)
            np.testing.assert_allclose(inst.true_gradient(x), fd, rtol=1e-5, atol=1e-6)

    def test_svm_gradient_away_from_kinks(self):
        rng = np.random.default_rng(700)
        ds = random_dataset(rng, m=30, n=8)
        lam = 0.1
        checked = 0
        while checked < 100:
            w = 2.0 * rng.standard_normal(8)
            margins = ds.labels * (ds.matrix @ w)
            if np.min(np.abs(margins - 1.0)) < 1e-3:
                continue
            fd = oracles.central_difference(lambda v: svm_objective(v, ds, lam), w)
            np.testing.assert_allclose(svm_true_gradient(w, ds, lam), fd,
                                       rtol=1e-5, atol=1e-7)
            checked += 1
