"""Problem oracles: SVM pieces, synthetic quadratic, nonconvex toy."""

import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import blockstoch
from blockstoch import (
    Box,
    L2Ball,
    RunConfig,
    SvmDataset,
    SvmProblem,
    Unconstrained,
    even_partition,
    make_nonconvex_toy,
    make_quadratic,
    make_separable_dataset,
    run,
    run_adam,
    run_averaged_sca,
    run_pegasos,
    stationarity_residual,
    svm_accuracy,
    svm_objective,
    svm_true_gradient,
)
from blockstoch.io import write_libsvm

import oracles
from oracles import svm_sample_grad


def poisoned_start(inst):
    """The instance with a NaN in its own start point."""
    return replace(inst, x0=np.array([np.nan, 0.0]))


def pegasos_from_poisoned_start():
    problem = SvmProblem.with_blocks(make_separable_dataset(10, 2)[0], 0.1, 2)
    return run_pegasos(problem, RunConfig(max_iters=1, eval_every=1),
                       inst=poisoned_start(problem.instance()))


def dense_example(values, label):
    """The non-zero entries of a dense row as an ``(indices, values, label)`` row."""
    values = np.asarray(values, dtype=np.float64)
    keep = values != 0.0
    return np.flatnonzero(keep), values[keep], label


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


def uncached_bytes(function, w, ds, *args):
    """The bytes of ``function(w, copy, *args)`` on a new dataset built from copies
    of ``ds``'s arrays, so no margins that ``ds`` keeps can reach the result."""
    copy = SvmDataset(ds.indptr.copy(), ds.indices.copy(), ds.values.copy(),
                      ds.labels.copy(), ds.num_features)
    return np.asarray(function(w, copy, *args)).tobytes()


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
        assert oracles.svm_row(ds, 1)[0].size == 0
        indices, values, label = oracles.svm_row(ds, 2)
        np.testing.assert_array_equal(indices, [1])
        assert label == 1.0 and values[0] == 0.5

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

    def test_transposed_matrix_shares_the_arrays(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng)
        t = ds.matrix_t
        assert t.shape == (ds.num_features, ds.m)
        for name, attr in (("data", "values"), ("indices", "indices"), ("indptr", "indptr")):
            assert np.shares_memory(getattr(t, name), getattr(ds, attr))
        coeff = rng.standard_normal(ds.m)
        assert (t @ coeff).tobytes() == (ds.matrix.T @ coeff).tobytes()

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
        mean = np.mean([svm_sample_grad(w, oracles.svm_row(ds, i), 0.05) for i in range(ds.m)], axis=0)
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

    @pytest.mark.parametrize("m, n", [(1000, 20), (50, 300), (7, 1), (200, 64)])
    def test_csr_arrays_equal_scipy_csr_of_the_dense_rows(self, m, n):
        from scipy import sparse
        ds, _ = make_separable_dataset(m, n, margin=0.3, seed=4)
        expected = sparse.csr_matrix(ds.matrix.toarray())
        for got, want in ((ds.indptr, expected.indptr), (ds.indices, expected.indices),
                          (ds.values, expected.data)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(ds.indptr, np.arange(m + 1) * n)  # no zero drawn


class TestScipyDeferred:
    """scipy loads with an SVM dataset's CSR matrix, which building an SVM instance
    reads; dense runs and ``gen`` never import it."""

    DENSE = '''
import contextlib, io, sys
import numpy as np
from blockstoch import (Box, L2Ball, RunConfig, make_nonconvex_toy, make_quadratic, run,
                        run_adam, run_averaged_sca)
from blockstoch.cli import main

quad = make_quadratic(6, target=np.linspace(-2.0, 2.0, 6), n_blocks=2,
                      feasible_sets=[Box(-np.ones(3), np.ones(3)),
                                     L2Ball(np.zeros(3), 1.0)]).instance()
config = RunConfig(max_iters=20, eval_every=10, seed=1)
for inst in (quad, make_nonconvex_toy()):
    for method in (run, run_adam, run_averaged_sca):
        method(inst, config)
for method in ("proposed", "adam", "avg-sca"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--method", method, "--synthetic", "quad-d8", "--iters", "20",
                     "--eval-every", "10", "--outdir", sys.argv[1]])
    assert code == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
'''

    SVM = '''
import sys
from blockstoch import svm_objective
from blockstoch.io import load_libsvm

ds = load_libsvm(sys.argv[1])
print("scipy" in sys.modules)
print(svm_objective([0.5, -1.0, 2.0], ds, 0.1).hex(), "scipy.sparse" in sys.modules)
'''

    GEN = '''
import contextlib, io, sys
from blockstoch.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["gen", "separable-svm", "--m", "30", "--n", "500", "--seed", "4",
                 "--out", sys.argv[1]])
assert code == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
'''

    # Which of scipy.sparse and the training set's CSR matrix the first method sees.
    FIRST_METHOD = '''
import contextlib, io, sys
from blockstoch import cli, io as dataio

loaded, seen = [], []
load_libsvm = dataio.load_libsvm

def recording_load(*args, **kwargs):
    loaded.append(load_libsvm(*args, **kwargs))
    return loaded[-1]

def watch(runner):
    def first_call(*args, **kwargs):
        if not seen:
            seen.append(("scipy.sparse" in sys.modules, "matrix" in vars(loaded[0])))
        return runner(*args, **kwargs)
    return first_call

dataio.load_libsvm = recording_load
cli.run, cli.run_adam = watch(cli.run), watch(cli.run_adam)
data, outdir, *command = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main([*command, "--data", data, "--iters", "20", "--eval-every", "10",
                     "--outdir", outdir])
assert code == 0
print(*seen[0])
'''

    @staticmethod
    def child(code, *args):
        src = os.path.dirname(os.path.dirname(blockstoch.__file__))
        return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src}).stdout.splitlines()

    def test_dense_library_and_cli_runs_import_no_scipy(self, tmp_path):
        assert self.child(self.DENSE, tmp_path) == ["[]"]

    def test_gen_separable_svm_imports_no_scipy(self, tmp_path):
        assert self.child(self.GEN, tmp_path / "gen.libsvm") == ["[]"]
        assert (tmp_path / "gen.libsvm").stat().st_size > 0

    @pytest.mark.parametrize("command", [("run", "--method", "adam"), ("compare",)],
                             ids=["run-adam", "compare"])
    def test_first_method_starts_with_the_csr_matrix_built(self, tmp_path, command):
        # So the import and the CSR view stay out of every method's cpu_seconds.
        ds, _ = make_separable_dataset(60, 8, seed=1)
        write_libsvm(ds, tmp_path / "train.libsvm")
        assert self.child(self.FIRST_METHOD, tmp_path / "train.libsvm", tmp_path / "out",
                          *command) == ["True True"]

    def test_svm_objective_loads_scipy_at_the_first_product(self, tmp_path):
        ds = dense_dataset([[1.0, 0.0, 2.0], [0.0, -3.0, 0.0], [0.5, 0.5, 0.0]], [1, -1, 1])
        write_libsvm(ds, tmp_path / "tiny.libsvm")
        expected = svm_objective([0.5, -1.0, 2.0], ds, 0.1)
        assert self.child(self.SVM, tmp_path / "tiny.libsvm") == \
            ["False", f"{expected.hex()} True"]


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
            direct = svm_sample_grad(w, oracles.svm_row(ds, token), 0.01)
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

    @pytest.mark.parametrize("n_blocks", [1, 4, 7, 11])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batch_grad_matches_searched_oracle_bitwise(self, n_blocks, batch_size):
        # Sparse rows over 7 blocks of 1-2 features: many rows miss some
        # blocks, and rows 0, 13 and 29 are empty.  With 11 blocks of one
        # feature each, most (row, block) pairs are empty.
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

    def test_block_calls_answer_for_their_own_batch_and_point(self):
        # The oracle keeps one joint gradient per (batch, x) pair of objects.
        # Blocks asked in reverse, interleaved over pairs that share a batch
        # or a point, must each be the gradient of their own pair.
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, m=30, n=11, density=0.3, empty_rows=(0, 13, 29))
        prob = SvmProblem.with_blocks(ds, 0.01, 4)
        inst = prob.instance()
        first, second = inst.sample_batch(rng, 8), inst.sample_batch(rng, 8)
        w = rng.standard_normal(11)
        other_w = w + rng.standard_normal(11)
        pairs = [(first, w), (first, other_w), (second, w)]
        hinge_active = set()
        for batch, x in pairs:
            hinge_active.update((ds.labels * (ds.matrix @ x))[batch] <= 1.0)
        assert hinge_active == {True, False}
        for _ in range(2):
            for l in reversed(range(4)):
                for batch, x in pairs:
                    got = inst.batch_grad(batch, x, l)
                    want = oracles.searched_svm_batch_grad(prob, batch, x, l)
                    assert got.tobytes() == want.tobytes(), (l, batch)

    def test_concurrent_runs_on_one_instance_match_serial_runs(self):
        # Six runs share one instance, and so its memo, with the interpreter
        # asked to switch threads as often as it can.
        ds, _ = make_separable_dataset(80, 8, seed=4)
        inst = SvmProblem.with_blocks(ds, 0.01, 4).instance()
        jobs = [(run if seed % 2 else run_adam, seed) for seed in range(6)]

        def outcome(method, seed):
            x, trace = method(inst, RunConfig(batch_size=4, max_iters=400, eval_every=50,
                                              seed=seed))
            return x.tobytes(), [(r.k, r.objective, r.step_norm, r.tracker_error)
                                 for r in trace]

        serial = {seed: outcome(method, seed) for method, seed in jobs}
        concurrent = {}

        def work(method, seed):
            concurrent[seed] = outcome(method, seed)

        threads = [threading.Thread(target=work, args=job, daemon=True) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert concurrent == serial

    def test_blocks_are_read_only_views_of_one_gradient(self):
        # A block is a view of the (batch, x) pair's joint gradient, so a
        # write into it would corrupt the other blocks' later hits: numpy
        # must refuse it.  A memo miss leaves earlier blocks as they were.
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, m=30, n=11, density=0.3)
        inst = SvmProblem.with_blocks(ds, 0.01, 3).instance()
        batch, w = inst.sample_batch(rng, 8), rng.standard_normal(11)
        blocks = [inst.batch_grad(batch, w, l) for l in range(3)]
        for g_l in blocks:
            with pytest.raises(ValueError):
                g_l[0] = 0.0
        joint = blocks[0].base
        assert all(np.shares_memory(joint, g_l) for g_l in blocks)
        kept = [g_l.tobytes() for g_l in blocks]
        fresh = inst.batch_grad(inst.sample_batch(rng, 8), rng.standard_normal(11), 0)
        assert not np.shares_memory(joint, fresh)
        assert [g_l.tobytes() for g_l in blocks] == kept

    def test_true_oracles_equal_module_functions_at_interleaved_points(self):
        # The instance's true_objective and true_gradient share the dataset's
        # margins per point value; revisited points, equal copies and points
        # asked in either order must give the bits of an uncached evaluation.
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, m=40, n=9, density=0.5)
        inst = SvmProblem.with_blocks(ds, 0.03, 3).instance()
        points = [rng.standard_normal(9) for _ in range(3)]
        active = {bool(a) for w in points for a in ds.labels * (ds.matrix @ w) <= 1.0}
        assert active == {True, False}
        for i, gradient_first in ((0, False), (1, True), (0, True), (2, False), (2, True),
                                  (1, False), (0, False)):
            w = points[i] if gradient_first else points[i].copy()
            calls = [(inst.true_objective, svm_objective), (inst.true_gradient, svm_true_gradient)]
            for oracle, module_function in calls[::-1] if gradient_first else calls:
                want = uncached_bytes(module_function, w, ds, 0.03)
                assert np.asarray(oracle(w)).tobytes() == want, (i, oracle)

    def test_point_changed_in_place_is_evaluated_afresh(self):
        # The margins are kept under the point's bytes, not its identity:
        # stale margins would keep the old point's active set here.
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, m=40, n=9, density=0.5)
        inst = SvmProblem.with_blocks(ds, 0.03, 3).instance()
        x = rng.standard_normal(9)
        before = ds.labels * (ds.matrix @ x) <= 1.0
        inst.true_objective(x)
        x *= -1.0
        assert not np.array_equal(before, ds.labels * (ds.matrix @ x) <= 1.0)
        assert inst.true_gradient(x).tobytes() == uncached_bytes(svm_true_gradient, x, ds, 0.03)
        assert np.asarray(inst.true_objective(x)).tobytes() == \
            uncached_bytes(svm_objective, x, ds, 0.03)

    def test_margins_are_kept_per_dataset_not_per_lambda(self):
        # Two problems over one dataset, with different lambdas, and
        # svm_accuracy on it read one margin cache; in any interleaving over
        # three points, each value must equal an uncached evaluation's bits.
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, m=40, n=9, density=0.5)
        points = [rng.standard_normal(9) for _ in range(3)]
        assert len({uncached_bytes(svm_accuracy, w, ds) for w in points}) == 3
        calls = [(lambda w: svm_accuracy(w, ds), svm_accuracy, ())]
        for lam in (0.01, 0.1):
            inst = SvmProblem.with_blocks(ds, lam, 3).instance()
            calls += [(inst.true_objective, svm_objective, (lam,)),
                      (inst.true_gradient, svm_true_gradient, (lam,))]
        order = [(i, call) for i in range(3) for call in calls] * 2
        for j in rng.permutation(len(order)):
            i, (oracle, module_function, args) = order[j]
            want = uncached_bytes(module_function, points[i], ds, *args)
            assert np.asarray(oracle(points[i])).tobytes() == want, (i, module_function, args)

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

    def test_non_positive_curvature_is_located(self):
        with pytest.raises(ValueError, match=r"^curvature entry 1 is not positive \(-1\.0\)$"):
            make_quadratic(3, curvature=[1, -1, 1])

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

    @pytest.mark.parametrize("size", [1, 4])
    @pytest.mark.parametrize("sigma, curvature", [(1.0, None), (0.5, np.linspace(0.5, 3.0, 7))],
                             ids=["unit", "scaled"])
    def test_oracles_are_pure_and_the_textbook_form(self, size, sigma, curvature):
        # objective, gradient and batch_grad work in the one array they make:
        # x and the batch keep their bytes (read-only inputs too), results
        # share memory with neither, and the bits are the plain expressions',
        # whether or not the oracles skip their passes by 1 (sigma 1, B 1,
        # unit curvature).
        quad = make_quadratic(7, noise_stddev=sigma, target=np.linspace(-1.0, 2.0, 7),
                              n_blocks=2, curvature=curvature)
        inst = quad.instance()
        rng = np.random.default_rng(size)
        x, batch = rng.standard_normal(7), inst.sample_batch(rng, size)
        c, mu = quad.curvature, quad.target
        twin = np.random.default_rng(size)
        twin.standard_normal(7)  # x's draws
        expected_batch = twin.standard_normal((size, 7)) * sigma + mu
        assert batch.tobytes() == expected_batch.tobytes()
        x.flags.writeable = batch.flags.writeable = False
        before = (x.tobytes(), batch.tobytes())
        offsets = x - mu
        assert quad.objective(x) == 0.5 * float(np.einsum("i,i->", c, offsets * offsets)) \
            + 0.5 * sigma ** 2 * float(c.sum())
        grad = quad.gradient(x)
        assert grad.tobytes() == (c * (x - mu)).tobytes()
        outs = [grad]
        for l, sl in enumerate(inst.block_slices):
            g_l = inst.batch_grad(batch, x, l)
            expected = c[sl] * (x[sl] - np.add.reduce(batch[:, sl], axis=0) / size)
            assert g_l.tobytes() == expected.tobytes()
            outs.append(g_l)
        assert (x.tobytes(), batch.tobytes()) == before
        assert not any(np.shares_memory(out, a) for out in outs for a in (x, batch))

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

    @pytest.mark.parametrize("build, message", [
        (lambda: make_quadratic(2, target=[np.nan, 0.0]), r"target entry 0 is not finite \(nan\)"),
        (lambda: make_quadratic(2, target=[0.0, -np.inf]), r"target entry 1 is not finite \(-inf\)"),
        (lambda: make_quadratic(2, curvature=[1.0, np.nan]),
         r"curvature entry 1 is not finite \(nan\)"),
        (lambda: make_quadratic(2, curvature=[np.inf, 1.0]),
         r"curvature entry 0 is not finite \(inf\)"),
        (lambda: run(replace(make_quadratic(2).instance(), x0=[np.nan, 0.0]),
                     RunConfig(max_iters=1, eval_every=1)),
         r"projected x0 entry 0 is not finite \(nan\)"),
        (lambda: run(replace(make_quadratic(2).instance(), x0=[0.0, np.inf]),
                     RunConfig(max_iters=1, eval_every=1)),
         r"projected x0 entry 1 is not finite \(inf\)"),
        # Every method starts through ProblemInstance.default_start, which
        # checks the instance's x0, the one start of every method.
        (lambda: run(poisoned_start(make_quadratic(2).instance()),
                     RunConfig(max_iters=1, eval_every=1)),
         r"projected x0 entry 0 is not finite \(nan\)"),
        (lambda: run_adam(poisoned_start(make_quadratic(2).instance()),
                          RunConfig(max_iters=1, eval_every=1)),
         r"projected x0 entry 0 is not finite \(nan\)"),
        (lambda: run_averaged_sca(poisoned_start(make_quadratic(2).instance()),
                                  RunConfig(max_iters=1, eval_every=1)),
         r"projected x0 entry 0 is not finite \(nan\)"),
        (pegasos_from_poisoned_start, r"projected x0 entry 0 is not finite \(nan\)"),
    ], ids=["target-nan", "target-inf", "curvature-nan", "curvature-inf", "x0-nan", "x0-inf",
            "instance-x0-proposed", "instance-x0-adam", "instance-x0-avg-sca",
            "instance-x0-pegasos"])
    def test_rejects_non_finite_input_before_the_run(self, build, message):
        # Each used to pass construction and fail at iteration 1 as a
        # NumericalFailureError about the sample gradient.
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


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
