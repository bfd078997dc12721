"""Concrete problem instances: analytic synthetics for verification and the
sparse linear SVM used by the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse

from .core import (
    BlockSpec,
    Box,
    FeasibleSet,
    L2Ball,
    ProblemInstance,
    Unconstrained,
    Vector,
)


def even_partition(n: int, n_blocks: int) -> tuple[tuple[int, int], ...]:
    """Split 0..n into n_blocks contiguous near-equal ranges."""
    if not 1 <= n_blocks <= n:
        raise ValueError(f"need 1 <= n_blocks <= {n}, got {n_blocks}")
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    return tuple((int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# Sparse SVM data
# ---------------------------------------------------------------------------

class SparseExample(NamedTuple):
    """One row of an :class:`SvmDataset`: views into its arrays, and its label."""

    indices: np.ndarray
    values: np.ndarray
    label: float


@dataclass(eq=False)
class SvmDataset:
    """Examples as CSR arrays: row i stores the features ``indices[indptr[i]:
    indptr[i + 1]]`` (0-based, strictly increasing, below ``num_features``)
    with finite non-zero ``values`` there, and has the label ``labels[i]``, -1 or +1."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    num_features: int
    name: str = ""

    def __post_init__(self):
        self.indptr = indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = idx = np.asarray(self.indices, dtype=np.int64)
        self.values = val = np.asarray(self.values, dtype=np.float64)
        self.labels = labels = np.asarray(self.labels, dtype=np.float64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("dataset must contain at least one example")
        if self.num_features < 1:
            raise ValueError("num_features must be positive")
        if idx.ndim != 1 or val.shape != idx.shape or indptr.shape != (labels.size + 1,):
            raise ValueError("need m + 1 indptr entries and equally long 1-D indices, values")

        def reject(bad, rule, shown=None, per_row=False):
            hits = np.flatnonzero(bad)
            if hits.size:
                row = hits[0] if per_row else np.searchsorted(indptr, hits[0], "right") - 1
                detail = "" if shown is None else f" ({shown[hits[0]]})"
                raise ValueError(f"row {row}: {rule}{detail}")

        bad = (indptr[:-1] > indptr[1:]) | (indptr[1:] > idx.size)
        bad[0] |= indptr[0] != 0
        bad[-1] |= indptr[-1] != idx.size
        reject(bad, f"indptr does not delimit the {idx.size} entries", per_row=True)
        reject(np.abs(labels) != 1.0, "label is not -1 or +1", labels, per_row=True)
        reject((idx < 0) | (idx >= self.num_features),
               f"feature index outside [0, {self.num_features})", idx)
        falls = np.diff(idx, prepend=-1) <= 0
        falls[indptr[:-1][indptr[:-1] < idx.size]] = False
        reject(falls, "indices are not strictly increasing", idx)
        reject(~np.isfinite(val), "value is not finite", val)
        reject(val == 0.0, "stored zero value")

    @property
    def m(self) -> int:
        return self.labels.size

    def example(self, i: int) -> SparseExample:
        a, b = self.indptr[i:i + 2].tolist()
        return SparseExample(self.indices[a:b], self.values[a:b], self.labels.item(i))

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The arrays as a scipy CSR matrix that shares their memory (the
        constructor would copy int64 index arrays whose values fit int32)."""
        out = sparse.csr_matrix((self.m, self.num_features))
        out.data, out.indices, out.indptr = self.values, self.indices, self.indptr
        return out

    @property
    def nnz(self) -> int:
        return self.values.size

    def sparsity_percent(self) -> float:
        """Share of stored entries, in percent of the full m*n grid."""
        return 100.0 * self.nnz / (self.m * self.num_features)


def svm_sample_grad(w, ex: SparseExample, lam: float) -> Vector:
    """Single-sample (sub)gradient of the regularized hinge cost.

    Returns lam*w when the example clears the margin strictly
    (y <x, w> > 1), else lam*w - y*x.  The boundary y <x, w> = 1 takes the
    active-side subgradient (non-strict <=).
    """
    w = np.asarray(w, dtype=np.float64)
    if ex.indices.size and ex.indices[-1] >= w.size:
        raise ValueError("example dimension exceeds weight vector")
    g = lam * w
    margin = ex.label * float(ex.values @ w[ex.indices])
    if margin <= 1.0:
        g[ex.indices] -= ex.label * ex.values
    return g


def svm_objective(w, ds: SvmDataset, lam: float) -> float:
    """Regularized mean hinge loss (lam/2)||w||^2 + mean_i max(0, 1 - y_i <x_i, w>)."""
    w = np.asarray(w, dtype=np.float64)
    margins = ds.labels * (ds.matrix @ w)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(w @ w) + float(hinge.mean())


def svm_true_gradient(w, ds: SvmDataset, lam: float) -> Vector:
    """Full-dataset (sub)gradient of svm_objective; active side at the kink."""
    w = np.asarray(w, dtype=np.float64)
    margins = ds.labels * (ds.matrix @ w)
    coeff = np.where(margins <= 1.0, ds.labels, 0.0)
    return lam * w - (ds.matrix.T @ coeff) / ds.m


def svm_accuracy(w, ds: SvmDataset) -> float:
    """Fraction of examples whose score sign matches the label.

    A zero inner product counts as misclassified.
    """
    scores = ds.matrix @ np.asarray(w, dtype=np.float64)
    return float(np.mean(scores * ds.labels > 0.0))


@dataclass(frozen=True)
class SvmProblem:
    """Sparse linear SVM over a dataset, with the weight vector split into
    contiguous feature blocks.  Blocks are unconstrained (documented
    relaxation of compactness); the canonical start point is all-ones."""

    dataset: SvmDataset
    lam: float
    block_ranges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam={self.lam}: must be positive and finite")
        ranges = self.block_ranges or even_partition(self.dataset.num_features, 1)
        ranges = tuple((int(a), int(b)) for a, b in ranges)
        expected = 0
        for a, b in ranges:
            if a != expected or b <= a:
                raise ValueError("block ranges must be contiguous, disjoint, covering")
            expected = b
        if expected != self.dataset.num_features:
            raise ValueError("block ranges must cover all features")
        object.__setattr__(self, "block_ranges", ranges)

    @classmethod
    def with_blocks(cls, dataset: SvmDataset, lam: float, n_blocks: int) -> "SvmProblem":
        return cls(dataset, lam, even_partition(dataset.num_features, n_blocks))

    @cached_property
    def block_cuts(self) -> np.ndarray:
        """(m, L + 1) offsets into the dataset's entries: row i's entries in
        block l are ``indices[cuts[i, l]:cuts[i, l + 1]]``."""
        ds, n_blocks = self.dataset, len(self.block_ranges)
        starts = [a for a, _ in self.block_ranges[1:]]
        # Entry keys row * L + block never fall, so one search finds every cut.
        keys = np.repeat(np.arange(ds.m) * n_blocks, np.diff(ds.indptr))
        keys += np.searchsorted(starts, ds.indices, "right")
        flat = np.searchsorted(keys, np.arange(ds.m * n_blocks + 1))
        return np.column_stack((flat[:-1].reshape(ds.m, n_blocks), flat[n_blocks::n_blocks]))

    def instance(self) -> ProblemInstance:
        ds = self.dataset
        lam = self.lam
        ranges = self.block_ranges
        m = ds.m
        indices, values = ds.indices, ds.values
        # memoryview indexing yields Python scalars, several times faster than numpy's.
        bounds, labels, cuts = memoryview(ds.indptr), memoryview(ds.labels), \
            memoryview(self.block_cuts)

        def batch_grad(batch, x, l):
            start, stop = ranges[l]
            x = np.asarray(x, dtype=np.float64)
            g = lam * x[start:stop]
            tokens = np.atleast_1d(batch).tolist()
            for i in tokens:
                a, b, y = bounds[i], bounds[i + 1], labels[i]
                if y * np.dot(values[a:b], x[indices[a:b]]) <= 1.0:
                    lo, hi = cuts[i, l], cuts[i, l + 1]
                    g[indices[lo:hi] - start] -= (y / len(tokens)) * values[lo:hi]
            return g

        def sample_batch(rng, size):
            return rng.integers(0, m, size=size)

        blocks = tuple(BlockSpec(b - a, Unconstrained(b - a)) for a, b in ranges)
        return ProblemInstance(
            blocks=blocks,
            sample_batch=sample_batch,
            batch_grad=batch_grad,
            true_objective=lambda x: svm_objective(x, ds, lam),
            true_gradient=lambda x: svm_true_gradient(x, ds, lam),
            x0=np.ones(ds.num_features),
        )


def make_separable_dataset(m: int, n: int, margin: float = 0.5, seed: int = 0,
                           name: str = "separable") -> tuple[SvmDataset, Vector]:
    """Plant a unit normal w* and draw m examples with y <x, w*> >= margin.

    Returns the dataset and the planted separator.  Deterministic per seed.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not 0 < margin < np.inf:
        raise ValueError(f"margin={margin}: must be positive and finite")
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(n)
    w_star /= np.linalg.norm(w_star)
    features = rng.standard_normal((m, n))
    scores = features @ w_star
    labels = np.where(scores >= 0, 1, -1)
    # Push margin violators out along w*, with random extra slack so they
    # spread over [margin, 2*margin] instead of piling up on the shell.
    deficit = np.maximum(0.0, margin - labels * scores)
    slack = np.where(deficit > 0, margin * rng.random(m), 0.0)
    features += (labels * (deficit + slack))[:, None] * w_star[None, :]
    rows = sparse.csr_matrix(features)
    return SvmDataset(rows.indptr, rows.indices, rows.data, labels, n, name), w_star


# ---------------------------------------------------------------------------
# Synthetic analytic problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticProblem:
    """Separable stochastic quadratic: f(x, z) = 1/2 sum_j c_j (x_j - z_j)^2
    with z ~ N(target, noise_stddev^2 I).

    The expectation F(x) = 1/2 sum_j c_j ((x_j - target_j)^2 + sigma^2) and
    its gradient c * (x - target) are available in closed form, as is the
    constrained optimum for box-type sets, which makes this the main
    verification oracle.
    """

    target: Vector
    curvature: Vector
    noise_stddev: float
    blocks: tuple[BlockSpec, ...]

    def __post_init__(self):
        mu = np.asarray(self.target, dtype=np.float64)
        c = np.asarray(self.curvature, dtype=np.float64)
        if mu.shape != c.shape or mu.ndim != 1:
            raise ValueError("target and curvature must be 1-D with equal shape")
        if np.any(c <= 0):
            raise ValueError("curvature must be strictly positive")
        if not 0 <= self.noise_stddev < np.inf:
            raise ValueError(f"noise_stddev={self.noise_stddev}: must be finite and >= 0")
        if sum(b.dim for b in self.blocks) != mu.size:
            raise ValueError("block dims must sum to the problem dimension")
        object.__setattr__(self, "target", mu)
        object.__setattr__(self, "curvature", c)
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def dim(self) -> int:
        return self.target.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        offsets = x - self.target
        return 0.5 * float(self.curvature @ (offsets * offsets)) \
            + 0.5 * self.noise_stddev ** 2 * float(self.curvature.sum())

    def gradient(self, x) -> Vector:
        return self.curvature * (np.asarray(x, dtype=np.float64) - self.target)

    def optimum(self) -> Vector:
        """Constrained minimizer, available analytically.

        The objective is separable per coordinate, so box bounds clamp the
        target coordinate-wise for any diagonal curvature.  Ball blocks are
        supported only with isotropic curvature (plain projection).
        """
        out = np.empty(self.dim)
        offset = 0
        for spec in self.blocks:
            sl = slice(offset, offset + spec.dim)
            fs = spec.feasible_set
            if isinstance(fs, (Unconstrained, Box)):
                out[sl] = fs.project(self.target[sl])
            elif isinstance(fs, L2Ball):
                c_block = self.curvature[sl]
                if not np.allclose(c_block, c_block[0]):
                    raise ValueError("ball-constrained optimum needs isotropic curvature")
                out[sl] = fs.project(self.target[sl])
            else:
                raise ValueError(f"unsupported feasible set {type(fs).__name__}")
            offset += spec.dim
        return out

    def optimal_value(self) -> float:
        return self.objective(self.optimum())

    def instance(self) -> ProblemInstance:
        mu, c, sigma = self.target, self.curvature, self.noise_stddev
        bounds = np.concatenate(([0], np.cumsum([b.dim for b in self.blocks])))
        slices = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

        def sample_batch(rng, size):
            return mu[None, :] + sigma * rng.standard_normal((size, mu.size))

        def batch_grad(z_batch, x, l):
            sl = slices[l]
            return c[sl] * (np.asarray(x)[sl] - np.asarray(z_batch)[:, sl].mean(axis=0))

        return ProblemInstance(
            blocks=self.blocks,
            sample_batch=sample_batch,
            batch_grad=batch_grad,
            true_objective=self.objective,
            true_gradient=self.gradient,
        )


def make_quadratic(dim: int, noise_stddev: float = 1.0, target=None, curvature=None,
                   n_blocks: int = 1,
                   feasible_sets: Optional[Sequence[FeasibleSet]] = None,
                   ) -> QuadraticProblem:
    """Build a QuadraticProblem with contiguous near-equal blocks.

    Defaults: target 0, unit curvature, unconstrained blocks.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    mu = np.zeros(dim) if target is None else np.asarray(target, dtype=np.float64)
    c = np.ones(dim) if curvature is None else np.asarray(curvature, dtype=np.float64)
    ranges = even_partition(dim, n_blocks)
    if feasible_sets is None:
        sets: list[FeasibleSet] = [Unconstrained(b - a) for a, b in ranges]
    else:
        sets = list(feasible_sets)
        if len(sets) != len(ranges):
            raise ValueError(f"need {len(ranges)} feasible sets, got {len(sets)}")
    blocks = tuple(BlockSpec(b - a, fs) for (a, b), fs in zip(ranges, sets))
    return QuadraticProblem(mu, c, noise_stddev, blocks)


def make_nonconvex_toy(noise_stddev: float = 1.0) -> ProblemInstance:
    """2-D smooth nonconvex test problem over the box [-2, 2]^2.

    F(x) = (x1^2 - 1)^2 + x2^2, sampled as f(x, z) = F(x) + <z, x> with
    z ~ N(0, noise_stddev^2 I).  Stationary points sit at x1 in {-1, 0, 1},
    x2 = 0; the two pits at x1 = +/-1 are strict local minima.
    """
    sigma = float(noise_stddev)
    if not 0 <= sigma < np.inf:
        raise ValueError(f"noise_stddev={sigma}: must be finite and >= 0")
    box = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))

    def true_objective(x):
        x = np.asarray(x, dtype=np.float64)
        return float((x[0] ** 2 - 1.0) ** 2 + x[1] ** 2)

    def true_gradient(x):
        x = np.asarray(x, dtype=np.float64)
        return np.array([4.0 * x[0] * (x[0] ** 2 - 1.0), 2.0 * x[1]])

    def sample_batch(rng, size):
        return sigma * rng.standard_normal((size, 2))

    def batch_grad(z_batch, x, l):
        return true_gradient(x) + np.asarray(z_batch).mean(axis=0)

    return ProblemInstance(
        blocks=(BlockSpec(2, box),),
        sample_batch=sample_batch,
        batch_grad=batch_grad,
        true_objective=true_objective,
        true_gradient=true_gradient,
    )
