"""Concrete problem instances: analytic synthetics for verification and the sparse linear
SVM; scipy loads only with a dataset's CSR matrix, which ``SvmProblem.instance`` builds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .core import (
    BlockSpec,
    Box,
    FeasibleSet,
    L2Ball,
    ProblemInstance,
    Unconstrained,
    Vector,
    _dot,
    _require_finite,
    _row_dot,
    _slices,
)

if TYPE_CHECKING:
    from scipy import sparse


def even_partition(n: int, n_blocks: int) -> tuple[tuple[int, int], ...]:
    """Split 0..n into n_blocks contiguous near-equal ranges."""
    if not 1 <= n_blocks <= n:
        raise ValueError(f"need 1 <= n_blocks <= {n}, got {n_blocks}")
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    return tuple((int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# Sparse SVM data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SvmDataset:
    """Examples as CSR arrays: row i stores the features ``indices[indptr[i]:
    indptr[i + 1]]`` (0-based, strictly increasing, below ``num_features``)
    with finite non-zero ``values`` there, and has the label ``labels[i]``, -1 or +1.
    The dataset keeps the margins of the last point it was evaluated at, which
    ``svm_objective``, ``svm_true_gradient`` and ``svm_accuracy`` share."""

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
        self._evaluated = (None, None)  # (bytes of a point, its margins)

    @property
    def m(self) -> int:
        return self.labels.size

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The arrays as a scipy CSR matrix that shares their memory (the
        constructor would copy int64 index arrays whose values fit int32)."""
        from scipy import sparse
        out = sparse.csr_matrix((self.m, self.num_features))
        out.data, out.indices, out.indptr = self.values, self.indices, self.indptr
        return out

    @cached_property
    def matrix_t(self) -> sparse.csc_matrix:
        """The transpose of :attr:`matrix`, a CSC matrix over the same arrays
        (``matrix.T`` would copy the index arrays on every call)."""
        from scipy import sparse
        out = sparse.csc_matrix((self.num_features, self.m))
        out.data, out.indices, out.indptr = self.values, self.indices, self.indptr
        return out

    def _margins(self, w: Vector) -> Vector:
        """y_i <x_i, w> for every example i: the SVM's one full-data product.  The
        last point's margins are kept under its bytes, a value key, so a point
        changed in place is recomputed.  The cache is one tuple, read and replaced
        whole, so threads sharing it never mix key and value."""
        key, margins = self._evaluated
        if key != w.tobytes():
            self._evaluated = key, margins = w.tobytes(), self.labels * (self.matrix @ w)
        return margins

    @property
    def nnz(self) -> int:
        return self.values.size

    def sparsity_percent(self) -> float:
        """Share of stored entries, in percent of the full m*n grid."""
        return 100.0 * self.nnz / (self.m * self.num_features)


def hinge_pass(ds: SvmDataset):
    """The SVM's one row loop, ``(out, w, tokens, scale, strict=False)``: each row i
    in ``tokens`` whose margin y_i <x_i, w> is at most 1 (below 1 if ``strict``)
    adds (y_i * scale) * x_i into ``out``, in order; margins read ``w``, never ``out``."""
    indices, values = ds.indices, ds.values
    # memoryview indexing yields Python scalars, several times faster than numpy's.
    bounds, labels = memoryview(ds.indptr), memoryview(ds.labels)

    def row_loop(out, w, tokens, scale, strict=False):
        limit = math.nextafter(1.0, 0.0) if strict else 1.0  # m < 1 iff m <= nextafter(1, 0)
        for i in tokens:
            a, b, y = bounds[i], bounds[i + 1], labels[i]
            cols, vals = indices[a:b], values[a:b]
            if y * _row_dot(vals, w[cols]) <= limit:
                out[cols] += (y * scale) * vals

    return row_loop


def svm_objective(w, ds: SvmDataset, lam: float) -> float:
    """Regularized mean hinge loss (lam/2)||w||^2 + mean_i max(0, 1 - y_i <x_i, w>)."""
    w = np.asarray(w, dtype=np.float64)
    hinge = np.maximum(0.0, 1.0 - ds._margins(w))
    return 0.5 * lam * _dot(w, w) + float(hinge.mean())


def svm_true_gradient(w, ds: SvmDataset, lam: float) -> Vector:
    """Full-dataset (sub)gradient of svm_objective; active side at the kink."""
    w = np.asarray(w, dtype=np.float64)
    coeff = np.where(ds._margins(w) <= 1.0, ds.labels, 0.0)
    return lam * w - (ds.matrix_t @ coeff) / ds.m


def svm_accuracy(w, ds: SvmDataset) -> float:
    """Fraction of examples whose score sign matches the label.

    A zero inner product counts as misclassified.
    """
    return float(np.mean(ds._margins(np.asarray(w, dtype=np.float64)) > 0.0))


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

    def instance(self) -> ProblemInstance:
        """Builds the dataset's CSR matrix, so scipy loads here and no run's clock pays
        for it.  ``batch_grad`` computes the joint batch-mean gradient once per pair of
        ``batch`` and ``x`` objects (``is``) and returns read-only views of it, so no
        write can corrupt another block's hit; a caller that changes either in place
        between block calls must pass new objects.  The memo is one tuple, read and
        replaced whole, so threads sharing it never mix key and gradient.
        ``true_objective`` and ``true_gradient`` are ``svm_objective`` and
        ``svm_true_gradient``, so they share the dataset's margins of the last point."""
        ds, lam, ranges = self.dataset, self.lam, self.block_ranges
        ds.matrix  # else the first full-data product imports scipy inside a timed run
        m = ds.m
        hinge = hinge_pass(ds)
        memo = (None, None, None)  # (batch, x, joint gradient)

        def batch_grad(batch, x, l):
            nonlocal memo
            start, stop = ranges[l]
            memo_batch, memo_x, g = memo
            if memo_batch is not batch or memo_x is not x:
                w = np.asarray(x, dtype=np.float64)
                g = lam * w
                hinge(g, w, batch.tolist(), -1.0 / len(batch))
                g.setflags(write=False)
                memo = (batch, x, g)
            return g[start:stop]

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
    if m < 1:
        raise ValueError(f"m={m}: must be positive")
    if n < 1:
        raise ValueError(f"n={n}: must be positive")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not 0 < margin < np.inf:
        raise ValueError(f"margin={margin}: must be positive and finite")
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(n)
    w_star /= math.sqrt(_row_dot(w_star, w_star))
    features = rng.standard_normal((m, n))
    scores = features @ w_star
    labels = np.where(scores >= 0, 1, -1)
    # Push margin violators out along w*, with random extra slack so they
    # spread over [margin, 2*margin] instead of piling up on the shell.
    deficit = np.maximum(0.0, margin - labels * scores)
    slack = np.where(deficit > 0, margin * rng.random(m), 0.0)
    features += (labels * (deficit + slack))[:, None] * w_star[None, :]
    keep = features != 0.0  # the CSR arrays scipy.sparse.csr_matrix(features) would hold
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return SvmDataset(indptr, np.nonzero(keep)[1], features[keep], labels, n, name), w_star


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
        _require_finite(mu, "target")
        _require_finite(c, "curvature")
        bad = np.flatnonzero(c <= 0)
        if bad.size:
            raise ValueError(f"curvature entry {bad[0]} is not positive ({c[bad[0]]})")
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
        offsets = np.subtract(x, self.target, dtype=np.float64)
        offsets *= offsets
        return 0.5 * _dot(self.curvature, offsets) \
            + 0.5 * self.noise_stddev ** 2 * float(self.curvature.sum())

    def gradient(self, x) -> Vector:
        out = np.subtract(x, self.target, dtype=np.float64)
        out *= self.curvature
        return out

    def optimum(self) -> Vector:
        """Constrained minimizer, available analytically.

        The objective is separable per coordinate, so box bounds clamp the
        target coordinate-wise for any diagonal curvature.  Ball blocks are
        supported only with isotropic curvature (plain projection).
        """
        out = np.empty(self.dim)
        for sl, spec in zip(_slices(self.blocks), self.blocks):
            fs, c_block = spec.feasible_set, self.curvature[sl]
            if not isinstance(fs, (Unconstrained, Box, L2Ball)):
                raise ValueError(f"unsupported feasible set {type(fs).__name__}")
            if isinstance(fs, L2Ball) and not np.allclose(c_block, c_block[0]):
                raise ValueError("ball-constrained optimum needs isotropic curvature")
            out[sl] = fs.project(self.target[sl])
        return out

    def optimal_value(self) -> float:
        return self.objective(self.optimum())

    def instance(self) -> ProblemInstance:
        mu, c, sigma = self.target, self.curvature, self.noise_stddev
        slices = _slices(self.blocks)

        def sample_batch(rng, size):
            z = rng.standard_normal((size, mu.size))
            z *= sigma
            z += mu
            return z

        def batch_grad(z_batch, x, l):
            sl = slices[l]
            z = np.asarray(z_batch)[:, sl]
            out = np.add.reduce(z, axis=0)
            out /= len(z)
            np.subtract(np.asarray(x)[sl], out, out=out)
            out *= c[sl]
            return out

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
        return true_gradient(x) + np.add.reduce(z_batch, axis=0) / len(z_batch)

    return ProblemInstance(
        blocks=(BlockSpec(2, box),),
        sample_batch=sample_batch,
        batch_grad=batch_grad,
        true_objective=true_objective,
        true_gradient=true_gradient,
    )
