"""Block-parallel stochastic optimization engine.

The solver maintains a gradient tracker h that blends each iteration's
mini-batch sample gradient into a running convex combination, then moves
every block through a proximal step (projection of a scaled tracker step
onto the block's feasible set).  Block updates within one iteration are
mutually independent: each reads the previous iterate and writes only its
own slice.  One step runs them as a single serial pass.  Where a batch
is too large for two to share a draw of ``DRAW_BYTES`` and the run is long
enough (:func:`drive`), the next iteration's batch is drawn on one worker
thread while the step runs.

Per block the step is x_l <- P_l(x_l - alpha_k h_l), the minimizer of the
surrogate <h_l, y - x_l> + ||y - x_l||^2 / (2 alpha_k) over the block's set.
Successive convex approximation (Yang, Scutari & Palomar, SPAWC 2013;
Liu, Lau & Kananian, IEEE TSP 2019) splits it in two: the surrogate
minimizer x_hat_l = P_l(x_l - h_l / (2 tau)) with a fixed proximal weight
tau, then the smoothing step x_l <- x_l + gamma_k (x_hat_l - x_l).  On an
Unconstrained block the two forms coincide with alpha_k = gamma_k / (2 tau).
Where a bound is active they differ: here alpha_k scales the move before
the projection, there gamma_k shortens the projected move.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Optional, Union

import numpy as np

from .schedules import Schedule

Vector = np.ndarray


class NumericalFailureError(RuntimeError):
    """A non-finite gradient or iterate appeared mid-run."""

    def __init__(self, k: int, block: int, what: str):
        super().__init__(f"non-finite {what} at iteration {k}, block {block}")
        self.k = k
        self.block = block


def _as_vector(v, name: str, dim: Optional[int] = None) -> Vector:
    """v as a 1-D float64 array, of length dim when dim is given."""
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {out.shape}")
    if dim is not None and out.size != dim:
        raise ValueError(f"{name} has dim {out.size}, expected {dim}")
    return out


def _require_finite(v: Vector, what: str, allow_inf: bool = False) -> None:
    """Raise ValueError naming the first entry of v that is NaN, or infinite unless allow_inf."""
    bad = np.flatnonzero(np.isnan(v) if allow_inf else ~np.isfinite(v))
    if bad.size:
        i = bad[0]
        detail = "NaN" if allow_inf else f"not finite ({v[i]})"
        raise ValueError(f"{what} entry {i} is {detail}")


def _dot(a: Vector, b: Vector) -> float:
    """Sum of a_i * b_i in numpy's own loop: one thread, no overflow
    warning, and the same bits whatever the BLAS thread count or the
    arrays' memory offsets.  Every reduction over a problem-sized vector
    goes through it; a row's margin goes through :func:`_row_dot`."""
    return float(np.einsum("i,i->", a, b))


# Longest vector whose BLAS ddot OpenBLAS keeps on one thread; above it the
# sum is split over threads, and its bits follow the thread count.
ROW_BLAS_MAX = 10_000


def _row_dot(a: Vector, b: Vector) -> float:
    """Sum of a_i * b_i for a data row: BLAS ddot, several times cheaper than
    :func:`_dot` on short rows, up to ROW_BLAS_MAX entries; :func:`_dot` beyond."""
    return float(a.dot(b)) if a.size <= ROW_BLAS_MAX else _dot(a, b)


def _norm(v: Vector) -> float:
    """||v||, the square root of :func:`_dot` (v, v), rescaled by the largest |entry| only
    where that sum overflows on finite entries: every finite result is the plain one."""
    norm = math.sqrt(_dot(v, v))
    if norm == math.inf:  # an infinite entry keeps inf, and a NaN never gets here
        scale = float(np.abs(v).max())
        if scale < math.inf:
            norm = scale * _norm(v / scale)
    return norm


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unconstrained:
    """Whole space R^dim.  Permitted even though it is not compact; the
    linear-SVM application needs it."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def project(self, p) -> Vector:
        p = _as_vector(p, "point", self.dim)
        return p.copy()

    def centroid(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {p : lower <= p <= upper}.

    Infinite bounds are accepted (a relaxation of compactness, like
    Unconstrained); clamping handles them transparently.  NaN bounds, and a
    coordinate with no finite point (lower +inf or upper -inf), are rejected.
    """

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower")
        hi = _as_vector(self.upper, "upper")
        if lo.size != hi.size:
            raise ValueError("lower and upper must have equal length")
        _require_finite(lo, "lower", allow_inf=True)
        _require_finite(hi, "upper", allow_inf=True)
        crossed = np.flatnonzero(lo > hi)
        if crossed.size:
            i = crossed[0]
            raise ValueError(f"lower entry {i} ({lo[i]}) exceeds upper entry {i} ({hi[i]})")
        empty = np.flatnonzero((lo == np.inf) | (hi == -np.inf))
        if empty.size:
            raise ValueError(f"box coordinate {empty[0]} holds no finite point")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, p) -> Vector:
        p = _as_vector(p, "point", self.dim)
        return np.clip(p, self.lower, self.upper)

    def centroid(self) -> Vector:
        # Midpoint where both bounds are finite, else the finite bound, else 0.
        # A finite pair whose sum overflows takes lo/2 + hi/2, which cannot;
        # inf - inf is NaN only where both bounds are infinite, set to 0 last.
        lo, hi = self.lower, self.upper
        inf_lo, inf_hi = np.isinf(lo), np.isinf(hi)
        with np.errstate(over="ignore", invalid="ignore"):
            mid = lo + hi
        mid /= 2.0
        over = np.isinf(mid)
        mid[over] = lo[over] / 2.0 + hi[over] / 2.0
        np.copyto(mid, lo, where=inf_hi)
        np.copyto(mid, hi, where=inf_lo)
        np.copyto(mid, 0.0, where=inf_lo & inf_hi)
        return mid


@dataclass(frozen=True)
class L2Ball:
    """Euclidean ball {p : ||p - center|| <= radius}."""

    center: Vector
    radius: float

    def __post_init__(self):
        c = _as_vector(self.center, "center")
        _require_finite(c, "center")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.size

    def project(self, p) -> Vector:
        p = _as_vector(p, "point", self.dim)
        offset = p - self.center
        dist = _norm(offset)
        if dist <= self.radius:
            return p.copy()
        factor = self.radius / dist
        if factor < sys.float_info.min:  # dist inf, or over 2^1022 radii: direction first
            scale = float(np.abs(offset).max())  # or the infinite entries' signs
            offset = np.sign(offset) * np.isinf(offset) if scale == math.inf else offset / scale
            factor = self.radius / _norm(offset)
        offset *= factor
        offset += self.center
        return offset

    def centroid(self) -> Vector:
        return self.center.copy()


# Each set's project(p) is the Euclidean projection onto it: idempotent, and
# the identity on feasible points.
FeasibleSet = Union[Unconstrained, Box, L2Ball]


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """Dimension and feasible set of one block of the joint variable."""

    dim: int
    feasible_set: FeasibleSet

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.feasible_set.dim != self.dim:
            raise ValueError(
                f"feasible set has dim {self.feasible_set.dim}, block says {self.dim}"
            )


def _slices(blocks) -> tuple[slice, ...]:
    """Each block's slice of the joint vector, the blocks laid end to end."""
    out, offset = [], 0
    for b in blocks:
        out.append(slice(offset, offset + b.dim))
        offset += b.dim
    return tuple(out)


@dataclass(frozen=True)
class ProblemInstance:
    """Stochastic objective oracle over a block-partitioned variable.

    The sampling contract: ``sample_batch(rng, size)`` draws ``size``
    realizations of the problem's randomness as an array with the
    realizations along axis 0, and one call for ``n * size`` must equal
    ``n`` calls for ``size``, stacked (:func:`drive` prefetches many
    batches in one call and hands each iteration its rows, a view).
    ``sample_batch`` may run on a worker thread while ``batch_grad`` runs
    on the caller's, but never two calls at once; a run may take one draw
    that it never uses, when it stops on ``term_eps`` or on an error.
    ``batch_grad(batch, x, l)`` returns the batch-mean cost gradient over
    block ``l`` at the joint point ``x``, a numpy array of shape
    ``(block dim,)``, which may be read-only.  Block calls on one pair of
    ``batch`` and ``x`` objects may share one joint computation (the SVM's
    blocks are read-only views of one gradient), so a caller that changes
    either in place between block calls must pass new objects.  Gradients
    must be unbiased estimates of the true gradient with bounded variance;
    the problems in :mod:`blockstoch.problems` satisfy this by construction
    and the test suite checks it statistically.

    ``true_objective``/``true_gradient`` are optional exact oracles used
    for trace metrics and verification; ``x0`` is every method's optional
    start point (:meth:`default_start`).  Every projection of a joint vector
    is one pass over :attr:`constrained_blocks` (:meth:`_project_in_place`).
    """

    blocks: tuple[BlockSpec, ...]
    sample_batch: Callable[[np.random.Generator, int], np.ndarray]
    batch_grad: Callable[[Any, Vector, int], Vector]
    true_objective: Optional[Callable[[Vector], float]] = None
    true_gradient: Optional[Callable[[Vector], Vector]] = None
    x0: Optional[Vector] = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("problem needs at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        return _slices(self.blocks)

    @cached_property
    def constrained_blocks(self) -> tuple[tuple[slice, FeasibleSet], ...]:
        """(slice, set) of every block whose set is not ``Unconstrained``:
        the blocks a projection changes.  The rest project to themselves."""
        return tuple((sl, b.feasible_set) for sl, b in zip(self.block_slices, self.blocks)
                     if not isinstance(b.feasible_set, Unconstrained))

    def _project_in_place(self, x: Vector) -> Vector:
        """The one projection pass: each constrained block's slice of x onto its
        set, written into x; returns x.  :meth:`project` and every step call it."""
        for sl, feasible_set in self.constrained_blocks:
            x[sl] = feasible_set.project(x[sl])
        return x

    def project(self, x) -> Vector:
        """Project a joint vector onto the product of block sets, into a fresh array."""
        return self._project_in_place(_as_vector(x, "x", self.dim).copy())

    def default_start(self) -> Vector:
        """Every method's start: the instance's ``x0``, projected and checked
        finite (ValueError); without it, the blocks' centroids."""
        if self.x0 is None:
            return np.concatenate([b.feasible_set.centroid() for b in self.blocks])
        x = self.project(self.x0)
        _require_finite(x, "projected x0")
        return x

    @cached_property
    def _block_shapes(self) -> tuple[tuple[slice, tuple[int]], ...]:  # for gather_grad
        return tuple((sl, (sl.stop - sl.start,)) for sl in self.block_slices)

    def gather_grad(self, batch, x: Vector, out: Vector) -> Vector:
        """Write the batch-mean gradient at x into the joint vector out, one
        ``batch_grad`` call per block, and return out.  A block gradient
        that is not an array of shape ``(block dim,)`` raises ValueError."""
        for l, (sl, shape) in enumerate(self._block_shapes):
            g_l = self.batch_grad(batch, x, l)
            shape_l = getattr(g_l, "shape", None)
            if shape_l != shape:
                raise ValueError(f"block {l} gradient has shape {shape_l}, expected {shape}")
            out[sl] = g_l
        return out


# ---------------------------------------------------------------------------
# Run configuration and trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Settings of one run.  With ``term_eps`` set, a run also stops once
    ||x^k - x^{k-1}|| / alpha_k <= term_eps; without it, at ``max_iters``
    only.  ``n_workers`` is kept for callers that set it and must be >= 1,
    but selects nothing: the step is one serial pass, and whether draws
    overlap it follows from the run itself (:func:`drive`)."""

    schedule: Schedule = field(default_factory=Schedule)
    batch_size: int = 1
    max_iters: int = 1000
    seed: int = 0
    eval_every: int = 100
    term_eps: Optional[float] = None
    n_workers: int = 1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.max_iters > 0 and self.eval_every > self.max_iters:
            raise ValueError("eval_every must not exceed max_iters")
        if self.term_eps is not None and not 0 < self.term_eps < np.inf:
            raise ValueError(f"term_eps={self.term_eps} must be positive and finite")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    objective: Optional[float]
    step_norm: float
    tracker_error: Optional[float]
    elapsed_ns: int


@dataclass(frozen=True)
class IterationInfo:
    """Read-only view handed to per-iteration callbacks.  The arrays are
    live views owned by the engine; copy before storing."""

    k: int
    omega: float
    alpha: float
    x: Vector
    x_prev: Vector
    h: Vector


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def explicit_weights(omegas) -> Vector:
    """Per-sample weights of the tracker's equivalent explicit sum.

    Given omega_1..omega_k with omega_1 = 1, returns w[i] =
    omega_i * prod_{j>i} (1 - omega_j), so that the recursively updated
    tracker equals sum_i w[i] * g_i for any gradient stream g_1..g_k.
    The weights always sum to 1 (telescoping), up to roundoff.
    """
    om = np.asarray(omegas, dtype=np.float64)
    if om.ndim != 1 or om.size == 0:
        raise ValueError("omegas must be a non-empty 1-D sequence")
    if om[0] != 1.0:
        raise ValueError("first mixing weight must be exactly 1")
    if not np.all((om > 0.0) & (om <= 1.0)):
        raise ValueError("all mixing weights must lie in (0, 1]")
    suffix = np.ones_like(om)
    if om.size > 1:
        suffix[:-1] = np.cumprod((1.0 - om)[:0:-1])[::-1]
    return om * suffix


def minimize_surrogate(x_prev_l, h_l, alpha_k: float, feasible_set: FeasibleSet) -> Vector:
    """Minimize the per-block proximal-quadratic surrogate over the set.

    The surrogate ||x - x_prev||^2 / (2 alpha) + <h, x - x_prev> has the
    unique constrained minimizer set.project(x_prev - alpha * h), which is
    what this returns.  The step obeys ||result - x_prev|| <= 2 alpha ||h||.
    """
    if not 0 < alpha_k < np.inf:
        raise ValueError(f"alpha_k must be positive and finite, got {alpha_k}")
    x_prev_l = _as_vector(x_prev_l, "x_prev_l")
    h_l = _as_vector(h_l, "h_l")
    if x_prev_l.shape != h_l.shape:
        raise ValueError(f"layout mismatch: {x_prev_l.shape} vs {h_l.shape}")
    return feasible_set.project(x_prev_l - alpha_k * h_l)


def stationarity_residual(problem: ProblemInstance, x, alpha_probe: float) -> float:
    """Projected-gradient fixed-point gap ||x - P_X(x - a grad F(x))|| / a.

    Zero exactly at first-order stationary points.  Requires the problem's
    true_gradient oracle.
    """
    if not 0 < alpha_probe < np.inf:
        raise ValueError(f"alpha_probe={alpha_probe} must be positive and finite")
    if problem.true_gradient is None:
        raise ValueError("stationarity residual needs true_gradient")
    x = _as_vector(x, "x", problem.dim)
    g = np.asarray(problem.true_gradient(x), dtype=np.float64)
    moved = problem._project_in_place(x - alpha_probe * g)
    return _norm(x - moved) / alpha_probe


# ---------------------------------------------------------------------------
# Iteration driver
# ---------------------------------------------------------------------------

Step = Callable[[Any, int, float, float], Vector]

DRAW_BYTES = 1 << 20
"""Byte budget of one prefetched draw: :func:`drive` asks ``sample_batch``
for as many batches at once as fit in it (at least one)."""

PREFETCH_MIN_ITERS = 10
"""Shortest run whose draws :func:`drive` takes on a worker thread.  The
worker pays only where the scheduler runs it on another CPU than the
step's, which it often does not early in a run: 5-iteration runs of a
2e5-entry Box/L2Ball quadratic took 4.8% longer with the worker (median of
50 interleaved pairs on 2 vCPUs), against 24.8% less time with the two
threads pinned to different CPUs."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where it has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _make_record(problem: ProblemInstance, k: int, x: Vector, h: Optional[Vector],
                 step_norm: float, started_ns: int) -> TraceRecord:
    objective = None
    if problem.true_objective is not None:
        objective = float(problem.true_objective(x))
    tracker_error = None
    if h is not None and problem.true_gradient is not None:
        g = np.asarray(problem.true_gradient(x), dtype=np.float64)
        tracker_error = _norm(h - g)
    return TraceRecord(
        k=k,
        objective=objective,
        step_norm=step_norm,
        tracker_error=tracker_error,
        elapsed_ns=time.perf_counter_ns() - started_ns,
    )


def _check_finite(k: int, slices: tuple[slice, ...], g: Optional[Vector], x: Vector,
                  v: Optional[Vector] = None) -> None:
    """Raise NumericalFailureError unless the iterate, the joint gradient
    and Adam's second moment v (each if given) are finite.  One reduction
    decides: x . v, else x . g, else x . x, is finite unless an entry of
    either is NaN or inf (inf * 0 is NaN; a non-finite gradient makes v
    non-finite) or the sum overflows.  Only then are the blocks scanned in
    order, gradient before iterate, then the second moment, and the first
    non-finite one (if any) named; an overflow of finite entries starts a
    scan that finds nothing, so no summation order can move the outcome.
    The reduction is ``np.vdot`` (quiet on overflow, unlike ``ndarray.dot``,
    ``@``, ``np.inner`` and ``np.vecdot``) up to ROW_BLAS_MAX entries.
    Beyond, OpenBLAS splits ``ddot`` over its threads, whose wake-ups cost
    more CPU than the sum, so :func:`_dot` takes it on one thread."""
    y = v if v is not None else x if g is None else g
    if math.isfinite(np.vdot(x, y) if x.size <= ROW_BLAS_MAX else _dot(x, y)):
        return
    for l, sl in enumerate(slices):
        if g is not None and not np.isfinite(g[sl]).all():
            raise NumericalFailureError(k, l, "sample gradient")
        if not np.isfinite(x[sl]).all():
            raise NumericalFailureError(k, l, "iterate")
    if v is not None:
        for l, sl in enumerate(slices):
            if not np.isfinite(v[sl]).all():
                raise NumericalFailureError(k, l, "second moment")


def drive(problem: ProblemInstance, config: RunConfig, x: Vector, step: Step,
          h: Optional[Vector] = None, sample_log: Optional[list] = None,
          iteration_callback: Optional[Callable[[IterationInfo], None]] = None,
          ) -> tuple[Vector, list[TraceRecord]]:
    """The iteration loop of every method; returns (final point, trace).

    Iteration k takes its mini-batch from the stream seeded by
    ``config.seed`` and calls ``step(batch, k, omega_k, alpha_k)``, which
    advances the method's state and returns its reported point as an array
    that is not the previous point (``x`` is the one before the first step).
    Records are taken at the reported point every ``eval_every`` iterations
    and at the last, with the error of the live tracker ``h`` when given.
    ``config.term_eps`` stops the run, recorded, once the reported step over
    alpha_k is at most it.  ``sample_log`` collects copies of the first 100
    batches for sample-stream audits.

    The batches come from one ``sample_batch`` call per ``DRAW_BYTES`` of
    draws: the first call draws one batch, whose size fixes how many the
    later calls draw (never more than the iterations left), and iteration
    k takes its ``batch_size`` rows in order.  By the sampling contract
    this is the stream of one call per iteration.  Where each call draws
    one batch (it holds over half of ``DRAW_BYTES``), the run has at least
    ``PREFETCH_MIN_ITERS`` iterations and the process may use more than one
    CPU, each later call runs on one worker thread, started for the run and
    joined before it returns, while the previous iteration's step runs:
    the same calls in the same order, one in flight at a time, and a
    call's error is raised at the iteration that needs its batch.
    """
    rng, schedule = np.random.default_rng(config.seed), config.schedule
    eps = config.term_eps
    trace: list[TraceRecord] = []
    size, per_draw, draws, offset = config.batch_size, 1, (), 0
    pool, pending = None, None
    started_ns = time.perf_counter_ns()
    try:
        for k in range(1, config.max_iters + 1):
            omega_k = schedule.omega(k)
            alpha_k = schedule.alpha(k)
            if offset == len(draws):
                n = min(per_draw, config.max_iters + 1 - k) * size
                draws = problem.sample_batch(rng, n) if pending is None else pending.result()
                offset = 0
                if len(draws) != n:
                    raise ValueError(f"sample_batch(rng, {n}) returned {len(draws)} realizations")
                if k == 1:
                    per_draw = max(1, DRAW_BYTES // max(1, draws.nbytes))
                    if (per_draw == 1 and config.max_iters >= PREFETCH_MIN_ITERS
                            and _usable_cpus() > 1):
                        pool = ThreadPoolExecutor(max_workers=1)  # its thread starts at submit
                if pool is not None and k < config.max_iters:  # n is one batch, as next time
                    pending = pool.submit(problem.sample_batch, rng, n)
            batch = draws[offset:offset + size]
            offset += size
            if sample_log is not None and len(sample_log) < 100:
                sample_log.append(batch.copy())

            x_prev = x
            x = step(batch, k, omega_k, alpha_k)
            if iteration_callback is not None:
                iteration_callback(IterationInfo(k, omega_k, alpha_k, x, x_prev, h))

            record = k % config.eval_every == 0 or k == config.max_iters
            if record or eps is not None:
                step_norm = _norm(x - x_prev)
                stopping = eps is not None and step_norm / alpha_k <= eps
                if record or stopping:
                    trace.append(_make_record(problem, k, x, h, step_norm, started_ns))
                if stopping:
                    break
    finally:
        if pool is not None:  # waits for a draw in flight; its result or error is dropped
            pool.shutdown()
    return x, trace


def block_step(problem: ProblemInstance, x: Vector, h: Vector) -> Step:
    """The proposed method's update, from x, as a step for :func:`drive`.

    One serial pass: gather the batch-mean gradient g at the previous
    iterate, fold it into the tracker h (updated in place), form
    x - alpha_k h, and project its constrained blocks in place through
    :meth:`ProblemInstance._project_in_place`.
    """
    slices = problem.block_slices
    g = np.empty(problem.dim)

    def step(batch, k: int, omega_k: float, alpha_k: float) -> Vector:
        nonlocal x, h
        problem.gather_grad(batch, x, g)
        h *= 1.0 - omega_k
        h += omega_k * g
        x = problem._project_in_place(x - alpha_k * h)
        _check_finite(k, slices, g, x)
        return x

    return step


def run(problem: ProblemInstance, config: RunConfig,
        iteration_callback: Optional[Callable[[IterationInfo], None]] = None,
        sample_log: Optional[list] = None,
        ) -> tuple[Vector, list[TraceRecord]]:
    """Run the solver and return (final joint iterate, trace records).

    The :func:`block_step` update under :func:`drive`, from
    ``problem.default_start()``; the result is deterministic for a fixed seed.
    """
    x = problem.default_start()
    h = np.zeros(problem.dim)
    return drive(problem, config, x, block_step(problem, x, h), h, sample_log,
                 iteration_callback)
