"""Block-parallel stochastic optimization engine.

The solver maintains a gradient tracker h that blends each iteration's
mini-batch sample gradient into a running convex combination, then moves
every block through a proximal step (projection of a scaled tracker step
onto the block's feasible set).  Block updates within one iteration are
mutually independent: each reads the previous iterate and writes only its
own slice.  One step runs them as a single serial pass.

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
import time
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


class UnsupportedOperationError(RuntimeError):
    """The problem instance lacks an oracle this operation needs."""


def _as_vector(v, name: str) -> Vector:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {out.shape}")
    return out


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
        p = _as_vector(p, "point")
        if p.size != self.dim:
            raise ValueError(f"point has dim {p.size}, set has dim {self.dim}")
        return p.copy()

    def centroid(self) -> Vector:
        return np.zeros(self.dim)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {p : lower <= p <= upper}.

    Infinite bounds are accepted (a relaxation of compactness, like
    Unconstrained); clamping handles them transparently.  NaN bounds are
    rejected.
    """

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower")
        hi = _as_vector(self.upper, "upper")
        if lo.size != hi.size:
            raise ValueError("lower and upper must have equal length")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("box requires lower[i] <= upper[i] for all i")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, p) -> Vector:
        p = _as_vector(p, "point")
        if p.size != self.dim:
            raise ValueError(f"point has dim {p.size}, set has dim {self.dim}")
        return np.clip(p, self.lower, self.upper)

    def centroid(self) -> Vector:
        # Midpoint where both bounds are finite, else the finite bound, else 0.
        lo, hi = self.lower, self.upper
        mid = np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2.0, 0.0)
        mid = np.where(np.isfinite(lo) & ~np.isfinite(hi), lo, mid)
        mid = np.where(~np.isfinite(lo) & np.isfinite(hi), hi, mid)
        return mid


@dataclass(frozen=True)
class L2Ball:
    """Euclidean ball {p : ||p - center|| <= radius}."""

    center: Vector
    radius: float

    def __post_init__(self):
        c = _as_vector(self.center, "center")
        if not np.isfinite(c).all():
            raise ValueError("center must be finite")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.size

    def project(self, p) -> Vector:
        p = _as_vector(p, "point")
        if p.size != self.dim:
            raise ValueError(f"point has dim {p.size}, set has dim {self.dim}")
        offset = p - self.center
        dist = float(np.linalg.norm(offset))
        if dist <= self.radius:
            return p.copy()
        return self.center + (self.radius / dist) * offset

    def centroid(self) -> Vector:
        return self.center.copy()


FeasibleSet = Union[Unconstrained, Box, L2Ball]


def project(feasible_set: FeasibleSet, p) -> Vector:
    """Euclidean projection of p onto the set.

    Idempotent, and the identity on feasible points.  Closed forms:
    Unconstrained -> copy of p; Box -> per-coordinate clamp; L2Ball ->
    radial rescaling toward the center when outside.
    """
    return feasible_set.project(p)


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


@dataclass(frozen=True)
class ProblemInstance:
    """Stochastic objective oracle over a block-partitioned variable.

    The sampling contract: ``sample_batch(rng, size)`` draws ``size``
    realizations of the problem's randomness as an array with the
    realizations along axis 0, and one call for ``n * size`` must equal
    ``n`` calls for ``size``, stacked (:func:`drive` prefetches many
    batches in one call and hands each iteration its rows, a view).
    ``batch_grad(batch, x, l)`` returns the batch-mean cost gradient over
    block ``l`` at the joint point ``x``, a numpy array of shape
    ``(block dim,)``.  Gradients must be unbiased estimates of the true
    gradient with bounded variance; the problems in
    :mod:`blockstoch.problems` satisfy this by construction and the test
    suite checks it statistically.

    ``true_objective``/``true_gradient`` are optional exact oracles used
    for trace metrics and verification; ``x0`` is an optional preferred
    start point (the engine falls back to feasible-set centroids).
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
        out, offset = [], 0
        for b in self.blocks:
            out.append(slice(offset, offset + b.dim))
            offset += b.dim
        return tuple(out)

    @cached_property
    def _grad_layout(self) -> tuple[tuple[int, slice, tuple[int]], ...]:
        return tuple((l, sl, (b.dim,))
                     for l, (sl, b) in enumerate(zip(self.block_slices, self.blocks)))

    @cached_property
    def constrained_blocks(self) -> tuple[tuple[slice, FeasibleSet], ...]:
        """(slice, set) of every block whose set is not ``Unconstrained``:
        the blocks a projection changes.  The rest project to themselves."""
        return tuple((sl, b.feasible_set) for sl, b in zip(self.block_slices, self.blocks)
                     if not isinstance(b.feasible_set, Unconstrained))

    def project(self, x) -> Vector:
        """Project a joint vector onto the product of block sets."""
        x = _as_vector(x, "x")
        if x.size != self.dim:
            raise ValueError(f"x has dim {x.size}, problem has dim {self.dim}")
        out = x.copy()
        for sl, feasible_set in self.constrained_blocks:
            out[sl] = feasible_set.project(x[sl])
        return out

    def default_start(self) -> Vector:
        if self.x0 is not None:
            return self.project(self.x0)
        return np.concatenate([b.feasible_set.centroid() for b in self.blocks])

    def gather_grad(self, batch, x: Vector, out: Vector) -> Vector:
        """Write the batch-mean gradient at x into the joint vector out, one
        ``batch_grad`` call per block, and return out.  A block gradient
        that is not an array of shape ``(block dim,)`` raises ValueError."""
        for l, sl, shape in self._grad_layout:
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
class MaxIters:
    """Stop at max_iters only."""


@dataclass(frozen=True)
class StepNormBelow:
    """Stop once ||x^k - x^{k-1}|| / alpha_k <= eps."""

    eps: float

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise ValueError(f"termination eps={self.eps} must be positive and finite")


Termination = Union[MaxIters, StepNormBelow]


@dataclass(frozen=True)
class RunConfig:
    """Settings of one run.  ``n_workers`` is kept for callers that set it
    and must be >= 1, but selects nothing: every run is serial."""

    schedule: Schedule = field(default_factory=Schedule)
    batch_size: int = 1
    max_iters: int = 1000
    seed: int = 0
    eval_every: int = 100
    termination: Termination = field(default_factory=MaxIters)
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
    if np.any(om <= 0.0) or np.any(om > 1.0):
        raise ValueError("all mixing weights must lie in (0, 1]")
    suffix = np.ones_like(om)
    if om.size > 1:
        suffix[:-1] = np.cumprod((1.0 - om)[:0:-1])[::-1]
    return om * suffix


def minimize_surrogate(x_prev_l, h_l, alpha_k: float, feasible_set: FeasibleSet) -> Vector:
    """Minimize the per-block proximal-quadratic surrogate over the set.

    The surrogate ||x - x_prev||^2 / (2 alpha) + <h, x - x_prev> has the
    unique constrained minimizer project(set, x_prev - alpha * h), which is
    what this returns.  The step obeys ||result - x_prev|| <= 2 alpha ||h||.
    """
    if not alpha_k > 0:
        raise ValueError(f"alpha_k must be positive, got {alpha_k}")
    x_prev_l = _as_vector(x_prev_l, "x_prev_l")
    h_l = _as_vector(h_l, "h_l")
    if x_prev_l.shape != h_l.shape:
        raise ValueError(f"layout mismatch: {x_prev_l.shape} vs {h_l.shape}")
    return project(feasible_set, x_prev_l - alpha_k * h_l)


def stationarity_residual(problem: ProblemInstance, x, alpha_probe: float) -> float:
    """Projected-gradient fixed-point gap ||x - P_X(x - a grad F(x))|| / a.

    Zero exactly at first-order stationary points.  Requires the problem's
    true_gradient oracle.
    """
    if not alpha_probe > 0:
        raise ValueError("alpha_probe must be positive")
    if problem.true_gradient is None:
        raise UnsupportedOperationError("stationarity residual needs true_gradient")
    x = _as_vector(x, "x")
    g = np.asarray(problem.true_gradient(x), dtype=np.float64)
    moved = problem.project(x - alpha_probe * g)
    return float(np.linalg.norm(x - moved)) / alpha_probe


# ---------------------------------------------------------------------------
# Iteration driver
# ---------------------------------------------------------------------------

Step = Callable[[Any, int, float, float], Vector]

DRAW_BYTES = 1 << 20
"""Byte budget of one prefetched draw: :func:`drive` asks ``sample_batch``
for as many batches at once as fit in it (at least one)."""


def _make_record(problem: ProblemInstance, k: int, x: Vector, h: Optional[Vector],
                 step_norm: float, started_ns: int) -> TraceRecord:
    objective = None
    if problem.true_objective is not None:
        objective = float(problem.true_objective(x))
    tracker_error = None
    if h is not None and problem.true_gradient is not None:
        g = np.asarray(problem.true_gradient(x), dtype=np.float64)
        tracker_error = float(np.linalg.norm(h - g))
    return TraceRecord(
        k=k,
        objective=objective,
        step_norm=step_norm,
        tracker_error=tracker_error,
        elapsed_ns=time.perf_counter_ns() - started_ns,
    )


def _check_finite(k: int, slices: tuple[slice, ...], g: Optional[Vector], x: Vector) -> None:
    """Raise NumericalFailureError unless the iterate and the joint gradient
    (if any) are finite.  A sum of squares is finite unless an entry is NaN
    or inf or the sum overflows (``vdot`` does so without a warning); only
    then are the blocks scanned, in order and gradient before iterate, to
    name the first failing one."""
    if math.isfinite(np.vdot(x, x)) and (g is None or math.isfinite(np.vdot(g, g))):
        return
    for l, sl in enumerate(slices):
        if g is not None and not np.isfinite(g[sl]).all():
            raise NumericalFailureError(k, l, "sample gradient")
        if not np.isfinite(x[sl]).all():
            raise NumericalFailureError(k, l, "iterate")


def _step_norm(x: Vector, x_prev: Vector) -> float:
    """||x - x_prev||, rescaled by the largest entry only where the plain
    norm overflows on a finite step (so every finite result is the plain one)."""
    d = x - x_prev
    norm = float(np.linalg.norm(d))
    if not math.isfinite(norm):
        scale = float(np.abs(d).max())
        if 0.0 < scale < math.inf:
            norm = scale * float(np.linalg.norm(d / scale))
    return norm


def drive(problem: ProblemInstance, config: RunConfig, x: Vector, step: Step,
          h: Optional[Vector] = None, sample_log: Optional[list] = None,
          iteration_callback: Optional[Callable[[IterationInfo], None]] = None,
          ) -> tuple[Vector, list[TraceRecord]]:
    """The iteration loop of every method; returns (final point, trace).

    Iteration k takes its mini-batch from the stream seeded by
    ``config.seed`` and calls ``step(batch, k, omega_k, alpha_k)``, which
    advances the method's state and returns its reported point as a fresh
    array (``x`` is the one before the first step).  Records are taken at
    the reported point every ``eval_every`` iterations and at the last, with
    the error of the live tracker ``h`` when given.  ``StepNormBelow`` stops
    the run, recorded, once the reported step over alpha_k is at most eps.
    ``sample_log`` collects copies of the first 100 batches for
    sample-stream audits.

    The batches come from one ``sample_batch`` call per ``DRAW_BYTES`` of
    draws: the first call draws one batch, whose size fixes how many the
    later calls draw (never more than the iterations left), and iteration
    k takes its ``batch_size`` rows in order.  By the sampling contract
    this is the stream of one call per iteration.
    """
    rng, schedule = np.random.default_rng(config.seed), config.schedule
    term = config.termination
    eps = term.eps if isinstance(term, StepNormBelow) else None
    trace: list[TraceRecord] = []
    size, per_draw, draws, offset = config.batch_size, 1, (), 0
    started_ns = time.perf_counter_ns()
    for k in range(1, config.max_iters + 1):
        omega_k = schedule.omega(k)
        alpha_k = schedule.alpha(k)
        if offset == len(draws):
            n = min(per_draw, config.max_iters + 1 - k) * size
            draws, offset = problem.sample_batch(rng, n), 0
            if len(draws) != n:
                raise ValueError(f"sample_batch(rng, {n}) returned {len(draws)} realizations")
            if k == 1:
                per_draw = max(1, DRAW_BYTES // max(1, draws.nbytes))
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
            step_norm = _step_norm(x, x_prev)
            stopping = eps is not None and step_norm / alpha_k <= eps
            if record or stopping:
                trace.append(_make_record(problem, k, x, h, step_norm, started_ns))
            if stopping:
                break
    return x, trace


def block_step(problem: ProblemInstance, x: Vector, h: Vector) -> Step:
    """The proposed method's update, from x, as a step for :func:`drive`.

    One serial pass: gather the batch-mean gradient g at the previous
    iterate, fold it into the tracker h (updated in place), form
    x - alpha_k h and project each constrained block's slice onto its own
    set (:attr:`ProblemInstance.constrained_blocks`).
    """
    slices, blocks = problem.block_slices, problem.constrained_blocks
    g = np.empty(problem.dim)

    def step(batch, k: int, omega_k: float, alpha_k: float) -> Vector:
        nonlocal x, h
        problem.gather_grad(batch, x, g)
        h *= 1.0 - omega_k
        h += omega_k * g
        x = x - alpha_k * h
        for sl, feasible_set in blocks:
            x[sl] = feasible_set.project(x[sl])
        _check_finite(k, slices, g, x)
        return x

    return step


def run(problem: ProblemInstance, config: RunConfig, x0=None,
        iteration_callback: Optional[Callable[[IterationInfo], None]] = None,
        sample_log: Optional[list] = None,
        ) -> tuple[Vector, list[TraceRecord]]:
    """Run the solver and return (final joint iterate, trace records).

    The :func:`block_step` update under :func:`drive`; the result is
    deterministic for a fixed seed.  An infeasible start is projected at
    entry.
    """
    x = problem.default_start() if x0 is None else problem.project(x0)
    h = np.zeros(problem.dim)
    return drive(problem, config, x, block_step(problem, x, h), h, sample_log,
                 iteration_callback)
