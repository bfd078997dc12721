"""Reference optimizers for the benchmark comparisons.

Three baselines: Pegasos-style single-sample SGD for the SVM, bias-corrected
Adam, and an iterate-averaged variant of the block solver (same inner
proximal update, but the reported point is a vanishing-weight running
average -- a reference implementation of the averaging behavior, not of any
specific published method in full generality).

Each run is a start state plus a step for :func:`blockstoch.core.drive`,
which draws every mini-batch, so for a fixed seed and batch size every
method here consumes the exact sample stream of :func:`blockstoch.core.run`
and honours the same termination rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    NumericalFailureError,
    ProblemInstance,
    RunConfig,
    TraceRecord,
    Vector,
    _check_finite,
    block_step,
    drive,
)
from .problems import SparseExample, SvmProblem


@dataclass(frozen=True)
class AdamParams:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr={self.lr}: must be positive and finite")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")


def check_rho_avg(rho_avg: float, schedule) -> None:
    """Reject an averaging exponent that does not exceed the schedule's
    alpha exponent (the weight must vanish faster than the step size), or
    is infinite (the weight would be 0 from iteration 2 on); 0 pins the weight."""
    if rho_avg != 0.0 and not schedule.alpha_exponent < rho_avg < np.inf:
        raise ValueError(
            f"rho_avg={rho_avg} must be finite and exceed the schedule's alpha exponent "
            f"{schedule.alpha_exponent} (or be 0 to pin the weight)"
        )


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def pegasos_step(w, ex: SparseExample, lam: float, t: int) -> Vector:
    """One Pegasos update (Shalev-Shwartz et al., 2011) with step size
    eta_t = 1/(lam t).

    w' = (1 - 1/t) w + eta_t y x when the example violates the margin
    (strict y<x,w> < 1, this method's convention), else the pure shrink.
    At t = 1 the shrink factor is exactly zero, so w' is independent of w.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not lam > 0:
        raise ValueError("lam must be positive")
    w = np.asarray(w, dtype=np.float64)
    out = (1.0 - 1.0 / t) * w
    margin = ex.label * float(ex.values @ w[ex.indices])
    if margin < 1.0:
        out[ex.indices] += (ex.label / (lam * t)) * ex.values
    return out


def adam_step(w, g, m, v, t: int, params: AdamParams = AdamParams(),
              project=None) -> tuple[Vector, Vector, Vector]:
    """One bias-corrected Adam update (Kingma & Ba, 2015); returns (w', m', v').

    A zero gradient with zero moments leaves w unchanged for every t.  When
    ``project`` is given the updated point is projected back onto the
    feasible set.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if w.shape != g.shape:
        raise ValueError(f"layout mismatch: {w.shape} vs {g.shape}")
    m2 = params.beta1 * m + (1.0 - params.beta1) * g
    v2 = params.beta2 * v + (1.0 - params.beta2) * g * g
    m_hat = m2 / (1.0 - params.beta1 ** t)
    v_hat = v2 / (1.0 - params.beta2 ** t)
    w2 = w - params.lr * m_hat / (np.sqrt(v_hat) + params.eps)
    if project is not None:
        w2 = project(w2)
    return w2, m2, v2


def _check_second_moment(t: int, slices: tuple[slice, ...], v: Vector) -> None:
    """Raise NumericalFailureError naming the first block whose second
    moment is not finite (a squared gradient entry overflowed), with the
    structure of :func:`blockstoch.core._check_finite`: a sum of squares
    that is finite passes, else the blocks are scanned."""
    if math.isfinite(np.vdot(v, v)):
        return
    for l, sl in enumerate(slices):
        if not np.isfinite(v[sl]).all():
            raise NumericalFailureError(t, l, "second moment")


def averaging_weight(k: int, rho_avg: float) -> float:
    """Vanishing averaging weight rho_k = k^-rho_avg with rho_1 = 1; a zero
    exponent pins the weight to 1 (no averaging)."""
    if k == 1 or rho_avg == 0.0:
        return 1.0
    return float(k) ** (-rho_avg)


# ---------------------------------------------------------------------------
# Full runs: a start state and a step for the shared driver
# ---------------------------------------------------------------------------

def run_pegasos(problem: SvmProblem, config: RunConfig, sample_log: Optional[list] = None,
                inst: Optional[ProblemInstance] = None) -> tuple[Vector, list[TraceRecord]]:
    """Pegasos on the SVM problem; outputs the LAST weight vector.

    The full mini-batch is drawn every iteration to keep the sample stream
    aligned with the other methods, but only the first token is consumed
    (mini-batch Pegasos is out of scope).  The original method's optional
    ball projection is omitted.  A non-finite iterate raises
    NumericalFailureError, as in every method.  ``inst`` is
    ``problem.instance()`` when the caller has already built it.
    """
    inst = problem.instance() if inst is None else inst
    w = inst.default_start()
    example, slices = problem.dataset.example, inst.block_slices

    def step(batch, t, omega_t, alpha_t):
        nonlocal w
        w = pegasos_step(w, example(int(np.atleast_1d(batch)[0])), problem.lam, t)
        _check_finite(t, slices, None, w)
        return w

    return drive(inst, config, w, step, sample_log=sample_log)


def run_adam(problem: Union[ProblemInstance, SvmProblem], config: RunConfig,
             params: AdamParams = AdamParams(),
             sample_log: Optional[list] = None) -> tuple[Vector, list[TraceRecord]]:
    """Adam on the batch-mean stochastic gradient, projected when constrained.

    Besides the gradient and iterate, the second moment must stay finite: a
    squared gradient entry that overflows would freeze its coordinate."""
    inst = problem.instance() if isinstance(problem, SvmProblem) else problem
    w = inst.default_start()
    m, v, g = np.zeros(inst.dim), np.zeros(inst.dim), np.empty(inst.dim)
    slices = inst.block_slices
    project = inst.project if inst.constrained_blocks else None

    def step(batch, t, omega_t, alpha_t):
        nonlocal w, m, v
        inst.gather_grad(batch, w, g)
        w, m, v = adam_step(w, g, m, v, t, params, project)
        _check_finite(t, slices, g, w)
        _check_second_moment(t, slices, v)
        return w

    return drive(inst, config, w, step, sample_log=sample_log)


def run_averaged_sca(problem: Union[ProblemInstance, SvmProblem], config: RunConfig,
                     rho_avg: float = 1.0,
                     sample_log: Optional[list] = None) -> tuple[Vector, list[TraceRecord]]:
    """The core block update plus vanishing-weight iterate averaging
    (Polyak & Juditsky, 1992).

    The inner iterate is exactly the proposed method's; the reported point
    is x_bar^k = (1 - rho_k) x_bar^{k-1} + rho_k x^k with rho_k = k^-rho_avg
    (rho_1 = 1).  Trace metrics are evaluated at the averaged point.
    rho_avg = 0 pins rho_k = 1 and reproduces the core iterate exactly.
    """
    inst = problem.instance() if isinstance(problem, SvmProblem) else problem
    x_avg = inst.default_start()
    h = np.zeros(inst.dim)
    inner = block_step(inst, x_avg, h)

    def step(batch, k, omega_k, alpha_k):
        nonlocal x_avg
        x = inner(batch, k, omega_k, alpha_k)
        rho_k = averaging_weight(k, rho_avg)
        x_avg = (1.0 - rho_k) * x_avg + rho_k * x
        return x_avg

    return drive(inst, config, x_avg, step, h, sample_log)

