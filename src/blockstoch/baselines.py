"""Reference optimizers for the benchmark comparisons.

Three baselines: mini-batch Pegasos for the SVM, bias-corrected Adam, and
an iterate-averaged variant of the block solver (same inner proximal
update, but the reported point is a vanishing-weight running average -- a
reference implementation of the averaging behavior, not of any specific
published method in full generality).

Each run is a start state plus a step for :func:`blockstoch.core.drive`,
which draws every mini-batch, so for a fixed seed and batch size every
method here consumes the exact sample stream of :func:`blockstoch.core.run`,
steps on every sample it draws, and honours the same termination rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ProblemInstance,
    RunConfig,
    TraceRecord,
    Vector,
    _check_finite,
    _row_dot,
    block_step,
    drive,
)
from .problems import SvmProblem, hinge_pass


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamParams:
    lr: float = 1e-3

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr={self.lr}: must be positive and finite")


def check_rho_avg(rho_avg: float, schedule) -> None:
    """The one rule for rho_avg: finite (inf zeroes the weight from k = 2 on) and
    above the schedule's alpha exponent, so that the weight k^-rho_avg vanishes
    faster than the step (Polyak & Juditsky, 1992), or 0, which pins the weight."""
    if rho_avg != 0.0 and not schedule.alpha_exponent < rho_avg < np.inf:
        raise ValueError(
            f"rho_avg={rho_avg} must be finite and exceed the schedule's alpha exponent "
            f"{schedule.alpha_exponent} (or be 0 to pin the weight)"
        )


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def pegasos_step(w, ex: tuple, lam: float, t: int) -> Vector:
    """One Pegasos update (Shalev-Shwartz et al., 2011) with step size
    eta_t = 1/(lam t).

    ``ex`` is one SVM row as an ``(indices, values, label)`` tuple: the row's
    stored feature indices and values and its label y, -1 or +1.
    w' = (1 - 1/t) w + eta_t y x when the example violates the margin
    (strict y<x,w> < 1, this method's convention), else the pure shrink.
    At t = 1 the shrink factor is exactly zero, so w' is independent of w.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 < lam < np.inf:
        raise ValueError(f"lam={lam}: must be positive and finite")
    indices, values, label = ex
    w = np.asarray(w, dtype=np.float64)
    out = (1.0 - 1.0 / t) * w
    if label * _row_dot(values, w[indices]) < 1.0:
        out[indices] += (label / (lam * t)) * values
    return out


def _adam_update(w, g, m, v, t: int, params: AdamParams, out: Vector, tmp: Vector) -> Vector:
    """:func:`adam_step` with the textbook form's own ops (x*a == a*x exactly):
    m and v in place, w' into ``out`` (not w) with ``tmp`` as scratch; returns out."""
    np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=out)
    out *= params.lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    out /= tmp
    return np.subtract(w, out, out=out)


def adam_step(w, g, m, v, t: int, params: AdamParams = AdamParams()
              ) -> tuple[Vector, Vector, Vector]:
    """One bias-corrected Adam update at Kingma & Ba's (2015) beta1, beta2 and eps,
    the ADAM_* constants; returns (w', m', v'), all fresh arrays.  A zero gradient
    with zero moments leaves w unchanged for every t; :func:`run_adam` projects w'."""
    if t < 1:
        raise ValueError("t must be >= 1")
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if w.shape != g.shape:
        raise ValueError(f"layout mismatch: {w.shape} vs {g.shape}")
    m2, v2 = np.array(m, dtype=np.float64), np.array(v, dtype=np.float64)
    w2 = _adam_update(w, g, m2, v2, t, params, np.empty_like(w), np.empty_like(w))
    return w2, m2, v2


def averaging_weight(k: int, rho_avg: float) -> float:
    """Vanishing averaging weight rho_k = k^-rho_avg with rho_1 = 1; a zero
    exponent pins the weight to 1 (no averaging)."""
    return float(k) ** (-rho_avg)


# ---------------------------------------------------------------------------
# Full runs: a start state and a step for the shared driver
# ---------------------------------------------------------------------------

def run_pegasos(problem: SvmProblem, config: RunConfig, sample_log: Optional[list] = None,
                inst: Optional[ProblemInstance] = None) -> tuple[Vector, list[TraceRecord]]:
    """Mini-batch Pegasos (Shalev-Shwartz et al., 2011) on the SVM problem;
    outputs the LAST weight vector.

    Each step uses the whole batch of B rows, w' = (1 - 1/t) w + (1/(lam t B))
    sum y x over the rows with y<x,w> < 1, through the oracle's row loop
    :func:`blockstoch.problems.hinge_pass`; at B = 1 it is :func:`pegasos_step`
    bit for bit.  The original method's optional ball projection is omitted.
    A non-finite iterate raises NumericalFailureError, as in every method.
    ``inst`` is ``problem.instance()`` when the caller has already built it."""
    inst = problem.instance() if inst is None else inst
    w = inst.default_start()
    lam, slices = problem.lam, inst.block_slices
    hinge = hinge_pass(problem.dataset)

    def step(batch, t, omega_t, alpha_t):
        nonlocal w
        w_prev, w = w, (1.0 - 1.0 / t) * w
        hinge(w, w_prev, batch.tolist(), 1.0 / (lam * t * len(batch)), strict=True)
        _check_finite(t, slices, None, w)
        return w

    return drive(inst, config, w, step, sample_log=sample_log)


def run_adam(inst: ProblemInstance, config: RunConfig,
             params: AdamParams = AdamParams(),
             sample_log: Optional[list] = None) -> tuple[Vector, list[TraceRecord]]:
    """Adam on the batch-mean stochastic gradient; each step's point goes
    through the instance's one projection pass, as the block step's does.

    The moments are updated in place, and each point is written into a spare
    buffer that then swaps with the previous one.  Besides the gradient and
    iterate, the second moment must stay finite: a squared gradient entry
    that overflows would freeze its coordinate.
    :func:`blockstoch.core._check_finite` checks all three with the one
    product w . v."""
    w = inst.default_start()
    m, v, g = np.zeros(inst.dim), np.zeros(inst.dim), np.empty(inst.dim)
    spare, tmp = np.empty(inst.dim), np.empty(inst.dim)
    slices = inst.block_slices

    def step(batch, t, omega_t, alpha_t):
        nonlocal w, spare
        inst.gather_grad(batch, w, g)
        _adam_update(w, g, m, v, t, params, spare, tmp)
        w, spare = inst._project_in_place(spare), w
        _check_finite(t, slices, g, w, v)
        return w

    return drive(inst, config, w, step, sample_log=sample_log)


def run_averaged_sca(inst: ProblemInstance, config: RunConfig,
                     rho_avg: float = 1.0,
                     sample_log: Optional[list] = None) -> tuple[Vector, list[TraceRecord]]:
    """The core block update plus vanishing-weight iterate averaging
    (Polyak & Juditsky, 1992).

    The inner iterate is exactly the proposed method's; the reported point
    is x_bar^k = (1 - rho_k) x_bar^{k-1} + rho_k x^k with rho_k = k^-rho_avg
    (rho_1 = 1).  Trace metrics are evaluated at the averaged point.  Before
    the first draw, :func:`check_rho_avg` requires rho_avg finite and above the
    alpha exponent, or 0, which pins rho_k = 1 and reproduces the core iterate.
    """
    check_rho_avg(rho_avg, config.schedule)
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

