"""Diminishing step-size sequences for the tracker and the proximal step.

Two sequences drive the solver: the tracker mixing weights {omega_k} and
the proximal step sizes {alpha_k}.  Valid sequences must start with
omega_1 = 1, have divergent sums and convergent sums of squares, and
satisfy alpha_k / omega_k -> 0.  The power-law family below guarantees all
of that by construction; SequenceSchedule is an escape hatch for arbitrary
sequences, screened numerically on a long prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class ScheduleError(ValueError):
    """A step-size sequence violates one of the required conditions."""


def _check_exponent(name: str, value: float) -> None:
    if not value > 0.5:
        raise ScheduleError(
            f"{name}={value}: sum of squared step sizes diverges (need exponent > 0.5)"
        )
    if value > 1.0:
        raise ScheduleError(
            f"{name}={value}: sum of step sizes converges (need exponent <= 1)"
        )


@dataclass(frozen=True)
class Schedule:
    """Power-law sequences omega(k) = (k + w_off)^-rho_w, alpha(k) = c (k + a_off)^-rho_a.

    omega(1) is pinned to 1 regardless of the exponent.  Construction
    validates every condition the solver's convergence rests on and names
    the violated clause; the defaults (0.6, 0.9, 1.0) satisfy all of them
    with margin.
    """

    omega_exponent: float = 0.6
    alpha_exponent: float = 0.9
    alpha_scale: float = 1.0
    omega_offset: int = 0
    alpha_offset: int = 0

    def __post_init__(self):
        _check_exponent("omega_exponent", self.omega_exponent)
        _check_exponent("alpha_exponent", self.alpha_exponent)
        if self.alpha_exponent <= self.omega_exponent:
            raise ScheduleError(
                f"alpha_exponent={self.alpha_exponent} <= omega_exponent="
                f"{self.omega_exponent}: alpha_k/omega_k does not vanish"
            )
        if not self.alpha_scale > 0:
            raise ScheduleError(f"alpha_scale={self.alpha_scale}: must be positive")
        if self.omega_offset < 0 or self.alpha_offset < 0:
            raise ScheduleError("offsets must be non-negative integers")
        # Worst case for the ratio's monotonicity is k = 2; the margin
        # rho_a (k + w_off) - rho_w (k + a_off) grows with k, so one check
        # covers all k >= 2.
        if not (self.alpha_exponent * (2 + self.omega_offset)
                > self.omega_exponent * (2 + self.alpha_offset)):
            raise ScheduleError(
                "offsets make alpha_k/omega_k non-monotone: need "
                "alpha_exponent*(2+omega_offset) > omega_exponent*(2+alpha_offset)"
            )

    def omega(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        if k == 1:
            return 1.0
        return float(k + self.omega_offset) ** (-self.omega_exponent)

    def alpha(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return self.alpha_scale * float(k + self.alpha_offset) ** (-self.alpha_exponent)


SCREEN_PREFIX = 10 ** 6


@dataclass(frozen=True)
class SequenceSchedule:
    """User-supplied sequences, screened on a finite prefix.

    The callables must accept an ndarray of iteration indices and return
    the corresponding values.  Validation checks omega(1) = 1, positivity,
    ranges, monotonicity, a divergence proxy for the partial sums, a
    square-summability proxy (k * w_k^2 small at the end of the prefix),
    and a vanishing, non-increasing alpha/omega ratio.  These are necessary
    conditions only: a finite prefix cannot certify summability, so this is
    a documented heuristic screen, not a proof.
    """

    omega_fn: Callable[[np.ndarray], np.ndarray]
    alpha_fn: Callable[[np.ndarray], np.ndarray]
    prefix: int = SCREEN_PREFIX

    def __post_init__(self):
        ks = np.arange(1, self.prefix + 1, dtype=np.float64)
        om = np.asarray(self.omega_fn(ks), dtype=np.float64)
        al = np.asarray(self.alpha_fn(ks), dtype=np.float64)
        if om.shape != ks.shape or al.shape != ks.shape:
            raise ScheduleError("sequence callables must be vectorized over k")
        if om[0] != 1.0:
            raise ScheduleError("omega(1) must equal 1 exactly")
        if np.any(om <= 0) or np.any(om > 1):
            raise ScheduleError("omega values must lie in (0, 1]")
        if np.any(al <= 0):
            raise ScheduleError("alpha values must be positive")
        if np.any(np.diff(om[1:]) > 0) or np.any(np.diff(al) > 0):
            raise ScheduleError("sequences must be non-increasing")
        if om.sum() < 50.0:
            raise ScheduleError("partial sum of omega is too small: sum likely converges")
        if self.prefix * om[-1] ** 2 >= 0.5:
            raise ScheduleError("k * omega_k^2 does not vanish: sum of squares likely diverges")
        if self.prefix * al[-1] ** 2 >= 0.5:
            raise ScheduleError("k * alpha_k^2 does not vanish: sum of squares likely diverges")
        ratio = al[1:] / om[1:]
        if np.any(np.diff(ratio) > 1e-15) or not ratio[-1] < 0.1 * ratio[0]:
            raise ScheduleError("alpha_k/omega_k does not vanish monotonically")

    def omega(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        if k == 1:
            return 1.0
        return float(self.omega_fn(np.asarray([float(k)]))[0])

    def alpha(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return float(self.alpha_fn(np.asarray([float(k)]))[0])
