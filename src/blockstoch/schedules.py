"""Diminishing step-size sequences for the tracker and the proximal step.

Two sequences drive the solver: the tracker mixing weights {omega_k} and
the proximal step sizes {alpha_k}.  Valid sequences must start with
omega_1 = 1, have divergent sums and convergent sums of squares, and
satisfy alpha_k / omega_k -> 0.  The power-law family below guarantees all
of that by construction.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_exponent(name: str, value: float) -> None:
    if not value > 0.5:
        raise ValueError(
            f"{name}={value}: sum of squared step sizes diverges (need exponent > 0.5)"
        )
    if value > 1.0:
        raise ValueError(
            f"{name}={value}: sum of step sizes converges (need exponent <= 1)"
        )


@dataclass(frozen=True)
class Schedule:
    """Power-law sequences omega(k) = k^-rho_w and alpha(k) = c k^-rho_a.

    omega(1) is pinned to 1 regardless of the exponent.  Construction
    validates every condition the solver's convergence rests on and names
    the violated clause; the defaults (0.6, 0.9, 1.0) satisfy all of them
    with margin.
    """

    omega_exponent: float = 0.6
    alpha_exponent: float = 0.9
    alpha_scale: float = 1.0

    def __post_init__(self):
        _check_exponent("omega_exponent", self.omega_exponent)
        _check_exponent("alpha_exponent", self.alpha_exponent)
        if self.alpha_exponent <= self.omega_exponent:
            raise ValueError(
                f"alpha_exponent={self.alpha_exponent} <= omega_exponent="
                f"{self.omega_exponent}: alpha_k/omega_k does not vanish"
            )
        if not 0 < self.alpha_scale < float("inf"):
            raise ValueError(f"alpha_scale={self.alpha_scale}: must be positive and finite")

    def omega(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return float(k) ** (-self.omega_exponent)

    def alpha(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return self.alpha_scale * float(k) ** (-self.alpha_exponent)
