"""Variance-preserving noise schedule, parameterized by the log signal-to-noise ratio.

The schedule is linear in t on the log-SNR axis:

    λ(t) = λ_max − (λ_max − λ_min) · t,      t ∈ [0, 1]

with the variance-preserving convention α_t² = 1 − σ_t² = logistic(λ_t), so that
SNR(t) = α_t²/σ_t² = exp(λ_t).  t = 0 is (almost) clean data, t = 1 is (almost)
pure noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Guards a log() of sigma^2 or SNR for exotic endpoint choices; never active for
# the defaults (λ_max = 13.3, λ_min = -5).
_LOG_FLOOR = 1e-38

DEFAULT_LAMBDA_MAX = 13.3
DEFAULT_LAMBDA_MIN = -5.0


def logistic(x: float) -> float:
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class SchedulePoint:
    """The noise process seen at a single time t.

    Fields satisfy alpha² + sigma² = 1 and snr = alpha²/sigma² = exp(lam).
    `lam_prime` is dλ/dt, constant (and negative) for the linear schedule.
    """

    t: float
    lam: float
    lam_prime: float
    alpha: float
    sigma: float
    snr: float

    @property
    def alpha_sq(self) -> float:
        return self.alpha * self.alpha

    @property
    def sigma_sq(self) -> float:
        return self.sigma * self.sigma

    @property
    def log_sigma_sq(self) -> float:
        return math.log(max(self.sigma * self.sigma, _LOG_FLOOR))


@dataclass(frozen=True)
class LogLinearSchedule:
    """Log-SNR schedule that is affine in t, with fixed endpoints."""

    lambda_max: float = DEFAULT_LAMBDA_MAX
    lambda_min: float = DEFAULT_LAMBDA_MIN

    def __post_init__(self):
        if not (self.lambda_max > self.lambda_min):
            raise ConfigError(
                f"schedule endpoints must satisfy lambda_max > lambda_min, "
                f"got {self.lambda_max} <= {self.lambda_min}"
            )

    @property
    def lam_prime(self) -> float:
        return -(self.lambda_max - self.lambda_min)

    def lam(self, t: float) -> float:
        return self.lambda_max - (self.lambda_max - self.lambda_min) * t

    def at(self, t: float) -> SchedulePoint:
        """Evaluate the schedule at time t ∈ [0, 1]."""
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"schedule time must lie in [0, 1], got {t}")
        lam = self.lam(t)
        a2 = logistic(lam)
        s2 = logistic(-lam)
        return SchedulePoint(
            t=float(t),
            lam=lam,
            lam_prime=self.lam_prime,
            alpha=math.sqrt(a2),
            sigma=math.sqrt(s2),
            snr=math.exp(lam),
        )

    def snr_delta(self, s: float, t: float) -> float:
        """SNR(s) − SNR(t) > 0 for s < t, computed stably for s ≈ t."""
        if not s < t:
            raise ValueError(f"snr_delta requires s < t, got s={s}, t={t}")
        if not (0.0 <= s and t <= 1.0):
            raise ValueError(f"snr_delta requires 0 <= s < t <= 1, got s={s}, t={t}")
        lam_s, lam_t = self.lam(s), self.lam(t)
        # exp(lam_s) - exp(lam_t) = exp(lam_t) * expm1(lam_s - lam_t)
        return math.exp(lam_t) * math.expm1(lam_s - lam_t)


def point_from_lam(lam: float, lam_prime: float = 0.0, t: float = float("nan")) -> SchedulePoint:
    """Free-standing point for tests and analysis outside any schedule."""
    a2 = logistic(lam)
    s2 = logistic(-lam)
    return SchedulePoint(
        t=t, lam=lam, lam_prime=lam_prime,
        alpha=math.sqrt(a2), sigma=math.sqrt(s2), snr=math.exp(lam),
    )
