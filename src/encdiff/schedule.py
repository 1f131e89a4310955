"""Variance-preserving noise schedule, parameterized by the log signal-to-noise ratio.

The schedule is linear in t on the log-SNR axis:

    λ(t) = λ_max − (λ_max − λ_min) · t,      t ∈ [0, 1]

with the variance-preserving convention α_t² = 1 − σ_t² = logistic(λ_t), so that
SNR(t) = α_t²/σ_t² = exp(λ_t).  t = 0 is (almost) clean data, t = 1 is (almost)
pure noise.

`LogLinearSchedule.at` evaluates one time as a `SchedulePoint`, `grid` the points
of the T-layer hierarchy that the discrete loss, the sampler and the oracles walk,
and `columns` a batch of times as arrays, entry for entry bit-identical to `at`.
`stack` turns a list of points into one point of (n, 1) columns.
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
    The fields are floats, or (n, 1) columns in a point made by `stack`.
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
        if not math.isfinite(self.lambda_max - self.lambda_min):
            raise ConfigError(f"schedule span lambda_max - lambda_min must be finite, got "
                              f"{self.lambda_max} - ({self.lambda_min})")
        try:
            math.exp(self.lambda_max)  # the SNR at t = 0
        except OverflowError:
            raise ConfigError(f"lambda_max = {self.lambda_max} is too large: its SNR "
                              f"exp(lambda_max) overflows") from None

    @property
    def lam_prime(self) -> float:
        return -(self.lambda_max - self.lambda_min)

    def lam(self, t: float) -> float:
        return self.lambda_max - (self.lambda_max - self.lambda_min) * t

    def at(self, t: float) -> SchedulePoint:
        """Evaluate the schedule at time t ∈ [0, 1]."""
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"schedule time must lie in [0, 1], got {t}")
        return point_from_lam(self.lam(t), self.lam_prime, float(t))

    def grid(self, T: int) -> list[SchedulePoint]:
        """The T-layer hierarchy's points i/T, i = 0..T; layer i runs from point i − 1 to i."""
        return [self.at(i / T) for i in range(T + 1)]

    def columns(self, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        """The schedule at every time of a 1-D array ts ⊂ [0, 1], as arrays.

        Returns (lam, alpha, sigma, alpha_sq, sigma_sq): lam is (B,), the rest
        are (B, 1) columns that broadcast against (B, d) rows.  Row i equals the
        fields of `at(ts[i])` bit for bit.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
            raise ValueError(f"schedule times must lie in [0, 1], got range "
                             f"[{ts.min()}, {ts.max()}]")
        lam = self.lam(ts)
        # logistic(±λ) as `logistic` computes it: both use e = exp(−|λ|), and
        # math.exp keeps every entry bit-identical to `at` (np.exp may differ
        # from it in the last bit)
        e = np.fromiter(map(math.exp, (-np.abs(lam)).tolist()), np.float64, lam.size)
        one_plus_e = 1.0 + e
        inv = 1.0 / one_plus_e
        ratio = e / one_plus_e
        alpha = np.sqrt(np.where(lam >= 0.0, inv, ratio))[:, None]
        sigma = np.sqrt(np.where(lam <= 0.0, inv, ratio))[:, None]
        return lam, alpha, sigma, alpha * alpha, sigma * sigma


def stack(points: list[SchedulePoint]) -> SchedulePoint:
    """The points as one SchedulePoint whose fields are (n, 1) columns, row i the
    fields of points[i] bit for bit: the layer-axis form the process helpers
    (process.py) broadcast against (n, d) rows."""
    table = np.array([(p.t, p.lam, p.lam_prime, p.alpha, p.sigma, p.snr) for p in points])
    return SchedulePoint(*table.T[:, :, None])


def point_from_lam(lam: float, lam_prime: float = 0.0, t: float = float("nan")) -> SchedulePoint:
    """The point at log-SNR lam, with α² = logistic(λ) and σ² = logistic(−λ).

    The one place these fields are computed: `LogLinearSchedule.at` builds its
    points here, and the prediction models take their α and σ from here.
    """
    return SchedulePoint(t=t, lam=lam, lam_prime=lam_prime, alpha=math.sqrt(logistic(lam)),
                         sigma=math.sqrt(logistic(-lam)), snr=math.exp(lam))
