"""Schedule tests: endpoint values, variance preservation, monotone SNR."""

import dataclasses
import math

import numpy as np
import pytest

from encdiff.errors import ConfigError
from encdiff.schedule import LogLinearSchedule, SchedulePoint, logistic

# independently evaluated logistic values (40-digit arithmetic), frozen
LOGISTIC_M13_3 = 1.6744904055114538875e-6
LOGISTIC_5 = 0.99330714907571514444


class TestEval:
    def test_endpoint_lambda(self, schedule):
        assert schedule.at(0.0).lam == 13.3
        assert schedule.at(1.0).lam == -5.0

    def test_midpoint_lambda(self, schedule):
        assert schedule.at(0.5).lam == pytest.approx(4.15, abs=1e-12)

    def test_lambda_prime_constant(self, schedule):
        for t in (0.0, 0.3, 1.0):
            assert schedule.at(t).lam_prime == -(13.3 + 5.0)

    def test_logistic_split_at_zero(self):
        sched = LogLinearSchedule(lambda_max=1.0, lambda_min=-1.0)
        p = sched.at(0.5)  # lambda = 0
        assert p.alpha_sq == pytest.approx(0.5, abs=1e-15)
        assert p.sigma_sq == pytest.approx(0.5, abs=1e-15)

    def test_sigma0_sq_default(self, schedule):
        assert schedule.at(0.0).sigma_sq == pytest.approx(LOGISTIC_M13_3, rel=1e-12)

    def test_sigma1_sq_default(self, schedule):
        assert schedule.at(1.0).sigma_sq == pytest.approx(LOGISTIC_5, rel=1e-12)

    def test_domain_errors(self, schedule):
        with pytest.raises(ValueError):
            schedule.at(-0.01)
        with pytest.raises(ValueError):
            schedule.at(1.01)

    def test_bad_endpoints_rejected(self):
        with pytest.raises(ConfigError):
            LogLinearSchedule(lambda_max=-5.0, lambda_min=13.3)
        with pytest.raises(ConfigError, match="overflows"):
            LogLinearSchedule(lambda_max=710.0, lambda_min=0.0)
        with pytest.raises(ConfigError, match="span"):
            LogLinearSchedule(lambda_max=1e308, lambda_min=-1e308)
        assert LogLinearSchedule(lambda_max=709.0, lambda_min=-1e300).at(0.0).snr > 1e307

    def test_extreme_endpoints_no_overflow(self):
        sched = LogLinearSchedule(lambda_max=600.0, lambda_min=-600.0)
        p0, p1 = sched.at(0.0), sched.at(1.0)
        assert p0.alpha == 1.0 and p1.sigma == 1.0
        assert 0.0 <= p1.alpha < 1e-100
        assert math.isfinite(p0.log_sigma_sq) and math.isfinite(p1.log_sigma_sq)


class TestColumns:
    """The schedule at a batch of times is one point of columns that equals
    `at` row for row, bit for bit."""

    @pytest.mark.parametrize("endpoints", [(13.3, -5.0), (1.0, -1.0), (600.0, -600.0),
                                           (5.0, 1.0), (-1.0, -7.0)])
    def test_columns_equal_at(self, endpoints, rng):
        sched = LogLinearSchedule(*endpoints)
        ts = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, size=300),
                             np.linspace(0.0, 1.0, 101)])
        cols = sched.columns(ts)
        assert isinstance(cols, SchedulePoint)
        assert type(cols.lam_prime) is float
        names = [f.name for f in dataclasses.fields(SchedulePoint) if f.name != "lam_prime"]
        assert all(getattr(cols, name).shape == (ts.size, 1) for name in names)
        for i, t in enumerate(ts):
            p = sched.at(float(t))
            row = {name: getattr(cols, name)[i, 0] for name in names}
            assert row == {name: getattr(p, name) for name in names}, t
            assert cols.lam_prime == p.lam_prime
            assert (cols.alpha_sq[i, 0], cols.sigma_sq[i, 0]) == (p.alpha_sq, p.sigma_sq), t

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan])
    def test_domain_errors(self, schedule, bad):
        with pytest.raises(ValueError):
            schedule.columns(np.array([0.5, bad, 0.2]))


class TestGrid:
    """grid(T) is the T-layer hierarchy's T + 1 points, each `at(i / T)`."""

    @pytest.mark.parametrize("endpoints", [(13.3, -5.0), (600.0, -600.0), (-1.0, -7.0)])
    @pytest.mark.parametrize("T", [1, 2, 7, 64, 1000])
    def test_points_equal_at(self, endpoints, T):
        sched = LogLinearSchedule(*endpoints)
        points = sched.grid(T)
        assert len(points) == T + 1
        for i, p in enumerate(points):
            assert dataclasses.astuple(p) == dataclasses.astuple(sched.at(i / T)), i
        assert points[0].t == 0.0 and points[-1].t == 1.0


class TestInvariants:
    def test_variance_preserving(self, schedule):
        for t in np.linspace(0.0, 1.0, 101):
            p = schedule.at(float(t))
            assert abs(p.alpha_sq + p.sigma_sq - 1.0) < 1e-12

    def test_snr_is_exp_lambda(self, schedule):
        for t in np.linspace(0.0, 1.0, 101):
            p = schedule.at(float(t))
            assert p.snr == pytest.approx(p.alpha_sq / p.sigma_sq, rel=1e-9)
            assert p.snr == math.exp(p.lam)

    def test_lambda_affine_in_t(self, schedule, rng):
        for _ in range(200):
            a, b = sorted(rng.uniform(0.0, 1.0, size=2))
            mid = schedule.at((a + b) / 2.0).lam
            assert mid == pytest.approx((schedule.at(a).lam + schedule.at(b).lam) / 2.0,
                                        abs=1e-12)

    def test_snr_strictly_decreasing(self, schedule):
        ts = np.linspace(0.0, 1.0, 64)
        snrs = [schedule.at(float(t)).snr for t in ts]
        assert np.all(np.diff(snrs) < 0)


def test_logistic_matches_naive():
    for x in np.linspace(-30, 30, 61):
        naive = 1.0 / (1.0 + math.exp(-x))
        assert logistic(float(x)) == pytest.approx(naive, rel=1e-15)
