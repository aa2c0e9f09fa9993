"""Tests for the Lancet-style hygiene checks."""

import numpy as np
import pytest

from repro.errors import StatisticsError
from repro.stats.lancet_checks import (
    anderson_darling_exponential,
    dickey_fuller_stationarity,
    run_all_checks,
    spearman_independence,
)


class TestAndersonDarling:
    def test_exponential_gaps_pass(self, rng):
        gaps = rng.exponential(10.0, size=500)
        result = anderson_darling_exponential(gaps)
        assert result.passed
        assert "A2=" in result.detail

    def test_constant_gaps_fail(self):
        gaps = np.full(200, 10.0)
        gaps[0] = 10.5  # avoid a degenerate fit
        result = anderson_darling_exponential(gaps)
        assert not result.passed

    def test_uniform_gaps_fail(self, rng):
        gaps = rng.uniform(9.0, 11.0, size=500)
        result = anderson_darling_exponential(gaps)
        assert not result.passed

    def test_negative_gaps_rejected(self):
        with pytest.raises(StatisticsError):
            anderson_darling_exponential([-1.0] * 20)

    def test_unknown_significance_rejected(self, rng):
        with pytest.raises(StatisticsError):
            anderson_darling_exponential(
                rng.exponential(1.0, size=50), significance_pct=3.0)


class TestDickeyFuller:
    def test_stationary_noise_passes(self, rng):
        samples = rng.normal(100, 5, size=200)
        result = dickey_fuller_stationarity(samples)
        assert result.passed

    def test_random_walk_fails(self, rng):
        samples = 100.0 + np.cumsum(rng.normal(0, 1, size=300))
        result = dickey_fuller_stationarity(samples)
        assert not result.passed

    def test_constant_series_passes(self):
        result = dickey_fuller_stationarity([5.0] * 50)
        assert result.passed
        assert result.detail == "constant series"


class TestSpearman:
    def test_iid_samples_pass(self, rng):
        result = spearman_independence(rng.normal(size=300))
        assert result.passed
        assert abs(result.statistic) < 0.2

    def test_trending_samples_fail(self):
        result = spearman_independence(np.arange(100, dtype=float))
        assert not result.passed
        assert result.statistic == pytest.approx(1.0)

    def test_invalid_lag(self, rng):
        with pytest.raises(StatisticsError):
            spearman_independence(rng.normal(size=20), lag=0)


class TestBattery:
    def test_run_all_checks_returns_three(self, rng):
        gaps = rng.exponential(10.0, size=200)
        samples = rng.normal(100, 2, size=50)
        results = run_all_checks(gaps, samples)
        assert len(results) == 3
        assert all(r.format_row() for r in results)

    def test_healthy_experiment_passes_everything(self, rng):
        gaps = rng.exponential(10.0, size=500)
        samples = rng.normal(100, 2, size=100)
        results = run_all_checks(gaps, samples)
        assert all(r.passed for r in results)


def _constant_gaps():
    gaps = np.full(200, 10.0)
    gaps[0] = 10.5
    return gaps


#: (gap array, significance %, verdict, detail) pinned from the
#: critical-value form of the test, so a change in how the verdict is
#: computed cannot move a single decision or rounded critical value.
AD_VERDICTS = [
    (lambda: np.random.default_rng(7).exponential(10.0, 500), 5.0,
     True, "A2=0.676 vs critical 1.319 @ 5.0%"),
    (lambda: np.random.default_rng(7).uniform(9.0, 11.0, 500), 5.0,
     False, "A2=204.072 vs critical 1.319 @ 5.0%"),
    (_constant_gaps, 5.0,
     False, "A2=91.659 vs critical 1.317 @ 5.0%"),
    (lambda: np.random.default_rng(1).exponential(10.0, 500), 5.0,
     True, "A2=0.400 vs critical 1.319 @ 5.0%"),
    (lambda: np.random.default_rng(2).uniform(9.0, 11.0, 500), 5.0,
     False, "A2=203.487 vs critical 1.319 @ 5.0%"),
    (lambda: np.random.default_rng(3).exponential(1.0, 50), 5.0,
     True, "A2=0.180 vs critical 1.305 @ 5.0%"),
    (lambda: np.random.default_rng(4).exponential(5.0, 20), 1.0,
     True, "A2=0.338 vs critical 1.902 @ 1.0%"),
    (lambda: np.random.default_rng(5).exponential(2.0, 1000), 15.0,
     True, "A2=0.797 vs critical 0.915 @ 15.0%"),
    (lambda: np.random.default_rng(6).lognormal(0.0, 1.0, 300), 5.0,
     False, "A2=2.413 vs critical 1.318 @ 5.0%"),
    (lambda: np.random.default_rng(7).gamma(2.0, 1.0, 300), 10.0,
     False, "A2=13.791 vs critical 1.060 @ 10.0%"),
    (lambda: np.random.default_rng(8).weibull(1.5, 200), 2.5,
     False, "A2=6.537 vs critical 1.586 @ 2.5%"),
    (lambda: np.random.default_rng(9).exponential(1.0, 8), 5.0,
     False, "A2=1.268 vs critical 1.229 @ 5.0%"),
]


@pytest.mark.parametrize("make_gaps, significance, passed, detail",
                         AD_VERDICTS)
def test_anderson_darling_verdicts_are_pinned(make_gaps, significance,
                                              passed, detail):
    result = anderson_darling_exponential(
        make_gaps(), significance_pct=significance)
    assert result.passed is passed
    assert result.detail == detail


def test_anderson_darling_raises_no_future_warning():
    """The check must not depend on the critical-value attributes of
    ``scipy.stats.anderson`` (deprecated with a FutureWarning)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        result = anderson_darling_exponential(
            np.random.default_rng(1).exponential(10.0, 500))
    assert result.passed


def test_anderson_darling_zero_gaps_fail_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one_zero = anderson_darling_exponential([0.0] + [1.0] * 20)
        all_zero = anderson_darling_exponential([0.0] * 20)
    assert not one_zero.passed and one_zero.statistic == float("inf")
    assert not all_zero.passed
