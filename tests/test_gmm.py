"""Weighted EM mixture fitting and BIC model selection."""
from collections import Counter

import numpy as np
import pytest

from tempoprune.aspects import TermTimeSeries
from tempoprune.gmm import VAR_FLOOR, fit_gmm, select_k_bic


def series_from_days(days) -> TermTimeSeries:
    return TermTimeSeries(term="t", counts=dict(Counter(int(d) for d in days)))


def two_gaussian_days(seed: int, mu1=100.0, mu2=130.0, sigma=3.0, n=500):
    """Two components with means 10 sigma apart."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(mu1, sigma, size=half)
    b = rng.normal(mu2, sigma, size=n - half)
    return np.concatenate([a, b]).round().astype(int)


def test_k1_closed_form():
    series = TermTimeSeries(term="t", counts={10: 1, 20: 2, 40: 1})
    fit = fit_gmm(series, 1, seed=0)
    days = np.array([10.0, 20.0, 20.0, 40.0])
    assert fit.means[0] == pytest.approx(days.mean())
    assert fit.variances[0] == pytest.approx(max(VAR_FLOOR, days.var()))
    assert fit.weights[0] == pytest.approx(1.0)


def test_single_day_hits_variance_floor():
    fit = fit_gmm(TermTimeSeries(term="t", counts={50: 9}), 1, seed=0)
    assert fit.means[0] == pytest.approx(50.0)
    assert fit.variances[0] == VAR_FLOOR


def test_two_spikes_recovered():
    series = TermTimeSeries(term="t", counts={100: 30, 200: 30})
    fit = fit_gmm(series, 2, seed=0)
    assert fit.means == pytest.approx([100.0, 200.0], abs=0.5)
    assert fit.weights == pytest.approx([0.5, 0.5], abs=1e-6)


def test_means_returned_sorted():
    series = series_from_days(two_gaussian_days(3))
    fit = fit_gmm(series, 2, seed=1)
    assert list(fit.means) == sorted(fit.means)


def test_ll_trace_non_decreasing():
    for seed in range(5):
        series = series_from_days(two_gaussian_days(seed))
        fit = fit_gmm(series, 3, seed=seed)
        trace = fit.ll_trace
        assert len(trace) >= 1
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        assert fit.log_likelihood >= trace[0]


def test_fit_invariants():
    for seed in range(5):
        series = series_from_days(two_gaussian_days(seed + 50))
        for k in (1, 2, 4):
            fit = fit_gmm(series, k, seed=seed)
            assert fit.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert (fit.variances >= VAR_FLOOR - 1e-12).all()


def test_fit_deterministic_for_seed():
    series = series_from_days(two_gaussian_days(7))
    a = fit_gmm(series, 3, seed=42)
    b = fit_gmm(series, 3, seed=42)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.variances, b.variances)
    assert a.log_likelihood == b.log_likelihood


def test_k_must_be_positive_and_at_most_n():
    series = TermTimeSeries(term="t", counts={1: 2, 2: 1})
    with pytest.raises(ValueError):
        fit_gmm(series, 0, seed=0)
    with pytest.raises(ValueError):
        fit_gmm(series, 4, seed=0)  # only 3 points


def test_bic_formula():
    series = series_from_days(two_gaussian_days(9))
    n = series.n_points
    fit = fit_gmm(series, 2, seed=0)
    assert fit.bic == pytest.approx(-2.0 * fit.log_likelihood + 5 * np.log(n))


def test_bic_selects_two_for_bimodal():
    hits = 0
    for seed in range(20):
        series = series_from_days(two_gaussian_days(seed))
        if select_k_bic(series, k_max=5, seed=seed).k == 2:
            hits += 1
    assert hits >= 19


def test_bic_selects_one_for_spike():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        days = rng.normal(300.0, 2.0, size=200).round().astype(int)
        assert select_k_bic(series_from_days(days), k_max=5, seed=seed).k == 1


def test_k_max_one_forces_single_component():
    series = series_from_days(two_gaussian_days(1))
    assert select_k_bic(series, k_max=1, seed=0).k == 1


def test_k_max_capped_by_distinct_days():
    series = TermTimeSeries(term="t", counts={5: 10, 9: 10})
    fit = select_k_bic(series, k_max=10, seed=0)
    assert fit.k <= 2


def test_k_max_validation():
    series = TermTimeSeries(term="t", counts={5: 1})
    with pytest.raises(ValueError):
        select_k_bic(series, k_max=0, seed=0)


def test_select_k_bic_rejects_empty_series():
    with pytest.raises(ValueError, match="'quiet' is empty"):
        select_k_bic(TermTimeSeries(term="quiet", counts={}), k_max=3, seed=0)
