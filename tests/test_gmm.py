"""Weighted EM mixture fitting and BIC model selection."""
import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from oracles import oracle_fit_gmm, oracle_select_k_bic
from tempoprune import gmm
from tempoprune.aspects import TermTimeSeries, build_aspect_sets, component_window, term_time_series
from tempoprune.errors import FitError
from tempoprune.gmm import VAR_FLOOR, fit_gmm, select_k_bic
from tempoprune.index import build_index
from tempoprune.synth import random_corpus


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


# --- convergence flag --------------------------------------------------------


def test_fit_stopped_at_max_iter_is_not_converged():
    series = series_from_days(two_gaussian_days(3))
    fit = fit_gmm(series, 3, seed=0, max_iter=2)
    assert fit.converged is False
    assert len(fit.ll_trace) == 2


def test_clean_two_burst_fit_converges():
    fit = fit_gmm(TermTimeSeries(term="t", counts={100: 30, 200: 30}), 2, seed=0)
    assert fit.converged is True
    assert len(fit.ll_trace) < 200


def test_build_aspect_sets_warns_once_about_unconverged_terms(caplog):
    index = build_index(random_corpus(n_docs=80, seed=4, vocab_size=15))
    by_hand = [
        term for term in index.terms()
        if (series := term_time_series(index, term)).counts
        and not oracle_select_k_bic(series, k_max=5, seed=0).converged
    ]
    assert by_hand  # the corpus has terms whose chosen fit stops at max_iter
    with caplog.at_level(logging.WARNING, logger="tempoprune.aspects"):
        sets = build_aspect_sets(index, model="dynamic", k_max=5)
    records = [r for r in caplog.records if r.name == "tempoprune.aspects"]
    assert len(records) == 1
    assert f"{len(by_hand)} term(s)" in records[0].getMessage()
    assert ", ".join(by_hand[:5]) in records[0].getMessage()
    assert [t for t, aset in sets.items() if not aset.converged] == by_hand


def test_build_aspect_sets_silent_when_every_fit_converges(caplog):
    index = build_index(random_corpus(n_docs=80, seed=2, vocab_size=15))
    with caplog.at_level(logging.WARNING, logger="tempoprune.aspects"):
        build_aspect_sets(index, model="dynamic", k_max=5)
    assert not [r for r in caplog.records if r.name == "tempoprune.aspects"]


# --- batched EM against the per-K definition ---------------------------------


def _windows(fit):
    return [component_window(m, math.sqrt(v)) for m, v in zip(fit.means, fit.variances)]


def _components(fit, ordered: bool):
    """(mean, weight, variance) per component.  Unordered, components that
    share a day (tied means) pair up by weight, whatever their last bits."""
    triples = list(zip(fit.means, fit.weights, fit.variances))
    return triples if ordered else sorted(triples, key=lambda c: (round(c[0], 6), c[1]))


def _assert_same_fit(fast, slow, ordered=True):
    assert fast.k == slow.k
    assert fast.converged == slow.converged
    assert len(fast.ll_trace) == len(slow.ll_trace)
    assert fast.ll_trace == pytest.approx(slow.ll_trace, rel=1e-9)
    assert fast.log_likelihood == pytest.approx(slow.log_likelihood, rel=1e-9)
    assert fast.bic == pytest.approx(slow.bic, rel=1e-9)
    for a, b in zip(_components(fast, ordered), _components(slow, ordered)):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def _differential_series(seed: int) -> TermTimeSeries:
    """Single-day, two-day, tied-count or random day histograms."""
    rng = random.Random(seed)
    shape = seed % 4
    if shape == 0:
        counts = {rng.randint(0, 1000): rng.randint(1, 40)}
    elif shape == 1:
        a = rng.randint(0, 1000)
        counts = {a: rng.randint(1, 30), a + rng.randint(1, 200): rng.randint(1, 30)}
    elif shape == 2:
        c = rng.randint(1, 5)
        counts = {d: c for d in rng.sample(range(0, 400), rng.randint(2, 40))}
    else:
        counts = {}
        for _ in range(rng.randint(3, 300)):
            d = int(rng.gauss(rng.choice((100, 160, 500)), rng.choice((2, 10, 60))))
            counts[d] = counts.get(d, 0) + 1
    return TermTimeSeries(term=f"s{seed}", counts=counts)


@pytest.mark.parametrize("seed", range(80))
def test_batched_select_k_bic_matches_per_k_oracle(seed):
    series = _differential_series(seed)
    k_max = 1 + (seed // 4) % 10  # every shape meets every k_max
    fast = select_k_bic(series, k_max=k_max, seed=seed)
    slow = oracle_select_k_bic(series, k_max=k_max, seed=seed)
    _assert_same_fit(fast, slow)
    assert _windows(fast) == _windows(slow)


@pytest.mark.parametrize("seed", range(40))
def test_batched_fit_gmm_matches_per_k_oracle(seed):
    """Every K the selection fits.  Windows are compared on chosen fits
    only: a component collapsed on one day sits at the variance floor, so
    its window bounds are mean -/+ 0.5, on round_half_up's .5 boundary, and
    the last bit of the mean picks the side."""
    series = _differential_series(seed)
    for k in range(1, min(10, len(series.counts)) + 1):
        _assert_same_fit(fit_gmm(series, k, seed), oracle_fit_gmm(series, k, seed), ordered=False)


class _DriftingLog:
    """numpy, except that every np.log result drifts lower than the last,
    so the log-likelihood falls from one iteration to the next."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        self.calls += 1
        return np.log(x) - 1e-3 * self.calls


def test_forced_decrease_raises_fit_error_naming_term_and_k(monkeypatch):
    series = TermTimeSeries(term="burst", counts={100: 30, 130: 20, 400: 5})
    monkeypatch.setattr(gmm, "np", _DriftingLog())
    with pytest.raises(FitError, match=r"'burst', K=3: EM log-likelihood decreased"):
        fit_gmm(series, 3, seed=0)
    with pytest.raises(FitError, match=r"'burst', K=1: EM log-likelihood decreased"):
        select_k_bic(series, k_max=3, seed=0)
