"""Weighted EM mixture fitting and BIC model selection."""
import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from oracles import oracle_em, oracle_fit_gmm, oracle_seed_means, oracle_select_k_bic
from tempoprune import aspects, gmm
from tempoprune.aspects import TermTimeSeries, build_aspect_sets, component_window, term_time_series
from tempoprune.errors import FitError, PruneError
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
    with pytest.raises(PruneError, match="'t': k must be >= 1, got 0"):
        fit_gmm(series, 0, seed=0)
    with pytest.raises(PruneError, match="'t': k=4 exceeds the 3 points in the series"):
        fit_gmm(series, 4, seed=0)


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
    with pytest.raises(PruneError, match="k_max must be >= 1, got 0"):
        select_k_bic(series, k_max=0, seed=0)


def test_select_k_bic_rejects_empty_series():
    with pytest.raises(PruneError, match="series for 'quiet' is empty"):
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
    """numpy, except that every np.log result after the first `start` calls
    drifts lower than the last, so the log-likelihood falls from one
    iteration to the next."""

    def __init__(self, start=0):
        self.calls = 0
        self.start = start

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x, **kwargs):
        self.calls += 1
        return np.log(x, **kwargs) - 1e-3 * max(0, self.calls - self.start)


def test_forced_decrease_raises_fit_error_naming_term_and_k(monkeypatch):
    series = TermTimeSeries(term="burst", counts={100: 30, 130: 20, 400: 5})
    monkeypatch.setattr(gmm, "np", _DriftingLog())
    with pytest.raises(FitError, match=r"'burst', K=3: EM log-likelihood decreased"):
        fit_gmm(series, 3, seed=0)
    with pytest.raises(FitError, match=r"'burst', K=1: EM log-likelihood decreased"):
        select_k_bic(series, k_max=3, seed=0)
    # In a batch of many terms the error still names the failing term and
    # K.  "calm" has fewer days, so it is first in the batch; its one fit
    # converges in two iterations (three np.log calls each), before the drift.
    calm = TermTimeSeries(term="calm", counts={50: 9})
    monkeypatch.setattr(gmm, "np", _DriftingLog(start=6))
    with pytest.raises(FitError, match=r"'burst', K=2: EM log-likelihood decreased"):
        gmm.select_k_bic_each([series, calm], k_max=3, seed=0)


# --- many series in one batch ------------------------------------------------


def _assert_identical(fast, slow):
    assert fast.k == slow.k
    assert fast.converged == slow.converged
    assert fast.ll_trace == slow.ll_trace
    assert fast.log_likelihood == slow.log_likelihood
    assert fast.bic == slow.bic
    for field in ("weights", "means", "variances"):
        assert np.array_equal(getattr(fast, field), getattr(slow, field))


@pytest.mark.parametrize("seed", range(40))
def test_batch_of_one_series_equals_per_series_oracle_exactly(seed):
    series = _differential_series(seed)
    ks = range(1, min(1 + seed % 10, len(series.counts)) + 1)
    [fits] = gmm._em([(series, ks)], seed, max_iter=gmm.EM_MAX_ITER, tol=gmm.EM_TOL, var_floor=VAR_FLOOR)
    slow = oracle_em(series, ks, seed)
    assert len(fits) == len(slow)
    for fast, ref in zip(fits, slow):
        _assert_identical(fast, ref)
    _assert_identical(select_k_bic(series, k_max=1 + seed % 10, seed=seed), min(slow, key=lambda f: f.bic))
    _assert_identical(fit_gmm(series, ks[-1], seed), oracle_em(series, [ks[-1]], seed)[0])


def _many_series() -> list[TermTimeSeries]:
    """Every shape of `_differential_series`, plus series that share a day
    count, tie their counts, have fewer days than k_max, or put mixture
    components on single days (the variance floor, where a window bound
    sits on round_half_up's .5 boundary)."""
    rng = random.Random(5)
    many = [_differential_series(seed) for seed in range(100)]  # several batches at the default budget
    for i in range(6):  # the same day count, 12 days each
        many.append(TermTimeSeries(term=f"same{i}", counts={d: rng.randint(1, 9) for d in rng.sample(range(600), 12)}))
    many += [
        TermTimeSeries(term="one-day", counts={77: 5}),
        TermTimeSeries(term="one-point", counts={3: 1}),
        TermTimeSeries(term="two-day", counts={10: 4, 11: 4}),
        TermTimeSeries(term="tied", counts={5: 3, 40: 3, 41: 3, 90: 3}),
        TermTimeSeries(term="spikes", counts={100: 40, 160: 40, 300: 25, 301: 25}),
        TermTimeSeries(term="spike-tail", counts={229: 60, 230: 1, 400: 30, 402: 30, 404: 1}),
    ]
    return many


def _grouped(monkeypatch, budget):
    """select_k_bic_each under `budget`, and the number of batches it ran."""
    monkeypatch.setattr(gmm, "EM_CELL_BUDGET", budget)
    batches = []
    em = gmm._em

    def counting(batch, *args, **kwargs):
        batches.append(len(batch))
        return em(batch, *args, **kwargs)

    monkeypatch.setattr(gmm, "_em", counting)
    return batches


ONE_BATCH = 2**40  # a budget that holds every series of `_many_series` at once


@pytest.mark.parametrize("budget", [gmm.EM_CELL_BUDGET, 1, ONE_BATCH])
def test_select_k_bic_each_matches_per_series_oracle(monkeypatch, budget):
    """Budget 1 leaves groups as large as the largest series."""
    many = _many_series()
    batches = _grouped(monkeypatch, budget)
    k_max = 6
    fast = gmm.select_k_bic_each(many, k_max=k_max, seed=3)
    assert sum(batches) == len(many)
    if budget == ONE_BATCH:
        assert batches == [len(many)]
    else:
        assert len([b for b in batches if b > 1]) >= 3
    collapsed = 0
    for series, fit in zip(many, fast):
        slow = oracle_select_k_bic(series, k_max=k_max, seed=3)
        assert fit.k == slow.k, series.term
        assert _windows(fit) == _windows(slow), series.term
        assert len(fit.ll_trace) == len(slow.ll_trace), series.term
        assert fit.ll_trace == pytest.approx(slow.ll_trace, rel=1e-9)
        assert fit.converged == slow.converged
        collapsed += int((fit.variances == VAR_FLOOR).sum())
    assert collapsed  # some chosen components sit at the variance floor


def test_select_k_bic_each_of_no_series_is_empty():
    assert gmm.select_k_bic_each([], k_max=3, seed=0) == []


def test_select_k_bic_each_checks_every_series_before_fitting(monkeypatch):
    em = gmm._em
    fitted = []
    monkeypatch.setattr(gmm, "_em", lambda batch, *a, **k: fitted.append(batch))
    series = [TermTimeSeries(term="t", counts={1: 2}), TermTimeSeries(term="quiet", counts={})]
    with pytest.raises(PruneError, match="series for 'quiet' is empty"):
        gmm.select_k_bic_each(series, k_max=3, seed=0)
    with pytest.raises(PruneError, match="k_max must be >= 1, got 0"):
        gmm.select_k_bic_each(series[:1], k_max=0, seed=0)
    with pytest.raises(PruneError, match="'t': k=3 exceeds the 2 points in the series"):
        em([(series[0], [1]), (series[0], [3])], 0, max_iter=5, tol=1e-6, var_floor=VAR_FLOOR)
    assert fitted == []


def test_build_aspect_sets_dynamic_uses_the_per_series_fits():
    index = build_index(random_corpus(n_docs=120, seed=6, vocab_size=20))
    sets = build_aspect_sets(index, model="dynamic", k_max=4, seed=2, lambda_w=0.0)
    for term, aset in sets.items():
        series = term_time_series(index, term)
        if not series.counts:
            continue
        slow = oracle_select_k_bic(series, k_max=4, seed=2)
        kept = [i for i, w in enumerate(slow.weights) if w > 1e-12]
        assert [a.window for a in aset.aspects] == [_windows(slow)[i] for i in kept], term
        assert [a.center for a in aset.aspects] == pytest.approx(slow.means[kept], rel=1e-9)
        assert aset.converged == slow.converged


@pytest.mark.parametrize("seed", [1, 7])
def test_bench_shaped_dynamic_aspects_equal_each_term_fitted_alone(monkeypatch, seed):
    """On the em-dynamic benchmark's corpora (300 documents, 50 terms,
    k_max 5, EM seed = corpus seed), fitting the terms in batches keeps
    every term's K and windows those of the term fitted alone."""
    index = build_index(random_corpus(n_docs=300, seed=seed, vocab_size=50))
    chosen = {}
    each = gmm.select_k_bic_each

    def recording(series, *args, **kwargs):
        fits = each(series, *args, **kwargs)
        chosen.update(zip((s.term for s in series), fits))
        return fits

    monkeypatch.setattr(aspects, "select_k_bic_each", recording)
    sets = build_aspect_sets(index, model="dynamic", k_max=5, seed=seed, lambda_w=0.0)
    assert len(chosen) > 40
    for term, fit in chosen.items():
        alone = select_k_bic(term_time_series(index, term), k_max=5, seed=seed)
        assert fit.k == alone.k, term
        kept = [i for i, w in enumerate(alone.weights) if w > 1e-12]
        assert [a.window for a in sets[term].aspects] == [_windows(alone)[i] for i in kept], term


@pytest.mark.parametrize("k", [1, 2, 8, 9, 10, 16, 17, 25, 129, 130, 131, 300])
def test_block_sums_take_the_association_of_reduceat(k):
    """A fit's sum over its rows, taken over the middle axis of its K block,
    equals np.add.reduceat over the rows bit for bit."""
    rng = np.random.default_rng(k)
    rows = rng.random((3 * k, 5)) * np.exp(rng.normal(0.0, 8.0, (3 * k, 5)))
    block = rows.reshape(3, k, 5)
    want = np.add.reduceat(rows, np.arange(3) * k)
    assert np.array_equal(block[:, 0] + gmm._pairwise_sum(block[:, 1:]), want)


# --- prefix-shared seeding ---------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_prefix_seeding_equals_per_k_seeding(seed):
    series = _differential_series(seed) if seed < 24 else [
        TermTimeSeries(term="tied", counts={5: 3, 40: 3, 41: 3, 90: 3}),
        TermTimeSeries(term="few", counts={10: 4, 11: 4}),
        TermTimeSeries(term="one", counts={8: 2}),
        TermTimeSeries(term="tied-few", counts={1: 7, 2: 7, 3: 7}),
        TermTimeSeries(term="wide", counts={d: 1 + d % 3 for d in range(0, 300, 7)}),
        TermTimeSeries(term="pair", counts={0: 1, 1000: 1}),
    ][seed - 24]
    days = np.array(sorted(series.counts), dtype=float)
    wts = np.array([series.counts[d] for d in sorted(series.counts)], dtype=float)
    k_max = 8
    seeded = gmm._seed_means(days, wts, range(1, k_max + 1), np.random.default_rng(seed))
    for k, means in zip(range(1, k_max + 1), seeded):
        assert np.array_equal(means, oracle_seed_means(days, wts, k, np.random.default_rng(seed))), k
