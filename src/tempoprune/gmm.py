"""One-dimensional Gaussian mixtures over day histograms.

Weighted EM on (day, count) pairs with a variance floor, plus BIC model
selection.  The floor keeps single-day spikes well-posed; because the
M-step maximizes the expected complete likelihood over the floored
parameter space, the log-likelihood trace stays non-decreasing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FitError

if TYPE_CHECKING:  # pragma: no cover
    from .aspects import TermTimeSeries

VAR_FLOOR = 0.25  # day^2
DEFAULT_K_MAX = 10


@dataclass
class GmmFit:
    k: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    bic: float
    ll_trace: list[float]


def _weighted_choice(rng: np.random.Generator, values: np.ndarray, probs: np.ndarray) -> float:
    return float(values[rng.choice(len(values), p=probs)])


def _seed_means(days: np.ndarray, wts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding followed by a few weighted Lloyd rounds."""
    probs = wts / wts.sum()
    centers = [_weighted_choice(rng, days, probs)]
    while len(centers) < k:
        d2 = np.min((days[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        mass = wts * d2
        total = mass.sum()
        if total <= 0:
            # all remaining mass sits on existing centers; reuse the smallest day
            centers.append(float(days[0]))
            continue
        centers.append(_weighted_choice(rng, days, mass / total))
    means = np.asarray(centers, dtype=float)
    for _ in range(10):
        assign = np.argmin(np.abs(days[:, None] - means[None, :]), axis=1)
        for j in range(k):
            mask = assign == j
            if wts[mask].sum() > 0:
                means[j] = np.average(days[mask], weights=wts[mask])
    return means


def fit_gmm(series: "TermTimeSeries", k: int, seed: int, *, max_iter: int = 200,
            tol: float = 1e-6, var_floor: float = VAR_FLOOR) -> GmmFit:
    """Fit a K-component mixture to the series; deterministic for a given seed."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    day_items = sorted(series.counts.items())
    days = np.array([d for d, _ in day_items], dtype=float)
    wts = np.array([c for _, c in day_items], dtype=float)
    n = float(wts.sum())
    if k > n:
        raise ValueError(f"k={k} exceeds the {int(n)} points in the series")
    rng = np.random.default_rng(seed)
    means = _seed_means(days, wts, k, rng)
    global_var = max(var_floor, float(np.average((days - np.average(days, weights=wts)) ** 2, weights=wts)))
    variances = np.full(k, global_var)
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev_ll = -math.inf
    for _ in range(max_iter):
        log_pdf = -0.5 * np.log(2.0 * math.pi * variances)[None, :] \
            - (days[:, None] - means[None, :]) ** 2 / (2.0 * variances[None, :])
        log_joint = log_pdf + np.log(np.maximum(weights, 1e-300))[None, :]
        row_max = log_joint.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_joint - row_max).sum(axis=1))
        ll = float(np.dot(wts, log_norm))
        trace.append(ll)
        if ll < prev_ll - 1e-9 * max(1.0, abs(prev_ll)):
            raise FitError(f"{series.term!r}: EM log-likelihood decreased: {prev_ll} -> {ll}")
        if prev_ll > -math.inf and ll - prev_ll <= tol * max(1.0, abs(ll)):
            break
        prev_ll = ll
        resp = np.exp(log_joint - log_norm[:, None])
        soft = np.maximum((wts[:, None] * resp).sum(axis=0), 1e-12)
        weights = soft / n
        weights = weights / weights.sum()
        means = (wts[:, None] * resp * days[:, None]).sum(axis=0) / soft
        variances = (wts[:, None] * resp * (days[:, None] - means[None, :]) ** 2).sum(axis=0) / soft
        variances = np.maximum(variances, var_floor)

    order = np.argsort(means, kind="stable")
    ll_final = trace[-1]
    bic = -2.0 * ll_final + (3 * k - 1) * math.log(n)
    return GmmFit(
        k=k,
        weights=weights[order],
        means=means[order],
        variances=variances[order],
        log_likelihood=ll_final,
        bic=bic,
        ll_trace=trace,
    )


def select_k_bic(series: "TermTimeSeries", k_max: int = DEFAULT_K_MAX, seed: int = 0) -> GmmFit:
    """Fit K = 1..min(k_max, distinct days) and keep the lowest BIC (ties: smaller K)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not series.counts:
        raise ValueError(f"series for {series.term!r} is empty")
    fits = (fit_gmm(series, k, seed) for k in range(1, min(k_max, len(series.counts)) + 1))
    return min(fits, key=lambda fit: fit.bic)
