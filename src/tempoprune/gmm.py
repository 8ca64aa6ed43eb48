"""One-dimensional Gaussian mixtures over day histograms.

Weighted EM on (day, count) pairs with a variance floor, plus BIC model
selection.  The floor keeps single-day spikes well-posed; because the
M-step maximizes the expected complete likelihood over the floored
parameter space, the log-likelihood trace stays non-decreasing.

The fits of one series run as one batch: the components of every fit are
the rows of one (components, days) array, and each fit's sums over its
components are segment reductions over its rows.  A fit leaves the batch
once it converges, so every fit keeps its own tolerance test, iteration
count and decrease check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import FitError

if TYPE_CHECKING:  # pragma: no cover
    from .aspects import TermTimeSeries

VAR_FLOOR = 0.25  # day^2
DEFAULT_K_MAX = 10
EM_MAX_ITER = 200
EM_TOL = 1e-6


@dataclass
class GmmFit:
    k: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    bic: float
    ll_trace: list[float]
    converged: bool  # False when EM stopped at max_iter


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
    moments = wts * days
    for _ in range(10):
        assign = np.argmin(np.abs(days[:, None] - means[None, :]), axis=1)
        mass = np.bincount(assign, weights=wts, minlength=k)
        hit = mass > 0
        means[hit] = np.bincount(assign, weights=moments, minlength=k)[hit] / mass[hit]
    return means


def _em(series: "TermTimeSeries", ks: Iterable[int], seed: int, *, max_iter: int,
        tol: float, var_floor: float) -> list[GmmFit]:
    """Fit a K-component mixture for every K in `ks`, all in one batch.

    Every K seeds from a fresh `default_rng(seed)`, so a fit does not
    depend on the other Ks of the batch.  A fit that converges keeps the
    parameters of its last M-step and leaves the batch."""
    ks = list(ks)
    if min(ks) < 1:
        raise ValueError(f"k must be >= 1, got {min(ks)}")
    day_items = sorted(series.counts.items())
    days = np.array([d for d, _ in day_items], dtype=float)
    wts = np.array([c for _, c in day_items], dtype=float)
    n = float(wts.sum())
    if max(ks) > n:
        raise ValueError(f"k={max(ks)} exceeds the {int(n)} points in the series")
    global_var = max(var_floor, float(np.average((days - np.average(days, weights=wts)) ** 2, weights=wts)))

    sizes = np.array(ks)
    means = np.concatenate([_seed_means(days, wts, k, np.random.default_rng(seed)) for k in ks])
    variances = np.full(len(means), global_var)
    weights = np.repeat(1.0 / sizes, sizes)
    live = list(range(len(ks)))  # the batch's fits, in row order
    prev = [-math.inf] * len(ks)
    traces: list[list[float]] = [[] for _ in ks]
    fits: list[GmmFit] = [None] * len(ks)  # type: ignore[list-item]

    def finish(f: int, rows: slice, converged: bool) -> None:
        k = ks[f]
        order = np.argsort(means[rows], kind="stable")
        ll = traces[f][-1]
        fits[f] = GmmFit(
            k=k,
            weights=weights[rows][order],
            means=means[rows][order],
            variances=variances[rows][order],
            log_likelihood=ll,
            bic=-2.0 * ll + (3 * k - 1) * math.log(n),
            ll_trace=traces[f],
            converged=converged,
        )

    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(ks)), sizes)
    for _ in range(max_iter):
        log_pdf = -0.5 * np.log(2.0 * math.pi * variances)[:, None] \
            - (days[None, :] - means[:, None]) ** 2 / (2.0 * variances[:, None])
        log_joint = log_pdf + np.log(np.maximum(weights, 1e-300))[:, None]
        seg_max = np.maximum.reduceat(log_joint, starts)
        log_norm = seg_max + np.log(np.add.reduceat(np.exp(log_joint - seg_max[owner]), starts))
        lls = (log_norm @ wts).tolist()
        done = []
        for i, (f, ll, prev_ll) in enumerate(zip(live, lls, prev)):
            traces[f].append(ll)
            if ll < prev_ll - 1e-9 * max(1.0, abs(prev_ll)):
                raise FitError(f"{series.term!r}, K={ks[f]}: EM log-likelihood decreased: {prev_ll} -> {ll}")
            if prev_ll > -math.inf and ll - prev_ll <= tol * max(1.0, abs(ll)):
                finish(f, slice(starts[i], starts[i] + sizes[i]), converged=True)
                done.append(i)
        prev = lls
        if done:
            stay = np.ones(len(live), dtype=bool)
            stay[done] = False
            if not stay.any():
                break
            log_joint, log_norm = log_joint[stay[owner]], log_norm[stay]
            live = [f for f, s in zip(live, stay) if s]
            prev = [p for p, s in zip(prev, stay) if s]
            sizes = sizes[stay]
            starts = np.cumsum(sizes) - sizes
            owner = np.repeat(np.arange(len(live)), sizes)
        resp = np.exp(log_joint - log_norm[owner])
        weighted = wts * resp
        soft = np.maximum(weighted.sum(axis=1), 1e-12)
        weights = soft / n
        weights = weights / np.add.reduceat(weights, starts)[owner]
        means = (weighted * days).sum(axis=1) / soft
        variances = np.maximum((weighted * (days - means[:, None]) ** 2).sum(axis=1) / soft, var_floor)
    else:
        for f, start, size in zip(live, starts, sizes):
            finish(f, slice(start, start + size), converged=False)
    return fits


def fit_gmm(series: "TermTimeSeries", k: int, seed: int, *, max_iter: int = EM_MAX_ITER,
            tol: float = EM_TOL, var_floor: float = VAR_FLOOR) -> GmmFit:
    """Fit a K-component mixture to the series; deterministic for a given seed."""
    return _em(series, [k], seed, max_iter=max_iter, tol=tol, var_floor=var_floor)[0]


def select_k_bic(series: "TermTimeSeries", k_max: int = DEFAULT_K_MAX, seed: int = 0) -> GmmFit:
    """Fit K = 1..min(k_max, distinct days) and keep the lowest BIC (ties: smaller K)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not series.counts:
        raise ValueError(f"series for {series.term!r} is empty")
    fits = _em(series, range(1, min(k_max, len(series.counts)) + 1), seed,
               max_iter=EM_MAX_ITER, tol=EM_TOL, var_floor=VAR_FLOOR)
    return min(fits, key=lambda fit: fit.bic)
