"""One-dimensional Gaussian mixtures over day histograms.

Weighted EM on (day, count) pairs with a variance floor, plus BIC model
selection.  The floor keeps single-day spikes well-posed; because the
M-step maximizes the expected complete likelihood over the floored
parameter space, the log-likelihood trace stays non-decreasing.

The fits of many series run as one batch: the components of every fit
of every series are the rows of one (components, days) array.  A series'
days fill the first columns of its rows; the rest repeat its last day
with zero weight.  The fits are ordered by K, so each fit's max and sum
over its components are reductions over the middle axis of a
(fits, K, days) block, and each series' log-likelihoods are the product
of its own rows and day weights, unpadded.  A fit leaves the
batch once it converges, so every fit keeps its own tolerance test,
iteration count and decrease check.

`fit_gmm` (one K) and `select_k_bic` (K = 1..k_max) fit one series, a
batch with no padding.  `select_k_bic_each` sorts many series by their
number of distinct days and fits them in groups of at most
`EM_CELL_BUDGET` padded cells (or as many as its largest series needs),
every group in one shared workspace.  Padding reorders numpy's pairwise
sums over days, so a series fitted among others can differ from its own
`select_k_bic` in the last digits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import FitError, PruneError

if TYPE_CHECKING:  # pragma: no cover
    from .aspects import TermTimeSeries

VAR_FLOOR = 0.25  # day^2
DEFAULT_K_MAX = 10
EM_MAX_ITER = 200
EM_TOL = 1e-6
# Padded component-day cells per batch of series: large enough that numpy's
# per-call overhead is shared by many series, small enough that the shared
# workspace stays about 1.1 MiB (see `_regions`).  On the em-dynamic
# benchmark corpora, 16,384 cells took about 1.15x the EM time of 32,768,
# and 65,536 took no less, with 1.65x the traced peak.
EM_CELL_BUDGET = 32768


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


def _seed_means(days: np.ndarray, wts: np.ndarray, ks: Iterable[int],
                rng: np.random.Generator) -> list[np.ndarray]:
    """k-means++ style seeding followed by a few weighted Lloyd rounds, for
    every K in `ks`.  The picks are drawn once, for the largest K; each pick
    depends only on the picks before it and the next draw of `rng`, so the
    first K picks are those a fresh `rng` would give for K alone."""
    ks = list(ks)
    probs = wts / wts.sum()
    centers = [_weighted_choice(rng, days, probs)]
    while len(centers) < max(ks):
        d2 = np.min((days[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        mass = wts * d2
        total = mass.sum()
        if total <= 0:
            # all remaining mass sits on existing centers; reuse the smallest day
            centers.append(float(days[0]))
            continue
        centers.append(_weighted_choice(rng, days, mass / total))
    moments = wts * days
    seeded = []
    for k in ks:
        means = np.asarray(centers[:k], dtype=float)
        for _ in range(10):
            assign = np.argmin(np.abs(days[:, None] - means[None, :]), axis=1)
            mass = np.bincount(assign, weights=wts, minlength=k)
            hit = mass > 0
            moved = np.bincount(assign, weights=moments, minlength=k)[hit] / mass[hit]
            if np.array_equal(moved, means[hit]):
                break  # a fixed point: the remaining rounds would not move it
            means[hit] = moved
        seeded.append(means)
    return seeded


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 1 in the association of numpy's pairwise summation
    (blocks of eight running sums up to 128 terms, halves beyond), which
    numpy applies along the axis of a reduction."""
    n = x.shape[1]
    if n < 8:
        return np.add.reduce(x, axis=1)  # a sum over a middle axis runs term by term
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(x[:, :half]) + _pairwise_sum(x[:, half:])
    full = n - n % 8
    r = np.add.reduce(x[:, :full].reshape(x.shape[0], full // 8, 8, *x.shape[2:]), axis=1)
    r = r[:, 0::2] + r[:, 1::2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    r = r[:, 0::2] + r[:, 1::2]
    total = r[:, 0] + r[:, 1]
    for i in range(full, n):
        total += x[:, i]
    return total


def _regions(batch: Sequence[tuple["TermTimeSeries", Sequence[int]]], max_iter: int) -> list[int]:
    """The sizes, in floats, of the workspace regions `_em` carves for
    `batch`: three (rows, days) arrays, two (fits, days) arrays and the
    (max_iter, fits) trace."""
    width = max(len(series.counts) for series, _ in batch)
    rows = sum(sum(ks) for _, ks in batch)
    fits = sum(len(ks) for _, ks in batch)
    return [rows * width] * 3 + [fits * width] * 2 + [max_iter * fits]


def _em(batch: Sequence[tuple["TermTimeSeries", Sequence[int]]], seed: int, *, max_iter: int,
        tol: float, var_floor: float, work: np.ndarray | None = None,
        best: bool = False) -> list[list[GmmFit]]:
    """Fit a K-component mixture for every K of every series in `batch`, all
    in one array program; returns each series' fits in the order of its Ks,
    or, with `best`, its lowest-BIC fit only (ties: the smaller K), the one
    fit whose log-likelihood trace is built.
    Its arrays are views of `work`, at least `sum(_regions(batch, max_iter))`
    floats, so that many batches can share one; None allocates it.

    Every series is checked before any is fitted.  Every K seeds as if from
    a fresh `default_rng(seed)`, so a fit depends neither on the other Ks
    nor on the other series of the batch, except for the last digits of the
    day sums when the batch pads.  A fit that converges keeps the parameters
    of its last M-step and leaves the batch.

    The fits are ordered by K, so the rows of the fits of one K form a
    (fits, K, days) block, and each fit's max and sum over its rows are
    reductions over the middle axis of its block.  The sum takes the
    association of `np.add.reduceat`: the first row plus the pairwise sum
    of the others."""
    for series, ks in batch:
        if min(ks) < 1:
            raise PruneError(f"{series.term!r}: k must be >= 1, got {min(ks)}")
        if max(ks) > series.n_points:
            raise PruneError(f"{series.term!r}: k={max(ks)} exceeds the {series.n_points} points in the series")

    width = max(len(series.counts) for series, _ in batch)
    days = np.empty((len(batch), width))
    wts = np.zeros((len(batch), width))
    cols: list[np.ndarray] = []  # each series' day weights, unpadded
    n = np.empty(len(batch))
    seeded: dict[tuple[int, int], np.ndarray] = {}
    global_var = np.empty(len(batch))
    for i, (series, ks) in enumerate(batch):
        day_items = sorted(series.counts.items())
        d = np.array([d for d, _ in day_items], dtype=float)
        w = np.array([c for _, c in day_items], dtype=float)
        days[i, :len(d)], days[i, len(d):], wts[i, :len(d)] = d, d[-1], w
        cols.append(w)
        n[i] = w.sum()
        global_var[i] = max(var_floor, float(np.average((d - np.average(d, weights=w)) ** 2, weights=w)))
        seeded.update(zip(((i, k) for k in ks), _seed_means(d, w, ks, np.random.default_rng(seed))))
    order = sorted(seeded, key=lambda ik: (ik[1], ik[0]))  # the fits, by K then series
    fit_series = np.array([i for i, _ in order])
    fit_k = [k for _, k in order]
    means = np.concatenate([seeded[ik] for ik in order])
    variances = np.repeat(global_var[fit_series], fit_k)
    weights = np.concatenate([np.full(k, 1.0 / k) for k in fit_k])
    # The (rows, days) and (fits, days) arrays are views of regions of
    # `work`; a view shrinks as fits leave, so the loop allocates no array
    # that grows with the days.
    regions = _regions(batch, max_iter)
    if work is None:
        work = np.empty(sum(regions))
    *bufs, trace = np.split(work[:sum(regions)], np.cumsum(regions)[:-1])
    bufs, fit_bufs, trace = bufs[:3], bufs[3:], trace.reshape(max_iter, len(fit_k))

    live = np.arange(len(fit_k))  # the batch's fits, in row order
    sizes = np.array(fit_k)
    prev, prev_scale = np.full(len(fit_k), -math.inf), np.full(len(fit_k), math.inf)
    fits: list[GmmFit] = [None] * len(fit_k)  # type: ignore[list-item]
    iters = [0] * len(fit_k)  # each fit's length of `trace`, set when it ends

    def layout():
        """The live fits' row starts and owners; the (rows, days) views; each
        row's series mass; each K's blocks of rows with its outputs (the
        fits' max and sum over their rows); the order that puts each
        series' fits together, and each series' run in it with its unpadded
        day count and weights."""
        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(live)), sizes)
        row_series = fit_series[live][owner]
        views = [buf[:len(owner) * width].reshape(len(owner), width) for buf in bufs]
        # every take has its indices in range; mode="clip" writes to `out`
        # directly, where the default mode would fill a temporary copy first
        days.take(row_series, axis=0, out=views[0], mode="clip")
        seg_max, log_norm = (buf[:len(live) * width].reshape(len(live), width) for buf in fit_bufs)
        blocks = []
        edges = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(live)]
        for a, b in zip(edges, edges[1:]):
            rows = slice(starts[a], starts[a] + (b - a) * sizes[a])
            joint, expd = (v[rows].reshape(b - a, sizes[a], width) for v in views[1:])
            blocks.append((joint, expd[:, 0], expd[:, 1:], seg_max[a:b], log_norm[a:b]))
        by_series = np.argsort(fit_series[live], kind="stable")
        ser = fit_series[live][by_series]
        bounds = [0, *(np.flatnonzero(ser[1:] != ser[:-1]) + 1).tolist(), len(live)]
        runs = [(a, b, len(cols[ser[a]]), cols[ser[a]]) for a, b in zip(bounds, bounds[1:])]
        return starts, owner, row_series, *views, n[row_series], blocks, seg_max, log_norm, by_series, runs

    def finish(j: int, it: int, converged: bool) -> None:
        f = live[j]
        k = fit_k[f]
        rows = slice(starts[j], starts[j] + k)
        by_mean = np.argsort(means[rows], kind="stable")
        ll = float(trace[it, f])
        iters[f] = it + 1
        fits[f] = GmmFit(
            k=k,
            weights=weights[rows][by_mean],
            means=means[rows][by_mean],
            variances=variances[rows][by_mean],
            log_likelihood=ll,
            bic=-2.0 * ll + (3 * k - 1) * math.log(n[fit_series[f]]),
            ll_trace=[],  # filled from `trace` for the fits returned
            converged=converged,
        )

    starts, owner, row_series, row_days, log_joint, tmp, row_n, blocks, seg_max, log_norm, by_series, runs = layout()
    for it in range(max_iter):
        # E-step: log_joint = log N(day | mean, var) + log weight, per row
        np.square(np.subtract(row_days, means[:, None], out=log_joint), out=log_joint)
        np.divide(log_joint, (2.0 * variances)[:, None], out=log_joint)
        np.subtract((-0.5 * np.log(2.0 * math.pi * variances))[:, None], log_joint, out=log_joint)
        np.add(log_joint, np.log(np.maximum(weights, 1e-300))[:, None], out=log_joint)
        # log_norm = each fit's log-sum-exp over its rows
        for joint, _, _, top, _ in blocks:
            np.maximum.reduce(joint, axis=1, out=top)
        np.subtract(log_joint, seg_max.take(owner, axis=0, out=tmp, mode="clip"), out=tmp)
        np.exp(tmp, out=tmp)
        for _, first, rest, _, total in blocks:
            np.add(first, _pairwise_sum(rest), out=total)
        np.add(seg_max, np.log(log_norm, out=log_norm), out=log_norm)
        # each series' log-likelihoods: its rows, unpadded, times its day
        # weights; its rows are gathered in seg_max, which is free until the
        # next E-step
        grouped = log_norm.take(by_series, axis=0, out=seg_max, mode="clip")
        series_lls = np.empty(len(live))
        for a, b, nd, col in runs:
            np.matmul(grouped[a:b, :nd], col, out=series_lls[a:b])
        lls = np.empty(len(live))
        lls[by_series] = series_lls
        trace[it, live] = lls
        # each fit's decrease check and tolerance test; prev starts at -inf,
        # which passes the first and fails the second
        scale = np.maximum(1.0, np.abs(lls))
        fell = lls < prev - 1e-9 * prev_scale
        if fell.any():
            j = int(np.argmax(fell))
            f = live[j]
            raise FitError(f"{batch[fit_series[f]][0].term!r}, K={fit_k[f]}: "
                           f"EM log-likelihood decreased: {prev[j]} -> {lls[j]}")
        done = np.flatnonzero(lls - prev <= tol * scale)
        prev, prev_scale = lls, scale
        for j in done:
            finish(j, it, converged=True)
        if len(done) == len(live):
            break
        # M-step, in place: log_joint -> responsibilities -> weighted
        # responsibilities.  It also runs on the rows of fits that just
        # converged, whose results are then dropped: rows are independent.
        np.subtract(log_joint, log_norm.take(owner, axis=0, out=tmp, mode="clip"), out=log_joint)
        np.exp(log_joint, out=log_joint)
        weighted = np.multiply(wts.take(row_series, axis=0, out=tmp, mode="clip"), log_joint, out=log_joint)
        soft = np.maximum(weighted.sum(axis=1), 1e-12)
        weights = soft / row_n
        weights = weights / np.add.reduceat(weights, starts)[owner]
        means = np.multiply(weighted, row_days, out=tmp).sum(axis=1) / soft
        np.square(np.subtract(row_days, means[:, None], out=tmp), out=tmp)
        variances = np.maximum(np.multiply(weighted, tmp, out=tmp).sum(axis=1) / soft, var_floor)
        if len(done):
            stay = np.ones(len(live), dtype=bool)
            stay[done] = False
            keep = stay[owner]
            means, variances, weights = means[keep], variances[keep], weights[keep]
            live, prev, prev_scale, sizes = live[stay], prev[stay], prev_scale[stay], sizes[stay]
            starts, owner, row_series, row_days, log_joint, tmp, row_n, blocks, seg_max, log_norm, by_series, runs = layout()
    else:
        for j in range(len(live)):
            finish(j, max_iter - 1, converged=False)
    index = {ik: f for f, ik in enumerate(order)}
    picked = [[index[i, k] for k in ks] for i, (_, ks) in enumerate(batch)]
    if best:
        picked = [[min(fs, key=lambda f: fits[f].bic)] for fs in picked]
    for fs in picked:
        for f in fs:
            fits[f].ll_trace = trace[:iters[f], f].tolist()
    return [[fits[f] for f in fs] for fs in picked]


def fit_gmm(series: "TermTimeSeries", k: int, seed: int, *, max_iter: int = EM_MAX_ITER,
            tol: float = EM_TOL, var_floor: float = VAR_FLOOR) -> GmmFit:
    """Fit a K-component mixture to the series; deterministic for a given seed.
    The public single-K fit: `select_k_bic` fits every K the same way."""
    return _em([(series, [k])], seed, max_iter=max_iter, tol=tol, var_floor=var_floor)[0][0]


def select_k_bic_each(series: Sequence["TermTimeSeries"], k_max: int = DEFAULT_K_MAX,
                      seed: int = 0) -> list[GmmFit]:
    """`select_k_bic` of every series, in order.  The series are sorted by
    their number of distinct days and fitted in groups of at most
    `EM_CELL_BUDGET` padded cells, or as many as the largest series needs
    when that is more.  Every series is checked before any is fitted."""
    if k_max < 1:
        raise PruneError(f"k_max must be >= 1, got {k_max}")
    for s in series:
        if not s.counts:
            raise PruneError(f"series for {s.term!r} is empty")
    ks = [range(1, min(k_max, len(s.counts)) + 1) for s in series]
    # A group as large as the largest series costs no more memory than it.
    limit = max([EM_CELL_BUDGET, *(sum(k) * len(s.counts) for k, s in zip(ks, series))])
    groups: list[list[int]] = []
    rows = 0
    for i in sorted(range(len(series)), key=lambda i: len(series[i].counts)):
        size = sum(ks[i])
        if not groups or (rows + size) * len(series[i].counts) > limit:
            groups.append([])
            rows = 0
        groups[-1].append(i)
        rows += size
    batches = [[(series[i], ks[i]) for i in group] for group in groups]
    work = np.empty(max((sum(_regions(batch, EM_MAX_ITER)) for batch in batches), default=0))
    chosen: list[GmmFit] = [None] * len(series)  # type: ignore[list-item]
    for group, batch in zip(groups, batches):
        for i, [fit] in zip(group, _em(batch, seed, max_iter=EM_MAX_ITER, tol=EM_TOL,
                                       var_floor=VAR_FLOOR, work=work, best=True)):
            chosen[i] = fit
    return chosen


def select_k_bic(series: "TermTimeSeries", k_max: int = DEFAULT_K_MAX, seed: int = 0) -> GmmFit:
    """Fit K = 1..min(k_max, distinct days) and keep the lowest BIC (ties: smaller K)."""
    return select_k_bic_each([series], k_max, seed)[0]
