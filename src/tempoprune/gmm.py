"""One-dimensional Gaussian mixtures over day histograms.

Weighted EM on (day, count) pairs with a variance floor, plus BIC model
selection.  The floor keeps single-day spikes well-posed; because the
M-step maximizes the expected complete likelihood over the floored
parameter space, the log-likelihood trace stays non-decreasing.

Every sum runs in one order, whatever is fitted beside it: a sum over
days adds the days left to right in day order, and a sum over a fit's
components adds them left to right in seeded order.  So a fit gets the
same floats alone (`fit_gmm`, `select_k_bic`) as in a group of
`select_k_bic_each` of any size, order or neighbours.  A left-to-right
sum of n terms is within (n - 1) * 2**-53 * sum(|x|) of the exact sum:
about 1.13e-13 * sum(|x|) at 1,016 days.

The fits of many series run as one batch.  The E-step and each fit's
log-sum-exp run on (components, days) arrays, a series' days in the
first columns of its rows and its last day repeated, with zero weight,
in the rest.  Each sum over days reduces the first axis of a days-major
(days, components) or (days, fits) array, which numpy adds row after
row, so the padding adds exact zeros.  A fit leaves the batch once it
converges, so every fit keeps its own tolerance test, iteration count
and decrease check.

`fit_gmm` (one K) and `select_k_bic` (K = 1..k_max) fit one series.
`select_k_bic_each` sorts many series by their number of distinct days
and fits them in groups of at most `EM_CELL_BUDGET` padded cells (or as
many as its largest series needs), every group in one shared workspace.
The groups are the tasks of one `workers.fork_map`, each fitted whole in
one process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import FitError, PruneError
from .workers import fork_map

if TYPE_CHECKING:  # pragma: no cover
    from .aspects import TermTimeSeries

VAR_FLOOR = 0.25  # day^2
DEFAULT_K_MAX = 10
EM_MAX_ITER = 200
EM_TOL = 1e-6
# Padded component-day cells per batch of series: large enough that numpy's
# per-call overhead is shared by many series, small enough that the shared
# workspace stays about 1.5 MiB (see `_regions`).  On the em-dynamic
# benchmark corpora, 16,384 cells took about 1.15x the EM time of 32,768,
# and 65,536 took no less, with 1.65x the traced peak.
EM_CELL_BUDGET = 32768
# Padded cells in all below which `select_k_bic_each` forks no worker: two
# pinned processes broke even at about 40,000 cells (README, "Forked workers").
FORK_MIN_CELLS = 65536


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


def _regions(batch: Sequence[tuple["TermTimeSeries", Sequence[int]]], max_iter: int) -> list[int]:
    """The sizes, in floats, of the workspace regions `_em` carves for
    `batch` and its spare fit: four (components, days) arrays, four
    (fits, days) arrays and the (max_iter, fits) trace."""
    width = max(len(series.counts) for series, _ in batch)
    comps = sum(sum(ks) for _, ks in batch) + min(min(ks) for _, ks in batch)
    fits = sum(len(ks) for _, ks in batch) + 1
    return [width * comps] * 4 + [width * fits] * 4 + [max_iter * fits]


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
    a fresh `default_rng(seed)`, and every sum runs in the one order of the
    module docstring, so a fit depends neither on the other Ks nor on the
    other series of the batch.  A fit that converges keeps the parameters
    of its last M-step and leaves the batch.

    The fits are ordered by K and their components by slot: slot k holds
    component k of every fit with more than k components, which are the
    last fits, so a sum over each fit's components adds slot after slot.
    Fit 0 is a spare copy of the first fit; it never ends and is never
    returned.  It keeps every array at two fits and two components or more
    while a fit runs: numpy sums a single column over the days pairwise,
    not in day order."""
    for series, ks in batch:
        if min(ks) < 1:
            raise PruneError(f"{series.term!r}: k must be >= 1, got {min(ks)}")
        if max(ks) > series.n_points:
            raise PruneError(f"{series.term!r}: k={max(ks)} exceeds the {series.n_points} points in the series")

    width = max(len(series.counts) for series, _ in batch)
    days = np.empty((len(batch), width))
    wts = np.zeros((len(batch), width))
    n = np.empty(len(batch))
    seeded: dict[tuple[int, int], np.ndarray] = {}
    global_var = np.empty(len(batch))
    for i, (series, ks) in enumerate(batch):
        day_items = sorted(series.counts.items())
        d = np.array([d for d, _ in day_items], dtype=float)
        w = np.array([c for _, c in day_items], dtype=float)
        days[i, :len(d)], days[i, len(d):], wts[i, :len(d)] = d, d[-1], w
        n[i] = w.sum()
        global_var[i] = max(var_floor, float(np.average((d - np.average(d, weights=w)) ** 2, weights=w)))
        seeded.update(zip(((i, k) for k in ks), _seed_means(d, w, ks, np.random.default_rng(seed))))
    order = sorted(seeded, key=lambda ik: (ik[1], ik[0]))  # the fits, by K then series
    order.insert(0, order[0])  # the spare
    fit_series = np.array([i for i, _ in order])
    fit_k = np.array([k for _, k in order])
    # The arrays are views of regions of `work`; a view shrinks as fits
    # leave, so the loop allocates no array that grows with the days.
    regions = _regions(batch, max_iter)
    if work is None:
        work = np.empty(sum(regions))
    *bufs, trace = np.split(work[:sum(regions)], np.cumsum(regions)[:-1])
    comp_bufs, fit_bufs, trace = bufs[:4], bufs[4:], trace.reshape(max_iter, len(order))

    live = np.arange(len(order))  # the batch's fits, by K
    fits: list[GmmFit] = [None] * len(order)  # type: ignore[list-item]
    iters = [0] * len(order)  # each fit's length of `trace`, set when it ends

    def layout():
        """The live fits' slots, as (first component, number of fits); each
        component's fit and series; the (components, days) views, the days
        by component as (days, components), the (fits, days) views, and
        (days, components) views of `ex` and `log_joint` and a (days, fits)
        view of `top`, for the sums over days once those are free."""
        sizes = fit_k[live]
        counts = [len(live) - int(np.searchsorted(sizes, k, side="right")) for k in range(sizes[-1])]
        owner = np.concatenate([np.arange(len(live) - c, len(live)) for c in counts])
        comp_series = fit_series[live][owner]
        nc, nf = len(owner), len(live)
        comp_days, log_joint, ex = (buf[:width * nc].reshape(nc, width) for buf in comp_bufs[:3])
        moment, weighted, day_comps = (buf[:width * nc].reshape(width, nc) for buf in comp_bufs[1:])
        fit_wts, top, log_norm, share = (buf[:width * nf].reshape(nf, width) for buf in fit_bufs)
        # every take has its indices in range; mode="clip" writes to `out`
        # directly, where the default mode would fill a temporary copy first
        days.take(comp_series, axis=0, out=comp_days, mode="clip")
        np.copyto(day_comps, comp_days.T)
        wts.take(fit_series[live], axis=0, out=fit_wts, mode="clip")
        slots = list(zip(np.cumsum([0, *counts[:-1]]).tolist(), counts))
        return (slots, owner, comp_series, comp_days, log_joint, ex, day_comps, moment, weighted,
                fit_wts, top, log_norm, share, fit_bufs[1][:width * nf].reshape(width, nf))

    def finish(j: int, it: int, converged: bool) -> None:
        f = live[j]
        k = fit_k[f]
        rows = [a + c - (len(live) - j) for a, c in slots[:k]]  # its component in each of its slots
        by_mean = np.argsort(means[rows], kind="stable")
        ll = float(trace[it, f])
        iters[f] = it + 1
        fits[f] = GmmFit(
            k=int(k),
            weights=weights[rows][by_mean],
            means=means[rows][by_mean],
            variances=variances[rows][by_mean],
            log_likelihood=ll,
            bic=-2.0 * ll + (3 * k - 1) * math.log(n[fit_series[f]]),
            ll_trace=[],  # filled from `trace` for the fits returned
            converged=converged,
        )

    (slots, owner, comp_series, comp_days, log_joint, ex, day_comps, moment, weighted,
     fit_wts, top, log_norm, share, day_fits) = layout()
    means = np.array([seeded[order[f]][k] for k, (_, c) in enumerate(slots)
                      for f in range(len(order) - c, len(order))])
    variances = global_var[fit_series[owner]]
    weights = 1.0 / fit_k[owner]
    prev, prev_scale = np.full(len(order), -math.inf), np.full(len(order), math.inf)
    for it in range(max_iter):
        nf = len(live)
        # E-step: log_joint = log N(day | mean, var) + log weight, per component
        np.square(np.subtract(comp_days, means[:, None], out=log_joint), out=log_joint)
        np.divide(log_joint, (2.0 * variances)[:, None], out=log_joint)
        log_c = np.log(np.maximum(weights, 1e-300)) - 0.5 * np.log(2.0 * math.pi * variances)
        np.subtract(log_c[:, None], log_joint, out=log_joint)
        # log_norm = each fit's log-sum-exp over its components, slot by
        # slot; share = the day's weight over the fit's sum of exps
        np.copyto(top, log_joint[:nf])
        for a, c in slots[1:]:
            np.maximum(top[nf - c:], log_joint[a:a + c], out=top[nf - c:])
        np.exp(np.subtract(log_joint, top.take(owner, axis=0, out=ex, mode="clip"), out=ex), out=ex)
        np.copyto(log_norm, ex[:nf])
        for a, c in slots[1:]:
            np.add(log_norm[nf - c:], ex[a:a + c], out=log_norm[nf - c:])
        np.divide(fit_wts, log_norm, out=share)
        np.add(top, np.log(log_norm, out=log_norm), out=log_norm)
        # Every sum over days is a reduce over the first axis of a days-major
        # array of two columns or more, which adds the days in order.
        lls = np.add.reduce(np.multiply(log_norm.T, fit_wts.T, out=day_fits), axis=0)
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
        prev[0] = -math.inf  # the spare never converges
        for j in done:
            finish(j, it, converged=True)
        if len(done) == len(live) - 1:
            break
        # M-step.  Each component's responsibility times the day's weight is
        # its share of its fit's sum.  It also runs on the components of
        # fits that just converged, whose results are then dropped:
        # components are independent.
        np.multiply(ex, share.take(owner, axis=0, out=log_joint, mode="clip"), out=log_joint)
        np.copyto(weighted, log_joint.T)
        soft = np.maximum(np.add.reduce(weighted, axis=0), 1e-12)
        weights = soft / n[comp_series]
        norm = weights[:nf].copy()
        for a, c in slots[1:]:
            norm[nf - c:] += weights[a:a + c]
        weights = weights / norm[owner]
        means = np.add.reduce(np.multiply(weighted, day_comps, out=moment), axis=0) / soft
        np.square(np.subtract(day_comps, means, out=moment), out=moment)
        variances = np.maximum(np.add.reduce(np.multiply(weighted, moment, out=moment), axis=0) / soft, var_floor)
        if len(done):
            stay = np.ones(len(live), dtype=bool)
            stay[done] = False
            keep = stay[owner]
            means, variances, weights = means[keep], variances[keep], weights[keep]
            live, prev, prev_scale = live[stay], prev[stay], prev_scale[stay]
            (slots, owner, comp_series, comp_days, log_joint, ex, day_comps, moment, weighted,
             fit_wts, top, log_norm, share, day_fits) = layout()
    else:
        for j in range(1, len(live)):
            finish(j, max_iter - 1, converged=False)
    index = {ik: f for f, ik in enumerate(order) if f}
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
    work = np.empty(max((sum(_regions(b, EM_MAX_ITER)) for b in batches), default=0))
    fitted = fork_map(lambda b: _em(batches[b], seed, max_iter=EM_MAX_ITER, tol=EM_TOL, var_floor=VAR_FLOOR,
                                    work=work, best=True),
                      [_regions(b, EM_MAX_ITER)[0] for b in batches], FORK_MIN_CELLS)
    chosen = dict(zip(chain.from_iterable(groups), chain.from_iterable(fitted)))
    return [chosen[i][0] for i in range(len(series))]


def select_k_bic(series: "TermTimeSeries", k_max: int = DEFAULT_K_MAX, seed: int = 0) -> GmmFit:
    """Fit K = 1..min(k_max, distinct days) and keep the lowest BIC (ties: smaller K)."""
    return select_k_bic_each([series], k_max, seed)[0]
