"""Per-term time series and temporal aspect models.

An aspect is a weighted time window; a term's aspect set plays the role
of result diversity categories when pruning its posting list.  Window
widths come from the Freedman-Diaconis rule on the term's day histogram;
dynamic aspects come from a BIC-selected Gaussian mixture.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PruneError, TermNotFoundError
from .gmm import DEFAULT_K_MAX, GmmFit, select_k_bic
from .index import InvertedIndex
# `intersect` is unused here but stays importable as `aspects.intersect`,
# a name that external call tracers patch.
from .timewindows import TimeWindow, intersect, overlaps  # noqa: F401


ASPECT_MODELS = ("simple", "sliding", "dynamic")
DEFAULT_LAMBDA_W = 0.3  # weight of the smoothing global aspect


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class TermTimeSeries:
    term: str
    counts: dict[int, int]  # day -> mass

    @property
    def n_points(self) -> int:
        return sum(self.counts.values())

    @property
    def span(self) -> tuple[int, int]:
        if not self.counts:
            raise ValueError(f"series for {self.term!r} is empty")
        days = self.counts.keys()
        return min(days), max(days)


@dataclass
class Aspect:
    window: TimeWindow
    weight: float
    is_global: bool = False
    center: float | None = None  # mixture mean, dynamic aspects only


@dataclass
class AspectSet:
    term: str
    aspects: list[Aspect]
    doc_map: dict[str, tuple[int, ...]] = field(default_factory=dict)
    kind: str = "simple"  # simple | sliding | dynamic | global
    span: tuple[int, int] | None = None

    @property
    def global_index(self) -> int | None:
        for i, a in enumerate(self.aspects):
            if a.is_global:
                return i
        return None

    def weight_sum(self) -> float:
        return sum(a.weight for a in self.aspects)


def term_time_series(index: InvertedIndex, term: str, presence_only: bool = False) -> TermTimeSeries:
    """Day histogram of the term: one contribution per document window at the
    window's representative (midpoint) day, weighted by tf unless
    `presence_only`.  Documents without time data contribute nothing."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    counts: dict[int, int] = {}
    for p in index.lists[term].postings:
        mass = 1 if presence_only else p.tf
        for w in index.doc_times.get(p.doc_id, frozenset()):
            day = w.midpoint
            counts[day] = counts.get(day, 0) + mass
    return TermTimeSeries(term=term, counts=counts)


def fd_window_size(series: TermTimeSeries) -> int:
    """Freedman-Diaconis width ceil(2 * IQR * n^(-1/3)), floored at one day.

    Quartiles use the averaged-inverted-CDF convention over the day
    multiset (each day repeated by its count).
    """
    if not series.counts:
        raise ValueError(f"series for {series.term!r} is empty")
    day_items = sorted(series.counts.items())
    data = np.repeat(
        np.array([d for d, _ in day_items], dtype=float),
        np.array([c for _, c in day_items], dtype=np.int64),
    )
    q1, q3 = np.percentile(data, [25.0, 75.0], method="averaged_inverted_cdf")
    iqr = float(q3 - q1)
    if iqr <= 0.0:
        return 1
    return max(1, math.ceil(2.0 * iqr * len(data) ** (-1.0 / 3.0)))


def _tiled_aspects(series: TermTimeSeries, gamma: int, step: int, kind: str) -> AspectSet:
    lo, hi = series.span
    days = sorted(series.counts)
    starts = []
    start = lo
    while start <= hi:
        if any(start <= d < start + gamma for d in days):
            starts.append(start)
        start += step
    aspects = [Aspect(window=TimeWindow.certain(s, s + gamma - 1), weight=1.0 / len(starts)) for s in starts]
    return AspectSet(term=series.term, aspects=aspects, kind=kind, span=(lo, hi))


def simple_windows(series: TermTimeSeries, gamma: int) -> AspectSet:
    """Non-overlapping tiling [lo + k*gamma, lo + (k+1)*gamma); empty tiles dropped."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return _tiled_aspects(series, gamma, gamma, "simple")


def sliding_windows(series: TermTimeSeries, gamma: int) -> AspectSet:
    """Half-overlapping windows of length gamma stepping by max(1, gamma // 2)."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return _tiled_aspects(series, gamma, max(1, gamma // 2), "sliding")


def component_window(mean: float, sigma: float) -> TimeWindow:
    return TimeWindow.certain(round_half_up(mean - sigma), round_half_up(mean + sigma))


def dynamic_windows(series: TermTimeSeries, k_max: int = DEFAULT_K_MAX, seed: int = 0) -> AspectSet:
    """One aspect per BIC-selected mixture component: window [mu-sigma, mu+sigma],
    weight equal to the component's mixing proportion."""
    fit: GmmFit = select_k_bic(series, k_max, seed)
    aspects = []
    for pi, mu, var in zip(fit.weights, fit.means, fit.variances):
        if pi <= 1e-12:
            continue
        sigma = math.sqrt(var)
        aspects.append(Aspect(window=component_window(mu, sigma), weight=float(pi), center=float(mu)))
    total = sum(a.weight for a in aspects)
    for a in aspects:
        a.weight /= total
    return AspectSet(term=series.term, aspects=aspects, kind="dynamic", span=series.span)


def smooth(aspects: AspectSet, lambda_w: float) -> AspectSet:
    """Add a global aspect of weight lambda_w spanning the series range and
    rescale the others by 1 - lambda_w.  lambda_w = 0 is a no-op: the
    zero-weight global aspect is omitted entirely."""
    if not 0.0 <= lambda_w < 1.0:
        raise ValueError(f"lambda_w must be in [0, 1), got {lambda_w}")
    if aspects.global_index is not None:
        raise ValueError(f"aspect set for {aspects.term!r} already has a global aspect")
    if lambda_w == 0.0:
        return aspects
    if aspects.span is None:
        raise ValueError(f"aspect set for {aspects.term!r} has no span to anchor a global aspect")
    scaled = [replace(a, weight=a.weight * (1.0 - lambda_w)) for a in aspects.aspects]
    scaled.append(Aspect(window=TimeWindow.certain(*aspects.span), weight=lambda_w, is_global=True))
    g = len(scaled) - 1
    doc_map = {d: tuple(sorted(set(m) | {g})) for d, m in aspects.doc_map.items()}
    return replace(aspects, aspects=scaled, doc_map=doc_map)


def doc_aspect_map(aspects: AspectSet, index: InvertedIndex, term: str) -> AspectSet:
    """Map every document of the term to the aspects whose windows intersect
    its time part; the global aspect (when present) maps everything.
    Under dynamic windows an uncovered dated document falls back to the
    component with the nearest mean."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    gi = aspects.global_index
    centers = [
        (i, a.center) for i, a in enumerate(aspects.aspects)
        if not a.is_global and a.center is not None
    ]
    doc_map: dict[str, tuple[int, ...]] = {}
    for p in index.lists[term].postings:
        windows = index.doc_times.get(p.doc_id, frozenset())
        mapped = {
            i
            for i, a in enumerate(aspects.aspects)
            if not a.is_global and any(overlaps(a.window, w) for w in windows)
        }
        if not mapped and windows and aspects.kind == "dynamic" and centers:
            rep_days = [w.midpoint for w in windows]
            mapped = {min(centers, key=lambda ic: (min(abs(d - ic[1]) for d in rep_days), ic[0]))[0]}
        if gi is not None:
            mapped.add(gi)
        doc_map[p.doc_id] = tuple(sorted(mapped))
    return replace(aspects, doc_map=doc_map)


def term_aspects(
    series: TermTimeSeries,
    model: str,
    lambda_w: float = DEFAULT_LAMBDA_W,
    seed: int = 0,
    k_max: int = DEFAULT_K_MAX,
) -> AspectSet:
    """Smoothed aspect set of a non-empty series under `model`: simple or
    sliding windows of the Freedman-Diaconis width, or dynamic windows from
    the BIC-selected mixture."""
    if model == "dynamic":
        aset = dynamic_windows(series, k_max, seed)
    elif model == "simple":
        aset = simple_windows(series, fd_window_size(series))
    elif model == "sliding":
        aset = sliding_windows(series, fd_window_size(series))
    else:
        raise PruneError(f"unknown aspect model {model!r}")
    return smooth(aset, lambda_w)


def build_aspect_sets(
    index: InvertedIndex,
    model: str = "simple",
    lambda_w: float = DEFAULT_LAMBDA_W,
    seed: int = 0,
    k_max: int = DEFAULT_K_MAX,
    presence_only: bool = False,
) -> dict[str, AspectSet]:
    """Aspect sets for every indexed term.  Terms with no dated documents get
    a single global aspect so that pruning them degenerates to plain
    relevance ranking."""
    if model not in ASPECT_MODELS:
        raise PruneError(f"unknown aspect model {model!r}")
    hull = index_time_hull(index)
    sets: dict[str, AspectSet] = {}
    for term in index.terms():
        series = term_time_series(index, term, presence_only)
        if series.counts:
            aset = term_aspects(series, model, lambda_w, seed, k_max)
        else:
            aset = AspectSet(
                term=term,
                aspects=[Aspect(window=TimeWindow.certain(*hull), weight=1.0, is_global=True)],
                kind="global",
                span=hull,
            )
        sets[term] = doc_aspect_map(aset, index, term)
    return sets


def index_time_hull(index: InvertedIndex) -> tuple[int, int]:
    lo = hi = None
    for windows in index.doc_times.values():
        for w in windows:
            lo = w.b_lo if lo is None else min(lo, w.b_lo)
            hi = w.e_hi if hi is None else max(hi, w.e_hi)
    if lo is None:
        return 0, 0
    return lo, hi
