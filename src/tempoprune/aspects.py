"""Per-term time series and temporal aspect models.

An aspect is a weighted time window; a term's aspect set plays the role
of result diversity categories when pruning its posting list.  Window
widths come from the Freedman-Diaconis rule on the term's day histogram;
dynamic aspects come from a BIC-selected Gaussian mixture.

A tiling keeps the tiles that hold a day, found from the days: tile j
starts at lo + j*step and holds day d exactly when d - gamma < start <= d.
`doc_aspect_map` maps a document by its window hulls: one bisected index
range in a tiling, a `Stabbing` lookup in any other set, and, where no
mixture window meets, one flat `min` over (distance, index) pairs of its
days and the centres.
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import accumulate, pairwise

from .errors import PruneError, TermNotFoundError
from .gmm import DEFAULT_K_MAX, EM_MAX_ITER, GmmFit, select_k_bic, select_k_bic_each
from .index import InvertedIndex
from .timewindows import Stabbing, TimeWindow
# Unused here: bench/spans.py patches it as an aspects name.
from .timewindows import intersect  # noqa: F401


log = logging.getLogger(__name__)

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
    span: tuple[int, int] | None = None
    converged: bool = True  # False when a dynamic set's mixture fit stopped at max_iter

    @property
    def global_index(self) -> int | None:
        for i, a in enumerate(self.aspects):
            if a.is_global:
                return i
        return None


def term_time_series(index: InvertedIndex, term: str) -> TermTimeSeries:
    """Day histogram of the term: one contribution per document window at the
    window's representative (midpoint) day, weighted by tf.  Documents
    without time data contribute nothing."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    doc_days = index.doc_days
    counts: dict[int, int] = {}
    plist = index.lists[term]
    for d, tf in zip(plist.doc_ids, plist.tfs):
        for day in doc_days.get(d, ()):
            counts[day] = counts.get(day, 0) + tf
    return TermTimeSeries(term=term, counts=counts)


def fd_window_size(series: TermTimeSeries) -> int:
    """Freedman-Diaconis width ceil(2 * IQR * n^(-1/3)), floored at one day.

    Quartiles use the averaged-inverted-CDF convention over the day
    multiset (each day repeated by its count), read off the cumulative
    counts: the quartile at p is the ceil(n*p)-th smallest day, or the
    mean of the (n*p)-th and the next one when n*p is an integer.
    """
    if not series.counts:
        raise ValueError(f"series for {series.term!r} is empty")
    days = sorted(series.counts)
    cum = list(accumulate(series.counts[d] for d in days))
    n = cum[-1]

    def quartile(q: int) -> float:
        # quartile at p = q / 4; the day at 0-based position k is days[bisect_right(cum, k)]
        j, rem = divmod(n * q, 4)
        upper = days[bisect_right(cum, j)]
        return float(upper) if rem else (days[bisect_right(cum, j - 1)] + upper) / 2.0

    iqr = quartile(3) - quartile(1)
    if iqr <= 0.0:
        return 1
    return max(1, math.ceil(2.0 * iqr * n ** (-1.0 / 3.0)))


def _tiled_aspects(series: TermTimeSeries, gamma: int, step: int) -> AspectSet:
    if gamma < 1:
        raise PruneError(f"gamma must be >= 1, got {gamma}")
    lo, hi = series.span
    # Tile j starts at lo + j*step and holds day d exactly when
    # d - gamma < start <= d.  Each step bisects for the first day at or
    # past the start: a tile ending after it is kept, otherwise the walk
    # jumps to the first start that holds that day.  So the steps are the
    # kept tiles and the gaps between them, not the span.
    days = sorted(series.counts)
    starts: list[int] = []
    start, i = lo, 0
    while (i := bisect_left(days, start, i)) < len(days):
        if days[i] < start + gamma:
            starts.append(start)
            start += step
        else:
            start = lo + ((days[i] - lo - gamma) // step + 1) * step
    aspects = [Aspect(window=TimeWindow.certain(s, s + gamma - 1), weight=1.0 / len(starts)) for s in starts]
    return AspectSet(term=series.term, aspects=aspects, span=(lo, hi))


def simple_windows(series: TermTimeSeries, gamma: int) -> AspectSet:
    """Non-overlapping tiling [lo + k*gamma, lo + (k+1)*gamma); empty tiles dropped."""
    return _tiled_aspects(series, gamma, gamma)


def sliding_windows(series: TermTimeSeries, gamma: int) -> AspectSet:
    """Half-overlapping windows of length gamma stepping by max(1, gamma // 2)."""
    return _tiled_aspects(series, gamma, max(1, gamma // 2))


def component_window(mean: float, sigma: float) -> TimeWindow:
    return TimeWindow.certain(round_half_up(mean - sigma), round_half_up(mean + sigma))


def mixture_windows(series: TermTimeSeries, fit: GmmFit) -> AspectSet:
    """One aspect per component of the mixture `fit` of the series: window
    [mu-sigma, mu+sigma], weight equal to the component's mixing proportion."""
    aspects = []
    for pi, mu, var in zip(fit.weights, fit.means, fit.variances):
        if pi <= 1e-12:
            continue
        sigma = math.sqrt(var)
        aspects.append(Aspect(window=component_window(mu, sigma), weight=float(pi), center=float(mu)))
    total = sum(a.weight for a in aspects)
    for a in aspects:
        a.weight /= total
    return AspectSet(term=series.term, aspects=aspects, span=series.span, converged=fit.converged)


def dynamic_windows(series: TermTimeSeries, k_max: int = DEFAULT_K_MAX, seed: int = 0) -> AspectSet:
    """The mixture windows of the BIC-selected fit."""
    return mixture_windows(series, select_k_bic(series, k_max, seed))


def _check_lambda_w(lambda_w: float) -> None:
    if not 0.0 <= lambda_w < 1.0:
        raise PruneError(f"lambda_w must be in [0, 1), got {lambda_w}")


def smooth(aspects: AspectSet, lambda_w: float) -> AspectSet:
    """Add a global aspect of weight lambda_w spanning the series range and
    rescale the others by 1 - lambda_w.  lambda_w = 0 is a no-op: the
    zero-weight global aspect is omitted entirely."""
    _check_lambda_w(lambda_w)
    if aspects.global_index is not None:
        raise ValueError(f"aspect set for {aspects.term!r} already has a global aspect")
    if lambda_w == 0.0:
        return aspects
    if aspects.span is None:
        raise ValueError(f"aspect set for {aspects.term!r} has no span to anchor a global aspect")
    scaled = [Aspect(a.window, a.weight * (1.0 - lambda_w), False, a.center) for a in aspects.aspects]
    scaled.append(Aspect(window=TimeWindow.certain(*aspects.span), weight=lambda_w, is_global=True))
    g = len(scaled) - 1
    doc_map = {d: tuple(sorted(set(m) | {g})) for d, m in aspects.doc_map.items()}
    return AspectSet(aspects.term, scaled, doc_map, aspects.span, aspects.converged)


def doc_aspect_map(aspects: AspectSet, index: InvertedIndex, term: str) -> AspectSet:
    """Map every document of the term to the aspects whose windows intersect
    its time part; the global aspect (when present) maps everything.
    In a set with mixture centres (dynamic windows) an uncovered dated
    document falls back to the component with the nearest mean, ties to the
    lower index.  A document window meets an aspect exactly when their hulls
    (`index.doc_hulls`) overlap.  In a tiling (non-global windows of one
    length in ascending start order) the windows meeting a hull [lo, hi]
    are those starting in [lo - length, hi], one index range of two
    bisections; any other set takes a `Stabbing` lookup."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    items = aspects.aspects
    gi = aspects.global_index
    tail = () if gi is None else (gi,)
    last = gi is None or gi == len(items) - 1  # then appending gi keeps the order
    local = [i for i, a in enumerate(items) if not a.is_global]
    starts = [items[i].window.b_lo for i in local]
    lengths = {items[i].window.e_hi - b for i, b in zip(local, starts)}
    if len(lengths) <= 1 and all(a <= b for a, b in pairwise(starts)):
        length = max(lengths, default=0)

        def meeting(lo: int, hi: int) -> list[int]:
            return local[bisect_left(starts, lo - length):bisect_right(starts, hi)]
    else:
        stabbing = Stabbing((items[i].window.b_lo, items[i].window.e_hi, i) for i in local)

        def meeting(lo: int, hi: int) -> list[int]:
            return sorted(stabbing.meeting(lo, hi))
    centers = [(i, items[i].center) for i in local if items[i].center is not None]
    doc_hulls, doc_days = index.doc_hulls, index.doc_days
    doc_map: dict[str, tuple[int, ...]] = {}
    for doc_id in index.lists[term].doc_ids:
        hulls = doc_hulls.get(doc_id, ())
        if len(hulls) == 1:
            mapped = meeting(*hulls[0])
        else:
            mapped = sorted({i for lo, hi in hulls for i in meeting(lo, hi)})
        if not mapped and hulls and centers:
            mapped = (min((abs(d - c), i) for i, c in centers for d in doc_days[doc_id])[1],)
        doc_map[doc_id] = (*mapped, *tail) if last else tuple(sorted((*mapped, *tail)))
    return AspectSet(aspects.term, items, doc_map, aspects.span, aspects.converged)


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


class _AspectSets(Mapping[str, AspectSet]):
    """Every indexed term, in `index.terms()` order, to `build(term)`, called
    on each lookup in whichever process looks the term up."""

    def __init__(self, index: InvertedIndex, build: Callable[[str], AspectSet]) -> None:
        self._index, self._build = index, build

    def __len__(self) -> int:
        return len(self._index.lists)

    def __iter__(self) -> Iterator[str]:
        return iter(self._index.terms())

    def __contains__(self, term: object) -> bool:
        return term in self._index.lists

    def __getitem__(self, term: str) -> AspectSet:
        return self._build(term)


def build_aspect_sets(
    index: InvertedIndex,
    model: str = "simple",
    lambda_w: float = DEFAULT_LAMBDA_W,
    seed: int = 0,
    k_max: int = DEFAULT_K_MAX,
) -> Mapping[str, AspectSet]:
    """Aspect sets for every indexed term: a read-only mapping, in
    `index.terms()` order, that builds a term's set on each lookup.  Terms
    with no dated documents get a single global aspect so that pruning them
    degenerates to plain relevance ranking.  Done here, once: the checks,
    the hull, and the fits of all dynamic terms by `select_k_bic_each`, with
    one warning naming those whose BIC-chosen fit stopped at max_iter."""
    if model not in ASPECT_MODELS:
        raise PruneError(f"unknown aspect model {model!r}")
    _check_lambda_w(lambda_w)  # before any term is fitted
    hull = index_time_hull(index)
    index.doc_days, index.doc_hulls  # derived here, once, rather than in each forked greedy worker
    fits: dict[str, GmmFit] = {}
    if model == "dynamic":  # every dated term, fitted together
        dated = [s for term in index.terms() if (s := term_time_series(index, term)).counts]
        fits = dict(zip((s.term for s in dated), select_k_bic_each(dated, k_max, seed)))
    capped = [term for term, fit in fits.items() if not fit.converged]
    if capped:
        log.warning(
            "dynamic aspects: %d term(s) whose mixture fit stopped at max_iter=%d without converging: %s%s",
            len(capped), EM_MAX_ITER, ", ".join(capped[:5]), ", ..." if len(capped) > 5 else "",
        )

    def build(term: str) -> AspectSet:
        series = term_time_series(index, term)
        if term in fits:
            aset = smooth(mixture_windows(series, fits[term]), lambda_w)
        elif series.counts:
            aset = term_aspects(series, model, lambda_w, seed, k_max)
        else:
            aset = AspectSet(
                term=term,
                aspects=[Aspect(window=TimeWindow.certain(*hull), weight=1.0, is_global=True)],
                span=hull,
            )
        return doc_aspect_map(aset, index, term)

    return _AspectSets(index, build)


def index_time_hull(index: InvertedIndex) -> tuple[int, int]:
    """(earliest start, latest end) over every document window; (0, 0) when
    no document is dated."""
    order = index.time_order
    if not order.starts:
        return 0, 0
    return order.starts[0], order.reach[-1]
