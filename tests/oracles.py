"""Brute-force reference implementations for the test suite.

Everything here re-derives values from definitions: criterion sums are
re-evaluated from scratch, optima come from exhaustive enumeration, and
quantiles are computed by hand.  None of it shares code with the library's
incremental or vectorized paths, so agreement is evidence, not tautology.

`ScanState`/`scan_next_best` are the slow definition of the library's lazy
greedy step: a full bottom-up pass over the relevance list per pick.

`oracle_fit_gmm`/`oracle_select_k_bic` are the slow definition of the
library's batched EM: one K at a time, one (days, K) array per fit.
`oracle_em` is the batch of one series' Ks that the library ran before it
batched many series; a batch of one series must reproduce it bit for bit.

`oracle_doc_aspect_map` and `oracle_tile_starts` are the slow definitions
of the library's bisect document map and tiling: every aspect tested
against every document window, every tile tested against every day.

`oracle_sweep` is the slow definition of the library's sweep: greedy and
the threshold statistics run again through `prune_index` at every ratio.

`oracle_run_query`, `oracle_temporal_match` and `oracle_all_relevant_qrels`
are the slow definitions of exclusive retrieval and judging: every posting
of the query terms is scored, and each candidate document's windows are
then tested against every query window.  `oracle_term_time_series` reads
every window's midpoint afresh for every posting.

`oracle_read_index` and `oracle_write_index` are the slow definitions of
the library's index reader and writer: every varint of every posting list
read or written one at a time.

`tcp_posting_scores`, `tcp_cutoff`, `ipu_values`, `n2p2_values` and
`oracle_threshold_values` are the slow definitions of the library's
threshold statistics: one term, then one posting, at a time in Python
floats.  `oracle_cut` keeps postings through per-term keep sets, and
`oracle_pruning_ratio` checks every pruned posting against a doc_id -> tf
table of its base list.

`time_filtered_qrels` and `corpus_by_id` are qrels plumbing that only the
tests use; `multi_window_corpus` is a test corpus whose documents carry
up to two windows.
"""
import hashlib
import math
import random
from collections import Counter
from datetime import date
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from tempoprune.aspects import DEFAULT_LAMBDA_W, Aspect, AspectSet, TermTimeSeries, build_aspect_sets
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import FitError, IndexConsistencyError, IndexFormatError, QueryError
from tempoprune.evaluation import EvalReport, Qrels, SweepRow, evaluate_queries
from tempoprune.gmm import DEFAULT_K_MAX, VAR_FLOOR, GmmFit
from tempoprune.index import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    CollectionStats,
    InvertedIndex,
    PostingList,
    _Reader,
    pruning_ratio,
)
from tempoprune.prune import JM_LAMBDA, METHODS, TCP_K, RelevanceList, discount, prune_index
from tempoprune.search import B, DEFAULT_DEPTH, K1, Query, RankedResult
from tempoprune.synth import random_corpus
from tempoprune.timewindows import TimeWindow, any_intersect, overlaps


def make_instance(seed: int, max_docs: int = 10, max_aspects: int = 4):
    """Random (RelevanceList, AspectSet) pair: distinct scores, every doc
    mapped to at least one aspect, weights normalized."""
    rng = random.Random(seed)
    n = rng.randint(2, max_docs)
    m = rng.randint(1, max_aspects)
    doc_ids = [f"doc{i:02d}" for i in range(n)]
    scores = sorted({rng.uniform(0.01, 1.0) for _ in range(3 * n)}, reverse=True)[:n]
    while len(scores) < n:
        scores.append(scores[-1] / 2.0)
    weights = [rng.uniform(0.1, 1.0) for _ in range(m)]
    total = sum(weights)
    aspects = [
        Aspect(window=TimeWindow.certain(10 * i, 10 * i + 9), weight=w / total)
        for i, w in enumerate(weights)
    ]
    doc_map = {}
    for d in doc_ids:
        k = rng.randint(1, m)
        doc_map[d] = tuple(sorted(rng.sample(range(m), k)))
    rel = RelevanceList(term="probe", doc_ids=doc_ids, scores=scores)
    aset = AspectSet(term="probe", aspects=aspects, doc_map=doc_map)
    return rel, aset


def oracle_criterion(selected, rel: RelevanceList, aspects: AspectSet) -> float:
    """Direct evaluation: per aspect, rank its selected docs by decreasing
    relevance (list order) and sum discounted scores."""
    pos = {d: i for i, d in enumerate(rel.doc_ids)}
    total = 0.0
    for w_idx, aspect in enumerate(aspects.aspects):
        members = sorted(pos[d] for d in selected if w_idx in aspects.doc_map[d])
        for rank, p in enumerate(members, start=1):
            total += aspect.weight * rel.scores[p] / math.log(1.0 + rank)
    return total


def oracle_next_best(rel: RelevanceList, selected, aspects: AspectSet):
    """(doc, gain) by re-evaluating the criterion for every candidate.
    Ties: higher score, then ascending doc_id."""
    base = oracle_criterion(selected, rel, aspects)
    candidates = []
    for i, d in enumerate(rel.doc_ids):
        if d in selected:
            continue
        delta = oracle_criterion(set(selected) | {d}, rel, aspects) - base
        candidates.append((-delta, -rel.scores[i], d))
    if not candidates:
        return None
    neg_delta, _, doc = min(candidates)
    return doc, -neg_delta


def make_tied_instance(seed: int, max_docs: int = 40, max_aspects: int = 6):
    """Random (RelevanceList, AspectSet) pair built for ties: scores and
    weights drawn from a few values, docs in zero to several aspects."""
    rng = random.Random(seed)
    n = rng.randint(1, max_docs)
    m = rng.randint(1, max_aspects)
    levels = rng.sample([0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 1.0], rng.randint(1, 4))
    entries = [(rng.choice(levels), f"doc{i:02d}") for i in range(n)]
    entries.sort(key=lambda e: (-e[0], e[1]))
    weights = [rng.choice([1.0, 2.0, 3.0]) for _ in range(m)]
    total = sum(weights)
    aspects = [
        Aspect(window=TimeWindow.certain(10 * i, 10 * i + 9), weight=w / total)
        for i, w in enumerate(weights)
    ]
    doc_map = {d: tuple(sorted(rng.sample(range(m), rng.randint(0, m)))) for _, d in entries}
    rel = RelevanceList(term="tied", doc_ids=[d for _, d in entries], scores=[s for s, _ in entries])
    aset = AspectSet(term="tied", aspects=aspects, doc_map=doc_map)
    return rel, aset


@dataclass
class ScanState:
    """Greedy bookkeeping for the scan: counts[w] selected docs per aspect;
    cursors[w] and displacement[w] are rebuilt by each scan (rank cursor and
    partial displacement sum over already-passed selected docs)."""

    n_aspects: int
    counts: list = field(init=False)
    cursors: list = field(init=False)
    displacement: list = field(init=False)
    selected_positions: set = field(default_factory=set)

    def __post_init__(self) -> None:
        self.counts = [0] * self.n_aspects
        self.cursors = [0] * self.n_aspects
        self.displacement = [0.0] * self.n_aspects


def scan_next_best(rel: RelevanceList, state: ScanState, aspects: AspectSet):
    """(doc, gain) of one greedy step by a single bottom-up pass, or None
    when every posting is selected.

    Passing a selected doc of aspect w advances the rank cursor and accrues
    its displacement cost (it would slide one rank down under any better
    insertion); reaching a candidate, the insertion gain at the cursor rank
    plus the accrued displacement is criterion-after minus criterion-before.
    Ties go to the higher-relevance doc, then to the ascending doc_id, which
    the bottom-up order makes a plain >= comparison.
    """
    state.cursors = [0] * state.n_aspects
    state.displacement = [0.0] * state.n_aspects
    best_pos = -1
    best_gain = -math.inf
    for pos in range(len(rel) - 1, -1, -1):
        score = rel.scores[pos]
        mapped = aspects.doc_map[rel.doc_ids[pos]]
        if pos in state.selected_positions:
            for w in mapped:
                state.cursors[w] += 1
                rank = state.counts[w] - state.cursors[w] + 1
                state.displacement[w] += (discount(rank + 1) - discount(rank)) * score
        else:
            gain = 0.0
            for w in mapped:
                insert_rank = state.counts[w] - state.cursors[w] + 1
                gain += aspects.aspects[w].weight * (
                    discount(insert_rank) * score + state.displacement[w]
                )
            if gain >= best_gain:
                best_gain = gain
                best_pos = pos
    if best_pos < 0:
        return None
    state.selected_positions.add(best_pos)
    chosen = rel.doc_ids[best_pos]
    for w in aspects.doc_map[chosen]:
        state.counts[w] += 1
    return chosen, best_gain


def scan_diversify(rel: RelevanceList, aspects: AspectSet, k: int):
    """(order, gains) of k scan steps, k at most the list length."""
    state = ScanState(n_aspects=len(aspects.aspects))
    order, gains = [], []
    for _ in range(k):
        doc, gain = scan_next_best(rel, state, aspects)
        order.append(doc)
        gains.append(gain)
    return order, gains


def oracle_optimum(rel: RelevanceList, aspects: AspectSet, k: int) -> float:
    """Exhaustive-search maximum of the criterion over all k-subsets."""
    best = 0.0
    for combo in combinations(rel.doc_ids, k):
        best = max(best, oracle_criterion(set(combo), rel, aspects))
    return best


def hf2_quantile(sorted_vals, p: float) -> float:
    """Hyndman-Fan type 2 sample quantile (inverted CDF with averaging at
    discontinuities) on a pre-sorted sequence."""
    n = len(sorted_vals)
    h = n * p
    j = math.floor(h)
    if h > j:
        return float(sorted_vals[min(j, n - 1)])
    lo = sorted_vals[max(j - 1, 0)]
    hi = sorted_vals[min(j, n - 1)]
    return (lo + hi) / 2.0


def oracle_fd_width(days) -> int:
    """Freedman-Diaconis day-histogram width from the expanded multiset."""
    xs = sorted(days)
    iqr = hf2_quantile(xs, 0.75) - hf2_quantile(xs, 0.25)
    if iqr <= 0:
        return 1
    return max(1, math.ceil(2.0 * iqr * len(xs) ** (-1.0 / 3.0)))


def oracle_tile_starts(series: TermTimeSeries, gamma: int, step: int) -> list[int]:
    """Starts lo, lo + step, ... up to the last day whose tile
    [start, start + gamma) holds a day of the series, by scanning every day."""
    lo, hi = series.span
    days = sorted(series.counts)
    starts = []
    start = lo
    while start <= hi:
        if any(start <= d < start + gamma for d in days):
            starts.append(start)
        start += step
    return starts


def oracle_doc_aspect_map(aspects: AspectSet, index, term: str) -> dict[str, tuple[int, ...]]:
    """Document map by testing every non-global aspect against every window
    of the document; the global aspect maps everything, and a set with
    centres sends an uncovered dated document to the component of nearest mean."""
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
        if not mapped and windows and centers:
            rep_days = [w.midpoint for w in windows]
            mapped = {min(centers, key=lambda ic: (min(abs(d - ic[1]) for d in rep_days), ic[0]))[0]}
        if gi is not None:
            mapped.add(gi)
        doc_map[p.doc_id] = tuple(sorted(mapped))
    return doc_map


def corpus_by_id(corpus: Corpus) -> dict[str, Document]:
    return {d.doc_id: d for d in corpus.documents}


def time_filtered_qrels(original: Qrels, queries: list[Query], corpus: Corpus) -> Qrels:
    """Original grades restricted to documents whose time part intersects the
    query window; everything else drops to grade 0 (omitted)."""
    by_id = corpus_by_id(corpus)
    by_qid = {q.qid: q for q in queries}
    grades: dict[tuple[str, str], int] = {}
    for (qid, doc_id), g in original.grades.items():
        q = by_qid.get(qid)
        if q is None or g == 0:
            continue
        doc = by_id.get(doc_id)
        if doc is None or not doc.time_part:
            continue
        if any_intersect(q.time_constraint, doc.time_part):
            grades[(qid, doc_id)] = g
    return Qrels(grades)


def oracle_day_number(y: int, m: int, d: int) -> int:
    """Days since 1970-01-01 via ordinal arithmetic."""
    return date(y, m, d).toordinal() - date(1970, 1, 1).toordinal()


def oracle_average_precision(ranked_ids, relevant: set, n_relevant: int) -> float:
    hits = 0
    acc = 0.0
    for rank, doc in enumerate(ranked_ids, start=1):
        if doc in relevant:
            hits += 1
            acc += hits / rank
    return acc / n_relevant if n_relevant else 0.0


def bm25_score(index, terms, doc_id: str, k1: float = 2.0, b: float = 0.75) -> float:
    """BM25 of one document, scored pointwise: the reference for the
    term-at-a-time accumulation in `search.run_query`.  Query terms count
    with multiplicity; idf is the unfloored ln((N - df + 0.5) / (df + 0.5));
    terms missing from the document (or the whole index) contribute 0."""
    if doc_id not in index.stats.doc_len:
        raise QueryError(f"unknown document {doc_id!r}")
    n_docs = index.stats.n_docs
    norm = 1.0 - b + b * index.stats.doc_len[doc_id] / index.stats.avgdl
    score = 0.0
    for term in sorted(set(terms)):
        plist = index.lists.get(term)
        tf = next((p.tf for p in plist.postings if p.doc_id == doc_id), 0) if plist else 0
        if tf == 0:
            continue
        df = index.stats.df[term]
        idf = math.log((n_docs - df + 0.5) / (df + 0.5))
        score += terms.count(term) * idf * tf * (k1 + 1.0) / (tf + k1 * norm)
    return score


# --- per-term threshold statistics (the slow definitions of prune.threshold_values)

def tcp_posting_scores(index, term: str) -> list[float]:
    """tf * ln(N/df) per posting, aligned with posting order."""
    idf = math.log(index.stats.n_docs / index.stats.df[term])
    return [tf * idf for tf in index.lists[term].tfs]


def tcp_cutoff(scores: list[float], k: int = TCP_K) -> float:
    """z_t: the k-th highest score, or the minimum when the list is shorter."""
    if len(scores) <= k:
        return min(scores)
    return sorted(scores, reverse=True)[k - 1]


def oracle_jm_scores(index, term: str, lam: float = JM_LAMBDA) -> list[float]:
    """P(d|t) = (1-lam) * tf/|d| + lam * ctf/|C| (Jelinek-Mercer), posting order."""
    stats = index.stats
    background = lam * stats.ctf[term] / stats.total_len
    plist = index.lists[term]
    return [
        (1.0 - lam) * tf / stats.doc_len[d] + background for d, tf in zip(plist.doc_ids, plist.tfs)
    ]


def ipu_values(index, term: str, lam: float = JM_LAMBDA) -> list[float]:
    """Entropy contribution A(d,t) = -q ln q, q the list-normalized JM score."""
    scores = oracle_jm_scores(index, term, lam)
    total = math.fsum(scores)
    return [-q * math.log(q) for q in (s / total for s in scores)]


def n2p2_values(index, term: str) -> list[float]:
    """Two-proportion z statistic comparing tf/|d| against ctf/|C|.  A
    degenerate standard error (pooled proportion 0 or 1) yields +inf, so
    the posting survives any threshold."""
    stats = index.stats
    ctf = stats.ctf[term]
    coll = stats.total_len
    out = []
    plist = index.lists[term]
    for d, tf in zip(plist.doc_ids, plist.tfs):
        dlen = stats.doc_len[d]
        pooled = (tf + ctf) / (dlen + coll)
        err = math.sqrt(pooled * (1.0 - pooled) * (1.0 / dlen + 1.0 / coll))
        out.append(math.inf if err == 0.0 else (tf / dlen - ctf / coll) / err)
    return out


def oracle_threshold_values(index, method: str, zk: int = TCP_K, lam: float = JM_LAMBDA) -> dict:
    """Per-term statistics, posting order, one term at a time: TCP's are
    score/z_t, or +inf for the whole list when z_t <= 0."""
    values = {}
    for term in index.terms():
        if method == "tcp":
            scores = tcp_posting_scores(index, term)
            z = tcp_cutoff(scores, zk)
            values[term] = [math.inf] * len(scores) if z <= 0.0 else [s / z for s in scores]
        elif method == "ipu":
            values[term] = ipu_values(index, term, lam)
        else:
            values[term] = n2p2_values(index, term)
    return values


def split_by_term(index, values) -> dict:
    """A flat sequence of per-posting values, lists in `index.terms()` order,
    as one Python list per term."""
    flat = [float(v) for v in values]
    assert len(flat) == index.posting_count()
    out, start = {}, 0
    for term in index.terms():
        end = start + len(index.lists[term].doc_ids)
        out[term], start = flat[start:end], end
    return out


def oracle_cut(index, values: dict, epsilon: float) -> InvertedIndex:
    """The sub-index of the postings whose statistic is not below epsilon,
    one keep set per term; emptied lists go, stats stay."""
    lists = {}
    for term, plist in sorted(index.lists.items()):
        keep = {d for d, v in zip(plist.doc_ids, values[term]) if not v < epsilon}
        kept = [(d, tf) for d, tf in zip(plist.doc_ids, plist.tfs) if d in keep]
        if kept:
            lists[term] = PostingList(term, [d for d, _ in kept], [tf for _, tf in kept])
    return InvertedIndex(lists=lists, stats=index.stats, doc_times=index.doc_times, pruned=True)


def oracle_pruning_ratio(original, pruned) -> float:
    """`pruning_ratio` by a doc_id -> tf table of each base list."""
    total = original.posting_count()
    if total == 0:
        raise IndexConsistencyError("original index has no postings")
    kept = 0
    for term, pl in pruned.lists.items():
        if term not in original.lists:
            raise IndexConsistencyError(f"pruned index has unknown term {term!r}")
        base = original.lists[term]
        orig = dict(zip(base.doc_ids, base.tfs))
        for doc_id, tf in zip(pl.doc_ids, pl.tfs):
            if orig.get(doc_id) != tf:
                raise IndexConsistencyError(
                    f"posting ({term!r}, {doc_id!r}) is not in the original index"
                )
        kept += len(pl.doc_ids)
    return 1.0 - kept / total


def oracle_tune(values: dict, method: str, target: float) -> tuple[float, float]:
    """(epsilon, achieved ratio) closest to `target`, by trying every
    candidate epsilon: 0, the upper bound (1 for tcp, else one past the
    largest finite statistic, and at least 0) and every distinct finite
    statistic between them.  An epsilon prunes the statistics below it; a
    tie keeps the smaller epsilon.  No finite statistic: (0, 0)."""
    flat = [v for vals in values.values() for v in vals]
    finite = [v for v in flat if v != math.inf]
    if not finite:
        return 0.0, 0.0
    upper = 1.0 if method == "tcp" else max(0.0, max(finite) + 1.0)
    best = None
    for eps in sorted({0.0, upper} | {v for v in finite if 0.0 < v < upper}):
        achieved = sum(1 for v in flat if v < eps) / len(flat)
        if best is None or abs(achieved - target) < abs(best[1] - target):
            best = (eps, achieved)
    return best


def make_tune_instance(seed: int):
    """(values, method, target) for epsilon tuning, built for ties: per-term
    statistics drawn from a few levels of the method's range (two of them one
    ulp apart), with +inf, negative (at times all negative) 2n2p statistics,
    tcp values around its cap of 1, and targets that are exact count fractions, out of range or random."""
    rng = random.Random(seed)
    third = 1.0 / 3.0
    levels = {
        "tcp": [0.0, 0.25, third, math.nextafter(third, 1.0), 0.5, 1.0, 1.5, 3.0, math.inf],
        "ipu": [0.0, 0.01, 0.05, 0.05, 0.2, 0.36, math.inf],
        "2n2p": [-4.0, -1.5, -0.5, 0.0, third, math.nextafter(third, 1.0), 2.0, math.inf],
    }
    method = rng.choice(sorted(levels))
    pool = rng.sample(levels[method], rng.randint(1, len(levels[method])))
    if rng.random() < 0.3:
        pool.append(rng.uniform(-2.0, 2.0) if method == "2n2p" else rng.uniform(0.0, 2.0))
    if method == "2n2p" and rng.random() < 0.2:
        pool = [v - 5.0 for v in pool]  # every finite statistic below -1
    values = {
        f"t{j}": [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        for j in range(rng.randint(1, 5))
    }
    total = sum(len(v) for v in values.values())
    roll = rng.random()
    if roll < 0.4 and total:
        target = rng.randint(0, total) / total
    elif roll < 0.5:
        target = rng.choice([-0.2, 0.0, 1.0, 1.5])
    else:
        target = rng.random()
    return values, method, target


# --- per-K and per-series EM (the slow definitions of gmm._em) --------------

def _oracle_weighted_choice(rng: np.random.Generator, values: np.ndarray, probs: np.ndarray) -> float:
    return float(values[rng.choice(len(values), p=probs)])


def oracle_seed_means(days: np.ndarray, wts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding followed by a few weighted Lloyd rounds."""
    probs = wts / wts.sum()
    centers = [_oracle_weighted_choice(rng, days, probs)]
    while len(centers) < k:
        d2 = np.min((days[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        mass = wts * d2
        total = mass.sum()
        if total <= 0:
            # all remaining mass sits on existing centers; reuse the smallest day
            centers.append(float(days[0]))
            continue
        centers.append(_oracle_weighted_choice(rng, days, mass / total))
    means = np.asarray(centers, dtype=float)
    for _ in range(10):
        assign = np.argmin(np.abs(days[:, None] - means[None, :]), axis=1)
        for j in range(k):
            mask = assign == j
            if wts[mask].sum() > 0:
                means[j] = np.average(days[mask], weights=wts[mask])
    return means


def oracle_fit_gmm(series: TermTimeSeries, k: int, seed: int, *, max_iter: int = 200,
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
    means = oracle_seed_means(days, wts, k, rng)
    global_var = max(var_floor, float(np.average((days - np.average(days, weights=wts)) ** 2, weights=wts)))
    variances = np.full(k, global_var)
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    prev_ll = -math.inf
    converged = False
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
            converged = True
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
        converged=converged,
    )


def oracle_em(series: TermTimeSeries, ks, seed: int, *, max_iter: int = 200, tol: float = 1e-6,
              var_floor: float = VAR_FLOOR) -> list[GmmFit]:
    """The fits of every K in `ks` of one series as one batch, as the library
    ran them before it batched many series: each K seeds from a fresh
    `default_rng(seed)` and leaves the batch once it converges.  A batch of
    one series in `gmm._em` must give these floats exactly."""
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
    means = np.concatenate([oracle_seed_means(days, wts, k, np.random.default_rng(seed)) for k in ks])
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


def oracle_select_k_bic(series: TermTimeSeries, k_max: int = DEFAULT_K_MAX, seed: int = 0) -> GmmFit:
    """Fit K = 1..min(k_max, distinct days) and keep the lowest BIC (ties: smaller K)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not series.counts:
        raise ValueError(f"series for {series.term!r} is empty")
    fits = (oracle_fit_gmm(series, k, seed) for k in range(1, min(k_max, len(series.counts)) + 1))
    return min(fits, key=lambda fit: fit.bic)


# --- per-ratio sweep (the slow definition of evaluation.sweep) ---------------

def oracle_sweep(index, queries, qrels, methods, ratios, lambda_w=DEFAULT_LAMBDA_W,
                 lam=JM_LAMBDA, zk=TCP_K, seed=0, depth=DEFAULT_DEPTH, discount="ln",
                 k_max=DEFAULT_K_MAX, presence_only=False) -> EvalReport:
    """One `prune_index` and one evaluation per (method, ratio)."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {tuple(METHODS)}")
    baseline: tuple[float, float, int] | None = None
    report = EvalReport()
    for method in sorted(set(methods)):
        model = METHODS[method].aspect_model
        aspect_sets = None
        for ratio in sorted(set(ratios)):
            if not 0.0 <= ratio < 1.0:
                raise ValueError(f"ratio must be in [0, 1), got {ratio}")
            if ratio == 0.0:
                if baseline is None:
                    baseline = evaluate_queries(index, queries, qrels, depth, discount)
                map_, ndcg_, n = baseline
                report.rows.append(SweepRow(method, ratio, map_, ndcg_, n))
                continue
            if aspect_sets is None and model is not None:
                aspect_sets = build_aspect_sets(index, model, lambda_w, seed, k_max, presence_only)
            pruned, info = prune_index(
                index, method, ratio=ratio, aspect_sets=aspect_sets, zk=zk, lam=lam
            )
            achieved = pruning_ratio(index, pruned)
            map_, ndcg_, n = evaluate_queries(pruned, queries, qrels, depth, discount)
            flagged = info.get("tuned", {}).get("flagged", False)
            report.rows.append(
                SweepRow(method, ratio, map_, ndcg_, n, achieved, info.get("epsilon"), flagged)
            )
    return report


# --- post-filter retrieval (the slow definition of exclusive queries) -------

def multi_window_corpus(seed: int, n_docs: int = 200, vocab_size: int = 40) -> Corpus:
    """`random_corpus` (undated and uncertain documents included) with half
    of the dated documents given a second window: nested in the first, with
    the first's hull (the same window when the first is an instant), around
    it, or far after it."""
    rng = random.Random(seed)
    docs = random_corpus(n_docs=n_docs, seed=seed, vocab_size=vocab_size).documents
    for doc in docs:
        if doc.time_part and rng.random() < 0.5:
            (w,) = doc.time_part
            extra = rng.choice([
                TimeWindow.instant(w.b_lo),
                TimeWindow(w.b_lo, w.b_lo, w.e_hi, w.e_hi),
                TimeWindow.certain(w.b_lo - rng.randint(1, 30), w.e_hi + rng.randint(0, 30)),
                TimeWindow.certain(w.e_hi + rng.randint(1, 400), w.e_hi + rng.randint(401, 500)),
            ])
            doc.time_part = doc.time_part | {extra}
    return Corpus(documents=docs)


def oracle_temporal_match(index, doc_id: str, constraint) -> bool:
    """Some window of the document intersects some query window."""
    return any_intersect(constraint, index.doc_times.get(doc_id, frozenset()))


def oracle_run_query(index, query: Query, depth: int = DEFAULT_DEPTH) -> RankedResult:
    """Term-at-a-time BM25 over every posting of the query terms; an
    exclusive query then drops the candidates whose time part meets no
    query window.  Top `depth` by (score desc, doc_id asc)."""
    if depth < 1:
        raise QueryError(f"depth must be >= 1, got {depth}")
    if not query.terms:
        raise QueryError(f"query {query.qid!r} has no terms")
    acc: dict[str, float] = {}
    n_docs, avgdl = index.stats.n_docs, index.stats.avgdl
    for term, count in sorted(Counter(query.terms).items()):
        plist = index.lists.get(term)
        if plist is None:
            continue
        df = index.stats.df[term]
        idf = math.log((n_docs - df + 0.5) / (df + 0.5))
        for p in plist.postings:
            dlen = index.stats.doc_len[p.doc_id]
            w = count * idf * (p.tf * (K1 + 1.0) / (p.tf + K1 * (1.0 - B + B * dlen / avgdl)))
            acc[p.doc_id] = acc.get(p.doc_id, 0.0) + w
    candidates = acc.items()
    if query.time_constraint:
        candidates = (
            (d, s) for d, s in candidates if oracle_temporal_match(index, d, query.time_constraint)
        )
    ranked = sorted(candidates, key=lambda e: (-e[1], e[0]))[:depth]
    return RankedResult(qid=query.qid, hits=ranked)


def oracle_all_relevant_qrels(queries, index) -> Qrels:
    """Grade 1 for every document in the union of the query terms' posting
    lists whose time part meets a query window."""
    grades: dict[tuple[str, str], int] = {}
    for q in queries:
        if not q.time_constraint:
            raise QueryError(f"query {q.qid!r} is not exclusive")
        candidates = set()
        for term in q.terms:
            plist = index.lists.get(term)
            if plist is not None:
                candidates.update(p.doc_id for p in plist.postings)
        for doc in candidates:
            if oracle_temporal_match(index, doc, q.time_constraint):
                grades[(q.qid, doc)] = 1
    return Qrels(grades)


def oracle_term_time_series(index, term: str, presence_only: bool = False) -> dict[int, int]:
    """Day histogram of the term, each window's midpoint read per posting."""
    counts: dict[int, int] = {}
    for p in index.lists[term].postings:
        mass = 1 if presence_only else p.tf
        for w in index.doc_times.get(p.doc_id, frozenset()):
            counts[w.midpoint] = counts.get(w.midpoint, 0) + mass
    return counts


# --- index reader (the slow definition of index.read_index) -----------------

def oracle_read_index(path) -> InvertedIndex:
    """`read_index`, decoding each posting list one varint at a time.  The
    document ids, and each list's doc numbers, must be strictly ascending,
    checked against their sorted set.  Its varints are unbounded: a list
    varint of more than 9 bytes, which `read_index` rejects, decodes here."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    _, version, flags, payload_len = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"{path}: unsupported format version {version}")
    end = _HEADER.size + payload_len
    if len(data) < end + 32:
        raise IndexFormatError(f"{path}: truncated file, checksum cannot be verified")
    payload = data[_HEADER.size : end]
    if hashlib.sha256(payload).digest() != data[end : end + 32]:
        raise IndexFormatError(f"{path}: checksum mismatch")
    r = _Reader(payload)
    docs: list[str] = []
    doc_len: dict[str, int] = {}
    doc_times: dict[str, frozenset[TimeWindow]] = {}
    for _ in range(r.uv()):
        doc_id = r.s()
        doc_len[doc_id] = r.uv()
        wins = []
        for _ in range(r.uv()):
            try:
                wins.append(TimeWindow(*(r.sv() for _ in range(4))))
            except ValueError as exc:
                raise IndexFormatError(f"document {doc_id!r}: {exc}") from exc
        docs.append(doc_id)
        if wins:
            doc_times[doc_id] = frozenset(wins)
    if docs != sorted(set(docs)):
        raise IndexFormatError(f"{path}: document ids not strictly ascending")
    lists: dict[str, PostingList] = {}
    df: dict[str, int] = {}
    ctf: dict[str, int] = {}
    for _ in range(r.uv()):
        term = r.s()
        df[term] = r.uv()
        ctf[term] = r.uv()
        nums = []
        cur = 0
        for _ in range(r.uv()):
            cur += r.uv()
            nums.append(cur)
        if not nums:
            raise IndexFormatError(f"term {term!r}: empty posting list")
        if any(num >= len(docs) for num in nums):
            raise IndexFormatError("posting references unknown document")
        if nums != sorted(set(nums)):
            raise IndexFormatError(f"term {term!r}: doc ids not strictly ascending")
        lists[term] = PostingList(term, [docs[num] for num in nums], [r.uv() for _ in nums])
    if r.pos != len(payload):
        raise IndexFormatError(f"{path}: {len(payload) - r.pos} trailing payload bytes")
    total = sum(doc_len.values())
    stats = CollectionStats(
        n_docs=len(doc_len),
        doc_len=doc_len,
        total_len=total,
        avgdl=total / len(doc_len) if doc_len else 0.0,
        df=df,
        ctf=ctf,
    )
    return InvertedIndex(lists=lists, stats=stats, doc_times=doc_times, pruned=bool(flags & 1))


# --- index writer (the slow definition of index.write_index) ----------------

def _oracle_uv(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        b = value & 0x7F
        value >>= 7
        buf.append(b | (0x80 if value else 0))
        if not value:
            return


def oracle_write_index(index: InvertedIndex, path) -> None:
    """`write_index`, writing every varint of every posting list one at a
    time: each doc number as the gap from the one before it (the first
    from 0), then the tfs."""
    payload = bytearray()
    docs = sorted(index.stats.doc_len)
    doc_ord = {d: i for i, d in enumerate(docs)}
    _oracle_uv(payload, len(docs))
    for doc_id in docs:
        raw = doc_id.encode("utf-8")
        _oracle_uv(payload, len(raw))
        payload.extend(raw)
        _oracle_uv(payload, index.stats.doc_len[doc_id])
        windows = sorted(index.doc_times.get(doc_id, frozenset()))
        _oracle_uv(payload, len(windows))
        for w in windows:
            for v in (w.b_lo, w.b_hi, w.e_lo, w.e_hi):
                _oracle_uv(payload, 2 * v if v >= 0 else -2 * v - 1)
    _oracle_uv(payload, len(index.lists))
    for term in sorted(index.lists):
        pl = index.lists[term]
        raw = term.encode("utf-8")
        _oracle_uv(payload, len(raw))
        payload.extend(raw)
        _oracle_uv(payload, index.stats.df[term])
        _oracle_uv(payload, index.stats.ctf[term])
        _oracle_uv(payload, len(pl.doc_ids))
        prev = 0
        for doc_id in pl.doc_ids:
            num = doc_ord[doc_id]
            _oracle_uv(payload, num - prev)
            prev = num
        for tf in pl.tfs:
            _oracle_uv(payload, tf)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, 1 if index.pruned else 0, len(payload))
    with open(path, "wb") as fh:
        fh.write(header + bytes(payload) + hashlib.sha256(payload).digest())
