"""Brute-force reference implementations for the test suite.

Everything here re-derives values from definitions: criterion sums are
re-evaluated from scratch, optima come from exhaustive enumeration, and
quantiles are computed by hand.  None of it shares code with the library's
incremental or vectorized paths, so agreement is evidence, not tautology.

`ScanState`/`scan_next_best` are the slow definition of the library's lazy
greedy step: a full bottom-up pass over the relevance list per pick.

`oracle_fit_gmm`/`oracle_select_k_bic` are the slow definition of the
library's batched EM: one K at a time, one (days, K) array per fit.

`oracle_doc_aspect_map` and `oracle_tile_starts` are the slow definitions
of the library's bisect document map and tiling: every aspect tested
against every document window, every tile tested against every day.

`oracle_sweep` is the slow definition of the library's sweep: greedy and
the threshold statistics run again through `prune_index` at every ratio.

`time_filtered_qrels` and `corpus_by_id` are qrels plumbing that only the
tests use.
"""
import math
import random
from datetime import date
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from tempoprune.aspects import DEFAULT_LAMBDA_W, Aspect, AspectSet, TermTimeSeries, build_aspect_sets
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import FitError, QueryError
from tempoprune.evaluation import EvalReport, Qrels, SweepRow, evaluate_queries
from tempoprune.gmm import DEFAULT_K_MAX, VAR_FLOOR, GmmFit
from tempoprune.index import pruning_ratio
from tempoprune.prune import JM_LAMBDA, METHODS, TCP_K, RelevanceList, discount, prune_index
from tempoprune.search import DEFAULT_DEPTH, Query
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
    aset = AspectSet(term="probe", aspects=aspects, doc_map=doc_map, kind="simple")
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
    aset = AspectSet(term="tied", aspects=aspects, doc_map=doc_map, kind="simple")
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
    of the document; the global aspect maps everything, and a dynamic set
    sends an uncovered dated document to the component of nearest mean."""
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


# --- per-K EM (the slow definition of gmm._em) -----------------------------

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
