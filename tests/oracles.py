"""Brute-force reference implementations for the test suite.

Everything here re-derives values from definitions: criterion sums are
re-evaluated from scratch, optima come from exhaustive enumeration, and
quantiles are computed by hand.  None of it shares code with the library's
incremental or vectorized paths, so agreement is evidence, not tautology.

`ScanState`/`scan_next_best` are the slow definition of the library's lazy
greedy step: a full bottom-up pass over the relevance list per pick.
"""
import math
import random
from datetime import date
from dataclasses import dataclass, field
from itertools import combinations

from tempoprune.aspects import Aspect, AspectSet
from tempoprune.errors import QueryError
from tempoprune.prune import RelevanceList, discount
from tempoprune.timewindows import TimeWindow


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
