"""Static posting-list pruners.

Four methods share the interface "index in, smaller index out":

* diversified top-k: per term, greedily keep the k postings maximizing an
  expected-DCG criterion over the term's temporal aspects, so every burst
  of usage keeps representation even when one burst dominates relevance;
* tcp: keep postings scoring near the term's k-th best tf-idf;
* ipu: keep postings whose entropy contribution clears a uniform threshold;
* 2n2p: keep postings whose document/collection proportions differ by a
  significant two-proportion z statistic.

The greedy path has two evaluation routes that must agree: `criterion`
re-evaluates the objective from its definition, while `next_best` runs lazy
greedy, recomputing only the stale gains that reach the top of a max-heap.
The lazy route is the one that runs; the direct route is its contract.  The
earlier full-list scan with per-aspect cursors and displacement sums lives
on in tests/oracles.py as the slow definition the lazy route must match
pick for pick and gain for gain.
"""
from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable

from .aspects import AspectSet, round_half_up
from .errors import PruneError, SelectionExhausted, TermNotFoundError
from .index import InvertedIndex, subset_index

log = logging.getLogger(__name__)

JM_LAMBDA = 0.6
TCP_K = 10


def discount(j: int) -> float:
    """Rank discount c(j) = 1 / ln(1 + j), ranks starting at 1."""
    if j < 1:
        raise ValueError(f"rank must be >= 1, got {j}")
    return 1.0 / math.log(1.0 + j)


@dataclass
class RelevanceList:
    """Per-term smoothed language-model scores, best first, doc_id tiebreak."""

    term: str
    doc_ids: list[str]
    scores: list[float]

    def __len__(self) -> int:
        return len(self.doc_ids)

    def position_of(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.doc_ids)}


def relevance_scores(index: InvertedIndex, term: str, lam: float = JM_LAMBDA) -> RelevanceList:
    """P(d|t) = (1-lam) * tf/|d| + lam * ctf/|C| (Jelinek-Mercer)."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    stats = index.stats
    ctf = stats.ctf[term]
    background = lam * ctf / stats.total_len
    entries = []
    for p in index.lists[term].postings:
        dlen = stats.doc_len[p.doc_id]
        entries.append(((1.0 - lam) * p.tf / dlen + background, p.doc_id))
    entries.sort(key=lambda e: (-e[0], e[1]))
    return RelevanceList(
        term=term,
        doc_ids=[d for _, d in entries],
        scores=[s for s, _ in entries],
    )


def criterion(selected: Iterable[str], rel: RelevanceList, aspects: AspectSet) -> float:
    """Expected DCG of a selection: sum over aspects w of
    P(w|t) * sum_j c(j) * P(d_j|t), docs ranked within each aspect by
    decreasing relevance.  Direct evaluation from the definition."""
    pos = rel.position_of()
    order = sorted(pos[d] for d in selected)
    total = 0.0
    for a_idx, aspect in enumerate(aspects.aspects):
        rank = 0
        acc = 0.0
        for p in order:
            if a_idx in aspects.doc_map[rel.doc_ids[p]]:
                rank += 1
                acc += discount(rank) * rel.scores[p]
        total += aspect.weight * acc
    return total


@dataclass
class SelectionState:
    """Lazy-greedy bookkeeping for one term.

    members[w] holds the selected positions mapped to aspect w, ascending.
    heap holds (-gain, position, stamp) for every unselected position, the
    gain computed when `stamp` positions had been selected; it is filled on
    the first `next_best` call.  disc[j] == discount(j) for every rank the
    term can reach.
    """

    n_aspects: int
    selected_positions: set[int] = field(default_factory=set)
    members: list[list[int]] = field(init=False)
    heap: list[tuple[float, int, int]] | None = field(default=None, init=False)
    disc: list[float] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.members = [[] for _ in range(self.n_aspects)]


def _gain(rel: RelevanceList, state: SelectionState, aspects: AspectSet, pos: int) -> float:
    """Criterion increase from selecting `pos`.

    Per mapped aspect, in doc_map order: the insertion term at the aspect
    rank plus the displacement of the selected docs below, each sliding
    from aspect rank j+1 to j+2, summed from the bottom up.  This is the
    accumulation order of the full-list scan, so gains match it bit for bit.
    """
    scores = rel.scores
    disc = state.disc
    gain = 0.0
    for w in aspects.doc_map[rel.doc_ids[pos]]:
        members = state.members[w]
        above = bisect_left(members, pos)
        displacement = 0.0
        for j in range(len(members) - 1, above - 1, -1):
            displacement += (disc[j + 2] - disc[j + 1]) * scores[members[j]]
        gain += aspects.aspects[w].weight * (disc[above + 1] * scores[pos] + displacement)
    return gain


def next_best(rel: RelevanceList, state: SelectionState, aspects: AspectSet) -> tuple[str, float]:
    """Unselected doc with the largest criterion increase, and that increase.

    Lazy ("accelerated") greedy, Minoux 1978: the criterion is monotone
    submodular, so a gain computed before later selections is an upper
    bound on the current one.  The heap top is recomputed until a gain
    computed at the current stamp surfaces; that candidate beats every
    other.  Ties go to the higher-relevance doc, then to the ascending
    doc_id, which is the list position in the heap key.
    """
    if state.heap is None:
        state.disc = [math.nan] + [discount(j) for j in range(1, len(rel) + 2)]
        state.heap = [(-_gain(rel, state, aspects, pos), pos, 0) for pos in range(len(rel))]
        heapq.heapify(state.heap)
    heap = state.heap
    stamp = len(state.selected_positions)
    while heap and heap[0][2] != stamp:
        pos = heap[0][1]
        heapq.heapreplace(heap, (-_gain(rel, state, aspects, pos), pos, stamp))
    if not heap:
        raise SelectionExhausted(f"every posting of {rel.term!r} is already selected")
    neg_gain, best_pos, _ = heapq.heappop(heap)
    state.selected_positions.add(best_pos)
    chosen = rel.doc_ids[best_pos]
    for w in aspects.doc_map[chosen]:
        insort(state.members[w], best_pos)
    return chosen, -neg_gain


@dataclass
class DiversifyResult:
    term: str
    order: list[str]
    gains: list[float]
    value: float
    clamped: bool = False


def diversify(rel: RelevanceList, aspects: AspectSet, k: int) -> DiversifyResult:
    """Greedy selection of k postings; k beyond the list length is clamped."""
    if k < 0:
        raise PruneError(f"k must be >= 0, got {k}")
    clamped = k > len(rel)
    if clamped:
        log.warning("diversify(%r): k=%d clamped to list length %d", rel.term, k, len(rel))
        k = len(rel)
    state = SelectionState(n_aspects=len(aspects.aspects))
    order: list[str] = []
    gains: list[float] = []
    for _ in range(k):
        doc, gain = next_best(rel, state, aspects)
        order.append(doc)
        gains.append(gain)
    return DiversifyResult(
        term=rel.term, order=order, gains=gains, value=math.fsum(gains), clamped=clamped
    )


@dataclass
class PruneConfig:
    """Per-term budget of the diversified pruner: a fixed depth `k` or a
    `target_ratio` of each list to remove.  Exactly one is set."""

    k: int | None = None
    target_ratio: float | None = None
    lam: float = JM_LAMBDA

    def __post_init__(self) -> None:
        if (self.k is None) == (self.target_ratio is None):
            raise PruneError("exactly one of k / target_ratio must be set")
        if self.k is not None and self.k < 1:
            raise PruneError(f"k must be >= 1, got {self.k}")
        if self.target_ratio is not None and not 0.0 < self.target_ratio < 1.0:
            raise PruneError(f"target_ratio must be in (0, 1), got {self.target_ratio}")

    def k_for(self, list_len: int) -> int:
        if self.k is not None:
            return min(self.k, list_len)
        return max(1, round_half_up((1.0 - self.target_ratio) * list_len))


def diversified_topk_prune(
    index: InvertedIndex, aspect_sets: dict[str, AspectSet], config: PruneConfig
) -> InvertedIndex:
    """Keep, per term, the budgeted number of postings chosen by `diversify`."""
    missing = [t for t in index.terms() if t not in aspect_sets]
    if missing:
        raise PruneError(f"no aspect set for terms: {missing[:5]}")
    keep: dict[str, set[str]] = {}
    for term in index.terms():
        rel = relevance_scores(index, term, config.lam)
        result = diversify(rel, aspect_sets[term], config.k_for(len(rel)))
        keep[term] = set(result.order)
    return subset_index(index, keep)


# --- threshold baselines ------------------------------------------------

def tcp_posting_scores(index: InvertedIndex, term: str) -> list[float]:
    """tf * ln(N/df) per posting, aligned with posting order."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    idf = math.log(index.stats.n_docs / index.stats.df[term])
    return [p.tf * idf for p in index.lists[term].postings]


def tcp_cutoff(scores: list[float], k: int = TCP_K) -> float:
    """z_t: the k-th highest score, or the minimum when the list is shorter."""
    if k < 1:
        raise PruneError(f"k must be >= 1, got {k}")
    if len(scores) <= k:
        return min(scores)
    return sorted(scores, reverse=True)[k - 1]


def ipu_values(index: InvertedIndex, term: str, lam: float = JM_LAMBDA) -> list[float]:
    """Entropy contribution A(d,t) = -q ln q, q the list-normalized JM score.

    Aligned with posting order.
    """
    if term not in index.lists:
        raise TermNotFoundError(term)
    rel = relevance_scores(index, term, lam)
    by_doc = dict(zip(rel.doc_ids, rel.scores))
    total = math.fsum(rel.scores)
    out = []
    for p in index.lists[term].postings:
        q = by_doc[p.doc_id] / total
        out.append(-q * math.log(q))
    return out


def n2p2_values(index: InvertedIndex, term: str) -> list[float]:
    """Two-proportion z statistic comparing tf/|d| against ctf/|C|.

    A degenerate standard error (pooled proportion 0 or 1) yields +inf so
    the posting survives any threshold; the count is logged.
    """
    if term not in index.lists:
        raise TermNotFoundError(term)
    stats = index.stats
    ctf = stats.ctf[term]
    coll = stats.total_len
    out = []
    degenerate = 0
    for p in index.lists[term].postings:
        dlen = stats.doc_len[p.doc_id]
        pooled = (p.tf + ctf) / (dlen + coll)
        err = math.sqrt(pooled * (1.0 - pooled) * (1.0 / dlen + 1.0 / coll))
        if err == 0.0:
            degenerate += 1
            out.append(math.inf)
        else:
            out.append((p.tf / dlen - ctf / coll) / err)
    if degenerate:
        log.warning("2n2p(%r): kept %d postings with degenerate z statistic", term, degenerate)
    return out


def threshold_values(
    index: InvertedIndex, method: str, zk: int = TCP_K, lam: float = JM_LAMBDA
) -> dict[str, list[float]]:
    """Per-posting statistics, posting order, with the shared contract
    "pruned iff value < epsilon".  TCP values are score/z_t; a term whose
    cutoff is zero keeps its whole list, encoded as +inf."""
    values: dict[str, list[float]] = {}
    for term in index.terms():
        if method == "tcp":
            scores = tcp_posting_scores(index, term)
            z = tcp_cutoff(scores, zk)
            if z <= 0.0:
                values[term] = [math.inf] * len(scores)
            else:
                values[term] = [s / z for s in scores]
        elif method == "ipu":
            values[term] = ipu_values(index, term, lam)
        elif method == "2n2p":
            values[term] = n2p2_values(index, term)
        else:
            raise PruneError(f"unknown threshold method {method!r}")
    return values


def threshold_prune(
    index: InvertedIndex,
    method: str,
    epsilon: float,
    zk: int = TCP_K,
    lam: float = JM_LAMBDA,
) -> InvertedIndex:
    if epsilon < 0.0:
        raise PruneError(f"epsilon must be >= 0, got {epsilon}")
    values = threshold_values(index, method, zk, lam)
    keep: dict[str, set[str]] = {}
    for term in index.terms():
        postings = index.lists[term].postings
        keep[term] = {
            p.doc_id for p, v in zip(postings, values[term]) if not v < epsilon
        }
    return subset_index(index, keep)


def tcp_prune(index: InvertedIndex, k: int = TCP_K, epsilon: float = 0.8) -> InvertedIndex:
    """Remove postings scoring below epsilon times the term's k-th best."""
    if not 0.0 < epsilon <= 1.0:
        raise PruneError(f"tcp epsilon must be in (0, 1], got {epsilon}")
    return threshold_prune(index, "tcp", epsilon, zk=k)


def ipu_prune(index: InvertedIndex, epsilon: float, lam: float = JM_LAMBDA) -> InvertedIndex:
    """Remove postings whose entropy contribution falls below epsilon."""
    return threshold_prune(index, "ipu", epsilon, lam=lam)


def n2p2_prune(index: InvertedIndex, epsilon: float) -> InvertedIndex:
    """Remove postings whose z statistic is strictly below epsilon."""
    return threshold_prune(index, "2n2p", epsilon)
