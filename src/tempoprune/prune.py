"""Static posting-list pruners, and the table of pruning methods.

* div-simple, div-sliding, div-dynamic: per term, greedily keep the k
  postings maximizing an expected-DCG criterion over the term's temporal
  aspects, so every burst of usage keeps representation even when one
  burst dominates relevance;
* tcp: keep postings scoring near the term's k-th best tf-idf;
* ipu: keep postings whose entropy contribution clears a uniform threshold;
* 2n2p: keep postings whose document/collection proportions differ by a
  significant two-proportion z statistic.

`METHODS` says which levels each method takes and which aspect model a
div-* method needs; `check_prune_args` is the one level rule.  Each level
is a `cut` of one `posting_order` per method: the first `k_for` greedy
picks of each term (div-*), or the postings whose statistic is not below
epsilon (tcp/ipu/2n2p).  `next_best` runs lazy greedy; its slow
definitions (the criterion from scratch, the full-list scan) live in
tests/oracles.py.
"""
from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable
from dataclasses import dataclass, field

from .aspects import AspectSet, round_half_up
from .errors import PruneError, SelectionExhausted, TermNotFoundError
from .index import InvertedIndex, subset_index

log = logging.getLogger(__name__)

JM_LAMBDA = 0.6
TCP_K = 10
RATIO_TOLERANCE = 0.01


@dataclass(frozen=True)
class Method:
    """The two levels a method accepts (exactly one per call), the aspect
    model of a div-* method, and a threshold method's largest epsilon."""

    levels: tuple[str, str]
    aspect_model: str | None = None
    epsilon_cap: float | None = None


METHODS = {
    "tcp": Method(("epsilon", "ratio"), epsilon_cap=1.0),
    "ipu": Method(("epsilon", "ratio")),
    "2n2p": Method(("epsilon", "ratio")),
    "div-simple": Method(("k", "ratio"), aspect_model="simple"),
    "div-sliding": Method(("k", "ratio"), aspect_model="sliding"),
    "div-dynamic": Method(("k", "ratio"), aspect_model="dynamic"),
}


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


def _jm_scores(index: InvertedIndex, term: str, lam: float) -> list[float]:
    """P(d|t) = (1-lam) * tf/|d| + lam * ctf/|C| (Jelinek-Mercer), posting order."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    stats = index.stats
    background = lam * stats.ctf[term] / stats.total_len
    return [
        (1.0 - lam) * p.tf / stats.doc_len[p.doc_id] + background
        for p in index.lists[term].postings
    ]


def relevance_scores(index: InvertedIndex, term: str, lam: float = JM_LAMBDA) -> RelevanceList:
    """Jelinek-Mercer scores of the term's postings, best first, doc_id tiebreak."""
    scores = _jm_scores(index, term, lam)
    doc_ids = (p.doc_id for p in index.lists[term].postings)
    entries = sorted(zip(scores, doc_ids), key=lambda e: (-e[0], e[1]))
    return RelevanceList(term, [d for _, d in entries], [s for s, _ in entries])


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
    scores = _jm_scores(index, term, lam)
    total = math.fsum(scores)
    return [-q * math.log(q) for q in (s / total for s in scores)]


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


# --- epsilon tuning, levels, and one order cut per level ----------------------

@dataclass
class TuneResult:
    epsilon: float
    achieved: float
    flagged: bool


def tune_epsilon(
    index: InvertedIndex, method: str, target_ratio: float, zk: int = TCP_K, lam: float = JM_LAMBDA
) -> TuneResult:
    """The epsilon whose pruned-posting fraction is closest to the target.

    Exact: an epsilon prunes the postings whose statistic lies below it,
    so the choice is over the counts that epsilons in [0, upper] can prune,
    upper being tcp's cap of 1 or one past the largest finite statistic.
    A tie goes to the smaller count.  The epsilon returned is the smallest
    one pruning the chosen count: 0, the statistic of the lowest-valued
    kept posting, or the upper bound.  `flagged` marks a best count still
    more than RATIO_TOLERANCE from the target (values tie in bulk, or the
    method's range is capped).
    """
    return _tune(threshold_values(index, method, zk, lam), method, target_ratio)


def _tune(values: dict[str, list[float]], method: str, target_ratio: float) -> TuneResult:
    flat = sorted(v for vals in values.values() for v in vals)
    total = len(flat)
    if total == 0 or flat[0] == math.inf:
        return TuneResult(0.0, 0.0, abs(target_ratio) > RATIO_TOLERANCE)
    lo = 0.0
    cap = METHODS[method].epsilon_cap
    hi = cap if cap is not None else flat[bisect_left(flat, math.inf) - 1] + 1.0
    # flat[i] prunes at most target * total postings and the next larger
    # statistic (or hi) more, so one of the two, clamped to [lo, hi], is
    # the best epsilon unless lo prunes as many.
    i = min(int(min(max(target_ratio, 0.0), 1.0) * total), total - 1)
    above = bisect_right(flat, flat[i])
    bracket = (flat[i], flat[above] if above < total else hi)
    best = TuneResult(lo, bisect_left(flat, lo) / total, False)
    for eps in sorted({min(max(e, lo), hi) for e in bracket}):
        r = bisect_left(flat, eps) / total
        if abs(r - target_ratio) < abs(best.achieved - target_ratio):
            best = TuneResult(eps, r, False)
    best.flagged = abs(best.achieved - target_ratio) > RATIO_TOLERANCE
    if best.flagged:
        log.warning(
            "%s: target ratio %.3f unreachable, best achieved %.3f at eps=%.6g",
            method, target_ratio, best.achieved, best.epsilon,
        )
    return best


def check_prune_args(
    method: str, *, ratio: float | None = None, k: int | None = None, epsilon: float | None = None
) -> Method:
    """The `METHODS` entry of `method`, after checking the one level rule:
    exactly one of the method's two levels, with ratio in (0, 1), k >= 1
    and epsilon >= 0 (at most 1 for tcp).  Raises PruneError otherwise."""
    if method not in METHODS:
        raise PruneError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    spec = METHODS[method]
    given = [name for name, v in (("epsilon", epsilon), ("k", k), ("ratio", ratio)) if v is not None]
    if len(given) != 1 or given[0] not in spec.levels:
        first, second = spec.levels
        got = " ".join(f"--{name}" for name in given) or "none"
        raise PruneError(f"{method} needs --{first} or --{second}, exactly one of them; got {got}")
    if k is not None and k < 1:
        raise PruneError(f"k must be >= 1, got {k}")
    if ratio is not None and not 0.0 < ratio < 1.0:
        raise PruneError(f"ratio must be in (0, 1), got {ratio}")
    if epsilon is not None and epsilon < 0.0:
        raise PruneError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon is not None and spec.epsilon_cap is not None and epsilon > spec.epsilon_cap:
        raise PruneError(f"{method} epsilon must be <= {spec.epsilon_cap}, got {epsilon}")
    return spec


def k_for(list_len: int, k: int | None = None, ratio: float | None = None) -> int:
    """A div-* term's budget: `k`, at most the list length, or what removing
    a `ratio` of the list leaves, at least one posting."""
    if k is not None:
        return min(k, list_len)
    return max(1, round_half_up((1.0 - ratio) * list_len))


def posting_order(
    index: InvertedIndex, method: str, aspect_sets: dict[str, AspectSet] | None,
    depth: Callable[[int], int], zk: int = TCP_K, lam: float = JM_LAMBDA,
) -> dict[str, list]:
    """What every level of `method` cuts, per term.  div-*: the first
    `depth(list length)` `diversify` picks over the `aspect_sets` of the
    method's model; the next pick depends only on the picks made, so a
    deeper order extends a shallower one.  tcp/ipu/2n2p: `threshold_values`
    (aspect sets and depth unused)."""
    if METHODS[method].aspect_model is None:
        return threshold_values(index, method, zk, lam)
    if aspect_sets is None:
        raise PruneError(f"{method} needs aspect sets")
    missing = [t for t in index.terms() if t not in aspect_sets]
    if missing:
        raise PruneError(f"no aspect set for terms: {missing[:5]}")
    order = {}
    for term in index.terms():
        rel = relevance_scores(index, term, lam)
        order[term] = diversify(rel, aspect_sets[term], depth(len(rel))).order
    return order


def cut(
    index: InvertedIndex, method: str, order: dict[str, list], *,
    ratio: float | None = None, k: int | None = None, epsilon: float | None = None,
) -> tuple[InvertedIndex, dict]:
    """One level of a `posting_order`, as `prune_index` returns it.  div-*:
    each term keeps the first `k_for(current list length)` picks, which
    `order` must hold.  tcp/ipu/2n2p: a ratio is tuned to an epsilon on
    `order`; the postings whose statistic is not below epsilon stay."""
    spec = check_prune_args(method, ratio=ratio, k=k, epsilon=epsilon)
    keep: dict[str, set[str]] = {}
    if spec.aspect_model is not None:
        for term, plist in index.lists.items():
            keep[term] = set(order[term][:k_for(len(plist.postings), k, ratio)])
        return subset_index(index, keep), {}
    info: dict = {}
    if epsilon is None:
        tuned = _tune(order, method, ratio)
        epsilon = tuned.epsilon
        info["tuned"] = {"target_ratio": ratio, "epsilon": epsilon, "flagged": tuned.flagged}
    info["epsilon"] = epsilon
    for term, plist in index.lists.items():
        keep[term] = {p.doc_id for p, v in zip(plist.postings, order[term]) if not v < epsilon}
    return subset_index(index, keep), info


def prune_index(
    index: InvertedIndex, method: str, *,
    ratio: float | None = None, k: int | None = None, epsilon: float | None = None,
    aspect_sets: dict[str, AspectSet] | None = None, zk: int = TCP_K, lam: float = JM_LAMBDA,
) -> tuple[InvertedIndex, dict]:
    """Prune `index` with one of METHODS at a level `check_prune_args`
    accepts: the `cut` of a `posting_order` only as deep as the level keeps.
    div-* methods need the `aspect_sets` of their model.

    The returned dict is empty for div-*.  For threshold methods it holds
    the `epsilon` applied and, when epsilon was tuned to `ratio`, a `tuned`
    record of the target, the epsilon and the unreachable-target flag.
    """
    check_prune_args(method, ratio=ratio, k=k, epsilon=epsilon)
    order = posting_order(index, method, aspect_sets, lambda n: k_for(n, k, ratio), zk, lam)
    return cut(index, method, order, ratio=ratio, k=k, epsilon=epsilon)


# `tune_epsilon` and the two below stay only because bench/spans.py patches
# them as cli names.

def diversified_topk_prune(
    index: InvertedIndex, aspect_sets: dict[str, AspectSet], **level
) -> InvertedIndex:
    """`prune_index` of a div-* method at `k` or `ratio`; the aspect sets pick the model."""
    return prune_index(index, "div-simple", aspect_sets=aspect_sets, **level)[0]


def threshold_prune(
    index: InvertedIndex, method: str, epsilon: float, zk: int = TCP_K, lam: float = JM_LAMBDA
) -> InvertedIndex:
    """Remove the postings whose statistic is strictly below epsilon."""
    return prune_index(index, method, epsilon=epsilon, zk=zk, lam=lam)[0]
