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
epsilon (tcp/ipu/2n2p).  `next_best` runs lazy greedy over the first
unselected doc of each signature group (docs mapped to the same aspects),
which is exact: within a group the higher doc never gains less.  Rounding
can still decide exact ties between docs of different signatures.  Its slow
definitions (the criterion from scratch, the full-list scan, greedy in
exact arithmetic) live in tests/oracles.py.  A term's relevance order is
one stable sort on the score (posting lists ascend by doc_id, so ties keep
doc_id order), and gains read one process-wide table of `discount(j)`,
grown on demand.  The greedy terms are the tasks of one `workers.fork_map`,
each term run whole in one process, its aspect set built there too, so the
picks do not depend on the number of CPUs.
"""
from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left, insort
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise

import numpy as np

from .aspects import AspectSet, round_half_up
from .errors import PruneError, TermNotFoundError
from .index import InvertedIndex, _compressed, subset_index
from .workers import fork_map

log = logging.getLogger(__name__)

JM_LAMBDA = 0.6
TCP_K = 10
RATIO_TOLERANCE = 0.01
# List length times greedy depth, summed over terms, below which `posting_order`
# forks no worker: twice where two pinned processes broke even (README, "Forked workers").
FORK_MIN_PICK_CELLS = 40_000


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


def relevance_scores(index: InvertedIndex, term: str, lam: float = JM_LAMBDA) -> RelevanceList:
    """Jelinek-Mercer scores P(d|t) = (1-lam) * tf/|d| + lam * ctf/|C| of
    the term's postings, best first, doc_id tiebreak."""
    if term not in index.lists:
        raise TermNotFoundError(term)
    stats = index.stats
    background = lam * stats.ctf[term] / stats.total_len
    plist, doc_len, fg = index.lists[term], stats.doc_len, 1.0 - lam
    scores = [fg * tf / doc_len[d] + background for d, tf in zip(plist.doc_ids, plist.tfs)]
    # a stable sort keeps equal scores in posting order, doc_id ascending
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return RelevanceList(term, [plist.doc_ids[i] for i in order], [scores[i] for i in order])


_DISCOUNTS = [math.nan]  # _DISCOUNTS[j] == discount(j), grown by `_discounts`


def _discounts(n: int) -> list[float]:
    """The process-wide discount table, grown to hold ranks up to n."""
    if len(_DISCOUNTS) <= n:
        _DISCOUNTS.extend(discount(j) for j in range(len(_DISCOUNTS), n + 1))
    return _DISCOUNTS


@dataclass
class SelectionState:
    """Lazy-greedy bookkeeping for one term.

    members[w] holds the selected positions mapped to aspect w, ascending.
    signatures[pos] is the `doc_map` tuple of the doc at pos and weights[w]
    the weight of aspect w.  A signature group is the positions of one
    signature; successor[pos] is the next position of pos's group, or -1.
    heap holds (-gain, position, stamp) for the first unselected position of
    every group that has one, the gain computed when `stamp` positions had
    been selected; stamp counts the picks.  All but members are filled on
    the first `next_best` call.
    """

    n_aspects: int
    members: list[list[int]] = field(init=False)
    heap: list[tuple[float, int, int]] | None = field(default=None, init=False)
    signatures: list[tuple[int, ...]] = field(default_factory=list, init=False)
    weights: list[float] = field(default_factory=list, init=False)
    successor: list[int] = field(default_factory=list, init=False)
    stamp: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.members = [[] for _ in range(self.n_aspects)]


def _gain(scores: list[float], state: SelectionState, pos: int) -> float:
    """Criterion increase from selecting `pos`.

    Per mapped aspect, in signature order: the insertion term at the aspect
    rank plus the displacement of the selected docs below, each sliding
    from aspect rank j+1 to j+2, summed from the bottom up.  This is the
    accumulation order of the full-list scan, so gains match it bit for bit.
    """
    disc = _DISCOUNTS
    gain = 0.0
    for w in state.signatures[pos]:
        members = state.members[w]
        above = bisect_left(members, pos)
        displacement = 0.0
        for j in range(len(members) - 1, above - 1, -1):
            displacement += (disc[j + 2] - disc[j + 1]) * scores[members[j]]
        gain += state.weights[w] * (disc[above + 1] * scores[pos] + displacement)
    return gain


def next_best(rel: RelevanceList, state: SelectionState, aspects: AspectSet) -> tuple[str, float]:
    """Unselected doc with the largest criterion increase, and that increase.

    Lazy ("accelerated") greedy, Minoux 1978: the criterion is monotone
    submodular, so a gain computed before later selections is an upper
    bound on the current one.  The heap top is recomputed until a gain
    computed at the current stamp surfaces; that candidate beats every
    other.  Ties go to the higher-relevance doc, then to the ascending
    doc_id, which is the list position in the heap key.

    Only the first unselected doc of each signature group has a heap
    entry.  Of two docs that map to the same aspects, the one higher in the
    list never gains less: in each of those aspects the scores ranked with
    it are, rank by rank, at least those ranked with the other, and
    discounts and weights are not negative.  So under the tie rule the
    lower doc is never picked while the higher one is unselected.  When a
    head is picked, the next doc of its group enters the heap with its gain
    at the new stamp.  Rounding can still decide between docs of different
    signatures whose exact gains tie.  Each call picks one position, so at
    most len(rel) calls have a pick to return.
    """
    scores = rel.scores
    if state.heap is None:
        _discounts(len(rel) + 1)
        state.signatures = [aspects.doc_map[doc] for doc in rel.doc_ids]
        state.weights = [a.weight for a in aspects.aspects]
        state.successor = [-1] * len(rel)
        heads: list[int] = []
        tails: dict[tuple[int, ...], int] = {}
        for pos, signature in enumerate(state.signatures):
            if signature in tails:
                state.successor[tails[signature]] = pos
            else:
                heads.append(pos)
            tails[signature] = pos
        state.heap = [(-_gain(scores, state, pos), pos, 0) for pos in heads]
        heapq.heapify(state.heap)
    heap = state.heap
    while heap[0][2] != state.stamp:
        pos = heap[0][1]
        heapq.heapreplace(heap, (-_gain(scores, state, pos), pos, state.stamp))
    neg_gain, best_pos, _ = heap[0]
    for w in state.signatures[best_pos]:
        insort(state.members[w], best_pos)
    state.stamp += 1
    successor = state.successor[best_pos]
    if successor < 0:
        heapq.heappop(heap)
    else:
        heapq.heapreplace(heap, (-_gain(scores, state, successor), successor, state.stamp))
    return rel.doc_ids[best_pos], -neg_gain


def diversify(rel: RelevanceList, aspects: AspectSet, k: int) -> list[str]:
    """The first k greedy picks, 0 <= k <= len(rel); `k_for` bounds every
    budget the prune path passes.  `next_best` returns each pick's gain."""
    if not 0 <= k <= len(rel):
        raise PruneError(f"k must be in [0, {len(rel)}] for {rel.term!r}, got {k}")
    state = SelectionState(n_aspects=len(aspects.aspects))
    return [next_best(rel, state, aspects)[0] for _ in range(k)]


# --- threshold baselines ------------------------------------------------

def threshold_values(
    index: InvertedIndex, method: str, zk: int = TCP_K, lam: float = JM_LAMBDA
) -> np.ndarray:
    """Every posting's statistic in one float64 array, the lists in
    `index.terms()` order, each in posting order; a posting is pruned iff
    its statistic is below epsilon.  tcp: tf * ln(N/df) over z_t, the
    term's zk-th highest score (its lowest in a shorter list), or +inf for
    the whole list when z_t <= 0.  ipu: -q ln q, q a Jelinek-Mercer score
    over the `math.fsum` of its term's.  2n2p: the two-proportion z
    statistic of tf/|d| against ctf/|C|, +inf (and a warning per term)
    where its standard error is 0.  The floats equal the per-posting
    definitions in tests/oracles.py: numpy's + - * / and sqrt round
    correctly, as Python's do, ints below 2**53 convert exactly, and every
    log is `math.log`."""
    if method not in ("tcp", "ipu", "2n2p"):
        raise PruneError(f"unknown threshold method {method!r}")
    if method == "tcp" and zk < 1:
        raise PruneError(f"k must be >= 1, got {zk}")
    stats = index.stats
    terms = index.terms()
    plists = [index.lists[t] for t in terms]
    lens = np.fromiter((len(pl.tfs) for pl in plists), np.intp, len(plists))
    total = int(lens.sum())
    tf = np.fromiter(chain.from_iterable(pl.tfs for pl in plists), np.float64, total)
    if not total:
        return tf
    seg = np.repeat(np.arange(len(terms)), lens)

    def per_term(values) -> np.ndarray:
        return np.fromiter(values, np.float64, len(terms))[seg]

    if method == "tcp":
        idf = [math.log(stats.n_docs / stats.df[t]) for t in terms]
        scores = tf * per_term(idf)
        # z_t sits min(k, length) places from the end of the term's slice
        # in ascending order (an empty list's index is clipped, and unused)
        ends = np.cumsum(lens)
        picks = np.lexsort((scores, seg))[np.minimum(ends - np.minimum(lens, zk), total - 1)]
        z = scores[picks][seg]
        out = np.full(total, np.inf)
        np.divide(scores, z, out=out, where=z > 0.0)
        return out
    doc_len = np.fromiter(
        map(stats.doc_len.__getitem__, chain.from_iterable(pl.doc_ids for pl in plists)),
        np.float64, total,
    )
    if method == "ipu":
        background = per_term(lam * stats.ctf[t] / stats.total_len for t in terms)
        scores = (1.0 - lam) * tf / doc_len + background
        slices = [slice(a, b) for a, b in pairwise(accumulate(lens.tolist(), initial=0))]
        q = scores / per_term(math.fsum(scores[s].tolist()) for s in slices)
        logs = chain.from_iterable(map(math.log, q[s].tolist()) for s in slices)
        return -q * np.fromiter(logs, np.float64, total)
    ctf = per_term(stats.ctf[t] for t in terms)
    coll = stats.total_len
    pooled = (tf + ctf) / (doc_len + coll)
    err = np.sqrt(pooled * (1.0 - pooled) * (1.0 / doc_len + 1.0 / coll))
    out = np.full(total, np.inf)
    diff = tf / doc_len - per_term(stats.ctf[t] / coll for t in terms)
    np.divide(diff, err, out=out, where=err != 0.0)
    for t, n in zip(terms, np.bincount(seg[err == 0.0], minlength=len(terms)).tolist()):
        if n:
            log.warning("2n2p(%r): kept %d postings with degenerate z statistic", t, n)
    return out


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


def _tune(values: np.ndarray, method: str, target_ratio: float) -> TuneResult:
    flat = np.sort(values)
    total = len(flat)
    if total == 0 or flat[0] == math.inf:
        return TuneResult(0.0, 0.0, abs(target_ratio) > RATIO_TOLERANCE)

    def pruned_by(eps: float) -> float:
        return int(np.searchsorted(flat, eps)) / total

    lo = 0.0
    cap = METHODS[method].epsilon_cap
    hi = cap if cap is not None else float(flat[np.searchsorted(flat, math.inf) - 1]) + 1.0
    # flat[i] prunes at most target * total postings and the next larger
    # statistic (or hi) more, so one of the two, clamped to [lo, hi], is
    # the best epsilon unless lo prunes as many.
    i = min(int(min(max(target_ratio, 0.0), 1.0) * total), total - 1)
    above = int(np.searchsorted(flat, flat[i], side="right"))
    bracket = (float(flat[i]), float(flat[above]) if above < total else hi)
    best = TuneResult(lo, pruned_by(lo), False)
    for eps in sorted({min(max(e, lo), hi) for e in bracket}):
        r = pruned_by(eps)
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


def check_jm_lambda(lam: float) -> None:
    """Raise PruneError unless the Jelinek-Mercer `lam` is in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise PruneError(f"jm lambda must be in [0, 1], got {lam}")


def k_for(list_len: int, k: int | None = None, ratio: float | None = None) -> int:
    """A div-* term's budget: `k`, at most the list length, or what removing
    a `ratio` of the list leaves, at least one posting."""
    if k is not None:
        return min(k, list_len)
    return max(1, round_half_up((1.0 - ratio) * list_len))


def posting_order(
    index: InvertedIndex, method: str, aspect_sets: Mapping[str, AspectSet] | None,
    depth: Callable[[int], int], zk: int = TCP_K, lam: float = JM_LAMBDA,
) -> dict[str, list] | np.ndarray:
    """What every level of `method` cuts.  div-*: per term, the first
    `depth(list length)` `diversify` picks over the `aspect_sets` of the
    method's model; the next pick depends only on the picks made, so a
    deeper order extends a shallower one.  tcp/ipu/2n2p: the
    `threshold_values` array (aspect sets and depth unused).  The
    Jelinek-Mercer `lam` must be in [0, 1]."""
    check_jm_lambda(lam)  # before any term is scored
    if METHODS[method].aspect_model is None:
        return threshold_values(index, method, zk, lam)
    if aspect_sets is None:
        raise PruneError(f"{method} needs aspect sets")
    missing = [t for t in index.terms() if t not in aspect_sets]
    if missing:
        raise PruneError(f"no aspect set for terms: {missing[:5]}")
    terms = index.terms()
    sizes = [len(index.lists[t].doc_ids) for t in terms]
    depths = list(map(depth, sizes))
    picks = fork_map(lambda i: diversify(relevance_scores(index, terms[i], lam), aspect_sets[terms[i]], depths[i]),
                     [n * k for n, k in zip(sizes, depths)], FORK_MIN_PICK_CELLS)
    return dict(zip(terms, picks))


def cut(
    index: InvertedIndex, method: str, order, *,
    ratio: float | None = None, k: int | None = None, epsilon: float | None = None,
) -> tuple[InvertedIndex, dict]:
    """One level of a `posting_order`, as `prune_index` returns it.  div-*:
    each term keeps the first `k_for(current list length)` picks, which
    `order` must hold.  tcp/ipu/2n2p: a ratio is tuned to an epsilon on
    the `order` array; one mask keeps the postings whose statistic is not
    below epsilon."""
    spec = check_prune_args(method, ratio=ratio, k=k, epsilon=epsilon)
    if spec.aspect_model is not None:
        keep: dict[str, set[str]] = {}
        for term, plist in index.lists.items():
            keep[term] = set(order[term][:k_for(len(plist.doc_ids), k, ratio)])
        return subset_index(index, keep), {}
    if len(order) != index.posting_count():
        raise PruneError(f"{len(order)} statistics for {index.posting_count()} postings")
    info: dict = {}
    if epsilon is None:
        tuned = _tune(order, method, ratio)
        epsilon = tuned.epsilon
        info["tuned"] = {"target_ratio": ratio, "epsilon": epsilon, "flagged": tuned.flagged}
    info["epsilon"] = epsilon
    return _compressed(index, (~(order < epsilon)).tolist()), info


def prune_index(
    index: InvertedIndex, method: str, *,
    ratio: float | None = None, k: int | None = None, epsilon: float | None = None,
    aspect_sets: Mapping[str, AspectSet] | None = None, zk: int = TCP_K, lam: float = JM_LAMBDA,
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
    index: InvertedIndex, aspect_sets: Mapping[str, AspectSet], **level
) -> InvertedIndex:
    """`prune_index` of a div-* method at `k` or `ratio`; the aspect sets pick the model."""
    return prune_index(index, "div-simple", aspect_sets=aspect_sets, **level)[0]


def threshold_prune(
    index: InvertedIndex, method: str, epsilon: float, zk: int = TCP_K, lam: float = JM_LAMBDA
) -> InvertedIndex:
    """Remove the postings whose statistic is strictly below epsilon."""
    return prune_index(index, method, epsilon=epsilon, zk=zk, lam=lam)[0]
