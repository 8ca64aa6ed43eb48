"""Effectiveness measurement and pruning-ratio sweep experiments.

MAP is binary (grade >= 1 counts as relevant); NDCG is graded with the
same 1/ln(1+j) discount the pruning criterion uses, switchable to log2.
Queries with no relevant document are excluded from both means and from
the reported query count.

Threshold pruners are parameterized by epsilon while sweep figures are
plotted by pruning ratio; `tune_epsilon` bisects the per-posting statistic
arrays to land within a point of the target.  `prune_index` is the one
place that turns a method name and a pruning level into a pruned index.
"""
from __future__ import annotations

import json
import logging
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .aspects import build_aspect_sets
from .corpus import Corpus, tokenize
from .errors import PruneError, QueryError
from .index import InvertedIndex, pruning_ratio
from .prune import (
    JM_LAMBDA,
    TCP_K,
    PruneConfig,
    discount,
    diversified_topk_prune,
    threshold_prune,
    threshold_values,
)
from .search import DEFAULT_DEPTH, Query, RankedResult, run_query, temporal_match
from .timewindows import TimeWindow, any_intersect

log = logging.getLogger(__name__)

METHODS = ("tcp", "ipu", "2n2p", "div-simple", "div-sliding", "div-dynamic")
INTERVAL_DAYS = {"daily": 1, "weekly": 7, "monthly": 30}
ATTEMPTS_PER_TOPIC = 100
RATIO_TOLERANCE = 0.01


def _discount_fn(name: str):
    if name == "ln":
        return discount
    if name == "log2":
        return lambda j: 1.0 / math.log2(1.0 + j)
    raise ValueError(f"unknown discount {name!r}")


class Qrels:
    """Graded judgments keyed by (qid, doc_id); absent pairs are grade 0.

    Treated as immutable once built.
    """

    def __init__(self, grades: dict[tuple[str, str], int] | None = None):
        self.grades: dict[tuple[str, str], int] = {}
        self._by_qid: dict[str, dict[str, int]] = {}
        for (qid, doc_id), g in (grades or {}).items():
            if g < 0:
                raise ValueError(f"negative grade for {(qid, doc_id)}")
            self.grades[(qid, doc_id)] = g
            self._by_qid.setdefault(qid, {})[doc_id] = g

    def grade(self, qid: str, doc_id: str) -> int:
        return self._by_qid.get(qid, {}).get(doc_id, 0)

    def for_query(self, qid: str) -> dict[str, int]:
        return dict(self._by_qid.get(qid, {}))

    def n_relevant(self, qid: str) -> int:
        return sum(1 for g in self._by_qid.get(qid, {}).values() if g >= 1)

    def to_lines(self) -> list[str]:
        return [f"{q} 0 {d} {g}" for (q, d), g in sorted(self.grades.items())]

    @classmethod
    def from_lines(cls, lines) -> "Qrels":
        grades = {}
        for line in lines:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"bad qrels line: {line!r}")
            qid, _, doc, g = parts
            grades[(qid, doc)] = int(g)
        return cls(grades)


def read_qrels(path) -> Qrels:
    with open(path, encoding="utf-8") as fh:
        return Qrels.from_lines(fh)


def write_qrels(qrels: Qrels, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in qrels.to_lines():
            fh.write(line + "\n")


def average_precision(result: RankedResult, qrels: Qrels, qid: str | None = None) -> float:
    """Binary AP against the full relevant count; 0 when nothing is relevant
    (such queries are excluded upstream)."""
    qid = result.qid if qid is None else qid
    n_rel = qrels.n_relevant(qid)
    if n_rel == 0:
        return 0.0
    hits = 0
    acc = 0.0
    for rank, (doc, _) in enumerate(result.hits, start=1):
        if qrels.grade(qid, doc) >= 1:
            hits += 1
            acc += hits / rank
    return acc / n_rel


def ndcg(
    result: RankedResult,
    qrels: Qrels,
    qid: str | None = None,
    depth: int = DEFAULT_DEPTH,
    discount: str = "ln",
) -> float:
    """Graded NDCG at `depth`; 0 when the ideal DCG is 0."""
    qid = result.qid if qid is None else qid
    c = _discount_fn(discount)
    dcg = 0.0
    for rank, (doc, _) in enumerate(result.hits[:depth], start=1):
        g = qrels.grade(qid, doc)
        if g:
            dcg += c(rank) * g
    ideal_grades = sorted(qrels.for_query(qid).values(), reverse=True)[:depth]
    idcg = sum(c(rank) * g for rank, g in enumerate(ideal_grades, start=1) if g)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def evaluate_results(
    results: list[RankedResult], qrels: Qrels, depth: int = DEFAULT_DEPTH, discount: str = "ln"
) -> tuple[float, float, int]:
    """(MAP, mean NDCG, evaluated-query count), excluding zero-relevant qids."""
    aps = []
    ndcgs = []
    for res in results:
        if qrels.n_relevant(res.qid) == 0:
            log.info("query %s has no relevant documents; excluded", res.qid)
            continue
        aps.append(average_precision(res, qrels))
        ndcgs.append(ndcg(res, qrels, depth=depth, discount=discount))
    if not aps:
        return 0.0, 0.0, 0
    return math.fsum(aps) / len(aps), math.fsum(ndcgs) / len(ndcgs), len(aps)


def evaluate_queries(
    index: InvertedIndex,
    queries: list[Query],
    qrels: Qrels,
    depth: int = DEFAULT_DEPTH,
    discount: str = "ln",
) -> tuple[float, float, int]:
    results = [run_query(index, q, depth) for q in queries]
    return evaluate_results(results, qrels, depth, discount)


# --- temporal query generation -------------------------------------------

@dataclass
class Topic:
    qid: str
    title: str
    description: str = ""


def generate_temporal_queries(
    topics: list[Topic],
    corpus_span: tuple[int, int],
    interval: str,
    n_target: int,
    seed: int,
    index: InvertedIndex,
    stop_words: bool = True,
) -> list[Query]:
    """Exclusive queries from topic keywords plus uniformly random certain
    windows of the interval length, keeping only draws whose short (title)
    variant hits the unpruned index.  Each kept draw emits a short query
    and, when the description adds text, a long one; draws are round-robin
    over topics, at most 100 attempts per topic, until `n_target` draws."""
    if interval not in INTERVAL_DAYS:
        raise QueryError(f"unknown interval {interval!r}")
    length = INTERVAL_DAYS[interval]
    lo, hi = corpus_span
    if lo > hi:
        raise QueryError(f"empty corpus span {corpus_span}")
    rng = random.Random(seed)
    prepared = []
    for topic in topics:
        title_terms = tokenize(topic.title, stop_words)
        if not title_terms:
            log.warning("topic %s has no usable title terms; skipped", topic.qid)
            continue
        long_terms = title_terms + tokenize(topic.description, stop_words)
        prepared.append((topic.qid, title_terms, long_terms))
    queries: list[Query] = []
    kept = 0
    attempts = {qid: 0 for qid, _, _ in prepared}
    exhausted = False
    while kept < n_target and not exhausted:
        exhausted = True
        for qid, title_terms, long_terms in prepared:
            if kept >= n_target:
                break
            if attempts[qid] >= ATTEMPTS_PER_TOPIC:
                continue
            exhausted = False
            attempts[qid] += 1
            start = rng.randint(lo, max(lo, hi - length + 1))
            window = TimeWindow.certain(start, start + length - 1)
            constraint = frozenset({window})
            short = Query(
                qid=f"{qid}-{interval}-{attempts[qid]:03d}-s",
                terms=list(title_terms),
                time_constraint=constraint,
                kind="exclusive",
            )
            if not run_query(index, short, depth=1).hits:
                continue
            kept += 1
            queries.append(short)
            if len(long_terms) > len(title_terms):
                queries.append(
                    Query(
                        qid=f"{qid}-{interval}-{attempts[qid]:03d}-l",
                        terms=list(long_terms),
                        time_constraint=constraint,
                        kind="exclusive",
                    )
                )
    if kept == 0:
        log.warning("no keepable %s queries for any topic", interval)
    return queries


def all_relevant_qrels(queries: list[Query], index: InvertedIndex) -> Qrels:
    """Grade 1 for every document inside the query window containing at
    least one query term."""
    grades: dict[tuple[str, str], int] = {}
    for q in queries:
        if q.kind != "exclusive":
            raise QueryError(f"query {q.qid!r} is not exclusive")
        candidates = set()
        for term in q.terms:
            plist = index.lists.get(term)
            if plist is not None:
                candidates.update(p.doc_id for p in plist.postings)
        for doc in candidates:
            if temporal_match(index, doc, q.time_constraint):
                grades[(q.qid, doc)] = 1
    return Qrels(grades)


def time_filtered_qrels(original: Qrels, queries: list[Query], corpus: Corpus) -> Qrels:
    """Original grades restricted to documents whose time part intersects the
    query window; everything else drops to grade 0 (omitted)."""
    by_id = corpus.by_id()
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


# --- query file round trip ------------------------------------------------

def write_queries(queries: list[Query], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            record = {
                "qid": q.qid,
                "terms": q.terms,
                "kind": q.kind,
                "windows": sorted(
                    [w.b_lo, w.b_hi, w.e_lo, w.e_hi] for w in (q.time_constraint or frozenset())
                ),
            }
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def read_queries(path) -> list[Query]:
    queries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            windows = frozenset(TimeWindow(*w) for w in record.get("windows", []))
            queries.append(
                Query(
                    qid=record["qid"],
                    terms=list(record["terms"]),
                    time_constraint=windows or None,
                    kind=record.get("kind", "inclusive"),
                )
            )
    return queries


def read_topics(path) -> list[Topic]:
    topics = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            topics.append(
                Topic(
                    qid=str(record["qid"]),
                    title=record["title"],
                    description=record.get("description", ""),
                )
            )
    return topics


def read_run(path) -> list[RankedResult]:
    """TREC run file -> per-qid results, rank order restored from scores."""
    by_qid: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"bad run line: {line!r}")
            qid, _, doc, _, score, _ = parts
            by_qid.setdefault(qid, []).append((doc, float(score)))
    results = []
    for qid in sorted(by_qid):
        hits = sorted(by_qid[qid], key=lambda e: (-e[1], e[0]))
        results.append(RankedResult(qid=qid, hits=hits))
    return results


# --- epsilon tuning and sweeps ---------------------------------------------

@dataclass
class TuneResult:
    epsilon: float
    achieved: float
    flagged: bool


def tune_epsilon(
    index: InvertedIndex,
    method: str,
    target_ratio: float,
    zk: int = TCP_K,
    lam: float = JM_LAMBDA,
    iters: int = 30,
) -> TuneResult:
    """Bisect epsilon so the pruned-posting fraction lands within a point of
    the target; best probe wins when the exact target is unreachable
    (values tie in bulk, or the method's range is capped)."""
    values = threshold_values(index, method, zk, lam)
    flat = sorted(v for vals in values.values() for v in vals)
    total = len(flat)
    finite = [v for v in flat if v != math.inf]
    if total == 0 or not finite:
        return TuneResult(0.0, 0.0, abs(target_ratio) > RATIO_TOLERANCE)

    def achieved(eps: float) -> float:
        return bisect_left(flat, eps) / total

    lo = 0.0
    hi = 1.0 if method == "tcp" else finite[-1] + 1.0
    best = TuneResult(lo, achieved(lo), False)
    for eps in (lo, hi):
        r = achieved(eps)
        if abs(r - target_ratio) < abs(best.achieved - target_ratio):
            best = TuneResult(eps, r, False)
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        r = achieved(mid)
        if abs(r - target_ratio) < abs(best.achieved - target_ratio):
            best = TuneResult(mid, r, False)
        if r < target_ratio:
            lo = mid
        else:
            hi = mid
    best.flagged = abs(best.achieved - target_ratio) > RATIO_TOLERANCE
    if best.flagged:
        log.warning(
            "%s: target ratio %.3f unreachable, best achieved %.3f at eps=%.6g",
            method, target_ratio, best.achieved, best.epsilon,
        )
    return best


def check_prune_args(
    method: str, *, ratio: float | None = None, k: int | None = None, epsilon: float | None = None
) -> None:
    """Raise PruneError unless `method` is known and gets the pruning level
    it needs: `epsilon` or `ratio` for tcp/ipu/2n2p (`epsilon` wins when
    both are given), exactly one of `k` / `ratio` for div-*."""
    if method not in METHODS:
        raise PruneError(f"unknown method {method!r}; expected one of {METHODS}")
    if not method.startswith("div-"):
        if epsilon is None and ratio is None:
            raise PruneError(f"{method} needs --epsilon or --ratio")
    elif (k is None) == (ratio is None):
        raise PruneError(f"{method} needs exactly one of --k / --ratio")


def prune_index(
    index: InvertedIndex,
    method: str,
    *,
    ratio: float | None = None,
    k: int | None = None,
    epsilon: float | None = None,
    aspect_sets: dict | None = None,
    zk: int = TCP_K,
    lam: float = JM_LAMBDA,
) -> tuple[InvertedIndex, dict]:
    """Prune `index` with one of METHODS at the level `check_prune_args`
    accepts.  div-* methods need the `aspect_sets` of their aspect model;
    threshold methods ignore them.

    The returned dict is empty for div-*.  For threshold methods it holds
    the `epsilon` applied and, when epsilon was tuned to `ratio`, a `tuned`
    record of the target, the epsilon and the unreachable-target flag.
    """
    check_prune_args(method, ratio=ratio, k=k, epsilon=epsilon)
    if method.startswith("div-"):
        if aspect_sets is None:
            raise PruneError(f"{method} needs aspect sets")
        config = PruneConfig(k=k, target_ratio=ratio, lam=lam)
        return diversified_topk_prune(index, aspect_sets, config), {}
    info: dict = {}
    if epsilon is None:
        tuned = tune_epsilon(index, method, ratio, zk, lam)
        epsilon = tuned.epsilon
        info["tuned"] = {"target_ratio": ratio, "epsilon": epsilon, "flagged": tuned.flagged}
    info["epsilon"] = epsilon
    return threshold_prune(index, method, epsilon, zk, lam), info


@dataclass
class SweepRow:
    method: str
    ratio: float
    map_: float
    ndcg_: float
    n_queries: int
    achieved: float = 0.0
    epsilon: float | None = None
    flagged: bool = False


@dataclass
class EvalReport:
    rows: list[SweepRow] = field(default_factory=list)

    CSV_HEADER = "method,ratio,map,ndcg,n_queries"

    def to_csv_lines(self) -> list[str]:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.method},{r.ratio:.6f},{r.map_:.6f},{r.ndcg_:.6f},{r.n_queries}"
            )
        return lines

    def to_json(self) -> str:
        payload = [
            {
                "method": r.method,
                "ratio": r.ratio,
                "map": r.map_,
                "ndcg": r.ndcg_,
                "n_queries": r.n_queries,
                "achieved_ratio": r.achieved,
                "epsilon": r.epsilon,
                "flagged": r.flagged,
            }
            for r in self.rows
        ]
        return json.dumps(payload, indent=2, sort_keys=True)


def sweep(
    index: InvertedIndex,
    queries: list[Query],
    qrels: Qrels,
    methods: list[str],
    ratios: list[float],
    lambda_w: float = 0.3,
    lam: float = JM_LAMBDA,
    zk: int = TCP_K,
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
    discount: str = "ln",
    k_max: int = 10,
    presence_only: bool = False,
) -> EvalReport:
    """MAP/NDCG as a function of pruning level, one row per method x ratio.

    Ratio 0 rows evaluate the unpruned index.  A div-* method builds its
    aspect sets once and reuses them across ratios.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    baseline: tuple[float, float, int] | None = None
    report = EvalReport()
    for method in sorted(set(methods)):
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
            if aspect_sets is None and method.startswith("div-"):
                aspect_sets = build_aspect_sets(
                    index, method.removeprefix("div-"), lambda_w, seed, k_max, presence_only
                )
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
