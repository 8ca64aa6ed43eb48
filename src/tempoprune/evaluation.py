"""Effectiveness measurement and pruning-ratio sweep experiments.

MAP is binary (grade >= 1 counts as relevant); NDCG is graded with the
same 1/ln(1+j) discount the pruning criterion uses, switchable to log2.
Queries with no relevant document are excluded from both means and from
the reported query count.

A sweep builds one `prune.posting_order` per method, as deep as its
smallest ratio keeps, and measures its `prune.cut` at every ratio; which
methods exist and what levels they take is `prune.METHODS`'s business.
"""
from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field

from .aspects import DEFAULT_LAMBDA_W, build_aspect_sets
from .corpus import tokenize
from .errors import EvalFormatError, QueryError
from .gmm import DEFAULT_K_MAX
from .index import InvertedIndex, pruning_ratio
from .prune import JM_LAMBDA, METHODS, TCP_K, cut, discount, k_for, posting_order
# Unused here: bench/spans.py patches it as an evaluation name.
from .prune import threshold_values  # noqa: F401
from .search import DEFAULT_DEPTH, Query, RankedResult, run_query, temporal_match
from .timewindows import TimeWindow

log = logging.getLogger(__name__)

INTERVAL_DAYS = {"daily": 1, "weekly": 7, "monthly": 30}
ATTEMPTS_PER_TOPIC = 100
DISCOUNTS = {"ln": discount, "log2": lambda j: 1.0 / math.log2(1.0 + j)}


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
    def from_lines(cls, lines, path: str = "<qrels>") -> "Qrels":
        """`qid iter doc grade` lines: a non-negative integer grade, each
        (qid, doc) pair once.  A bad line raises EvalFormatError naming path:line."""
        grades: dict[tuple[str, str], int] = {}
        for lineno, (qid, _, doc, g) in _split_lines(lines, path, 4):
            try:
                grade = int(g)
            except ValueError:
                raise EvalFormatError(f"{path}:{lineno}: grade must be an integer, got {g!r:.60}") from None
            if grade < 0:
                raise EvalFormatError(f"{path}:{lineno}: grade must be >= 0, got {grade}")
            key = (qid, doc)
            if key in grades:
                raise EvalFormatError(
                    f"{path}:{lineno}: duplicate judgment for query {qid!r:.60}, doc {doc!r:.60}"
                )
            grades[key] = grade
        return cls(grades)


def _split_lines(lines, path, n_fields: int):
    """(line number, fields) for each non-blank line; EvalFormatError naming
    path:line unless the line has exactly `n_fields` whitespace-separated fields."""
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if len(fields) != n_fields:
            if not fields:
                continue
            raise EvalFormatError(
                f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}: {line.strip():.60}"
            )
        yield lineno, fields


def read_qrels(path) -> Qrels:
    with open(path, encoding="utf-8") as fh:
        return Qrels.from_lines(fh, path)


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
    if discount not in DISCOUNTS:
        raise ValueError(f"unknown discount {discount!r}")
    c = DISCOUNTS[discount]
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


def _jsonl_objects(path):
    """("path:line", record) for each non-blank line; QueryError on a line
    that is not a JSON object."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise QueryError(f"{where}: not JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise QueryError(f"{where}: expected a JSON object, got {line:.60}")
            yield where, record


def _is_day_quadruple(w) -> bool:
    return isinstance(w, list) and len(w) == 4 and all(type(d) is int for d in w)


def read_queries(path) -> list[Query]:
    """Queries JSONL: string `qid`, `terms` a list of strings, optional
    `kind` and `windows` (four integer days each).  A record of another
    shape raises QueryError naming path:line."""
    queries = []
    for where, record in _jsonl_objects(path):
        qid, terms, windows = record.get("qid"), record.get("terms"), record.get("windows", [])
        if not isinstance(qid, str):
            raise QueryError(f"{where}: qid must be a string, got {qid!r:.60}")
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise QueryError(f"{where}: terms must be a list of strings, got {terms!r:.60}")
        if not isinstance(windows, list) or not all(_is_day_quadruple(w) for w in windows):
            raise QueryError(
                f"{where}: windows must be lists of four integer days, got {windows!r:.60}"
            )
        try:
            constraint = frozenset(TimeWindow(*w) for w in windows) or None
            queries.append(Query(qid, terms, constraint, record.get("kind", "inclusive")))
        except (QueryError, ValueError) as exc:
            raise QueryError(f"{where}: {exc}") from exc
    return queries


def read_topics(path) -> list[Topic]:
    """Topics JSONL: `qid`, string `title`, optional string `description`.
    A record of another shape raises QueryError naming path:line."""
    topics = []
    for where, record in _jsonl_objects(path):
        title, description = record.get("title"), record.get("description", "")
        if "qid" not in record:
            raise QueryError(f"{where}: missing qid")
        if not isinstance(title, str) or not isinstance(description, str):
            raise QueryError(f"{where}: title and description must be strings")
        topics.append(Topic(qid=str(record["qid"]), title=title, description=description))
    return topics


def read_run(path) -> list[RankedResult]:
    """TREC run file (`qid Q0 doc rank score tag`, a finite score) ->
    per-qid results, rank order restored from scores.  A bad line raises
    EvalFormatError naming path:line."""
    by_qid: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, (qid, _, doc, _, s, _) in _split_lines(fh, path, 6):
            try:
                score = float(s)
            except ValueError:
                raise EvalFormatError(f"{path}:{lineno}: score must be a number, got {s!r:.60}") from None
            if not math.isfinite(score):
                raise EvalFormatError(f"{path}:{lineno}: score must be finite, got {s!r:.60}")
            by_qid.setdefault(qid, []).append((doc, score))
    results = []
    for qid in sorted(by_qid):
        hits = sorted(by_qid[qid], key=lambda e: (-e[1], e[0]))
        results.append(RankedResult(qid=qid, hits=hits))
    return results


# --- sweeps ----------------------------------------------------------------

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
    lambda_w: float = DEFAULT_LAMBDA_W,
    lam: float = JM_LAMBDA,
    zk: int = TCP_K,
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
    discount: str = "ln",
    k_max: int = DEFAULT_K_MAX,
    presence_only: bool = False,
) -> EvalReport:
    """MAP/NDCG as a function of pruning level, one row per method x ratio.

    Ratio 0 rows evaluate the unpruned index.  The others cut one
    `posting_order` per method, as deep as its smallest positive ratio keeps.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {tuple(METHODS)}")
    for ratio in ratios:
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    baseline: tuple[float, float, int] | None = None
    report = EvalReport()
    for method in sorted(set(methods)):
        order = None
        for ratio in sorted(set(ratios)):
            if ratio == 0.0:
                if baseline is None:
                    baseline = evaluate_queries(index, queries, qrels, depth, discount)
                map_, ndcg_, n = baseline
                report.rows.append(SweepRow(method, ratio, map_, ndcg_, n))
                continue
            if order is None:
                model = METHODS[method].aspect_model
                aspect_sets = None
                if model is not None:
                    aspect_sets = build_aspect_sets(index, model, lambda_w, seed, k_max, presence_only)
                order = posting_order(index, method, aspect_sets, lambda n: k_for(n, ratio=ratio), zk, lam)
            pruned, info = cut(index, method, order, ratio=ratio)
            achieved = pruning_ratio(index, pruned)
            map_, ndcg_, n = evaluate_queries(pruned, queries, qrels, depth, discount)
            flagged = info.get("tuned", {}).get("flagged", False)
            report.rows.append(
                SweepRow(method, ratio, map_, ndcg_, n, achieved, info.get("epsilon"), flagged)
            )
    return report
