"""BM25 retrieval with boolean temporal filtering.

A query with time windows is exclusive: it drops every document whose
time part misses all of them.  A query without windows is inclusive and
leaves dates to the text tokens.  Collection statistics are the ones
frozen at build time, so rankings over a pruned index reflect pruning only
through the missing postings.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from datetime import date

from .errors import QueryError
from .index import InvertedIndex
from .timewindows import TimeWindow, day_number, parse_day
# Unused here: bench/spans.py patches it as a search name.
from .timewindows import any_intersect  # noqa: F401

K1 = 2.0
B = 0.75
DEFAULT_DEPTH = 1000


@dataclass
class Query:
    qid: str
    terms: list[str]
    time_constraint: frozenset[TimeWindow] | None = None


@dataclass
class RankedResult:
    qid: str
    hits: list[tuple[str, float]] = field(default_factory=list)

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.hits]


def _idf(index: InvertedIndex, term: str) -> float:
    # Unfloored; goes negative for terms in more than half the collection.
    df = index.stats.df[term]
    return math.log((index.stats.n_docs - df + 0.5) / (df + 0.5))


def _tf_part(tf: int, dlen: int, avgdl: float) -> float:
    return tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dlen / avgdl))


def run_query(index: InvertedIndex, query: Query, depth: int = DEFAULT_DEPTH) -> RankedResult:
    """Term-at-a-time BM25.  A query with windows first finds the documents
    whose time part meets one of them (`InvertedIndex.docs_meeting`)
    and scores only their postings, looked up by doc id in each list.
    Top `depth` by (score desc, doc_id asc)."""
    if depth < 1:
        raise QueryError(f"depth must be >= 1, got {depth}")
    if not query.terms:
        raise QueryError(f"query {query.qid!r} has no terms")
    keep = index.docs_meeting(query.time_constraint) if query.time_constraint else None
    acc: dict[str, float] = {}
    avgdl = index.stats.avgdl
    doc_len = index.stats.doc_len
    for term, count in sorted(Counter(query.terms).items()):
        plist = index.lists.get(term)
        if plist is None:
            continue
        doc_ids, tfs = plist.doc_ids, plist.tfs
        if keep is None:
            postings = zip(doc_ids, tfs)
        else:  # a kept posting's tf is found by bisection in the ascending doc ids
            postings = [(d, tfs[bisect_left(doc_ids, d)]) for d in keep.intersection(doc_ids)]
        idf = _idf(index, term)
        for d, tf in postings:
            w = count * idf * _tf_part(tf, doc_len[d], avgdl)
            acc[d] = acc.get(d, 0.0) + w
    ranked = sorted(acc.items(), key=lambda e: (-e[1], e[0]))[:depth]
    return RankedResult(qid=query.qid, hits=ranked)


def parse_time_spec(spec: str) -> TimeWindow:
    """Time window from a CLI string.

    Four comma-separated fields set b_lo,b_hi,e_lo,e_hi directly, each a
    day number or an ISO date.  The shorthands YYYY, YYYY-MM, and
    YYYY-MM-DD give the certain window spanning that year, month, or day.
    """
    text = spec.strip()
    if "," in text:
        fields = [f.strip() for f in text.split(",")]
        if len(fields) != 4:
            raise QueryError(f"expected 4 comma-separated fields, got {len(fields)}: {spec!r}")
        days = [_parse_day_field(f) for f in fields]
        try:
            return TimeWindow(*days)
        except ValueError as exc:
            raise QueryError(str(exc)) from exc
    parts = text.split("-")
    try:
        if len(parts) == 1:
            year = int(parts[0])
            return TimeWindow.certain(day_number(date(year, 1, 1)), day_number(date(year, 12, 31)))
        if len(parts) == 2:
            year, month = int(parts[0]), int(parts[1])
            start = day_number(date(year, month, 1))
            if month == 12:
                end = day_number(date(year + 1, 1, 1)) - 1
            else:
                end = day_number(date(year, month + 1, 1)) - 1
            return TimeWindow.certain(start, end)
        if len(parts) == 3:
            return TimeWindow.instant(parse_day(text))
    except ValueError as exc:
        raise QueryError(f"bad time spec {spec!r}: {exc}") from exc
    raise QueryError(f"bad time spec {spec!r}")


def _parse_day_field(field_text: str) -> int:
    if "-" in field_text.lstrip("-"):
        try:
            return parse_day(field_text)
        except ValueError as exc:
            raise QueryError(f"bad day field {field_text!r}") from exc
    try:
        return int(field_text)
    except ValueError as exc:
        raise QueryError(f"bad day field {field_text!r}") from exc


def trec_run_lines(result: RankedResult, tag: str = "tempoprune") -> list[str]:
    return [
        f"{result.qid} Q0 {doc} {rank} {score:.6f} {tag}"
        for rank, (doc, score) in enumerate(result.hits, start=1)
    ]
