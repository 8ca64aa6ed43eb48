"""BM25 scoring, temporal filtering, and time-spec parsing."""
import math

import pytest

from oracles import bm25_score
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import QueryError
from tempoprune.index import build_index
from tempoprune.prune import threshold_prune
from tempoprune.search import (
    Query,
    RankedResult,
    parse_time_spec,
    run_query,
    temporal_match,
    trec_run_lines,
)
from tempoprune.timewindows import TimeWindow, parse_day


@pytest.fixture(scope="module")
def abc_index():
    docs = [
        Document("d1", ["a", "b", "c"]),
        Document("d2", ["b", "d"]),
        Document("d3", ["e", "f", "g", "h"]),
    ]
    return build_index(Corpus(documents=docs))


def test_bm25_hand_computed(abc_index):
    # N=3, avgdl=3; df(a)=1 so idf(a)=ln(2.5/1.5); df(b)=2 so idf(b)=ln(1.5/2.5).
    # d1 has length avgdl, so both tf parts are (1*3)/(1+2*1) = 1; the query
    # carries "a" twice.
    ln53 = math.log(5.0 / 3.0)
    got = bm25_score(abc_index, ["a", "a", "b"], "d1")
    assert got == pytest.approx(2.0 * ln53 - ln53, abs=1e-12)
    assert got == pytest.approx(0.5108256237659907, abs=1e-12)


def test_bm25_common_term_scores_negative(abc_index):
    # df(b)=2 of N=3 exceeds half the collection: literal idf is negative
    got = bm25_score(abc_index, ["a", "a", "b"], "d2")
    assert got == pytest.approx(-0.6129907485191888, abs=1e-12)
    assert got < 0.0


def test_bm25_absent_terms_contribute_zero(abc_index):
    assert bm25_score(abc_index, ["a", "zzz"], "d3") == 0.0
    assert bm25_score(abc_index, ["a"], "d2") == 0.0


def test_bm25_unknown_doc(abc_index):
    with pytest.raises(QueryError):
        bm25_score(abc_index, ["a"], "nope")


def test_run_query_matches_pointwise_scores(abc_index):
    q = Query(qid="q1", terms=["a", "a", "b"])
    result = run_query(abc_index, q)
    assert result.doc_ids() == ["d1", "d2"]  # d3 has no query term
    for doc, score in result.hits:
        assert score == pytest.approx(bm25_score(abc_index, q.terms, doc), abs=1e-12)


def test_run_query_ranking_invariants(rand_index):
    q = Query(qid="q1", terms=["disaster", "w001"])
    hits = run_query(rand_index, q).hits
    assert len(hits) > 1
    for (d1, s1), (d2, s2) in zip(hits, hits[1:]):
        assert s1 > s2 or (s1 == s2 and d1 < d2)


def test_run_query_depth_cutoff(rand_index):
    q = Query(qid="q1", terms=["disaster"])
    full = run_query(rand_index, q, depth=1000)
    top1 = run_query(rand_index, q, depth=1)
    assert len(top1.hits) == 1
    assert top1.hits[0] == full.hits[0]


def test_run_query_validation(rand_index):
    with pytest.raises(QueryError):
        run_query(rand_index, Query(qid="q", terms=[]))
    with pytest.raises(QueryError):
        run_query(rand_index, Query(qid="q", terms=["disaster"]), depth=0)


def test_query_kind_validation():
    with pytest.raises(QueryError):
        Query(qid="q", terms=["a"], kind="fuzzy")
    with pytest.raises(QueryError):
        Query(qid="q", terms=["a"], kind="exclusive")  # no time constraint


@pytest.fixture(scope="module")
def quake_index():
    d99 = parse_day("1999-08-17")
    d03 = parse_day("2003-05-01")
    docs = [
        Document("izmit", ["earthquake", "izmit"], frozenset({TimeWindow.instant(d99)})),
        Document("bingol", ["earthquake", "bingol"], frozenset({TimeWindow.instant(d03)})),
        Document("flood", ["flood"], frozenset({TimeWindow.instant(d99)})),
    ]
    return build_index(Corpus(documents=docs))


def test_exclusive_query_filters_by_time(quake_index):
    q = Query(
        qid="q1",
        terms=["earthquake"],
        time_constraint=frozenset({TimeWindow.instant(parse_day("1999-08-17"))}),
        kind="exclusive",
    )
    assert run_query(quake_index, q).doc_ids() == ["izmit"]


def test_exclusive_query_no_temporal_overlap_is_empty(quake_index):
    q = Query(
        qid="q1",
        terms=["earthquake"],
        time_constraint=frozenset({TimeWindow.certain(0, 10)}),
        kind="exclusive",
    )
    assert run_query(quake_index, q).hits == []


def test_exclusive_subset_of_inclusive(rand_index):
    for lo in (10950, 11150, 11500, 12000):
        window = frozenset({TimeWindow.certain(lo, lo + 60)})
        inc = run_query(rand_index, Query(qid="q", terms=["disaster"]))
        exc = run_query(
            rand_index,
            Query(qid="q", terms=["disaster"], time_constraint=window, kind="exclusive"),
        )
        assert set(exc.doc_ids()) <= set(inc.doc_ids())
        for doc in exc.doc_ids():
            assert temporal_match(rand_index, doc, window)


def test_pruned_hits_retrievable_from_original(rand_index):
    pruned = threshold_prune(rand_index, "tcp", 0.8, zk=10)
    for terms in (["disaster"], ["w003", "w007"], ["disaster", "w010"]):
        q = Query(qid="q", terms=terms)
        pruned_ids = set(run_query(pruned, q).doc_ids())
        full_ids = set(run_query(rand_index, q).doc_ids())
        assert pruned_ids <= full_ids


def test_run_query_deterministic(rand_index):
    q = Query(qid="q", terms=["disaster", "w002"])
    a = run_query(rand_index, q)
    b = run_query(rand_index, q)
    assert a == b


# --- time specs ----------------------------------------------------------


def test_parse_time_spec_year():
    w = parse_time_spec("2013")
    assert w == TimeWindow.certain(parse_day("2013-01-01"), parse_day("2013-12-31"))


def test_parse_time_spec_month():
    assert parse_time_spec("1999-08") == TimeWindow.certain(
        parse_day("1999-08-01"), parse_day("1999-08-31")
    )
    # December rolls into the next year
    assert parse_time_spec("2013-12") == TimeWindow.certain(
        parse_day("2013-12-01"), parse_day("2013-12-31")
    )


def test_parse_time_spec_day():
    assert parse_time_spec("1999-08-17") == TimeWindow.instant(parse_day("1999-08-17"))


def test_parse_time_spec_four_fields():
    assert parse_time_spec("100,200,300,400") == TimeWindow(100, 200, 300, 400)
    assert parse_time_spec("1970-01-01, 0, 30, 1970-01-31") == TimeWindow(0, 0, 30, 30)


@pytest.mark.parametrize(
    "bad", ["", "x", "1,2,3", "1,2,3,4,5", "2013-45", "5,4,10,10", "2013-02-30"]
)
def test_parse_time_spec_rejects(bad):
    with pytest.raises(QueryError):
        parse_time_spec(bad)


def test_trec_run_lines():
    result = RankedResult(qid="q7", hits=[("docA", 1.25), ("docB", 0.5)])
    assert trec_run_lines(result, tag="run1") == [
        "q7 Q0 docA 1 1.250000 run1",
        "q7 Q0 docB 2 0.500000 run1",
    ]
