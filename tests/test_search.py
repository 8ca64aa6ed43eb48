"""BM25 scoring, temporal filtering, and time-spec parsing."""
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bm25_score, multi_window_corpus, oracle_run_query, oracle_temporal_match
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import QueryError
from tempoprune.index import build_index, subset_index
from tempoprune.prune import threshold_prune
from tempoprune.search import (
    Query,
    RankedResult,
    parse_time_spec,
    run_query,
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
    )
    assert run_query(quake_index, q).doc_ids() == ["izmit"]


def test_exclusive_query_no_temporal_overlap_is_empty(quake_index):
    q = Query(
        qid="q1",
        terms=["earthquake"],
        time_constraint=frozenset({TimeWindow.certain(0, 10)}),
    )
    assert run_query(quake_index, q).hits == []


def test_exclusive_subset_of_inclusive(rand_index):
    for lo in (10950, 11150, 11500, 12000):
        window = frozenset({TimeWindow.certain(lo, lo + 60)})
        inc = run_query(rand_index, Query(qid="q", terms=["disaster"]))
        exc = run_query(
            rand_index,
            Query(qid="q", terms=["disaster"], time_constraint=window),
        )
        assert set(exc.doc_ids()) <= set(inc.doc_ids())
        for doc in exc.doc_ids():
            assert oracle_temporal_match(rand_index, doc, window)


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


# --- exclusive queries by bisection against the post-filter definition ------


@pytest.fixture(scope="module", params=[1, 7])
def multi_index(request):
    return build_index(multi_window_corpus(request.param))


def _random_query(rng: random.Random, index, qid: str) -> Query:
    """Exclusive query with 1-3 windows (instants, uncertain and long ones)
    and 1-4 terms drawn with repetition, now and then one not indexed."""
    terms = [rng.choice(index.terms()) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        terms.append("nosuchterm")
    windows = set()
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(10900, 12000)
        kind = rng.random()
        if kind < 0.3:
            windows.add(TimeWindow.instant(lo))
        elif kind < 0.6:
            windows.add(TimeWindow(lo, lo + rng.randint(0, 9), lo + 10, lo + 10 + rng.randint(0, 60)))
        else:
            windows.add(TimeWindow.certain(lo, lo + rng.randint(0, 400)))
    return Query(qid=qid, terms=terms, time_constraint=frozenset(windows))


def test_run_query_matches_post_filter_oracle(multi_index):
    rng = random.Random(5)
    answered = 0
    for i in range(150):
        q = _random_query(rng, multi_index, f"q{i}")
        depth = rng.choice([1, 3, 1000])
        got = run_query(multi_index, q, depth)
        assert got == oracle_run_query(multi_index, q, depth)
        answered += bool(got.hits)
    assert 30 < answered < 150


def test_run_query_inclusive_matches_oracle(multi_index):
    for terms in (["disaster"], ["w001", "w001", "w002"], ["nosuchterm"]):
        q = Query(qid="q", terms=terms)
        assert run_query(multi_index, q) == oracle_run_query(multi_index, q)
        # an empty constraint is no constraint
        assert run_query(multi_index, Query("q", terms, frozenset())) == run_query(multi_index, q)


def test_run_query_tied_scores_match_oracle():
    # equal lengths and tfs: every document scores the same, so the order
    # is doc ids alone, and depth cuts a tie
    docs = [
        Document(f"d{i}", ["x", "y"], frozenset({TimeWindow.certain(i, i + 5)}))
        for i in range(0, 40, 3)
    ] + [Document("undated", ["x", "y"]), Document("far", ["x", "z"], frozenset({TimeWindow.instant(900)}))]
    index = build_index(Corpus(documents=docs))
    windows = frozenset({TimeWindow.certain(7, 12), TimeWindow.instant(30), TimeWindow(0, 3, 3, 4)})
    for terms in (["x"], ["x", "y"], ["y", "x", "x"]):
        q = Query(qid="q", terms=terms, time_constraint=windows)
        for depth in (1, 2, 1000):
            got = run_query(index, q, depth)
            assert got == oracle_run_query(index, q, depth)
        assert len({s for _, s in got.hits}) == 1 and len(got.hits) > 2


def test_run_query_on_subset_index_matches_oracle(multi_index):
    rng = random.Random(9)
    queries = [_random_query(rng, multi_index, f"q{i}") for i in range(40)]
    for q in queries:  # builds the full index's time order first
        run_query(multi_index, q)
    keep = {t: {p.doc_id for p in pl.postings[::3]} for t, pl in multi_index.lists.items()}
    pruned = subset_index(multi_index, keep)
    for q in queries:
        assert run_query(pruned, q) == oracle_run_query(pruned, q)


def test_time_order_is_per_index_object(multi_index):
    q = _random_query(random.Random(3), multi_index, "q")
    run_query(multi_index, q)
    doc = min(multi_index.doc_times)
    moved = {d: ws for d, ws in multi_index.doc_times.items() if d != doc}
    other = replace(multi_index, doc_times=moved)
    assert doc not in other.docs_meeting([TimeWindow.certain(-10**6, 10**6)])
    assert other == replace(multi_index, doc_times=moved)  # a built order plays no part in equality
    assert doc in multi_index.docs_meeting([TimeWindow.certain(-10**6, 10**6)])
    assert run_query(other, q) == oracle_run_query(other, q)


_days = st.integers(min_value=0, max_value=60)


@st.composite
def _windows(draw):
    b_lo, b_hi = sorted((draw(_days), draw(_days)))
    e_lo, e_hi = sorted((draw(_days), draw(_days)))
    e_hi = max(e_hi, b_lo)
    return TimeWindow(b_lo, b_hi, min(e_lo, e_hi), e_hi)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.frozensets(_windows(), max_size=3), min_size=1, max_size=8),
    st.frozensets(_windows(), min_size=1, max_size=3),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
)
def test_run_query_matches_oracle_on_drawn_windows(doc_windows, constraint, terms, depth):
    docs = [
        Document(f"d{i}", ["a", "b", "c"][: 1 + i % 3] + ["a"] * (i % 2), ws)
        for i, ws in enumerate(doc_windows)
    ]
    index = build_index(Corpus(documents=docs))
    q = Query(qid="q", terms=terms, time_constraint=constraint)
    assert run_query(index, q, depth) == oracle_run_query(index, q, depth)


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


@pytest.mark.parametrize("bad", ["20130101", "2013-W01-1", "2013W011", "1,2013-W01-1,3,4"])
def test_parse_time_spec_rejects_dates_other_than_yyyy_mm_dd(bad):
    with pytest.raises(QueryError):
        parse_time_spec(bad)
