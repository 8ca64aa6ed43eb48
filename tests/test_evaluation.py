"""Metrics, query generation, qrels plumbing, epsilon tuning, sweeps."""
import math
import random
import re

import pytest

from oracles import oracle_average_precision, oracle_sweep, time_filtered_qrels
from tempoprune.aspects import build_aspect_sets, index_time_hull
from tempoprune.errors import EvalFormatError, PruneError, QueryError, TempopruneError
from tempoprune.evaluation import (
    EvalReport,
    Qrels,
    Topic,
    all_relevant_qrels,
    average_precision,
    evaluate_results,
    generate_temporal_queries,
    ndcg,
    read_qrels,
    read_queries,
    read_run,
    read_topics,
    sweep,
    write_qrels,
    write_queries,
)
from tempoprune.index import build_index, pruning_ratio
from tempoprune.prune import (
    diversified_topk_prune,
    prune_index,
    threshold_prune,
    threshold_values,
    tune_epsilon,
)
from tempoprune.search import Query, RankedResult, run_query, temporal_match, trec_run_lines
from tempoprune.synth import random_corpus
from tempoprune.timewindows import TimeWindow, parse_day


def ranked(qid, docs):
    return RankedResult(qid=qid, hits=[(d, float(len(docs) - i)) for i, d in enumerate(docs)])


# --- average precision -------------------------------------------------------


def test_ap_relevant_first():
    qrels = Qrels({("q", "a"): 1})
    assert average_precision(ranked("q", ["a", "b"]), qrels) == 1.0


def test_ap_relevant_second():
    qrels = Qrels({("q", "a"): 1})
    assert average_precision(ranked("q", ["b", "a"]), qrels) == 0.5


def test_ap_partial_recall():
    # 10 results, relevant at ranks 2, 5, 9; a fourth relevant doc unretrieved
    docs = [f"d{i}" for i in range(10)]
    qrels = Qrels({("q", "d1"): 1, ("q", "d4"): 1, ("q", "d8"): 1, ("q", "missing"): 1})
    want = (1 / 2 + 2 / 5 + 3 / 9) / 4
    assert average_precision(ranked("q", docs), qrels) == pytest.approx(want)


def test_ap_no_relevant_is_zero():
    assert average_precision(ranked("q", ["a"]), Qrels()) == 0.0


def test_ap_matches_oracle():
    rng = random.Random(0)
    for _ in range(30):
        docs = [f"d{i}" for i in range(rng.randint(1, 20))]
        rel = {d for d in docs if rng.random() < 0.3} | {"unseen"}
        qrels = Qrels({("q", d): 1 for d in rel})
        got = average_precision(ranked("q", docs), qrels)
        assert got == pytest.approx(oracle_average_precision(docs, rel, len(rel)))


# --- NDCG ---------------------------------------------------------------


def test_ndcg_ideal_is_exactly_one():
    qrels = Qrels({("q", "a"): 3, ("q", "b"): 2, ("q", "c"): 1})
    assert ndcg(ranked("q", ["a", "b", "c"]), qrels) == 1.0


def test_ndcg_graded_hand_value():
    qrels = Qrels({("q", "a"): 3, ("q", "b"): 1})
    got = ndcg(ranked("q", ["b", "a", "c"]), qrels)
    dcg = 1.0 / math.log(2.0) + 3.0 / math.log(3.0)
    idcg = 3.0 / math.log(2.0) + 1.0 / math.log(3.0)
    assert got == pytest.approx(dcg / idcg)


def test_ndcg_log2_discount():
    qrels = Qrels({("q", "a"): 3, ("q", "b"): 1})
    got = ndcg(ranked("q", ["b", "a"]), qrels, discount="log2")
    dcg = 1.0 + 3.0 / math.log2(3.0)
    idcg = 3.0 + 1.0 / math.log2(3.0)
    assert got == pytest.approx(dcg / idcg)
    with pytest.raises(ValueError):
        ndcg(ranked("q", ["a"]), qrels, discount="log10")


def test_ndcg_no_relevant_is_zero():
    assert ndcg(ranked("q", ["a", "b"]), Qrels()) == 0.0


def test_ndcg_depth_cutoff():
    qrels = Qrels({("q", "a"): 1, ("q", "b"): 1})
    # at depth 1 only the first hit counts, and the ideal list is cut too
    assert ndcg(ranked("q", ["a", "b"]), qrels, depth=1) == 1.0
    assert ndcg(ranked("q", ["c", "a"]), qrels, depth=1) == 0.0


def test_ndcg_bounded():
    rng = random.Random(1)
    for _ in range(30):
        docs = [f"d{i}" for i in range(rng.randint(1, 15))]
        qrels = Qrels({("q", d): rng.randint(0, 3) for d in docs[: rng.randint(1, len(docs))]})
        v = ndcg(ranked("q", docs), qrels)
        assert 0.0 <= v <= 1.0


def test_evaluate_results_excludes_zero_relevant():
    qrels = Qrels({("q1", "a"): 1})
    results = [ranked("q1", ["a"]), ranked("q2", ["b"])]
    map_, ndcg_, n = evaluate_results(results, qrels)
    assert (map_, ndcg_, n) == (1.0, 1.0, 1)


def test_evaluate_results_all_excluded():
    assert evaluate_results([ranked("q", ["a"])], Qrels()) == (0.0, 0.0, 0)


# --- qrels --------------------------------------------------------------


def test_qrels_basics():
    qrels = Qrels({("q1", "a"): 2, ("q1", "b"): 0, ("q2", "a"): 1})
    assert qrels.grade("q1", "a") == 2
    assert qrels.grade("q1", "zzz") == 0
    assert qrels.n_relevant("q1") == 1  # grade-0 entry does not count
    assert qrels.for_query("q2") == {"a": 1}
    with pytest.raises(ValueError):
        Qrels({("q", "a"): -1})


def test_qrels_trec_lines_roundtrip():
    qrels = Qrels({("q1", "a"): 2, ("q2", "b"): 1})
    lines = qrels.to_lines()
    assert lines == ["q1 0 a 2", "q2 0 b 1"]
    assert Qrels.from_lines(lines).grades == qrels.grades
    with pytest.raises(ValueError):
        Qrels.from_lines(["q1 0 a"])


def test_qrels_file_roundtrip(tmp_path):
    qrels = Qrels({("q1", "a"): 2, ("q2", "b"): 1})
    path = tmp_path / "x.qrels"
    write_qrels(qrels, path)
    assert read_qrels(path).grades == qrels.grades


def test_read_run_roundtrip(tmp_path):
    result = RankedResult(qid="q1", hits=[("a", 2.5), ("b", 1.0)])
    path = tmp_path / "r.run"
    path.write_text("\n".join(trec_run_lines(result)) + "\n", encoding="utf-8")
    back = read_run(path)
    assert len(back) == 1
    assert back[0].qid == "q1"
    assert back[0].doc_ids() == ["a", "b"]


@pytest.mark.parametrize(
    "line, reason",
    [
        ("q1 0 d0001", "expected 4 fields, got 3"),
        ("q1 0 d0001 1 extra", "expected 4 fields, got 5"),
        ("q1 0 d0001 x", "grade must be an integer, got 'x'"),
        ("q1 0 d0001 1.5", "grade must be an integer, got '1.5'"),
        ("q1 0 d0001 -1", "grade must be >= 0, got -1"),
        ("q1 0 d0002 2", "duplicate judgment for query 'q1', doc 'd0002'"),
    ],
)
def test_read_qrels_rejects_malformed_lines(tmp_path, line, reason):
    path = tmp_path / "qrels.txt"
    path.write_text(f"q1 0 d0002 1\n\n{line}\n", encoding="utf-8")
    with pytest.raises(EvalFormatError, match=re.escape(f"{path}:3: {reason}")):
        read_qrels(path)
    with pytest.raises(TempopruneError, match=re.escape(f"<qrels>:3: {reason}")):
        Qrels.from_lines(["q1 0 d0002 1", "", line])


@pytest.mark.parametrize(
    "line, reason",
    [
        ("q1 Q0 d1 1 2.5", "expected 6 fields, got 5"),
        ("q1 Q0 d1 1 notanumber tag", "score must be a number, got 'notanumber'"),
        ("q1 Q0 d1 1 nan tag", "score must be finite, got 'nan'"),
        ("q1 Q0 d1 1 -inf tag", "score must be finite, got '-inf'"),
    ],
)
def test_read_run_rejects_malformed_lines(tmp_path, line, reason):
    path = tmp_path / "run.txt"
    path.write_text(f"q1 Q0 d0 1 3.0 tag\n{line}\n", encoding="utf-8")
    with pytest.raises(EvalFormatError, match=re.escape(f"{path}:2: {reason}")):
        read_run(path)


# --- query generation ----------------------------------------------------


TOPICS = [
    Topic(qid="t1", title="disaster", description="major disaster event report"),
    Topic(qid="t2", title="w000 w001"),
]


def test_genqueries_deterministic(rand_corpus, rand_index):
    a = generate_temporal_queries(TOPICS, index_time_hull(rand_index), "weekly", 8, 7, rand_index)
    b = generate_temporal_queries(TOPICS, index_time_hull(rand_index), "weekly", 8, 7, rand_index)
    assert a == b
    assert a


def test_genqueries_window_length_and_hits(rand_corpus, rand_index):
    for interval, days in (("daily", 1), ("weekly", 7), ("monthly", 30)):
        queries = generate_temporal_queries(
            TOPICS, index_time_hull(rand_index), interval, 6, 3, rand_index
        )
        assert queries
        for q in queries:
            assert q.kind == "exclusive"
            (w,) = q.time_constraint
            assert w.b_lo == w.b_hi and w.e_lo == w.e_hi
            assert w.e_hi - w.b_lo == days - 1
            if q.qid.endswith("-s"):
                assert run_query(rand_index, q, depth=1).hits


def test_genqueries_qid_scheme_and_long_variants(rand_corpus, rand_index):
    topics = [
        Topic(qid="ta", title="w000", description="w001 archive"),
        Topic(qid="tb", title="w001"),
    ]
    queries = generate_temporal_queries(
        topics, index_time_hull(rand_index), "weekly", 6, 5, rand_index
    )
    shorts = [q for q in queries if q.qid.endswith("-s")]
    longs = [q for q in queries if q.qid.endswith("-l")]
    assert len(shorts) == 6
    for q in shorts:
        topic, interval, attempt, suffix = q.qid.rsplit("-", 3)
        assert topic in {"ta", "tb"}
        assert interval == "weekly"
        assert attempt.isdigit() and len(attempt) == 3
    # ta has a description that adds terms, tb does not
    assert longs
    assert all(q.qid.startswith("ta-") for q in longs)
    by_qid = {q.qid: q for q in queries}
    for lq in longs:
        sq = by_qid[lq.qid[:-2] + "-s"]
        assert lq.time_constraint == sq.time_constraint
        assert set(sq.terms) < set(lq.terms)


def test_genqueries_round_robin_covers_topics(rand_corpus, rand_index):
    queries = generate_temporal_queries(
        TOPICS, index_time_hull(rand_index), "monthly", 8, 1, rand_index
    )
    topics_seen = {q.qid.split("-")[0] for q in queries}
    assert topics_seen == {"t1", "t2"}


def test_genqueries_gives_up_after_attempt_budget(rand_corpus, rand_index):
    missing = [Topic(qid="tx", title="notaword")]
    queries = generate_temporal_queries(
        missing, index_time_hull(rand_index), "weekly", 5, 0, rand_index
    )
    assert queries == []


def test_genqueries_validation(rand_corpus, rand_index):
    with pytest.raises(QueryError):
        generate_temporal_queries(TOPICS, index_time_hull(rand_index), "hourly", 5, 0, rand_index)
    with pytest.raises(QueryError):
        generate_temporal_queries(TOPICS, (10, 5), "weekly", 5, 0, rand_index)


def test_query_file_roundtrip(tmp_path, rand_corpus, rand_index):
    queries = generate_temporal_queries(
        TOPICS, index_time_hull(rand_index), "weekly", 5, 2, rand_index
    )
    path = tmp_path / "q.jsonl"
    write_queries(queries, path)
    assert read_queries(path) == queries


def test_read_topics(tmp_path):
    path = tmp_path / "topics.jsonl"
    path.write_text(
        '{"qid": "t1", "title": "Iraq war", "description": "gulf conflict"}\n'
        '{"qid": "t2", "title": "earthquake"}\n',
        encoding="utf-8",
    )
    topics = read_topics(path)
    assert topics == [
        Topic(qid="t1", title="Iraq war", description="gulf conflict"),
        Topic(qid="t2", title="earthquake"),
    ]


GOOD_QUERY = '{"qid": "q0", "terms": ["a"], "kind": "exclusive", "windows": [[1, 2, 3, 4]]}'


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"qid": "q1", "terms": "w001"}', "terms must be a list of strings"),
        ('{"qid": "q1"}', "terms must be a list of strings"),
        ('{"qid": "q1", "terms": ["a", 7]}', "terms must be a list of strings"),
        ('{"terms": ["a"]}', "qid must be a string"),
        ('{"qid": 1, "terms": ["a"]}', "qid must be a string"),
        ('{"qid": "q1", "terms": ["a"], "windows": [[1, 2, 3]]}', "four integer days"),
        ('{"qid": "q1", "terms": ["a"], "windows": [1, 2, 3, 4]}', "four integer days"),
        ('{"qid": "q1", "terms": ["a"], "windows": [["1", 2, 3, 4]]}', "four integer days"),
        ('{"qid": "q1", "terms": ["a"], "windows": {"b": 1}}', "four integer days"),
        ('{"qid": "q1", "terms": ["a"], "windows": [[5, 2, 3, 4]]}', "inconsistent window"),
        ('{"qid": "q1", "terms": ["a"], "kind": "exclusive"}', "needs a time constraint"),
        ('{"qid": "q1", "terms": ["a"], "kind": "sideways"}', "unknown query kind"),
        ('["q1", ["a"]]', "expected a JSON object"),
        ('{"qid": "q1", "terms": [', "not JSON"),
    ],
)
def test_read_queries_rejects_malformed_records(tmp_path, line, reason):
    path = tmp_path / "q.jsonl"
    path.write_text(f"{GOOD_QUERY}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(QueryError, match=rf"q\.jsonl:3: .*{re.escape(reason)}"):
        read_queries(path)


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"qid": "t1"}', "title and description must be strings"),
        ('{"qid": "t1", "title": 5}', "title and description must be strings"),
        ('{"qid": "t1", "title": "x", "description": ["y"]}', "title and description"),
        ('{"title": "x"}', "missing qid"),
        ('"t1"', "expected a JSON object"),
    ],
)
def test_read_topics_rejects_malformed_records(tmp_path, line, reason):
    path = tmp_path / "topics.jsonl"
    path.write_text(f'{{"qid": "t0", "title": "a"}}\n{line}\n', encoding="utf-8")
    with pytest.raises(QueryError, match=rf"topics\.jsonl:2: .*{re.escape(reason)}"):
        read_topics(path)


# --- derived qrels --------------------------------------------------------


def test_all_relevant_qrels_brute_force(rand_corpus, rand_index):
    queries = generate_temporal_queries(
        TOPICS, index_time_hull(rand_index), "monthly", 5, 4, rand_index
    )
    qrels = all_relevant_qrels(queries, rand_index)
    for q in queries:
        expected = set()
        for doc in rand_corpus.documents:
            if not set(q.terms) & set(doc.tokens):
                continue
            if temporal_match(rand_index, doc.doc_id, q.time_constraint):
                expected.add(doc.doc_id)
        assert {d for d, g in qrels.for_query(q.qid).items() if g} == expected


def test_all_relevant_rejects_inclusive():
    with pytest.raises(QueryError):
        all_relevant_qrels([Query(qid="q", terms=["a"])], build_index(random_corpus(20, 1)))


def test_time_filtered_qrels(quake_fixture):
    corpus, index = quake_fixture
    q = Query(
        qid="q1",
        terms=["earthquake"],
        time_constraint=frozenset({TimeWindow.instant(parse_day("1999-08-17"))}),
        kind="exclusive",
    )
    original = Qrels(
        {
            ("q1", "izmit"): 2,
            ("q1", "bingol"): 1,  # 2003 doc, outside the window
            ("q1", "ghost"): 1,  # not in the corpus
            ("q2", "izmit"): 1,  # no matching query
        }
    )
    filtered = time_filtered_qrels(original, [q], corpus)
    assert filtered.grades == {("q1", "izmit"): 2}
    for key, g in filtered.grades.items():
        assert g <= original.grades[key]


@pytest.fixture(scope="module")
def quake_fixture():
    from tempoprune.corpus import Corpus, Document

    d99 = parse_day("1999-08-17")
    d03 = parse_day("2003-05-01")
    docs = [
        Document("izmit", ["earthquake"], frozenset({TimeWindow.instant(d99)})),
        Document("bingol", ["earthquake"], frozenset({TimeWindow.instant(d03)})),
    ]
    corpus = Corpus(documents=docs)
    return corpus, build_index(corpus)


# --- epsilon tuning --------------------------------------------------------


@pytest.mark.parametrize("method", ["ipu", "2n2p"])
@pytest.mark.parametrize("target", [0.3, 0.5, 0.7])
def test_tune_epsilon_hits_target(rand_index, method, target):
    tune = tune_epsilon(rand_index, method, target)
    assert abs(tune.achieved - target) <= 0.01
    assert not tune.flagged
    pruned = threshold_prune(rand_index, method, tune.epsilon)
    assert pruning_ratio(rand_index, pruned) == pytest.approx(tune.achieved, abs=1e-12)


def test_tune_epsilon_flag_consistent(rand_index):
    for target in (0.3, 0.5, 0.7):
        tune = tune_epsilon(rand_index, "tcp", target)
        assert tune.flagged == (abs(tune.achieved - target) > 0.01)
        assert 0.0 <= tune.epsilon <= 1.0


def test_tune_epsilon_achieved_matches_value_array(rand_index):
    tune = tune_epsilon(rand_index, "ipu", 0.4)
    values = threshold_values(rand_index, "ipu")
    flat = [v for vals in values.values() for v in vals]
    frac = sum(1 for v in flat if v < tune.epsilon) / len(flat)
    assert frac == pytest.approx(tune.achieved)


# --- sweep ------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_setup():
    corpus = random_corpus(n_docs=80, seed=3, vocab_size=15)
    index = build_index(corpus)
    topics = [Topic(qid="t1", title="disaster"), Topic(qid="t2", title="w000")]
    queries = generate_temporal_queries(
        topics, index_time_hull(index), "monthly", 6, 5, index
    )
    qrels = all_relevant_qrels(queries, index)
    return index, queries, qrels


def _postings(index):
    return {(t, p.doc_id) for t, pl in index.lists.items() for p in pl.postings}


def test_prune_index_matches_the_pruner_it_dispatches_to(sweep_setup):
    index = sweep_setup[0]
    tuned = tune_epsilon(index, "2n2p", 0.4)
    pruned, info = prune_index(index, "2n2p", ratio=0.4)
    assert info == {
        "epsilon": tuned.epsilon,
        "tuned": {"target_ratio": 0.4, "epsilon": tuned.epsilon, "flagged": tuned.flagged},
    }
    assert _postings(pruned) == _postings(threshold_prune(index, "2n2p", tuned.epsilon))
    with pytest.raises(PruneError, match="exactly one of"):
        prune_index(index, "ipu", epsilon=1e-3, ratio=0.9)
    pruned, info = prune_index(index, "ipu", epsilon=1e-3)
    assert info == {"epsilon": 1e-3}
    assert _postings(pruned) == _postings(threshold_prune(index, "ipu", 1e-3))
    aspect_sets = build_aspect_sets(index, "sliding")
    for k, ratio in ((2, None), (None, 0.5)):
        pruned, info = prune_index(index, "div-sliding", k=k, ratio=ratio, aspect_sets=aspect_sets)
        assert info == {}
        want = diversified_topk_prune(index, aspect_sets, k=k, ratio=ratio)
        assert _postings(pruned) == _postings(want)


@pytest.mark.parametrize(
    "method, level, message",
    [
        ("pagerank", {"ratio": 0.5}, "unknown method"),
        ("tcp", {}, "needs --epsilon or --ratio"),
        ("div-simple", {"k": 2, "ratio": 0.5}, "exactly one of"),
        ("div-simple", {}, "exactly one of"),
        ("div-simple", {"k": 2}, "needs aspect sets"),
        ("ipu", {"epsilon": 0.001, "ratio": 0.2}, "exactly one of"),
        ("tcp", {"ratio": 0.5, "k": 3}, "exactly one of"),
        ("div-simple", {"ratio": 0.5, "epsilon": 0.2}, "exactly one of"),
        ("tcp", {"ratio": 1.5}, r"ratio must be in \(0, 1\)"),
        ("tcp", {"ratio": -0.3}, r"ratio must be in \(0, 1\)"),
        ("tcp", {"epsilon": 1.5}, "tcp epsilon must be <= 1"),
        ("2n2p", {"epsilon": -0.5}, "epsilon must be >= 0"),
        ("div-dynamic", {"k": 0}, "k must be >= 1"),
        ("div-simple", {"ratio": 0.0}, r"ratio must be in \(0, 1\)"),
        ("div-sliding", {"ratio": 1.0}, r"ratio must be in \(0, 1\)"),
        ("div-dynamic", {"k": 3, "ratio": 0.5}, "exactly one of"),
    ],
)
def test_prune_index_rejects_bad_requests(sweep_setup, method, level, message):
    with pytest.raises(PruneError, match=message):
        prune_index(sweep_setup[0], method, **level)


def test_sweep_rows_ordered_and_complete(sweep_setup):
    index, queries, qrels = sweep_setup
    report = sweep(index, queries, qrels, ["tcp", "div-simple"], [0.5, 0.0], k_max=2)
    assert [(r.method, r.ratio) for r in report.rows] == [
        ("div-simple", 0.0),
        ("div-simple", 0.5),
        ("tcp", 0.0),
        ("tcp", 0.5),
    ]


def test_sweep_ratio_zero_is_unpruned_baseline(sweep_setup):
    from tempoprune.evaluation import evaluate_queries

    index, queries, qrels = sweep_setup
    report = sweep(index, queries, qrels, ["tcp", "ipu"], [0.0, 0.4])
    base_map, base_ndcg, base_n = evaluate_queries(index, queries, qrels)
    for row in report.rows:
        if row.ratio == 0.0:
            assert row.map_ == base_map
            assert row.ndcg_ == base_ndcg
            assert row.n_queries == base_n
            assert row.achieved == 0.0


def test_sweep_threshold_rows_record_tuning(sweep_setup):
    index, queries, qrels = sweep_setup
    report = sweep(index, queries, qrels, ["ipu"], [0.5])
    (row,) = report.rows
    assert row.epsilon is not None
    assert abs(row.achieved - 0.5) <= 0.01
    assert not row.flagged


def test_sweep_div_rows_hit_ratio_mode(sweep_setup):
    index, queries, qrels = sweep_setup
    report = sweep(index, queries, qrels, ["div-simple", "div-dynamic"], [0.5], k_max=2)
    for row in report.rows:
        assert row.epsilon is None
        assert not row.flagged
        assert 0.0 < row.achieved < 1.0


def test_sweep_csv_shape(sweep_setup):
    index, queries, qrels = sweep_setup
    report = sweep(index, queries, qrels, ["tcp"], [0.0, 0.5])
    lines = report.to_csv_lines()
    assert lines[0] == "method,ratio,map,ndcg,n_queries"
    assert lines[0] == EvalReport.CSV_HEADER
    for line in lines[1:]:
        method, ratio, map_, ndcg_, n = line.split(",")
        assert method == "tcp"
        assert len(ratio.split(".")[1]) == 6
        assert len(map_.split(".")[1]) == 6
        assert n.isdigit()


def test_sweep_json_carries_details(sweep_setup):
    import json

    index, queries, qrels = sweep_setup
    report = sweep(index, queries, qrels, ["2n2p"], [0.3])
    payload = json.loads(report.to_json())
    assert payload[0]["method"] == "2n2p"
    assert set(payload[0]) == {
        "method", "ratio", "map", "ndcg", "n_queries",
        "achieved_ratio", "epsilon", "flagged",
    }


def test_sweep_deterministic(sweep_setup):
    index, queries, qrels = sweep_setup
    a = sweep(index, queries, qrels, ["tcp", "div-sliding"], [0.0, 0.5], seed=1)
    b = sweep(index, queries, qrels, ["tcp", "div-sliding"], [0.0, 0.5], seed=1)
    assert a.to_csv_lines() == b.to_csv_lines()
    assert a.to_json() == b.to_json()


def test_sweep_validation(sweep_setup, monkeypatch):
    from tempoprune import evaluation

    index, queries, qrels = sweep_setup
    with pytest.raises(ValueError):
        sweep(index, queries, qrels, ["pagerank"], [0.5])
    with pytest.raises(ValueError):
        sweep(index, queries, qrels, ["tcp"], [1.0])

    def never(*args, **kwargs):
        raise AssertionError("aspect sets built before the ratios were checked")

    # every ratio is checked before any work
    monkeypatch.setattr(evaluation, "build_aspect_sets", never)
    with pytest.raises(ValueError, match=r"ratio must be in \[0, 1\), got 1.0"):
        sweep(index, queries, qrels, ["div-simple"], [0.5, 1.0])


ALL_METHODS = ["tcp", "ipu", "2n2p", "div-simple", "div-sliding", "div-dynamic"]


def _assert_sweeps_equal(setup, methods, ratios, **kwargs):
    index, queries, qrels = setup
    got = sweep(index, queries, qrels, methods, ratios, **kwargs)
    want = oracle_sweep(index, queries, qrels, methods, ratios, **kwargs)
    assert got.to_csv_lines() == want.to_csv_lines()
    assert got.to_json() == want.to_json()
    return got


def test_sweep_cuts_equal_one_prune_per_ratio(sweep_setup):
    _assert_sweeps_equal(sweep_setup, ALL_METHODS, [0.0, 0.3, 0.5, 0.7, 0.9], k_max=2, seed=1)


def test_sweep_cuts_equal_one_prune_per_ratio_on_two_bursts(burst_setup):
    setup = burst_setup[2:]
    _assert_sweeps_equal(setup, ALL_METHODS, [0.3, 0.5, 0.7], lambda_w=0.0, k_max=2)


def test_sweep_cuts_equal_one_prune_per_ratio_at_a_flagged_target(sweep_setup):
    report = _assert_sweeps_equal(sweep_setup, ["tcp"], [0.5, 0.95])
    assert [r.flagged for r in report.rows] == [False, True]
