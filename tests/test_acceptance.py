"""Acceptance checklist: eleven end-to-end checks, one test each.

Each check re-derives its expected answers from scratch (exhaustive search,
hand arithmetic, the committed spreadsheet oracle, or a double run) rather
than trusting library internals, and prints a one-line PASS summary with
the measured numbers.  Run verbosely for the per-check pass/fail report:

    pytest tests/test_acceptance.py -v
"""
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from oracles import (
    make_instance,
    oracle_fd_width,
    oracle_criterion,
    oracle_next_best,
    oracle_optimum,
)
from tempoprune.aspects import Aspect, AspectSet, TermTimeSeries, fd_window_size
from tempoprune.cli import main as cli_main
from tempoprune.corpus import write_corpus
from tempoprune.evaluation import average_precision, evaluate_queries, ndcg
from tempoprune.gmm import fit_gmm, select_k_bic
from tempoprune.index import build_index, pruning_ratio, read_index
from tempoprune.prune import (
    SelectionState,
    diversified_topk_prune,
    diversify,
    next_best,
    relevance_scores,
    threshold_prune,
    tune_epsilon,
)
from tempoprune.search import RankedResult
from tempoprune.evaluation import Qrels
from tempoprune.synth import random_corpus
from tempoprune.timewindows import TimeWindow


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def _global_only(term, doc_ids):
    return AspectSet(
        term=term,
        aspects=[Aspect(window=TimeWindow.certain(0, 10000), weight=1.0, is_global=True)],
        doc_map={d: (0,) for d in doc_ids},
    )


def test_01_next_best_equals_exhaustive_reevaluation():
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        rel, aset = make_instance(seed, max_docs=10, max_aspects=4)
        state = SelectionState(n_aspects=len(aset.aspects))
        selected: set[str] = set()
        for _ in range(len(rel)):
            want_doc, want_gain = oracle_next_best(rel, selected, aset)
            got_doc, got_gain = next_best(rel, state, aset)
            assert got_doc == want_doc
            assert abs(got_gain - want_gain) <= 1e-12
            selected.add(got_doc)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"{checked} greedy steps over 200 instances matched exactly in {elapsed:.2f}s")


def test_02_greedy_meets_submodular_bound():
    start = time.perf_counter()
    bound = 1.0 - 1.0 / math.e
    worst = 1.0
    for seed in range(100):
        rng = random.Random(seed)
        rel, aset = make_instance(seed, max_docs=12, max_aspects=4)
        k = rng.randint(1, min(4, len(rel)))
        greedy = oracle_criterion(diversify(rel, aset, k), rel, aset)
        opt = oracle_optimum(rel, aset, k)
        assert greedy + 1e-12 >= bound * opt
        if opt > 0:
            worst = min(worst, greedy / opt)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"100 instances, worst greedy/optimum {worst:.4f} >= {bound:.4f}, {elapsed:.2f}s")


def test_03_submodularity_and_monotonicity_probes():
    start = time.perf_counter()
    for i in range(1000):
        rel, aset = make_instance(i % 120)
        rng = random.Random(7000 + i)
        p = rng.choice(rel.doc_ids)
        rest = [d for d in rel.doc_ids if d != p]
        b = set(rng.sample(rest, rng.randint(0, len(rest))))
        a = set(rng.sample(sorted(b), rng.randint(0, len(b))))
        gain_a = oracle_criterion(a | {p}, rel, aset) - oracle_criterion(a, rel, aset)
        gain_b = oracle_criterion(b | {p}, rel, aset) - oracle_criterion(b, rel, aset)
        assert gain_b <= gain_a + 1e-12  # diminishing returns
        assert gain_a >= -1e-12 and gain_b >= -1e-12  # monotone
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"1000 (A subset B, p) probes satisfied both properties in {elapsed:.2f}s")


def test_04_single_global_aspect_degenerates_to_relevance_topk():
    terms_checked = 0
    for seed in range(50):
        index = build_index(random_corpus(n_docs=30, seed=1000 + seed, vocab_size=10))
        for term in index.terms():
            rel = relevance_scores(index, term)
            k = min(3, len(rel))
            picks = diversify(rel, _global_only(term, rel.doc_ids), k)
            assert set(picks) == set(rel.doc_ids[:k])
            terms_checked += 1
    _report(4, f"{terms_checked} terms across 50 seeded indexes reduced to relevance top-k")


def test_05_baseline_retained_sets_match_spreadsheet(toy5_index, baseline_oracle):
    cases = [
        ("tcp", 0.8, 10, "tcp_keep_k10_eps08"),
        ("tcp", 0.8, 2, "tcp_keep_k2_eps08"),
        ("ipu", 0.36, 10, "ipu_keep_eps036"),
        ("2n2p", 0.5, 10, "n2p2_keep_eps05"),
        ("2n2p", 1.0, 10, "n2p2_keep_eps10"),
    ]
    for method, epsilon, zk, column in cases:
        pruned = threshold_prune(toy5_index, method, epsilon, zk)
        got = {(t, p.doc_id) for t in pruned.lists for p in pruned.lists[t].postings}
        want = {key for key, row in baseline_oracle.items() if row[column] == "1"}
        assert got == want, f"{method} eps={epsilon} zk={zk}"
    _report(5, f"{len(cases)} threshold settings matched the committed oracle exactly")


def test_06_threshold_monotonicity(rand_index):
    grids = {
        "tcp": [round(0.1 * i, 1) for i in range(1, 11)],
        "ipu": [0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2],
        "2n2p": [0.0, 0.5, 1.0, 2.0, 5.0],
    }
    pairs = 0
    for method, grid in grids.items():
        retained = []
        for eps in grid:
            pruned = threshold_prune(rand_index, method, eps)
            retained.append(
                {(t, p.doc_id) for t in pruned.lists for p in pruned.lists[t].postings}
            )
        for smaller, bigger in zip(retained, retained[1:]):
            assert bigger <= smaller
            pairs += 1
    _report(6, f"{pairs} adjacent grid pairs nested for tcp/ipu/2n2p")


def test_07_em_loglik_and_bic_model_selection():
    start = time.perf_counter()
    for seed in range(20):
        rng = random.Random(seed)
        days = [rng.randint(0, 400) for _ in range(80)]
        fit = fit_gmm(TermTimeSeries(term="t", counts=dict(Counter(days))), 3, seed)
        for prev, cur in zip(fit.ll_trace, fit.ll_trace[1:]):
            assert cur >= prev - 1e-9

    two_component_hits = 0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        half = gen.normal(100.0, 3.0, size=250)
        rest = gen.normal(130.0, 3.0, size=250)
        days = np.concatenate([half, rest]).round().astype(int)
        series = TermTimeSeries(term="t", counts=dict(Counter(int(d) for d in days)))
        if select_k_bic(series, k_max=3, seed=seed).k == 2:
            two_component_hits += 1
    assert two_component_hits >= 19

    single_hits = 0
    for seed in range(20):
        gen = np.random.default_rng(100 + seed)
        days = gen.normal(300.0, 2.0, size=200).round().astype(int)
        series = TermTimeSeries(term="t", counts=dict(Counter(int(d) for d in days)))
        if select_k_bic(series, k_max=3, seed=seed).k == 1:
            single_hits += 1
    assert single_hits == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(7, f"LL monotone on 20 fits; K=2 in {two_component_hits}/20, "
               f"K=1 in {single_hits}/20; {elapsed:.2f}s")


def test_08_fd_width_matches_independent_implementation():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 300)
        days = [rng.randint(0, 2000) for _ in range(n)]
        series = TermTimeSeries(term="t", counts=dict(Counter(days)))
        assert fd_window_size(series) == oracle_fd_width(days)
    _report(8, "50 random samples agreed exactly with the reference width")


def test_09_two_burst_diversity_beats_tcp_at_matched_ratio(burst_setup):
    from tempoprune.aspects import build_aspect_sets

    start = time.perf_counter()
    _, _, index, queries, qrels = burst_setup
    aspect_sets = build_aspect_sets(index, "simple", lambda_w=0.0, seed=0)

    results = {}
    for ratio in (0.3, 0.5, 0.7):
        tuned = tune_epsilon(index, "tcp", ratio)
        tcp_pruned = threshold_prune(index, "tcp", tuned.epsilon)
        div_pruned = diversified_topk_prune(index, aspect_sets, ratio=ratio)
        results[ratio] = {
            "tcp_achieved": pruning_ratio(index, tcp_pruned),
            "div_achieved": pruning_ratio(index, div_pruned),
            "tcp_map": evaluate_queries(tcp_pruned, queries, qrels)[0],
            "div_map": evaluate_queries(div_pruned, queries, qrels)[0],
        }

    at_half = results[0.5]
    assert abs(at_half["tcp_achieved"] - 0.5) <= 0.01
    assert abs(at_half["div_achieved"] - 0.5) <= 0.01
    assert abs(at_half["div_achieved"] - at_half["tcp_achieved"]) <= 0.01
    assert at_half["div_map"] > at_half["tcp_map"]

    gaps = [results[r]["div_map"] - results[r]["tcp_map"] for r in (0.3, 0.5, 0.7)]
    assert gaps[0] <= gaps[1] <= gaps[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, f"at 50%: MAP div {at_half['div_map']:.3f} > tcp {at_half['tcp_map']:.3f}; "
               f"gaps {['%.3f' % g for g in gaps]} non-decreasing; {elapsed:.2f}s")


def test_10_metric_hand_values():
    def ranked(docs):
        return RankedResult(qid="q", hits=[(d, float(len(docs) - i)) for i, d in enumerate(docs)])

    one_relevant = Qrels({("q", "r1"): 1})
    assert average_precision(ranked(["r1", "x1"]), one_relevant, "q") == 1.0
    assert average_precision(ranked(["x1", "r1"]), one_relevant, "q") == 0.5

    ten = [f"d{i}" for i in range(1, 11)]
    four_relevant = Qrels({("q", d): 1 for d in ("d2", "d5", "d9", "unretrieved")})
    want = (1.0 / 2.0 + 2.0 / 5.0 + 3.0 / 9.0) / 4.0
    assert average_precision(ranked(ten), four_relevant, "q") == pytest.approx(want, abs=1e-15)

    graded = Qrels({("q", "y"): 2, ("q", "z"): 1})
    observed = ndcg(ranked(["x", "y", "z"]), graded, "q")
    hand = (2.0 / math.log(3.0) + 1.0 / math.log(4.0)) / (2.0 / math.log(2.0) + 1.0 / math.log(3.0))
    assert observed == pytest.approx(hand, abs=1e-15)
    assert ndcg(ranked(["y", "z", "x"]), graded, "q") == 1.0
    _report(10, "three AP rankings and the graded ratio matched; ideal NDCG == 1.0 exactly")


def test_11_pipeline_determinism(tmp_path, capsys):
    corpus = random_corpus(n_docs=80, seed=3, vocab_size=15)
    corpus_path = tmp_path / "corpus.jsonl"
    topics_path = tmp_path / "topics.jsonl"
    write_corpus(corpus, corpus_path)
    with open(topics_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"qid": "t1", "title": "w000", "description": "w001"}) + "\n")
        fh.write(json.dumps({"qid": "t2", "title": "w001"}) + "\n")

    def run(tag: str) -> dict[str, bytes]:
        d = tmp_path / tag
        d.mkdir()
        steps = [
            ["build", "--corpus", str(corpus_path), "--out", str(d / "idx.bin")],
            ["windows", "--index", str(d / "idx.bin"), "--term", "disaster",
             "--out", str(d / "win.json")],
            ["prune", "--in", str(d / "idx.bin"), "--out", str(d / "p.bin"),
             "--method", "div-simple", "--ratio", "0.4"],
            ["genqueries", "--index", str(d / "idx.bin"), "--topics", str(topics_path),
             "--interval", "monthly", "--n", "6", "--seed", "5",
             "--out", str(d / "q.jsonl"), "--qrels-out", str(d / "qrels.txt")],
            ["eval", "--index", str(d / "p.bin"), "--queries", str(d / "q.jsonl"),
             "--qrels", str(d / "qrels.txt"), "--out", str(d / "eval.json")],
            ["sweep", "--index", str(d / "idx.bin"), "--queries", str(d / "q.jsonl"),
             "--qrels", str(d / "qrels.txt"), "--methods", "tcp,div-simple",
             "--ratios", "0.0,0.5", "--out", str(d / "sweep.csv")],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = run("run1")
    capsys.readouterr()
    second = run("run2")
    capsys.readouterr()
    assert first["sweep.csv"] == second["sweep.csv"]
    assert first.keys() == second.keys()
    for name in first:
        a, b = first[name], second[name]
        if name.endswith(".manifest.json"):
            # manifests record the parameter set verbatim, paths included
            a = a.replace(b"/run1/", b"/run/")
            b = b.replace(b"/run2/", b"/run/")
        assert a == b, name
    n_rows = len(first["sweep.csv"].decode().splitlines()) - 1
    _report(11, f"two pipeline runs byte-identical across {len(first)} files "
                f"({n_rows} sweep rows)")
