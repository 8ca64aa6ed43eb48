"""Diversified greedy pruning and the three threshold baselines."""
import math
import random

import pytest

from oracles import (
    ScanState,
    make_instance,
    make_tied_instance,
    make_tune_instance,
    oracle_criterion,
    oracle_next_best,
    oracle_optimum,
    oracle_tune,
    scan_diversify,
    scan_next_best,
)
from tempoprune.aspects import Aspect, AspectSet, build_aspect_sets
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import PruneError, SelectionExhausted, TermNotFoundError
from tempoprune.index import build_index, pruning_ratio, subset_index, write_index
from tempoprune.prune import (
    RATIO_TOLERANCE,
    RelevanceList,
    SelectionState,
    cut,
    discount,
    diversified_topk_prune,
    diversify,
    ipu_values,
    k_for,
    n2p2_values,
    next_best,
    posting_order,
    prune_index,
    relevance_scores,
    tcp_cutoff,
    tcp_posting_scores,
    threshold_prune,
    threshold_values,
    tune_epsilon,
    _tune,
)
from tempoprune.synth import random_corpus
from tempoprune.timewindows import TimeWindow


def global_only_aspects(term, doc_ids):
    return AspectSet(
        term=term,
        aspects=[Aspect(window=TimeWindow.certain(0, 1000), weight=1.0, is_global=True)],
        doc_map={d: (0,) for d in doc_ids},
        kind="global",
    )


def test_discount():
    assert discount(1) == pytest.approx(1.0 / math.log(2.0))
    assert discount(3) == pytest.approx(1.0 / math.log(4.0))
    with pytest.raises(ValueError):
        discount(0)


# --- relevance ---------------------------------------------------------------


def test_relevance_worked_example():
    # tf=2 in a 4-token doc, ctf=10 over a 100-token collection, lambda 0.6
    docs = [
        Document("dx", ["t", "t", "a", "b"]),
        Document("dy", ["t"] * 8 + ["z"] * 88),
    ]
    idx = build_index(Corpus(documents=docs))
    assert idx.stats.total_len == 100
    assert idx.stats.ctf["t"] == 10
    rel = relevance_scores(idx, "t")
    assert rel.doc_ids[0] == "dx"
    assert rel.scores[0] == pytest.approx(0.26)


def test_relevance_sorted_with_doc_id_tiebreak():
    docs = [
        Document("db", ["t", "x"]),
        Document("da", ["t", "y"]),
        Document("dc", ["t", "t"]),
    ]
    rel = relevance_scores(build_index(Corpus(documents=docs)), "t")
    assert rel.doc_ids == ["dc", "da", "db"]
    assert rel.scores[0] > rel.scores[1] == rel.scores[2]


def test_relevance_unknown_term(toy5_index):
    with pytest.raises(TermNotFoundError):
        relevance_scores(toy5_index, "zzz")


# --- greedy criterion --------------------------------------------------------


def test_criterion_single_doc_single_aspect():
    rel = RelevanceList(term="t", doc_ids=["d1"], scores=[0.5])
    aset = AspectSet(
        term="t",
        aspects=[Aspect(window=TimeWindow.certain(0, 9), weight=1.0)],
        doc_map={"d1": (0,)},
    )
    assert oracle_criterion({"d1"}, rel, aset) == pytest.approx(0.5 / math.log(2.0))


def test_criterion_empty_selection_is_zero():
    rel, aset = make_instance(0)
    assert oracle_criterion(set(), rel, aset) == 0.0


def test_next_best_matches_oracle():
    for seed in range(60):
        rel, aset = make_instance(seed)
        state = SelectionState(n_aspects=len(aset.aspects))
        selected: set[str] = set()
        pos = {d: i for i, d in enumerate(rel.doc_ids)}
        for _ in range(len(rel)):
            want_doc, want_gain = oracle_next_best(rel, selected, aset)
            got_doc, got_gain = next_best(rel, state, aset)
            assert got_doc == want_doc
            assert got_gain == pytest.approx(want_gain, abs=1e-12)
            selected.add(got_doc)
            assert pos[got_doc] in state.selected_positions


def test_next_best_tie_prefers_higher_score_then_doc_id():
    rel = RelevanceList(term="t", doc_ids=["da", "db", "dc"], scores=[0.5, 0.5, 0.2])
    aset = global_only_aspects("t", rel.doc_ids)
    state = SelectionState(n_aspects=1)
    assert next_best(rel, state, aset)[0] == "da"
    assert next_best(rel, state, aset)[0] == "db"
    assert next_best(rel, state, aset)[0] == "dc"


def test_next_best_exhausted():
    rel = RelevanceList(term="t", doc_ids=["d1"], scores=[0.4])
    aset = global_only_aspects("t", ["d1"])
    state = SelectionState(n_aspects=1)
    next_best(rel, state, aset)
    with pytest.raises(SelectionExhausted):
        next_best(rel, state, aset)


def test_diversify_gains_telescope_and_diminish():
    for seed in range(25):
        rel, aset = make_instance(seed)
        result = diversify(rel, aset, len(rel))
        assert result.value == pytest.approx(oracle_criterion(result.order, rel, aset), abs=1e-9)
        for a, b in zip(result.gains, result.gains[1:]):
            assert b <= a + 1e-12
        assert sorted(result.order) == sorted(rel.doc_ids)


def test_diversify_greedy_meets_bound():
    # greedy >= (1 - 1/e) * optimum on small instances
    bound = 1.0 - 1.0 / math.e
    for seed in range(20):
        rel, aset = make_instance(seed, max_docs=8, max_aspects=3)
        k = min(3, len(rel))
        result = diversify(rel, aset, k)
        assert result.value >= bound * oracle_optimum(rel, aset, k) - 1e-12


def test_diversify_clamps_oversized_k():
    rel, aset = make_instance(3)
    result = diversify(rel, aset, len(rel) + 10)
    assert result.clamped
    assert len(result.order) == len(rel)


def test_diversify_rejects_negative_k():
    rel, aset = make_instance(4)
    with pytest.raises(PruneError):
        diversify(rel, aset, -1)


def test_diversify_single_global_aspect_is_relevance_topk():
    for seed in range(10):
        rel, _ = make_instance(seed)
        aset = global_only_aspects(rel.term, rel.doc_ids)
        k = max(1, len(rel) // 2)
        result = diversify(rel, aset, k)
        assert result.order == rel.doc_ids[:k]


# --- lazy greedy against the full-list scan ----------------------------------


def test_lazy_greedy_matches_scan_on_tied_instances():
    rng = random.Random(0)
    for seed in range(2000):
        rel, aset = make_tied_instance(seed)
        k = rng.randint(0, len(rel))
        order, gains = scan_diversify(rel, aset, k)
        result = diversify(rel, aset, k)
        assert result.order == order, seed
        assert result.gains == gains, seed


def test_lazy_greedy_and_scan_exhaust_together():
    for seed in range(50):
        rel, aset = make_tied_instance(seed, max_docs=12)
        lazy = SelectionState(n_aspects=len(aset.aspects))
        scan = ScanState(n_aspects=len(aset.aspects))
        for _ in range(len(rel)):
            assert next_best(rel, lazy, aset) == scan_next_best(rel, scan, aset)
        assert lazy.selected_positions == scan.selected_positions == set(range(len(rel)))
        assert scan_next_best(rel, scan, aset) is None
        with pytest.raises(SelectionExhausted):
            next_best(rel, lazy, aset)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("model", ["simple", "sliding"])
def test_lazy_prune_matches_scan_on_real_lists(seed, model, tmp_path):
    index = build_index(random_corpus(n_docs=300, seed=seed, vocab_size=500))
    aspect_sets = build_aspect_sets(index, model)
    ratios = (0.3, 0.7)
    scan_keep: list[dict[str, set[str]]] = [{} for _ in ratios]
    for term in index.terms():
        rel = relevance_scores(index, term)
        ks = [k_for(len(rel), ratio=r) for r in ratios]
        # greedy picks do not depend on k: one scan serves both budgets
        order, gains = scan_diversify(rel, aspect_sets[term], max(ks))
        for keep, k in zip(scan_keep, ks):
            result = diversify(rel, aspect_sets[term], k)
            assert result.order == order[:k], term
            assert result.gains == gains[:k], term
            keep[term] = set(order[:k])
    for ratio, keep in zip(ratios, scan_keep):
        lazy = diversified_topk_prune(index, aspect_sets, ratio=ratio)
        scan = subset_index(index, keep)
        assert {t: [p.doc_id for p in pl.postings] for t, pl in lazy.lists.items()} == {
            t: [p.doc_id for p in pl.postings] for t, pl in scan.lists.items()
        }
        write_index(lazy, tmp_path / "lazy.bin")
        write_index(scan, tmp_path / "scan.bin")
        assert (tmp_path / "lazy.bin").read_bytes() == (tmp_path / "scan.bin").read_bytes()


# --- budgets, posting orders and cuts ------------------------------------------


def test_k_for_budgets():
    assert k_for(25, k=10) == 10
    assert k_for(4, k=10) == 4
    assert k_for(5, ratio=0.5) == 3  # 2.5 rounds half up
    assert k_for(4, ratio=0.5) == 2
    assert k_for(3, ratio=0.9) == 1
    assert k_for(4, ratio=0.4) == 2


def test_diversified_topk_prune_fixed_k(toy5_index):
    aspect_sets = {
        t: global_only_aspects(t, [p.doc_id for p in pl.postings])
        for t, pl in toy5_index.lists.items()
    }
    pruned = diversified_topk_prune(toy5_index, aspect_sets, k=2)
    for term, pl in pruned.lists.items():
        rel = relevance_scores(toy5_index, term)
        assert {p.doc_id for p in pl.postings} == set(rel.doc_ids[:2])
        # original posting order preserved
        assert [p.doc_id for p in pl.postings] == sorted(p.doc_id for p in pl.postings)
    assert pruned.pruned


def test_diversified_topk_prune_ratio(toy5_index):
    aspect_sets = {
        t: global_only_aspects(t, [p.doc_id for p in pl.postings])
        for t, pl in toy5_index.lists.items()
    }
    pruned = diversified_topk_prune(toy5_index, aspect_sets, ratio=0.5)
    for term, pl in pruned.lists.items():
        assert len(pl.postings) == k_for(toy5_index.stats.df[term], ratio=0.5)
    assert 0.0 < pruning_ratio(toy5_index, pruned) < 1.0


def test_diversified_topk_prune_requires_all_aspect_sets(toy5_index):
    with pytest.raises(PruneError):
        diversified_topk_prune(toy5_index, {}, k=2)


def test_full_posting_order_cut_at_every_k_equals_diversify(monkeypatch):
    from tempoprune import prune

    for seed in range(200):
        rel, aset = make_tied_instance(seed)
        index = build_index(Corpus(documents=[Document(d, ["tied"]) for d in rel.doc_ids]))
        monkeypatch.setattr(prune, "relevance_scores", lambda *args: rel)
        order = posting_order(index, "div-simple", {"tied": aset}, lambda n: n)["tied"]
        for k in range(1, len(rel) + 1):
            want = diversify(rel, aset, k).order
            assert order[:k] == want, (seed, k)
            pruned, info = cut(index, "div-simple", {"tied": order}, k=k)
            assert {p.doc_id for p in pruned.lists["tied"].postings} == set(want), (seed, k)
            assert info == {}


@pytest.fixture(scope="module")
def simple_setup(seed4_index):
    return seed4_index, build_aspect_sets(seed4_index, "simple")


@pytest.mark.parametrize("level", [{"ratio": 0.3}, {"ratio": 0.7}, {"k": 3}])
def test_one_level_prune_makes_only_the_picks_it_keeps(simple_setup, monkeypatch, level):
    from tempoprune import prune

    index, aspect_sets = simple_setup
    calls = []

    def counted(*args):
        calls.append(args[0].term)
        return next_best(*args)

    monkeypatch.setattr(prune, "next_best", counted)
    pruned, _ = prune_index(index, "div-simple", aspect_sets=aspect_sets, **level)
    lengths = {t: len(pl.postings) for t, pl in index.lists.items()}
    assert len(calls) == sum(k_for(n, **level) for n in lengths.values())
    assert {t: len(pl.postings) for t, pl in pruned.lists.items()} == {
        t: k_for(n, **level) for t, n in lengths.items()
    }


def test_ratio_budget_follows_the_current_list_length(simple_setup):
    index, aspect_sets = simple_setup
    once, _ = prune_index(index, "div-simple", ratio=0.5, aspect_sets=aspect_sets)
    twice, _ = prune_index(once, "div-simple", ratio=0.5, aspect_sets=aspect_sets)
    full = posting_order(once, "div-simple", aspect_sets, lambda n: n)
    twice_from_full, _ = cut(once, "div-simple", full, ratio=0.5)
    assert once.stats.df == index.stats.df  # frozen at build values
    for term, pl in twice.lists.items():
        assert len(pl.postings) == k_for(len(once.lists[term].postings), ratio=0.5), term
        assert len(twice_from_full.lists[term].postings) == len(pl.postings), term
    assert any(
        k_for(len(once.lists[t].postings), ratio=0.5) != k_for(index.stats.df[t], ratio=0.5)
        for t in twice.lists
    )


# --- threshold baselines -----------------------------------------------------


def test_tcp_scores_toy5(toy5_index, baseline_oracle):
    scores = tcp_posting_scores(toy5_index, "apple")
    postings = toy5_index.lists["apple"].postings
    idf = math.log(5 / 4)
    assert scores == pytest.approx([2 * idf, idf, 2 * idf, idf])
    for p, s in zip(postings, scores):
        want = float(baseline_oracle[("apple", p.doc_id)]["tcp_score"])
        assert s == pytest.approx(want, abs=1e-9)


def test_tcp_cutoff():
    assert tcp_cutoff([5.0, 1.0, 4.0, 2.0, 3.0], k=2) == 4.0
    assert tcp_cutoff([5.0, 1.0], k=10) == 1.0  # short list: minimum
    with pytest.raises(PruneError):
        tcp_cutoff([1.0], k=0)


def test_ipu_uniform_lists():
    # equal scores: q = 1/n, A = (1/n) ln n for every posting
    docs = [Document(f"d{i}", ["t", "x"]) for i in range(4)]
    idx = build_index(Corpus(documents=docs))
    values = ipu_values(idx, "t")
    assert values == pytest.approx([0.25 * math.log(4.0)] * 4)


def test_ipu_matches_oracle_csv(toy5_index, baseline_oracle):
    for term in toy5_index.terms():
        postings = toy5_index.lists[term].postings
        for p, v in zip(postings, ipu_values(toy5_index, term)):
            want = float(baseline_oracle[(term, p.doc_id)]["ipu_a"])
            assert v == pytest.approx(want, abs=1e-9)


def test_n2p2_matches_oracle_csv(toy5_index, baseline_oracle):
    for term in toy5_index.terms():
        postings = toy5_index.lists[term].postings
        for p, v in zip(postings, n2p2_values(toy5_index, term)):
            want = float(baseline_oracle[(term, p.doc_id)]["n2p2_z"])
            assert v == pytest.approx(want, abs=1e-9)


def test_n2p2_degenerate_error_kept():
    idx = build_index(Corpus(documents=[Document("d1", ["t", "t"])]))
    assert n2p2_values(idx, "t") == [math.inf]
    pruned = threshold_prune(idx, "2n2p", 99.0)
    assert [p.doc_id for p in pruned.lists["t"].postings] == ["d1"]


def _retained(index, term):
    if term not in index.lists:
        return set()
    return {p.doc_id for p in index.lists[term].postings}


def test_baseline_retained_sets_match_oracle(toy5_index, baseline_oracle):
    cases = [
        (threshold_prune(toy5_index, "tcp", 0.8, zk=10), "tcp_keep_k10_eps08"),
        (threshold_prune(toy5_index, "tcp", 0.8, zk=2), "tcp_keep_k2_eps08"),
        (threshold_prune(toy5_index, "ipu", 0.36), "ipu_keep_eps036"),
        (threshold_prune(toy5_index, "2n2p", 0.5), "n2p2_keep_eps05"),
        (threshold_prune(toy5_index, "2n2p", 1.0), "n2p2_keep_eps10"),
    ]
    for pruned, column in cases:
        for term in toy5_index.terms():
            want = {
                doc
                for (t, doc), row in baseline_oracle.items()
                if t == term and row[column] == "1"
            }
            assert _retained(pruned, term) == want, (column, term)


def test_threshold_boundary_value_is_kept(toy5_index):
    # apple under zk=2: normalized values are exactly 1.0 and 0.5
    values = threshold_values(toy5_index, "tcp", zk=2)["apple"]
    assert values == pytest.approx([1.0, 0.5, 1.0, 0.5])
    at_half = threshold_prune(toy5_index, "tcp", 0.5, zk=2)
    assert _retained(at_half, "apple") == {"d1", "d2", "d3", "d5"}
    above = threshold_prune(toy5_index, "tcp", 0.5 + 1e-9, zk=2)
    assert _retained(above, "apple") == {"d1", "d3"}


def test_tcp_all_kept_when_cutoff_nonpositive():
    # single-doc collection: idf = ln(1/1) = 0, so z_t = 0 and nothing prunes
    idx = build_index(Corpus(documents=[Document("d1", ["t", "u"])]))
    values = threshold_values(idx, "tcp")
    assert values["t"] == [math.inf]
    pruned = threshold_prune(idx, "tcp", 1.0)
    assert _retained(pruned, "t") == {"d1"}


def test_threshold_monotone_in_epsilon(rand_index):
    grids = {
        "tcp": [0.1, 0.3, 0.5, 0.7, 0.9, 1.0],
        "ipu": [0.0, 1e-5, 1e-4, 1e-3, 1e-2],
        "2n2p": [0.0, 0.5, 1.0, 2.0, 5.0],
    }
    for method, grid in grids.items():
        previous = None
        for eps in grid:
            retained = {
                (t, p.doc_id)
                for t, pl in threshold_prune(rand_index, method, eps).lists.items()
                for p in pl.postings
            }
            if previous is not None:
                assert retained <= previous, method
            previous = retained


@pytest.mark.parametrize("method", ["tcp", "ipu", "2n2p"])
@pytest.mark.parametrize("corpus", ["two-burst", "random"])
def test_ratio_prune_computes_threshold_values_once(
    burst_setup, rand_index, monkeypatch, method, corpus
):
    from tempoprune import prune

    index = burst_setup[2] if corpus == "two-burst" else rand_index
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return threshold_values(*args, **kwargs)

    for ratio in (0.3, 0.5, 0.7):
        want = threshold_prune(index, method, tune_epsilon(index, method, ratio).epsilon)
        with monkeypatch.context() as m:
            m.setattr(prune, "threshold_values", counted)
            pruned, info = prune_index(index, method, ratio=ratio)
        assert calls == [method]
        calls.clear()
        assert _postings(pruned) == _postings(want)
        assert info["epsilon"] == info["tuned"]["epsilon"]


def _postings(index):
    return {(t, p.doc_id) for t, pl in index.lists.items() for p in pl.postings}


def test_threshold_prune_validation(toy5_index):
    with pytest.raises(PruneError):
        threshold_prune(toy5_index, "unknown", 0.5)
    for method in ("tcp", "ipu", "2n2p"):
        with pytest.raises(PruneError, match="epsilon must be >= 0"):
            threshold_prune(toy5_index, method, -0.1)
    with pytest.raises(PruneError, match="tcp epsilon must be <= 1"):
        threshold_prune(toy5_index, "tcp", 1.5)
    # epsilon 0 prunes nothing; tune_epsilon may return it for tcp
    assert pruning_ratio(toy5_index, threshold_prune(toy5_index, "tcp", 0.0)) == 0.0


# --- exact epsilon tuning ------------------------------------------------------


def test_tune_matches_oracle_on_tied_instances():
    for seed in range(2500):
        values, method, target = make_tune_instance(seed)
        got = _tune(values, method, target)
        assert (got.epsilon, got.achieved) == oracle_tune(values, method, target), seed
        assert got.flagged == (abs(got.achieved - target) > RATIO_TOLERANCE), seed


@pytest.mark.parametrize("method", ["tcp", "ipu", "2n2p"])
def test_tune_epsilon_matches_oracle_on_a_real_index(seed4_index, method):
    values = threshold_values(seed4_index, method)
    for target in (0.1, 0.2, 0.5, 0.7):
        got = tune_epsilon(seed4_index, method, target)
        assert (got.epsilon, got.achieved) == oracle_tune(values, method, target), target


@pytest.fixture(scope="module")
def seed4_index():
    return build_index(random_corpus(n_docs=80, seed=4, vocab_size=15))


def test_tune_epsilon_lands_between_statistics_one_ulp_apart(seed4_index):
    # 31 tcp statistics sit at 0.3333333333333333, one ulp below
    # 0.33333333333333337; a float bisection cannot split them and missed
    # the 0.2 target (196/1108 = 0.177, flagged).
    flat = sorted(v for vals in threshold_values(seed4_index, "tcp").values() for v in vals)
    assert (len(flat), flat.count(1.0 / 3.0)) == (1108, 31)
    tuned = tune_epsilon(seed4_index, "tcp", 0.2)
    assert tuned.achieved == 227 / 1108
    assert not tuned.flagged
    assert tuned.epsilon == math.nextafter(1.0 / 3.0, 1.0)
    pruned = threshold_prune(seed4_index, "tcp", tuned.epsilon)
    assert pruning_ratio(seed4_index, pruned) == pytest.approx(227 / 1108, abs=1e-12)


def test_ipu_values_equal_the_relevance_list_definition(rand_index):
    # ipu_values reads JM scores in posting order; the definition goes
    # through the sorted relevance list and maps scores back by doc_id.
    for term in rand_index.terms():
        rel = relevance_scores(rand_index, term)
        by_doc = dict(zip(rel.doc_ids, rel.scores))
        total = math.fsum(rel.scores)
        want = [
            -(by_doc[p.doc_id] / total) * math.log(by_doc[p.doc_id] / total)
            for p in rand_index.lists[term].postings
        ]
        assert ipu_values(rand_index, term) == want, term
