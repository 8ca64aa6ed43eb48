"""Diversified greedy pruning and the three threshold baselines."""
import math
import random

import pytest

import numpy as np
from forking import Placement, assert_no_child_left, forking, in_one_process, within
from oracles import (
    ScanState,
    exact_diversify,
    exact_greedy_faults,
    make_instance,
    make_tied_instance,
    make_tune_instance,
    oracle_criterion,
    oracle_cut,
    oracle_next_best,
    oracle_optimum,
    oracle_pruning_ratio,
    oracle_relevance_order,
    oracle_threshold_values,
    oracle_tune,
    scan_diversify,
    scan_next_best,
    split_by_term,
    tcp_posting_scores,
)
from tempoprune.aspects import ASPECT_MODELS, Aspect, AspectSet, build_aspect_sets
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import PruneError, TermNotFoundError
from tempoprune.index import build_index, pruning_ratio, subset_index, write_index
from tempoprune.prune import (
    METHODS,
    RATIO_TOLERANCE,
    RelevanceList,
    SelectionState,
    cut,
    discount,
    diversified_topk_prune,
    diversify,
    k_for,
    next_best,
    posting_order,
    prune_index,
    relevance_scores,
    threshold_prune,
    threshold_values,
    tune_epsilon,
    _discounts,
    _tune,
)
from tempoprune.synth import random_corpus
from tempoprune.timewindows import TimeWindow


def _picks(rel, aset, k):
    """(docs, gains) of the first k `next_best` calls: `diversify`'s picks
    with the gain of each."""
    state = SelectionState(n_aspects=len(aset.aspects))
    picks = [next_best(rel, state, aset) for _ in range(k)]
    return [doc for doc, _ in picks], [gain for _, gain in picks]


def global_only_aspects(term, doc_ids):
    return AspectSet(
        term=term,
        aspects=[Aspect(window=TimeWindow.certain(0, 1000), weight=1.0, is_global=True)],
        doc_map={d: (0,) for d in doc_ids},
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


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
def test_relevance_order_matches_the_tuple_sort_on_ties(lam):
    # equal tf/|d| in docs of lengths 2, 4 and 6, and doc ids whose string
    # order is not their numeric order; at lam = 1 every score ties
    docs = [Document(f"d{i}", ["t"] * (i % 3 + 1) + ["u"] * (i % 3 + 1)) for i in range(12)]
    docs += [Document("e1", ["t", "t", "t", "v"]), Document("e0", ["t", "v", "v", "v"])]
    idx = build_index(Corpus(documents=docs))
    want = oracle_relevance_order(idx, "t", lam)
    got = relevance_scores(idx, "t", lam)
    assert (got.doc_ids, got.scores) == (want.doc_ids, want.scores)
    assert len(set(got.scores)) < len(got) - 4


def test_relevance_order_matches_the_tuple_sort_on_random_corpora(rand_index):
    for lam in (0.6, 1.0):
        for term in rand_index.terms():
            want = oracle_relevance_order(rand_index, term, lam)
            got = relevance_scores(rand_index, term, lam)
            assert (got.doc_ids, got.scores) == (want.doc_ids, want.scores)


def test_shared_discount_table_is_discount_bit_for_bit():
    small = list(_discounts(5))
    table = _discounts(3000)
    assert table is _discounts(10) and len(table) > 3000 and math.isnan(table[0])
    assert table[:len(small)][1:] == small[1:]
    assert [x.hex() for x in table[1:3001]] == [discount(j).hex() for j in range(1, 3001)]


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
            # the heap holds one entry per signature group with an unselected
            # doc: the group's first unselected position
            heads: dict[tuple[int, ...], int] = {}
            for d in rel.doc_ids:
                if d not in selected:
                    heads.setdefault(aset.doc_map[d], pos[d])
            assert sorted(p for _, p, _ in state.heap) == sorted(heads.values())


def test_next_best_tie_prefers_higher_score_then_doc_id():
    rel = RelevanceList(term="t", doc_ids=["da", "db", "dc"], scores=[0.5, 0.5, 0.2])
    aset = global_only_aspects("t", rel.doc_ids)
    state = SelectionState(n_aspects=1)
    assert next_best(rel, state, aset)[0] == "da"
    assert next_best(rel, state, aset)[0] == "db"
    assert next_best(rel, state, aset)[0] == "dc"


def test_diversify_gains_telescope_and_diminish():
    for seed in range(25):
        rel, aset = make_instance(seed)
        order, gains = _picks(rel, aset, len(rel))
        assert math.fsum(gains) == pytest.approx(oracle_criterion(order, rel, aset), abs=1e-9)
        for a, b in zip(gains, gains[1:]):
            assert b <= a + 1e-12
        assert sorted(order) == sorted(rel.doc_ids)


def test_diversify_greedy_meets_bound():
    # greedy >= (1 - 1/e) * optimum on small instances
    bound = 1.0 - 1.0 / math.e
    for seed in range(20):
        rel, aset = make_instance(seed, max_docs=8, max_aspects=3)
        k = min(3, len(rel))
        _, gains = _picks(rel, aset, k)
        assert math.fsum(gains) >= bound * oracle_optimum(rel, aset, k) - 1e-12


def test_diversify_rejects_negative_k():
    # and a k beyond the list: `k_for` is the one budget clamp
    rel, aset = make_instance(4)
    for k in (-1, len(rel) + 1, len(rel) + 10):
        with pytest.raises(PruneError, match=rf"k must be in \[0, {len(rel)}\]"):
            diversify(rel, aset, k)
    assert len(diversify(rel, aset, len(rel))) == len(rel)


def test_diversify_single_global_aspect_is_relevance_topk():
    for seed in range(10):
        rel, _ = make_instance(seed)
        aset = global_only_aspects(rel.term, rel.doc_ids)
        k = max(1, len(rel) // 2)
        assert diversify(rel, aset, k) == rel.doc_ids[:k]


# --- lazy greedy against the full-list scan ----------------------------------


def test_lazy_greedy_matches_scan_on_tied_instances():
    # bit for bit where the orders agree; where rounding flips a pick of the
    # float scan, greedy in exact arithmetic decides
    rng = random.Random(0)
    flipped = 0
    for seed in range(2000):
        rel, aset = make_tied_instance(seed)
        k = rng.randint(0, len(rel))
        order, gains = scan_diversify(rel, aset, k)
        picks = _picks(rel, aset, k)
        assert diversify(rel, aset, k) == picks[0], seed
        if picks[0] == order:
            assert picks[1] == gains, seed
        else:
            assert exact_greedy_faults(rel, aset, picks[0]) == [], seed
            flipped += 1
    assert flipped


def test_exact_oracle_is_the_scan_on_distinct_scores():
    for seed in range(60):
        rel, aset = make_instance(seed)
        order = exact_diversify(rel, aset, len(rel))
        assert order == scan_diversify(rel, aset, len(rel))[0], seed
        assert exact_greedy_faults(rel, aset, order) == [], seed


def test_exact_greedy_faults_name_each_step_off_the_tie_rule():
    rel = RelevanceList(term="t", doc_ids=["da", "db", "dc"], scores=[0.5, 0.5, 0.2])
    aset = global_only_aspects("t", rel.doc_ids)
    assert exact_diversify(rel, aset, 3) == ["da", "db", "dc"]
    # the lower doc of one signature first; a smaller gain, then that again
    assert exact_greedy_faults(rel, aset, ["db", "da", "dc"]) == [0]
    assert exact_greedy_faults(rel, aset, ["dc", "db", "da"]) == [0, 1]
    # docs of different signatures whose exact gains tie may come in either order
    two = AspectSet(
        term="t",
        aspects=[Aspect(window=TimeWindow.certain(10 * i, 10 * i + 9), weight=0.5) for i in range(2)],
        doc_map={"da": (0,), "db": (1,), "dc": (0, 1)},
    )
    assert exact_greedy_faults(rel, two, ["db", "da", "dc"]) == []


def test_lazy_greedy_and_scan_exhaust_together():
    for seed in range(50):
        rel, aset = make_tied_instance(seed, max_docs=12)
        lazy = SelectionState(n_aspects=len(aset.aspects))
        scan = ScanState(n_aspects=len(aset.aspects))
        for _ in range(len(rel)):
            assert next_best(rel, lazy, aset) == scan_next_best(rel, scan, aset)
        assert scan.selected_positions == set(range(len(rel)))
        assert scan_next_best(rel, scan, aset) is None
        assert lazy.heap == []


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
        picks = _picks(rel, aspect_sets[term], max(ks))
        if picks[0] != order:
            # rounding flipped a pick of the float scan: exact arithmetic decides
            assert exact_greedy_faults(rel, aspect_sets[term], picks[0]) == [], term
            order, gains = picks
        for keep, k in zip(scan_keep, ks):
            assert diversify(rel, aspect_sets[term], k) == order[:k], term
            assert _picks(rel, aspect_sets[term], k) == (order[:k], gains[:k]), term
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


@pytest.mark.parametrize(("seed", "ratio", "term"), [(1, 0.3, "w025"), (7, 0.7, "w008")])
def test_prune_keeps_the_exact_greedy_set_where_rounding_flipped_a_pick(seed, ratio, term):
    # two docs of one signature with equal scores have equal exact gains but
    # float gains an ulp apart; the float scan, like the lazy greedy before
    # signature-group heads, picked the lower one first and kept another set
    index = build_index(random_corpus(n_docs=300, seed=seed, vocab_size=500))
    aspect_sets = build_aspect_sets(index, "sliding")
    rel = relevance_scores(index, term)
    k = k_for(len(rel), ratio=ratio)
    exact = exact_diversify(rel, aspect_sets[term], k)
    assert set(scan_diversify(rel, aspect_sets[term], k)[0]) != set(exact)
    assert diversify(rel, aspect_sets[term], k) == exact
    pruned, _ = prune_index(index, "div-sliding", ratio=ratio, aspect_sets=aspect_sets)
    assert set(pruned.lists[term].doc_ids) == set(exact)


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
            want = diversify(rel, aset, k)
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
    in_one_process(monkeypatch)  # the picks are counted in this process

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


def _tied_index(seed=0, n_docs=240):
    """Documents of four tokens from twelve words on twenty days: every list
    has tied relevance scores, and documents share aspects."""
    rng = random.Random(seed)
    return build_index(Corpus(documents=[
        Document(f"d{i:03d}", [f"w{rng.randrange(12)}" for _ in range(4)],
                 frozenset({TimeWindow.instant(rng.randrange(0, 400, 20))}))
        for i in range(n_docs)
    ]))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("model", ["simple", "sliding"])
def test_forked_greedy_orders_equal_the_in_process_orders(monkeypatch, cpus, model):
    index = _tied_index()
    aspect_sets = build_aspect_sets(index, model)
    assert all(len(set(relevance_scores(index, t).scores)) < index.stats.df[t] for t in index.terms())
    for depth in (lambda n: n, lambda n: k_for(n, ratio=0.3)):
        in_one_process(monkeypatch)
        alone = posting_order(index, f"div-{model}", aspect_sets, depth)
        forks = forking(monkeypatch, cpus)
        with within(60):
            forked = posting_order(index, f"div-{model}", aspect_sets, depth)
        assert len(forks) == cpus - 1
        assert forked == alone
        assert_no_child_left()


@pytest.mark.parametrize("model", ASPECT_MODELS)
def test_a_forked_prune_builds_each_aspect_set_where_its_term_is_pruned(monkeypatch, tmp_path, model):
    """A forked div-* prune writes the index and manifest of the same prune
    over aspect sets all built beforehand in this process, while this
    process builds only its share of the sets.  This process holds in its
    first task until a child has run one."""
    from tempoprune import aspects, cli, gmm, prune

    index = _tied_index()
    write_index(index, str(tmp_path / "idx.bin"))
    argv = ["prune", "--in", str(tmp_path / "idx.bin"), "--out", "pruned.bin",
            "--method", f"div-{model}", "--ratio", "0.3", "--k-max", "5"]
    build = cli.build_aspect_sets

    def built_here(*args):
        sets = build(*args)
        return {t: sets[t] for t in sets}

    in_one_process(monkeypatch)
    monkeypatch.setattr(cli, "build_aspect_sets", built_here)
    for side in ("alone", "forked"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "alone")
    assert cli.main(argv) == 0

    monkeypatch.setattr(cli, "build_aspect_sets", build)
    built = []  # terms whose set this process builds; a child appends to its own copy
    doc_map = aspects.doc_aspect_map

    def counted(aset, index, term):
        built.append(term)
        return doc_map(aset, index, term)

    monkeypatch.setattr(aspects, "doc_aspect_map", counted)
    place = Placement(monkeypatch)
    monkeypatch.setattr(gmm, "FORK_MIN_CELLS", math.inf)  # only the greedy forks
    held = []

    def placed(rel, aset, k):
        if place.here() and not held:
            held.append(1)
            place.hold()
        try:
            return diversify(rel, aset, k)
        finally:
            if not place.here():
                place.ran()

    monkeypatch.setattr(prune, "diversify", placed)
    monkeypatch.chdir(tmp_path / "forked")
    try:
        with within(60):
            assert cli.main(argv) == 0
    finally:
        place.close()
    assert len(place.forks) == 1
    assert 0 < len(built) < len(index.terms())
    for name in ("pruned.bin", "pruned.bin.manifest.json"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    assert_no_child_left()


def test_a_prune_error_in_a_worker_is_the_one_the_serial_loop_raises_first(monkeypatch):
    """Every term of the shortest list length asks for one pick too many.
    This process holds in its first claim until a child has run the first
    failing term in order."""
    from tempoprune import prune, workers

    index = _tied_index()
    aspect_sets = build_aspect_sets(index, "simple")
    terms = index.terms()
    sizes = [index.stats.df[t] for t in terms]
    short = min(sizes)

    def depth(n):
        return n + 1 if n == short else n

    in_one_process(monkeypatch)
    with pytest.raises(PruneError) as serial:
        posting_order(index, "div-simple", aspect_sets, depth)
    failing = terms[sizes.index(short)]
    assert f"{failing!r}, got {short + 1}" in str(serial.value)
    first_claim = workers._claims([n * depth(n) for n in sizes])[0][0]
    assert sizes[first_claim] != short
    place = Placement(monkeypatch, cpus=3)
    held = []

    def placed(rel, aset, k):
        if place.here() and not held:
            held.append(1)
            place.hold()
        try:
            return diversify(rel, aset, k)
        finally:
            if rel.term == failing and not place.here():
                place.ran()

    monkeypatch.setattr(prune, "diversify", placed)
    try:
        with within(60), pytest.raises(PruneError) as forked:
            posting_order(index, "div-simple", aspect_sets, depth)
    finally:
        place.close()
    assert type(forked.value) is PruneError
    assert str(forked.value) == str(serial.value)
    assert_no_child_left()


# --- threshold baselines -----------------------------------------------------


def test_tcp_scores_toy5(toy5_index, baseline_oracle):
    scores = tcp_posting_scores(toy5_index, "apple")
    postings = toy5_index.lists["apple"].postings
    idf = math.log(5 / 4)
    assert scores == pytest.approx([2 * idf, idf, 2 * idf, idf])
    for p, s in zip(postings, scores):
        want = float(baseline_oracle[("apple", p.doc_id)]["tcp_score"])
        assert s == pytest.approx(want, abs=1e-9)


def test_tcp_cutoff(toy5_index):
    # apple's tfs are 2, 1, 2, 1: z is the k-th highest score, or the
    # minimum when the list is shorter than k
    idf = math.log(5 / 4)
    for zk, z in ((1, 2 * idf), (2, 2 * idf), (3, idf), (4, idf), (10, idf)):
        values = split_by_term(toy5_index, threshold_values(toy5_index, "tcp", zk=zk))
        assert values["apple"] == [2 * idf / z, idf / z, 2 * idf / z, idf / z], zk
    with pytest.raises(PruneError, match="k must be >= 1"):
        threshold_values(toy5_index, "tcp", zk=0)


def test_ipu_uniform_lists():
    # equal scores: q = 1/n, A = (1/n) ln n for every posting
    docs = [Document(f"d{i}", ["t", "x"]) for i in range(4)]
    idx = build_index(Corpus(documents=docs))
    values = split_by_term(idx, threshold_values(idx, "ipu"))["t"]
    assert values == pytest.approx([0.25 * math.log(4.0)] * 4)


def _assert_values_match_oracle_csv(index, baseline_oracle, method, column):
    values = split_by_term(index, threshold_values(index, method))
    for term in index.terms():
        for doc_id, v in zip(index.lists[term].doc_ids, values[term]):
            want = float(baseline_oracle[(term, doc_id)][column])
            assert v == pytest.approx(want, abs=1e-9)


def test_ipu_matches_oracle_csv(toy5_index, baseline_oracle):
    _assert_values_match_oracle_csv(toy5_index, baseline_oracle, "ipu", "ipu_a")


def test_n2p2_matches_oracle_csv(toy5_index, baseline_oracle):
    _assert_values_match_oracle_csv(toy5_index, baseline_oracle, "2n2p", "n2p2_z")


def test_n2p2_degenerate_error_kept(caplog):
    idx = build_index(Corpus(documents=[Document("d1", ["t", "t"])]))
    with caplog.at_level("WARNING", logger="tempoprune.prune"):
        assert threshold_values(idx, "2n2p").tolist() == [math.inf]
    assert caplog.messages == ["2n2p('t'): kept 1 postings with degenerate z statistic"]
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
    values = split_by_term(toy5_index, threshold_values(toy5_index, "tcp", zk=2))["apple"]
    assert values == pytest.approx([1.0, 0.5, 1.0, 0.5])
    at_half = threshold_prune(toy5_index, "tcp", 0.5, zk=2)
    assert _retained(at_half, "apple") == {"d1", "d2", "d3", "d5"}
    above = threshold_prune(toy5_index, "tcp", 0.5 + 1e-9, zk=2)
    assert _retained(above, "apple") == {"d1", "d3"}


def test_tcp_all_kept_when_cutoff_nonpositive():
    # single-doc collection: idf = ln(1/1) = 0, so z_t = 0 and nothing prunes
    idx = build_index(Corpus(documents=[Document("d1", ["t", "u"])]))
    values = split_by_term(idx, threshold_values(idx, "tcp"))
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


@pytest.mark.parametrize("method", sorted(METHODS))
def test_jm_lambda_is_checked_before_any_term_is_scored(toy5_index, monkeypatch, method):
    from tempoprune import prune

    model = METHODS[method].aspect_model
    aspect_sets = build_aspect_sets(toy5_index, model) if model else None
    level = {"k": 2} if model else {"epsilon": 0.0}
    for lam in (0.0, 1.0):  # the bounds themselves score
        prune_index(toy5_index, method, aspect_sets=aspect_sets, lam=lam, **level)

    def never(*args, **kwargs):
        raise AssertionError("a term scored with an out-of-range lambda")

    monkeypatch.setattr(prune, "relevance_scores", never)
    monkeypatch.setattr(prune, "threshold_values", never)
    for lam in (-3.0, 1.5, 5.0):
        with pytest.raises(PruneError, match=rf"jm lambda must be in \[0, 1\], got {lam}"):
            prune_index(toy5_index, method, aspect_sets=aspect_sets, lam=lam, **level)


# --- exact epsilon tuning ------------------------------------------------------


def test_tune_matches_oracle_on_tied_instances():
    for seed in range(2500):
        values, method, target = make_tune_instance(seed)
        got = _tune(np.array([v for vals in values.values() for v in vals]), method, target)
        assert (got.epsilon, got.achieved) == oracle_tune(values, method, target), seed
        assert got.flagged == (abs(got.achieved - target) > RATIO_TOLERANCE), seed


@pytest.mark.parametrize("method", ["tcp", "ipu", "2n2p"])
def test_tune_epsilon_matches_oracle_on_a_real_index(seed4_index, method):
    values = oracle_threshold_values(seed4_index, method)
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
    flat = sorted(threshold_values(seed4_index, "tcp").tolist())
    assert (len(flat), flat.count(1.0 / 3.0)) == (1108, 31)
    tuned = tune_epsilon(seed4_index, "tcp", 0.2)
    assert tuned.achieved == 227 / 1108
    assert not tuned.flagged
    assert tuned.epsilon == math.nextafter(1.0 / 3.0, 1.0)
    pruned = threshold_prune(seed4_index, "tcp", tuned.epsilon)
    assert pruning_ratio(seed4_index, pruned) == pytest.approx(227 / 1108, abs=1e-12)


def test_ipu_values_equal_the_relevance_list_definition(rand_index):
    # threshold_values reads JM scores in posting order; the definition goes
    # through the sorted relevance list and maps scores back by doc_id.
    values = split_by_term(rand_index, threshold_values(rand_index, "ipu"))
    for term in rand_index.terms():
        rel = relevance_scores(rand_index, term)
        by_doc = dict(zip(rel.doc_ids, rel.scores))
        total = math.fsum(rel.scores)
        want = [
            -(by_doc[p.doc_id] / total) * math.log(by_doc[p.doc_id] / total)
            for p in rand_index.lists[term].postings
        ]
        assert values[term] == want, term


# --- the threshold array program against its per-term definitions ----------------


def _threshold_corpus(seed: int) -> Corpus:
    """Few tokens from a small vocabulary, so statistics tie within and
    across terms; "every" is in every document (tcp: idf 0, so +inf), and
    the rarest words make single-posting lists and lists shorter than zk."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(2, 12))]
    docs = []
    for i in range(rng.randint(1, 40)):
        tokens = ["every"] * rng.randint(1, 2)
        tokens += rng.choices(vocab, weights=range(len(vocab), 0, -1), k=rng.randint(0, 6))
        docs.append(Document(f"d{i:02d}", tokens))
    return Corpus(documents=docs)


def _threshold_indexes():
    """Built indexes with ties, plus one pruned index whose frozen df/ctf
    exceed its lists."""
    for seed in range(40):
        index = build_index(_threshold_corpus(seed))
        yield f"seed{seed}", index
        if seed % 8 == 0:
            yield f"seed{seed}-pruned", threshold_prune(index, "tcp", 0.6, zk=2)


def _flat(values: dict) -> list[float]:
    return [v for vals in values.values() for v in vals]


@pytest.mark.parametrize("method", ["tcp", "ipu", "2n2p"])
def test_threshold_values_equal_the_per_term_definitions(method):
    zks, lams = ((1, 2, 3, 10), (0.6,)) if method == "tcp" else ((10,), (0.6, 0.2, 1e-9))
    for name, index in _threshold_indexes():
        for zk in zks:
            for lam in lams:
                got = threshold_values(index, method, zk, lam)
                assert got.dtype == np.float64
                assert got.tolist() == _flat(oracle_threshold_values(index, method, zk, lam)), name


def test_threshold_values_equal_the_per_term_definitions_on_real_indexes(
    toy5_index, rand_index, burst_setup
):
    for index in (toy5_index, rand_index, burst_setup[2]):
        for method in ("tcp", "ipu", "2n2p"):
            want = _flat(oracle_threshold_values(index, method))
            assert threshold_values(index, method).tolist() == want, method


def test_tcp_term_in_every_document_is_kept_whole():
    index = build_index(_threshold_corpus(3))
    values = split_by_term(index, threshold_values(index, "tcp"))
    assert index.stats.df["every"] == index.stats.n_docs
    assert values["every"] == [math.inf] * index.stats.n_docs
    assert all(v < math.inf for t, vals in values.items() if t != "every" for v in vals)


def test_tcp_single_posting_and_short_lists_cut_at_their_minimum():
    index = build_index(Corpus(documents=[
        Document("d1", ["a", "a", "b", "c"]), Document("d2", ["b", "c", "c"]), Document("d3", ["c"]),
    ]))
    values = split_by_term(index, threshold_values(index, "tcp", zk=2))
    assert values["a"] == [1.0]  # one posting: z is its own score
    assert values["b"] == [1.0, 1.0]  # a tie at the 2nd highest
    idf = math.log(3 / 3)  # c is in every document
    assert idf == 0.0 and values["c"] == [math.inf] * 3
    assert values == oracle_threshold_values(index, "tcp", zk=2)


def test_n2p2_degenerate_postings_warn_once_per_term(caplog):
    # a one-term collection: ctf = |C| and tf = |d|, so every pooled
    # proportion is 1 and every standard error 0
    index = build_index(Corpus(documents=[Document(f"d{i}", ["t"] * (i + 1)) for i in range(3)]))
    with caplog.at_level("WARNING", logger="tempoprune.prune"):
        values = threshold_values(index, "2n2p")
    assert values.tolist() == _flat(oracle_threshold_values(index, "2n2p")) == [math.inf] * 3
    assert caplog.messages == ["2n2p('t'): kept 3 postings with degenerate z statistic"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="tempoprune.prune"):
        threshold_values(build_index(_threshold_corpus(5)), "2n2p")
    assert caplog.messages == []


def test_threshold_values_of_an_empty_index_are_empty(toy5_index):
    empty = subset_index(toy5_index, {})
    for method in ("tcp", "ipu", "2n2p"):
        assert threshold_values(empty, method).tolist() == []
    with pytest.raises(PruneError, match="unknown threshold method"):
        threshold_values(toy5_index, "div-simple")


def _epsilons(values: list[float]) -> list[float]:
    """Every distinct finite statistic, the floats just around each, and 0."""
    finite = sorted({v for v in values if v != math.inf})
    around = {math.nextafter(v, math.inf) for v in finite} | {math.nextafter(v, -math.inf) for v in finite}
    return sorted({0.0, *finite, *around})


@pytest.mark.parametrize("method", ["tcp", "ipu", "2n2p"])
def test_cut_and_tune_equal_their_definitions(method):
    cap = METHODS[method].epsilon_cap
    for name, index in _threshold_indexes():
        values = oracle_threshold_values(index, method)
        order = threshold_values(index, method)
        for eps in _epsilons(_flat(values)):
            if eps < 0.0 or (cap is not None and eps > cap):
                continue
            pruned, info = cut(index, method, order, epsilon=eps)
            assert info == {"epsilon": eps}
            assert pruned == oracle_cut(index, values, eps), (name, eps)
        for ratio in (0.1, 0.25, 0.5, 0.75, 0.9):
            want_eps, want_achieved = oracle_tune(values, method, ratio)
            got = _tune(order, method, ratio)
            assert (got.epsilon, got.achieved) == (want_eps, want_achieved), (name, ratio)
            pruned, info = cut(index, method, order, ratio=ratio)
            assert info["tuned"]["epsilon"] == info["epsilon"] == want_eps
            assert pruned == oracle_cut(index, values, want_eps), (name, ratio)
            assert pruning_ratio(index, pruned) == oracle_pruning_ratio(index, pruned)
            assert pruning_ratio(index, pruned) == pytest.approx(want_achieved, abs=1e-12)


def test_cut_rejects_statistics_of_another_index(toy5_index, rand_index):
    with pytest.raises(PruneError, match=r"\d+ statistics for 16 postings"):
        cut(toy5_index, "ipu", threshold_values(rand_index, "ipu"), ratio=0.5)
