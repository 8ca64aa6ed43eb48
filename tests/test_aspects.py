"""Time series extraction, FD widths, and the three aspect models."""
import random
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    hf2_quantile,
    multi_window_corpus,
    oracle_doc_aspect_map,
    oracle_fd_width,
    oracle_term_time_series,
    oracle_tile_starts,
    span_walk_tile_starts,
)
from tempoprune.aspects import (
    ASPECT_MODELS,
    Aspect,
    AspectSet,
    TermTimeSeries,
    build_aspect_sets,
    component_window,
    doc_aspect_map,
    dynamic_windows,
    fd_window_size,
    index_time_hull,
    round_half_up,
    simple_windows,
    sliding_windows,
    smooth,
    term_aspects,
    term_time_series,
)
from tempoprune import aspects as aspects_module
from tempoprune.corpus import Corpus, Document
from tempoprune.errors import PruneError, TermNotFoundError
from tempoprune.index import build_index
from tempoprune.synth import random_corpus
from tempoprune.timewindows import TimeWindow, intersect


def weight_sum(aset: AspectSet) -> float:
    return sum(a.weight for a in aset.aspects)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(-0.5) == 0
    assert round_half_up(-0.51) == -1


# --- time series -------------------------------------------------------------


def _dated(doc_id, tokens, day):
    return Document(doc_id, tokens, frozenset({TimeWindow.instant(day)}))


def test_series_single_doc():
    idx = build_index(Corpus(documents=[_dated("d1", ["x", "x", "x"], 100)]))
    assert term_time_series(idx, "x").counts == {100: 3}


def test_series_sums_same_day():
    idx = build_index(
        Corpus(documents=[_dated("d1", ["x"], 40), _dated("d2", ["x", "x", "y"], 40)])
    )
    assert term_time_series(idx, "x").counts == {40: 3}


def test_series_one_contribution_per_window():
    doc = Document(
        "d1",
        ["x", "x"],
        frozenset({TimeWindow.certain(0, 10), TimeWindow.certain(100, 110)}),
    )
    idx = build_index(Corpus(documents=[doc]))
    # midpoints of [0,10] and [100,110]
    assert term_time_series(idx, "x").counts == {5: 2, 105: 2}


def test_series_skips_undated_docs():
    idx = build_index(
        Corpus(documents=[_dated("d1", ["x"], 7), Document("d2", ["x"])])
    )
    series = term_time_series(idx, "x")
    assert series.counts == {7: 1}
    assert series.n_points == 1


def test_series_unknown_term():
    idx = build_index(Corpus(documents=[_dated("d1", ["x"], 0)]))
    with pytest.raises(TermNotFoundError):
        term_time_series(idx, "zzz")


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_series_matches_per_posting_oracle(seed):
    # undated, uncertain and multi-window documents
    index = build_index(multi_window_corpus(seed))
    for term in index.terms():
        assert term_time_series(index, term).counts == oracle_term_time_series(index, term)


def test_series_matches_corpus_recount(rand_corpus, rand_index):
    term = "disaster"
    expected: dict[int, int] = {}
    for doc in rand_corpus.documents:
        tf = doc.tokens.count(term)
        if tf == 0:
            continue
        for w in doc.time_part:
            expected[w.midpoint] = expected.get(w.midpoint, 0) + tf
    assert term_time_series(rand_index, term).counts == expected


def test_series_span():
    series = TermTimeSeries(term="t", counts={5: 1, 30: 2})
    assert series.span == (5, 30)
    assert series.n_points == 3
    with pytest.raises(ValueError):
        TermTimeSeries(term="t", counts={}).span


# --- Freedman-Diaconis -------------------------------------------------------


def test_fd_four_consecutive_days():
    series = TermTimeSeries(term="t", counts={0: 1, 1: 1, 2: 1, 3: 1})
    # IQR = 2 under averaged-inverted-CDF quartiles; ceil(2*2*4^(-1/3)) = 3
    assert fd_window_size(series) == 3


def test_fd_single_day_fallback():
    assert fd_window_size(TermTimeSeries(term="t", counts={42: 17})) == 1


def test_fd_uniform_sample_matches_oracle():
    rng = np.random.default_rng(123)
    days = rng.integers(0, 100, size=1000)
    counts: dict[int, int] = {}
    for d in days:
        counts[int(d)] = counts.get(int(d), 0) + 1
    series = TermTimeSeries(term="t", counts=counts)
    assert fd_window_size(series) == oracle_fd_width(days.tolist())


_TIED_DAYS = st.lists(st.integers(-3, 3), min_size=1, max_size=48)


@given(st.one_of(
    st.lists(st.integers(-500, 500), min_size=1, max_size=60),
    _TIED_DAYS,
    # n a multiple of 4, so both quartiles average two neighbouring days
    _TIED_DAYS.map(lambda days: days + days[:1] * (-len(days) % 4)),
))
@example([0, 0, 5, 5])
@example([0, 5, 5, 5])
@example([0, 0, 0, 1, 9, 9, 9, 9])
@example([0] + [1] * 7)
def test_fd_matches_oracle(days):
    counts: dict[int, int] = {}
    for d in days:
        counts[d] = counts.get(d, 0) + 1
    series = TermTimeSeries(term="t", counts=counts)
    got = fd_window_size(series)
    assert got == oracle_fd_width(days)
    assert got >= 1
    # the oracle's quartiles are numpy's averaged-inverted-CDF ones
    xs = sorted(days)
    assert [hf2_quantile(xs, 0.25), hf2_quantile(xs, 0.75)] == np.percentile(
        xs, [25.0, 75.0], method="averaged_inverted_cdf").tolist()


# --- tiled aspect models -----------------------------------------------------


def test_simple_windows_drops_empty_tiles():
    series = TermTimeSeries(term="t", counts={0: 1, 1: 1, 9: 1})
    aset = simple_windows(series, 5)
    assert [a.window for a in aset.aspects] == [
        TimeWindow.certain(0, 4),
        TimeWindow.certain(5, 9),
    ]
    assert [a.weight for a in aset.aspects] == [0.5, 0.5]
    assert all(a.center is None for a in aset.aspects)


def test_simple_windows_single_day():
    aset = simple_windows(TermTimeSeries(term="t", counts={7: 3}), 10)
    assert len(aset.aspects) == 1
    assert aset.aspects[0].weight == 1.0


def test_sliding_windows_half_overlap():
    series = TermTimeSeries(term="t", counts={d: 1 for d in range(10)})
    aset = sliding_windows(series, 4)
    assert [a.window.b_lo for a in aset.aspects] == [0, 2, 4, 6, 8]
    for day in range(10):
        covering = [a for a in aset.aspects if a.window.b_lo <= day <= a.window.e_hi]
        assert 1 <= len(covering) <= 2


def test_sliding_gamma_one_degenerates_to_unit_tiles():
    series = TermTimeSeries(term="t", counts={0: 1, 1: 1, 2: 1})
    aset = sliding_windows(series, 1)
    assert [a.window for a in aset.aspects] == [TimeWindow.instant(d) for d in range(3)]


@given(
    st.dictionaries(st.integers(0, 200), st.integers(1, 5), min_size=1, max_size=40),
    st.integers(1, 30),
)
def test_simple_tiling_properties(counts, gamma):
    series = TermTimeSeries(term="t", counts=counts)
    aset = simple_windows(series, gamma)
    lo = min(counts)
    assert weight_sum(aset) == pytest.approx(1.0)
    for a in aset.aspects:
        s = a.window.b_lo
        assert (s - lo) % gamma == 0
        assert a.window.e_hi == s + gamma - 1
        assert any(s <= d <= s + gamma - 1 for d in counts)
    # each day with mass lies in exactly one tile
    for day in counts:
        hits = [a for a in aset.aspects if a.window.b_lo <= day <= a.window.e_hi]
        assert len(hits) == 1


@given(
    st.dictionaries(st.integers(0, 200), st.integers(1, 5), min_size=1, max_size=40),
    st.integers(1, 30),
)
def test_sliding_tiling_properties(counts, gamma):
    series = TermTimeSeries(term="t", counts=counts)
    aset = sliding_windows(series, gamma)
    step = max(1, gamma // 2)
    assert weight_sum(aset) == pytest.approx(1.0)
    for a in aset.aspects:
        assert (a.window.b_lo - min(counts)) % step == 0
    for day in counts:
        hits = [a for a in aset.aspects if a.window.b_lo <= day <= a.window.e_hi]
        assert 1 <= len(hits) <= max(1, (gamma + step - 1) // step)


@given(
    st.dictionaries(st.integers(-50, 400), st.integers(1, 3), min_size=1, max_size=30),
    st.integers(1, 40),
)
def test_tile_starts_match_scan_oracle(counts, gamma):
    series = TermTimeSeries(term="t", counts=counts)
    simple = simple_windows(series, gamma)
    sliding = sliding_windows(series, gamma)
    assert [a.window.b_lo for a in simple.aspects] == oracle_tile_starts(series, gamma, gamma)
    assert [a.window.b_lo for a in sliding.aspects] == oracle_tile_starts(
        series, gamma, max(1, gamma // 2))


def _random_series(rng: random.Random) -> TermTimeSeries:
    """Days drawn with repeats, some of them next to a drawn day, around a
    base that may lie before the epoch; counts are the draws per day."""
    base = rng.choice([-400, -3, 0, 77])
    width = rng.choice([1, 6, 60, 700])
    days = [base + rng.randint(0, width) for _ in range(rng.randint(1, 12))]
    days += rng.choices(days, k=rng.randint(0, 4)) + [d + 1 for d in rng.choices(days, k=rng.randint(0, 4))]
    counts: dict[int, int] = {}
    for d in days:
        counts[d] = counts.get(d, 0) + 1
    return TermTimeSeries(term="t", counts=counts)


def test_tiles_match_the_span_walk_on_random_series():
    rng = random.Random(24)
    for _ in range(5000):
        series = _random_series(rng)
        gamma = rng.choice([1, 2, 3, rng.randint(4, 80), fd_window_size(series)])
        for tiling, step in ((simple_windows, gamma), (sliding_windows, max(1, gamma // 2))):
            aset = tiling(series, gamma)
            starts = span_walk_tile_starts(series, gamma, step)
            assert [a.window for a in aset.aspects] == [TimeWindow.certain(b, b + gamma - 1) for b in starts]
            assert [a.weight for a in aset.aspects] == [1.0 / len(starts)] * len(starts)


@pytest.mark.parametrize("gamma, simple, sliding", [
    (1, [(-719162, -719162), (2932896, 2932896)], [(-719162, -719162), (2932896, 2932896)]),
    (1000, [(-719162, -718163), (2932838, 2933837)],
     [(-719162, -718163), (2932338, 2933337), (2932838, 2933837)]),
    (5797281, [(-719162, 5078118)], [(-719162, 5078118), (2179478, 7976758)]),
])
def test_tiles_at_the_iso_range_ends(gamma, simple, sliding):
    # 0001-01-01 and 9999-12-31: one or two kept tiles, 3.65 million steps apart
    series = TermTimeSeries(term="t", counts={-719162: 1, 2932896: 1})
    assert fd_window_size(series) == 5797281
    for tiling, want in ((simple_windows, simple), (sliding_windows, sliding)):
        assert [a.window for a in tiling(series, gamma).aspects] == [TimeWindow.certain(*w) for w in want]


def test_far_dated_days_keep_one_tile_each():
    series = TermTimeSeries(term="t", counts={-700000: 1, 0: 1, 1: 1, 2: 1, 3: 1, 700000: 1})
    for tiling in (simple_windows, sliding_windows):
        assert [a.window for a in tiling(series, 1).aspects] == [
            TimeWindow.instant(d) for d in sorted(series.counts)]
    assert [a.window.b_lo for a in simple_windows(series, 4).aspects] == [-700000, 0, 700000]


def test_tiled_windows_reject_bad_gamma():
    series = TermTimeSeries(term="t", counts={0: 1})
    with pytest.raises(PruneError, match="gamma must be >= 1, got 0"):
        simple_windows(series, 0)
    with pytest.raises(PruneError, match="gamma must be >= 1, got 0"):
        sliding_windows(series, 0)


# --- dynamic aspects ---------------------------------------------------------


def test_component_window():
    assert component_window(50.0, 10.0) == TimeWindow.certain(40, 60)
    assert component_window(10.2, 0.4) == TimeWindow.certain(10, 11)


def test_dynamic_single_spike():
    series = TermTimeSeries(term="t", counts={50: 30})
    aset = dynamic_windows(series, k_max=3, seed=0)
    assert len(aset.aspects) == 1
    assert aset.aspects[0].weight == pytest.approx(1.0)
    assert aset.aspects[0].center == pytest.approx(50.0)


def test_dynamic_weights_match_mixture():
    from tempoprune.gmm import select_k_bic

    rng = np.random.default_rng(5)
    days = np.concatenate(
        [rng.normal(100, 3, 300), rng.normal(400, 3, 200)]
    ).round().astype(int)
    counts: dict[int, int] = {}
    for d in days:
        counts[int(d)] = counts.get(int(d), 0) + 1
    series = TermTimeSeries(term="t", counts=counts)
    fit = select_k_bic(series, k_max=5, seed=9)
    aset = dynamic_windows(series, k_max=5, seed=9)
    assert len(aset.aspects) == fit.k == 2
    for a, pi in zip(aset.aspects, fit.weights):
        assert a.weight == pytest.approx(float(pi), abs=1e-6)
    assert weight_sum(aset) == pytest.approx(1.0, abs=1e-9)


# --- smoothing ---------------------------------------------------------------


def _two_aspect_set():
    return AspectSet(
        term="t",
        aspects=[
            Aspect(window=TimeWindow.certain(0, 9), weight=0.5),
            Aspect(window=TimeWindow.certain(10, 19), weight=0.5),
        ],
        doc_map={"d1": (0,), "d2": (1,)},
        span=(0, 19),
    )


def test_smooth_arithmetic():
    smoothed = smooth(_two_aspect_set(), 0.3)
    weights = [a.weight for a in smoothed.aspects]
    assert weights == pytest.approx([0.35, 0.35, 0.3])
    assert smoothed.aspects[-1].is_global
    assert smoothed.aspects[-1].window == TimeWindow.certain(0, 19)
    assert smoothed.global_index == 2
    assert smoothed.doc_map == {"d1": (0, 2), "d2": (1, 2)}
    assert weight_sum(smoothed) == pytest.approx(1.0, abs=1e-9)


def test_smooth_zero_is_noop():
    aset = _two_aspect_set()
    assert smooth(aset, 0.0) is aset


def test_smooth_validation():
    with pytest.raises(PruneError, match=r"lambda_w must be in \[0, 1\), got 1.0"):
        smooth(_two_aspect_set(), 1.0)
    with pytest.raises(PruneError, match=r"lambda_w must be in \[0, 1\), got -0.1"):
        smooth(_two_aspect_set(), -0.1)
    with pytest.raises(ValueError):
        smooth(smooth(_two_aspect_set(), 0.3), 0.3)  # already smoothed


@given(st.floats(0.01, 0.99))
def test_smooth_weight_sum_invariant(lam):
    smoothed = smooth(_two_aspect_set(), lam)
    assert weight_sum(smoothed) == pytest.approx(1.0, abs=1e-9)
    assert smoothed.aspects[-1].weight == pytest.approx(lam)


# --- document-to-aspect mapping ----------------------------------------------


def test_doc_map_simple_and_global():
    docs = [_dated("d1", ["x"], 3), _dated("d2", ["x"], 15)]
    idx = build_index(Corpus(documents=docs))
    aset = smooth(_two_aspect_set(), 0.3)
    mapped = doc_aspect_map(aset, idx, "x")
    assert mapped.doc_map == {"d1": (0, 2), "d2": (1, 2)}


def test_doc_map_doc_spanning_two_windows():
    doc = Document("d1", ["x"], frozenset({TimeWindow.certain(8, 12)}))
    idx = build_index(Corpus(documents=[doc]))
    mapped = doc_aspect_map(_two_aspect_set(), idx, "x")
    assert mapped.doc_map == {"d1": (0, 1)}


def test_doc_map_dynamic_nearest_center_fallback():
    aset = AspectSet(
        term="x",
        aspects=[
            Aspect(window=TimeWindow.certain(40, 60), weight=0.5, center=50.0),
            Aspect(window=TimeWindow.certain(90, 110), weight=0.5, center=100.0),
        ],
        span=(40, 110),
    )
    idx = build_index(Corpus(documents=[_dated("d1", ["x"], 200)]))
    mapped = doc_aspect_map(aset, idx, "x")
    assert mapped.doc_map == {"d1": (1,)}  # closer to mean 100 than to 50


def test_doc_map_undated_doc_gets_only_global():
    idx = build_index(Corpus(documents=[Document("d1", ["x"])]))
    aset = smooth(_two_aspect_set(), 0.3)
    mapped = doc_aspect_map(aset, idx, "x")
    assert mapped.doc_map == {"d1": (2,)}


def test_doc_map_matches_brute_force(rand_index):
    aspect_sets = build_aspect_sets(rand_index, model="sliding", lambda_w=0.3)
    for term in list(rand_index.terms())[:40]:
        aset = aspect_sets[term]
        gi = aset.global_index
        for p in rand_index.lists[term].postings:
            windows = rand_index.doc_times.get(p.doc_id, frozenset())
            expected = {
                i
                for i, a in enumerate(aset.aspects)
                if not a.is_global
                and any(intersect(a.window, w) is not None for w in windows)
            }
            if gi is not None:
                expected.add(gi)
            assert aset.doc_map[p.doc_id] == tuple(sorted(expected))


@st.composite
def _windows(draw, lo, hi):
    """A window with its start in [lo, hi]; start and end ranges are
    uncertain about half of the time."""
    b_lo = draw(st.integers(lo, hi))
    e_hi = b_lo + draw(st.integers(0, 20))
    b_hi = b_lo + draw(st.sampled_from([0, 0, 1, 6]))
    e_lo = e_hi - draw(st.sampled_from([0, 0, 1, 6]))
    return TimeWindow(b_lo, b_hi, e_lo, e_hi)


@st.composite
def _hand_built_aspect_set(draw):
    """Aspects in any order, overlapping or not, ends not monotone in the
    start; some sets carry centres (with ties) for the nearest-centre
    fallback; a global aspect at any position, or none."""
    centred = draw(st.booleans())
    windows = draw(st.lists(_windows(0, 60), max_size=6))
    aspects = [
        Aspect(window=w, weight=1.0,
               center=draw(st.integers(0, 160)) / 2.0 if centred else None)
        for w in windows
    ]
    gi = draw(st.none() | st.integers(0, len(aspects)))
    if gi is not None:
        aspects.insert(gi, Aspect(window=TimeWindow.certain(0, 80), weight=1.0, is_global=True))
    return AspectSet(term="x", aspects=aspects, span=(0, 80))


@given(
    _hand_built_aspect_set(),
    # documents may lie outside the aspects' span; no window means undated
    st.lists(st.lists(_windows(-15, 75), max_size=3), min_size=1, max_size=8),
)
def test_doc_map_matches_scan_oracle(aset, doc_windows):
    docs = [Document(f"d{i}", ["x"], frozenset(ws)) for i, ws in enumerate(doc_windows)]
    idx = build_index(Corpus(documents=docs))
    assert doc_aspect_map(aset, idx, "x").doc_map == oracle_doc_aspect_map(aset, idx, "x")


@given(
    st.dictionaries(st.integers(-40, 60), st.integers(1, 3), min_size=1, max_size=12),
    st.integers(1, 15),
    st.sampled_from([simple_windows, sliding_windows]),
    st.sampled_from([0.0, 0.3]),
    st.data(),
)
def test_tiled_doc_map_matches_scan_oracle(counts, gamma, tiling, lam, data):
    # pre-epoch days; documents with several, uncertain or no windows; and
    # window bounds drawn from the tile edges, so hulls end on them
    aset = smooth(tiling(TermTimeSeries(term="x", counts=counts), gamma), lam)
    edges = sorted({e + k for a in aset.aspects for e in (a.window.b_lo, a.window.e_hi) for k in (-1, 0, 1)})
    day = st.sampled_from(edges) | st.integers(-60, 80)
    window = (st.tuples(day, day).map(sorted).map(lambda b: TimeWindow.certain(*b))
              | st.tuples(day, day, day, day).map(sorted).map(lambda b: TimeWindow(*b))
              | _windows(-60, 80))
    doc_windows = data.draw(st.lists(st.lists(window, max_size=3), min_size=1, max_size=8))
    docs = [Document(f"d{i}", ["x"], frozenset(ws)) for i, ws in enumerate(doc_windows)]
    idx = build_index(Corpus(documents=docs))
    assert doc_aspect_map(aset, idx, "x").doc_map == oracle_doc_aspect_map(aset, idx, "x")


def test_doc_map_takes_the_range_for_tilings_and_stabbing_otherwise(monkeypatch):
    stabbed = []
    real = aspects_module.Stabbing
    monkeypatch.setattr(aspects_module, "Stabbing", lambda intervals: stabbed.append(1) or real(intervals))
    idx = build_index(multi_window_corpus(3))
    for model in ASPECT_MODELS:
        stabbed.clear()
        sets = build_aspect_sets(idx, model, seed=3, k_max=3)
        for term, aset in sets.items():
            assert aset.doc_map == oracle_doc_aspect_map(aset, idx, term)
        assert bool(stabbed) == (model == "dynamic")


def test_doc_map_touching_and_uncertain_windows():
    aset = smooth(_two_aspect_set(), 0.3)  # [0, 9], [10, 19], global [0, 19]
    docs = [
        Document("touch_end", ["x"], frozenset({TimeWindow.certain(9, 9)})),
        Document("touch_both", ["x"], frozenset({TimeWindow.certain(9, 10)})),
        Document("before", ["x"], frozenset({TimeWindow.certain(-5, -1)})),
        Document("touch_start", ["x"], frozenset({TimeWindow.certain(-5, 0)})),
        Document("vague", ["x"], frozenset({TimeWindow(-3, 12, 15, 30)})),
        Document("after", ["x"], frozenset({TimeWindow.instant(20)})),
    ]
    idx = build_index(Corpus(documents=docs))
    expected = {
        "touch_end": (0, 2), "touch_both": (0, 1, 2), "before": (2,),
        "touch_start": (0, 2), "vague": (0, 1, 2), "after": (2,),
    }
    assert doc_aspect_map(aset, idx, "x").doc_map == expected
    assert oracle_doc_aspect_map(aset, idx, "x") == expected


def test_doc_map_unsorted_windows_with_nested_ends():
    # a long window followed by shorter ones it contains: the ends are not
    # monotone in the start, so a document in a gap meets only the long one
    aset = AspectSet(
        term="x",
        aspects=[
            Aspect(window=TimeWindow.certain(30, 40), weight=0.25, center=35.0),
            Aspect(window=TimeWindow.certain(0, 100), weight=0.5, center=50.0),
            Aspect(window=TimeWindow.certain(10, 20), weight=0.25, center=15.0),
        ],
        span=(0, 100),
    )
    docs = [_dated("gap", ["x"], 25), _dated("inner", ["x"], 12), _dated("far", ["x"], 150),
            _dated("left", ["x"], -4)]
    idx = build_index(Corpus(documents=docs))
    expected = {"gap": (1,), "inner": (1, 2), "far": (1,), "left": (2,)}
    assert doc_aspect_map(aset, idx, "x").doc_map == expected
    assert oracle_doc_aspect_map(aset, idx, "x") == expected


@pytest.fixture(scope="module", params=[1, 7], ids=lambda seed: f"seed{seed}")
def seeded_index(request):
    return request.param, build_index(random_corpus(n_docs=300, seed=request.param, vocab_size=50))


@pytest.mark.parametrize("model", ASPECT_MODELS)
def test_doc_map_matches_scan_oracle_on_random_corpus(seeded_index, model):
    seed, index = seeded_index
    sets = build_aspect_sets(index, model, seed=seed, k_max=5)
    for term, aset in sets.items():
        assert aset.doc_map == oracle_doc_aspect_map(aset, index, term)


@pytest.mark.parametrize("model", ASPECT_MODELS)
def test_doc_map_matches_scan_oracle_on_multi_window_corpus(model):
    index = build_index(multi_window_corpus(2))
    sets = build_aspect_sets(index, model, lambda_w=0.0, seed=2, k_max=3)
    for term, aset in sets.items():
        assert aset.doc_map == oracle_doc_aspect_map(aset, index, term)


# --- whole-index construction ------------------------------------------------


def test_build_aspect_sets_covers_every_term(rand_index):
    sets = build_aspect_sets(rand_index, model="simple")
    assert sorted(sets) == rand_index.terms()
    for term, aset in sets.items():
        assert weight_sum(aset) == pytest.approx(1.0, abs=1e-9)
        for p in rand_index.lists[term].postings:
            assert p.doc_id in aset.doc_map
            assert aset.doc_map[p.doc_id]


@pytest.mark.parametrize("model", ASPECT_MODELS)
def test_build_aspect_sets_is_a_read_only_mapping_built_on_lookup(rand_index, monkeypatch, model):
    built = []
    doc_map = aspects_module.doc_aspect_map

    def counted(aset, index, term):
        built.append(term)
        return doc_map(aset, index, term)

    monkeypatch.setattr(aspects_module, "doc_aspect_map", counted)
    sets = build_aspect_sets(rand_index, model, k_max=5)
    terms = rand_index.terms()
    assert isinstance(sets, Mapping) and not isinstance(sets, MutableMapping)
    assert len(sets) == len(terms)
    assert list(sets) == list(sets.keys()) == terms
    assert all(term in sets for term in terms)
    assert "no-such-term" not in sets and 3 not in sets
    assert built == []  # len, iteration and `in` build nothing
    with pytest.raises(TermNotFoundError):
        sets["no-such-term"]
    assert sets.get("no-such-term") is None
    assert all(isinstance(aset, AspectSet) for aset in sets.values())
    assert built == terms
    # a second lookup builds the set again: an equal, separate object
    again = sets["disaster"]
    assert again == sets["disaster"] and again is not sets["disaster"]
    assert built[len(terms):] == ["disaster"] * 3


def test_build_aspect_sets_mapped_docs_intersect_windows(rand_index):
    sets = build_aspect_sets(rand_index, model="simple")
    for term, aset in sets.items():
        for p in rand_index.lists[term].postings:
            windows = rand_index.doc_times.get(p.doc_id, frozenset())
            for i in aset.doc_map[p.doc_id]:
                a = aset.aspects[i]
                if a.is_global:
                    continue
                assert any(intersect(a.window, w) is not None for w in windows)


def test_build_aspect_sets_undated_term_goes_global():
    docs = [_dated("d1", ["x"], 10), Document("d2", ["y"]), Document("d3", ["y"])]
    idx = build_index(Corpus(documents=docs))
    sets = build_aspect_sets(idx, model="simple")
    aset = sets["y"]
    assert len(aset.aspects) == 1
    assert aset.aspects[0].is_global
    assert aset.aspects[0].weight == 1.0
    assert aset.doc_map == {"d2": (0,), "d3": (0,)}


def test_build_aspect_sets_dynamic_undated_terms_go_global():
    docs = [_dated("d1", ["x"], 10), Document("d2", ["y"]), Document("d3", ["y"])]
    sets = build_aspect_sets(build_index(Corpus(documents=docs)), model="dynamic")
    assert [(a.is_global, a.weight) for a in sets["y"].aspects] == [(True, 1.0)]
    assert [a.is_global for a in sets["x"].aspects] == [False, True]
    # no dated document at all: nothing to fit
    undated = build_aspect_sets(build_index(Corpus(documents=docs[1:])), model="dynamic")
    assert [(a.is_global, a.weight) for a in undated["y"].aspects] == [(True, 1.0)]


@pytest.mark.parametrize("n_docs, vocab, seed, k_max", [(500, 60, 0, 10), (300, 50, 1, 5)],
                         ids=["pipeline", "em-dynamic-seed1"])
def test_windows_aspects_equal_the_aspects_prune_uses(n_docs, vocab, seed, k_max):
    """`tempoprune windows` fits one term alone (`term_aspects`); prune fits
    every term in a group (`build_aspect_sets`).  On the pipeline's index and
    the em-dynamic benchmark's seed-1 index, every dated term gets the same
    windows, weights and centres from both."""
    index = build_index(random_corpus(n_docs=n_docs, seed=seed, vocab_size=vocab))
    sets = build_aspect_sets(index, "dynamic", seed=seed, k_max=k_max)
    dated = [s for s in (term_time_series(index, t) for t in index.terms()) if s.counts]
    assert len(dated) > 40
    for series in dated:
        alone = term_aspects(series, "dynamic", seed=seed, k_max=k_max)
        assert alone.aspects == sets[series.term].aspects, series.term


def test_build_aspect_sets_checks_lambda_w_before_fitting(rand_index, monkeypatch):
    monkeypatch.setattr(aspects_module, "select_k_bic_each", lambda *a, **k: pytest.fail("fitted"))
    with pytest.raises(PruneError, match=r"lambda_w must be in \[0, 1\), got 1.5"):
        build_aspect_sets(rand_index, model="dynamic", lambda_w=1.5)


def test_build_aspect_sets_rejects_unknown_model(rand_index):
    with pytest.raises(PruneError):
        build_aspect_sets(rand_index, model="fourier")


def test_term_aspects_rejects_unknown_model(rand_index):
    with pytest.raises(PruneError):
        term_aspects(term_time_series(rand_index, "disaster"), "fourier")


def test_index_time_hull(toy5_index):
    assert index_time_hull(toy5_index) == (100, 500)


def test_index_time_hull_over_every_window():
    index = build_index(multi_window_corpus(3))
    windows = [w for ws in index.doc_times.values() for w in ws]
    assert index_time_hull(index) == (min(w.b_lo for w in windows), max(w.e_hi for w in windows))
    assert index_time_hull(build_index(Corpus(documents=[Document("d", ["x"])]))) == (0, 0)
