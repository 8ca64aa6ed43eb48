"""Day arithmetic and uncertain-window intersection."""
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_day_number
from tempoprune.timewindows import (
    Stabbing,
    TimeWindow,
    any_intersect,
    day_number,
    day_to_date,
    intersect,
    overlaps,
    parse_day,
)


def test_day_number_epoch_is_zero():
    assert day_number(date(1970, 1, 1)) == 0


def test_day_number_fixed_points():
    assert day_number(date(1970, 2, 1)) == 31
    assert day_number(date(1991, 1, 17)) == 7686


@given(st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31)))
def test_day_number_matches_ordinal_oracle(d):
    assert day_number(d) == oracle_day_number(d.year, d.month, d.day)


@given(st.dates(min_value=date(1, 1, 2), max_value=date(9999, 12, 31)))
def test_day_number_strictly_monotone(d):
    from datetime import timedelta

    assert day_number(d) == day_number(d - timedelta(days=1)) + 1


@given(st.integers(min_value=-700000, max_value=2900000))
def test_day_roundtrip(day):
    assert day_number(day_to_date(day)) == day


def test_parse_day():
    assert parse_day("1970-01-01") == 0
    assert parse_day(" 1991-01-17 ") == 7686
    with pytest.raises(ValueError):
        parse_day("not-a-date")


@pytest.mark.parametrize(
    "bounds",
    [(5, 4, 10, 10), (0, 0, 10, 9), (11, 12, 5, 10)],
)
def test_window_rejects_inconsistent_bounds(bounds):
    with pytest.raises(ValueError):
        TimeWindow(*bounds)


def test_window_constructors():
    w = TimeWindow.certain(3, 9)
    assert (w.b_lo, w.b_hi, w.e_lo, w.e_hi) == (3, 3, 9, 9)
    assert TimeWindow.instant(7) == TimeWindow(7, 7, 7, 7)
    assert w.hull == (3, 9)
    assert w.midpoint == 6


def test_iso_roundtrip():
    w = TimeWindow(-10, 0, 100, 200)
    assert TimeWindow.from_iso(w.to_iso()) == w
    with pytest.raises(ValueError):
        TimeWindow.from_iso(["1970-01-01", "1970-01-02"])


def test_intersect_certain_overlap():
    a = TimeWindow.certain(0, 10)
    c = TimeWindow.certain(5, 20)
    assert intersect(a, c) == TimeWindow.certain(5, 10)


def test_intersect_disjoint():
    assert intersect(TimeWindow.certain(0, 4), TimeWindow.certain(5, 9)) is None


def test_intersect_vague_year_with_contained_month():
    # "in 2013" leaves both endpoints anywhere inside the year
    y0, y1 = parse_day("2013-01-01"), parse_day("2013-12-31")
    in_2013 = TimeWindow(y0, y1, y0, y1)
    june = TimeWindow.certain(parse_day("2013-06-01"), parse_day("2013-06-30"))
    assert intersect(in_2013, june) is not None


windows = st.builds(
    lambda xs: TimeWindow(min(xs[0], xs[1]), max(xs[0], xs[1]), min(xs[2], xs[3]), max(xs[2], xs[3])),
    st.tuples(
        st.integers(-1000, 1000), st.integers(-1000, 1000),
        st.integers(-1000, 1000), st.integers(-1000, 1000),
    ).filter(lambda xs: min(xs[0], xs[1]) <= max(xs[2], xs[3])),
)


@given(windows, windows)
def test_intersect_commutative(a, c):
    assert intersect(a, c) == intersect(c, a)


@given(windows)
def test_intersect_idempotent(a):
    assert intersect(a, a) == a


@given(windows, windows)
def test_intersect_hull_contained_in_both(a, c):
    r = intersect(a, c)
    if r is None:
        return
    lo, hi = r.hull
    assert a.hull[0] <= lo and hi <= a.hull[1]
    assert c.hull[0] <= lo and hi <= c.hull[1]


@given(windows, windows)
def test_overlaps_iff_intersection_exists(a, c):
    assert overlaps(a, c) == (intersect(a, c) is not None)


def test_overlaps_touching_and_disjoint():
    assert overlaps(TimeWindow.certain(0, 4), TimeWindow.certain(4, 9))
    assert not overlaps(TimeWindow.certain(0, 4), TimeWindow.certain(5, 9))
    # vague start of `a` reaching past the end of `c` still overlaps
    assert overlaps(TimeWindow(0, 20, 30, 30), TimeWindow.certain(-5, 0))


@given(st.lists(windows, max_size=3), st.lists(windows, max_size=3))
def test_any_intersect_matches_pairwise_scan(first, second):
    expected = any(intersect(a, b) is not None for a in first for b in second)
    assert any_intersect(first, second) == expected


def test_any_intersect_empty_iterables():
    assert not any_intersect([], [TimeWindow.instant(0)])
    assert not any_intersect([TimeWindow.instant(0)], [])


# --- interval stabbing ---------------------------------------------------------

small_windows = st.builds(
    lambda xs: TimeWindow(min(xs[0], xs[1]), max(xs[0], xs[1]), min(xs[2], xs[3]), max(xs[2], xs[3])),
    st.tuples(*(st.integers(0, 40) for _ in range(4))).filter(
        lambda xs: min(xs[0], xs[1]) <= max(xs[2], xs[3])
    ),
)


@given(st.one_of(st.tuples(st.lists(small_windows, max_size=12), small_windows),
                 st.tuples(st.lists(windows, max_size=12), windows)))
def test_stabbing_matches_overlaps_scan(case):
    # in the small day range overlapping, nested and duplicate windows are
    # common; either way the list arrives unsorted
    ws, probe = case
    items = list(enumerate(ws))
    stab = Stabbing((w.b_lo, w.e_hi, i) for i, w in items)
    assert sorted(stab.meeting(probe.b_lo, probe.e_hi)) == sorted(
        i for i, w in items if overlaps(w, probe)
    )


def test_stabbing_nested_duplicate_and_touching():
    ws = [
        TimeWindow.certain(0, 100),  # long: its end stays the running reach
        TimeWindow.certain(10, 12),  # nested, ends early
        TimeWindow.certain(10, 12),  # duplicate
        TimeWindow(20, 25, 26, 30),  # uncertain: only the hull counts
        TimeWindow.instant(101),
    ]
    stab = Stabbing((w.b_lo, w.e_hi, i) for i, w in enumerate(ws))
    assert stab.meeting(50, 60) == [0]  # the nested windows before it end too early
    assert stab.meeting(12, 12) == [0, 1, 2]
    assert stab.meeting(30, 30) == [0, 3]
    assert stab.meeting(100, 101) == [0, 4]
    assert stab.meeting(102, 200) == []
    assert stab.meeting(-5, -1) == []
    assert Stabbing([]).meeting(0, 10) == []


@pytest.mark.parametrize("text", ["20130101", "2013-W01-1", "2013W011", "2013-001", "2013-1-1",
                                  "２０１３-01-01", "2013-01-01T00:00", "+2013-01-01", ""])
def test_parse_day_takes_only_yyyy_mm_dd(text):
    with pytest.raises(ValueError):
        parse_day(text)


def test_parse_day_strips_whitespace():
    assert parse_day(" 1991-01-17\n") == parse_day("1991-01-17") == 7686
