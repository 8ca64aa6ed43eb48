"""Day-granularity time windows with uncertain endpoints.

A window keeps a range for its start day (b_lo..b_hi) and a range for its
end day (e_lo..e_hi).  It stands for every concrete interval [x, y] with
x in the start range, y in the end range and x <= y, which is how vague
expressions such as "in 2013" are modelled.  All day values count from
1970-01-01.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate

EPOCH = date(1970, 1, 1)


def day_number(d: date) -> int:
    """Days elapsed since 1970-01-01 (negative before the epoch)."""
    return (d - EPOCH).days


def day_to_date(day: int) -> date:
    return EPOCH + timedelta(days=day)


def day_iso(day: int) -> str:
    """Day number to its `YYYY-MM-DD` string."""
    return day_to_date(day).isoformat()


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_day(text: str) -> int:
    """`YYYY-MM-DD` date string, surrounding whitespace allowed, to day
    number.  Raises ValueError on any other form, such as the basic
    `YYYYMMDD` or week dates that some Pythons' `date.fromisoformat` takes."""
    text = text.strip()
    if not _ISO_DAY.fullmatch(text):
        raise ValueError(f"expected a YYYY-MM-DD date, got {text!r}")
    return day_number(date.fromisoformat(text))


@dataclass(frozen=True, order=True)
class TimeWindow:
    b_lo: int
    b_hi: int
    e_lo: int
    e_hi: int

    def __post_init__(self) -> None:
        if not (self.b_lo <= self.b_hi and self.e_lo <= self.e_hi and self.b_lo <= self.e_hi):
            raise ValueError(f"inconsistent window bounds {self!r}")

    @classmethod
    def certain(cls, start: int, end: int) -> "TimeWindow":
        """Window that starts exactly on `start` and ends exactly on `end`."""
        return cls(start, start, end, end)

    @classmethod
    def instant(cls, day: int) -> "TimeWindow":
        return cls(day, day, day, day)

    @property
    def hull(self) -> tuple[int, int]:
        """Smallest certain span containing every admissible interval."""
        return self.b_lo, self.e_hi

    @property
    def midpoint(self) -> int:
        """Representative day: floor midpoint of the hull."""
        return (self.b_lo + self.e_hi) // 2

    def to_iso(self, iso=day_iso) -> list[str]:
        """The four bounds as ISO dates, each formatted by `iso`."""
        return [iso(self.b_lo), iso(self.b_hi), iso(self.e_lo), iso(self.e_hi)]

    @classmethod
    def from_iso(cls, parts, day=parse_day) -> "TimeWindow":
        """The window of four ISO dates, each read by `day`."""
        if not isinstance(parts, (list, tuple)) or len(parts) != 4:
            raise ValueError(f"expected 4 ISO dates, got {parts!r}")
        b_lo, b_hi, e_lo, e_hi = (day(str(p)) for p in parts)
        return cls(b_lo, b_hi, e_lo, e_hi)


def intersect(a: TimeWindow, c: TimeWindow) -> TimeWindow | None:
    """Intersection window, or None when no admissible intervals overlap.

    Any joint interval starts at the later of the two starts and ends at
    the earlier of the two ends; the result collects the attainable bounds
    of those joint intervals.  Empty exactly when even the earliest joint
    start falls after the latest joint end.
    """
    b_lo = max(a.b_lo, c.b_lo)
    b_hi = max(a.b_hi, c.b_hi)
    e_lo = min(a.e_lo, c.e_lo)
    e_hi = min(a.e_hi, c.e_hi)
    if b_lo > e_hi:
        return None
    return TimeWindow(b_lo, b_hi, e_lo, e_hi)


def overlaps(a: TimeWindow, c: TimeWindow) -> bool:
    """`intersect(a, c) is not None`, without building the intersection.

    The result depends only on each window's hull (`b_lo`, `e_hi`): two
    windows meet exactly when each starts no later than the other ends."""
    return max(a.b_lo, c.b_lo) <= min(a.e_hi, c.e_hi)


def any_intersect(first, second) -> bool:
    """True when some window from `first` intersects some window from `second`."""
    return any(overlaps(a, b) for a in first for b in second)


class Stabbing:
    """Closed day intervals [start, end], each carrying an item, answering
    "which intervals meet [lo, hi]" by bisection.

    The intervals are sorted by (start, end, item), and `reach` is the
    running maximum of their ends.  The intervals that meet [lo, hi] lie in
    the slice from the first reach >= lo to the last start <= hi; filtering
    that slice by end >= lo is exact for any interval list, overlapping,
    nested or duplicated ones included.  Applied to window hulls this is
    `overlaps`."""

    __slots__ = ("starts", "ends", "reach", "items")

    def __init__(self, intervals) -> None:
        ordered = sorted(intervals)
        self.starts = [s for s, _, _ in ordered]
        self.ends = [e for _, e, _ in ordered]
        self.reach = list(accumulate(self.ends, max))
        self.items = [item for _, _, item in ordered]

    def meeting(self, lo: int, hi: int) -> list:
        """Items of the intervals that meet [lo, hi], in sorted order."""
        ends, items = self.ends, self.items
        return [
            items[j]
            for j in range(bisect_left(self.reach, lo), bisect_right(self.starts, hi))
            if ends[j] >= lo
        ]
