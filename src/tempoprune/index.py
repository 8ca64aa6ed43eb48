"""Inverted index: construction, verification, pruning ratio, binary I/O."""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from operator import sub
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus
from .errors import CorpusFormatError, IndexConsistencyError, IndexFormatError
from .timewindows import Stabbing, TimeWindow

MAGIC = b"TPIX"
FORMAT_VERSION = 1


class Posting(NamedTuple):
    doc_id: str
    tf: int


@dataclass
class PostingList:
    """One term's postings as two aligned columns, never empty, doc ids
    ascending and unique (`run_query` finds a document's tf by bisection)."""

    term: str
    doc_ids: list[str]
    tfs: list[int]

    @property
    def postings(self) -> list[Posting]:
        """The list as `Posting` records, built anew on each read."""
        return list(map(Posting, self.doc_ids, self.tfs))


@dataclass
class CollectionStats:
    n_docs: int
    doc_len: dict[str, int]
    total_len: int
    avgdl: float
    df: dict[str, int]
    ctf: dict[str, int]


@dataclass
class InvertedIndex:
    lists: dict[str, PostingList]
    stats: CollectionStats
    doc_times: dict[str, frozenset[TimeWindow]]
    pruned: bool = False

    def posting_count(self) -> int:
        return sum(len(pl.doc_ids) for pl in self.lists.values())

    def terms(self) -> list[str]:
        return sorted(self.lists)

    # Derived from doc_times on first use, once per index object; neither is
    # serialized or compared.

    @cached_property
    def time_order(self) -> Stabbing:
        """Every document window's hull, carrying its document id."""
        return Stabbing((w.b_lo, w.e_hi, d) for d, ws in self.doc_times.items() for w in ws)

    @cached_property
    def doc_days(self) -> dict[str, tuple[int, ...]]:
        """Each dated document's representative days, one midpoint per window."""
        return {d: tuple(w.midpoint for w in ws) for d, ws in self.doc_times.items()}

    def docs_meeting(self, windows) -> set[str]:
        """Documents whose time part meets one of `windows`, that is with
        `any_intersect(windows, doc_times[doc])`."""
        order = self.time_order
        return {d for w in windows for d in order.meeting(w.b_lo, w.e_hi)}


def build_index(corpus: Corpus) -> InvertedIndex:
    """Index every document; df/ctf/lengths are fixed here and never rebuilt."""
    if not corpus.documents:
        raise CorpusFormatError("cannot index an empty corpus")
    lists: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    doc_times: dict[str, frozenset[TimeWindow]] = {}
    for doc in corpus.documents:
        if doc.doc_id in doc_len:
            raise IndexConsistencyError(f"duplicate doc id {doc.doc_id!r}")
        doc_len[doc.doc_id] = len(doc.tokens)
        if doc.time_part:
            doc_times[doc.doc_id] = doc.time_part
        for tok in doc.tokens:
            lists.setdefault(tok, {}).setdefault(doc.doc_id, 0)
            lists[tok][doc.doc_id] += 1
    plists = {}
    for term, counts in sorted(lists.items()):
        doc_ids = sorted(counts)
        plists[term] = PostingList(term, doc_ids, [counts[d] for d in doc_ids])
    total = sum(doc_len.values())
    stats = CollectionStats(
        n_docs=len(doc_len),
        doc_len=doc_len,
        total_len=total,
        avgdl=total / len(doc_len),
        df={t: len(pl.doc_ids) for t, pl in plists.items()},
        ctf={t: sum(pl.tfs) for t, pl in plists.items()},
    )
    return InvertedIndex(lists=plists, stats=stats, doc_times=doc_times)


def verify_index(index: InvertedIndex) -> None:
    """Raise IndexConsistencyError unless structural invariants hold.

    On a pruned index df/ctf stay frozen at build values, so the check
    relaxes from equality to an upper bound.
    """
    stats = index.stats
    if stats.n_docs != len(stats.doc_len) or stats.n_docs < 1:
        raise IndexConsistencyError("n_docs disagrees with the doc length table")
    if stats.total_len != sum(stats.doc_len.values()):
        raise IndexConsistencyError("total_len disagrees with doc lengths")
    if abs(stats.avgdl - stats.total_len / stats.n_docs) > 1e-9:
        raise IndexConsistencyError("avgdl disagrees with total_len / n_docs")
    for doc_id in index.doc_times:
        if doc_id not in stats.doc_len:
            raise IndexConsistencyError(f"time entry for unknown doc {doc_id!r}")
    for term, pl in index.lists.items():
        if term not in stats.df or term not in stats.ctf:
            raise IndexConsistencyError(f"term {term!r} missing from df/ctf")
        n = len(pl.doc_ids)
        if n == 0:
            raise IndexConsistencyError(f"posting list for {term!r} is empty")
        if len(pl.tfs) != n:
            raise IndexConsistencyError(
                f"posting list for {term!r} has {n} doc ids, {len(pl.tfs)} tfs"
            )
        prev = None
        tf_sum = 0
        for doc_id, tf in zip(pl.doc_ids, pl.tfs):
            if tf < 1:
                raise IndexConsistencyError(f"non-positive tf for ({term!r}, {doc_id!r})")
            if doc_id not in stats.doc_len:
                raise IndexConsistencyError(f"posting for unknown doc {doc_id!r}")
            if tf > stats.doc_len[doc_id]:
                raise IndexConsistencyError(f"tf exceeds doc length for ({term!r}, {doc_id!r})")
            if prev is not None and doc_id <= prev:
                raise IndexConsistencyError(f"posting list for {term!r} not strictly sorted")
            prev = doc_id
            tf_sum += tf
        if index.pruned:
            if stats.df[term] < n or stats.ctf[term] < tf_sum:
                raise IndexConsistencyError(f"frozen stats smaller than pruned list for {term!r}")
        else:
            if stats.df[term] != n or stats.ctf[term] != tf_sum:
                raise IndexConsistencyError(f"df/ctf out of sync for {term!r}")


def pruning_ratio(original: InvertedIndex, pruned: InvertedIndex) -> float:
    """1 - retained/original posting mass; requires pruned to be a sub-index.
    One walk of a base list confirms a pruned list in its order; any other
    is checked against the base list's doc_id -> tf table."""
    total = original.posting_count()
    if total == 0:
        raise IndexConsistencyError("original index has no postings")
    kept = 0
    for term, pl in pruned.lists.items():
        if term not in original.lists:
            raise IndexConsistencyError(f"pruned index has unknown term {term!r}")
        base = original.lists[term]
        rest = zip(base.doc_ids, base.tfs)
        if not all(p in rest for p in zip(pl.doc_ids, pl.tfs)):
            orig = dict(zip(base.doc_ids, base.tfs))
            for doc_id, tf in zip(pl.doc_ids, pl.tfs):
                if orig.get(doc_id) != tf:
                    raise IndexConsistencyError(
                        f"posting ({term!r}, {doc_id!r}) is not in the original index"
                    )
        kept += len(pl.doc_ids)
    return 1.0 - kept / total


# --- binary format ----------------------------------------------------------
# MAGIC | u16 version | u8 flags | u64 payload length | payload | sha256(payload)

_HEADER = struct.Struct("<4sHBQ")


def _write_uv(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        b = value & 0x7F
        value >>= 7
        buf.append(b | (0x80 if value else 0))
        if not value:
            return


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _unzigzag(z: int) -> int:
    return (z >> 1) if z % 2 == 0 else -(z + 1) // 2


def _write_str(buf: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    _write_uv(buf, len(raw))
    buf.extend(raw)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def uv(self) -> int:
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.data):
                raise IndexFormatError("truncated index payload")
            b = self.data[self.pos]
            self.pos += 1
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7

    def sv(self) -> int:
        return _unzigzag(self.uv())

    def s(self) -> str:
        n = self.uv()
        if self.pos + n > len(self.data):
            raise IndexFormatError("truncated index payload")
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"string is not UTF-8: {exc}") from exc


# A varint ends at its first byte below 0x80, and each of its bytes carries
# 7 bits, low first.  A list varint may take 9 bytes (63 bits).
_VARINT_MAX = 9


def _read_columns(r: _Reader, n: int, docs: list[str], term: str) -> tuple[list[str], list[int]]:
    """The doc ids and tfs of one list of `n` postings at `r.pos`: n doc
    number gaps, then n tfs.  A list of no postings is rejected, as no index
    writes one.  A doc number gap of `len(docs)` or more is rejected before
    the gaps are summed, and so is a zero gap after the first: with the
    document ids ascending, so are a list's."""
    if n == 0:
        raise IndexFormatError(f"term {term!r}: empty posting list")
    gaps = _varints(r, n, term)
    tfs = _varints(r, n, term)
    if max(gaps) >= len(docs):
        raise IndexFormatError(f"term {term!r}: doc id gap of at least {len(docs)} documents")
    if 0 in gaps[1:]:
        raise IndexFormatError(f"term {term!r}: doc ids not strictly ascending")
    nums = list(accumulate(gaps))
    if nums[-1] >= len(docs):
        raise IndexFormatError(f"term {term!r}: posting references unknown document")
    return [docs[i] for i in nums], tfs


def _varints(r: _Reader, count: int, term: str) -> list[int]:
    """`count` varints from `r.pos`.  When each is one byte, as the tfs
    and the gaps of a dense list are, the bytes are the values."""
    data = r.data
    head = data[r.pos : r.pos + count]
    if len(head) == count and head.isascii():
        r.pos += count
        return list(head)
    values = []
    value = shift = 0
    for pos in range(r.pos, len(data)):
        b = data[pos]
        if b < 0x80:
            values.append(value | b << shift)
            if len(values) == count:
                r.pos = pos + 1
                return values
            value = shift = 0
        else:
            value |= (b & 0x7F) << shift
            shift += 7
            if shift == 7 * _VARINT_MAX:
                raise IndexFormatError(f"term {term!r}: varint longer than {_VARINT_MAX} bytes")
    raise IndexFormatError("truncated index payload")


def write_index(index: InvertedIndex, path) -> None:
    """Serialize deterministically: same index -> identical bytes."""
    payload = bytearray()
    docs = sorted(index.stats.doc_len)
    doc_ord = {d: i for i, d in enumerate(docs)}
    _write_uv(payload, len(docs))
    for doc_id in docs:
        _write_str(payload, doc_id)
        _write_uv(payload, index.stats.doc_len[doc_id])
        windows = sorted(index.doc_times.get(doc_id, frozenset()))
        _write_uv(payload, len(windows))
        for w in windows:
            for v in (w.b_lo, w.b_hi, w.e_lo, w.e_hi):
                _write_uv(payload, _zigzag(v))
    terms = sorted(index.lists)
    _write_uv(payload, len(terms))
    for term in terms:
        pl = index.lists[term]
        _write_str(payload, term)
        _write_uv(payload, index.stats.df[term])
        _write_uv(payload, index.stats.ctf[term])
        _write_uv(payload, len(pl.doc_ids))
        # the first doc number goes out whole, each later one as a gap; a
        # run of one-byte varints (the tfs, a dense list's gaps) is its values
        nums = list(map(doc_ord.__getitem__, pl.doc_ids))
        for run in (nums[:1], list(map(sub, nums[1:], nums)), pl.tfs):
            if run and 0 <= min(run) and max(run) < 0x80:
                payload += bytes(run)
            else:
                for value in run:
                    _write_uv(payload, value)
    flags = 1 if index.pruned else 0
    blob = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, len(payload))
    blob += bytes(payload) + hashlib.sha256(payload).digest()
    Path(path).write_bytes(blob)


def read_index(path) -> InvertedIndex:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    magic, version, flags, payload_len = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"{path}: unsupported format version {version}")
    end = _HEADER.size + payload_len
    if len(data) < end + 32:
        raise IndexFormatError(f"{path}: truncated file, checksum cannot be verified")
    payload = data[_HEADER.size : end]
    if hashlib.sha256(payload).digest() != data[end : end + 32]:
        raise IndexFormatError(f"{path}: checksum mismatch")
    r = _Reader(payload)
    n_docs = r.uv()
    docs: list[str] = []
    doc_len: dict[str, int] = {}
    doc_times: dict[str, frozenset[TimeWindow]] = {}
    for _ in range(n_docs):
        doc_id = r.s()
        doc_len[doc_id] = r.uv()
        n_win = r.uv()
        wins = []
        for _ in range(n_win):
            try:
                wins.append(TimeWindow(*(r.sv() for _ in range(4))))
            except ValueError as exc:
                raise IndexFormatError(f"document {doc_id!r}: {exc}") from exc
        docs.append(doc_id)
        if wins:
            doc_times[doc_id] = frozenset(wins)
    if any(a >= b for a, b in zip(docs, docs[1:])):
        raise IndexFormatError(f"{path}: document ids not strictly ascending")
    lists: dict[str, PostingList] = {}
    df: dict[str, int] = {}
    ctf: dict[str, int] = {}
    for _ in range(r.uv()):
        term = r.s()
        df[term] = r.uv()
        ctf[term] = r.uv()
        lists[term] = PostingList(term, *_read_columns(r, r.uv(), docs, term))
    if r.pos != len(payload):
        raise IndexFormatError(f"{path}: {len(payload) - r.pos} trailing payload bytes")
    total = sum(doc_len.values())
    stats = CollectionStats(
        n_docs=len(doc_len),
        doc_len=doc_len,
        total_len=total,
        avgdl=total / len(doc_len) if doc_len else 0.0,
        df=df,
        ctf=ctf,
    )
    return InvertedIndex(lists=lists, stats=stats, doc_times=doc_times, pruned=bool(flags & 1))


def subset_index(index: InvertedIndex, keep: dict[str, set[str]]) -> InvertedIndex:
    """Sub-index with per-term retained doc sets; terms not in `keep` go."""
    return _compressed(index, [
        d in keep.get(term, ()) for term in index.terms() for d in index.lists[term].doc_ids
    ])


def _compressed(index: InvertedIndex, mask: list[bool]) -> InvertedIndex:
    """Sub-index of the postings `mask` marks, one flag per posting, the
    lists in `index.terms()` order; lists left with no posting go.

    Stats and doc times are carried over untouched: retrieval on a pruned
    index deliberately runs with build-time df/ctf/lengths.
    """
    lists: dict[str, PostingList] = {}
    end = 0
    for term in index.terms():
        pl = index.lists[term]
        start, end = end, end + len(pl.doc_ids)
        keep = mask[start:end]
        if any(keep):
            lists[term] = PostingList(term, list(compress(pl.doc_ids, keep)), list(compress(pl.tfs, keep)))
    return InvertedIndex(lists=lists, stats=index.stats, doc_times=index.doc_times, pruned=True)
