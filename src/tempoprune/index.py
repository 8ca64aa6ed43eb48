"""Inverted index: construction, verification, pruning ratio, binary I/O."""
from __future__ import annotations

import hashlib
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice
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

    doc_ids: list[str]
    tfs: list[int]

    @property
    def postings(self) -> list[Posting]:
        """The list as `Posting` records, built anew on each read."""
        return list(map(Posting, self.doc_ids, self.tfs))


@dataclass
class CollectionStats:
    """Build-time lengths and counts; the totals derive from `doc_len`."""

    doc_len: dict[str, int]
    df: dict[str, int]
    ctf: dict[str, int]

    @property
    def n_docs(self) -> int:
        return len(self.doc_len)

    @cached_property
    def total_len(self) -> int:
        return sum(self.doc_len.values())

    @cached_property
    def avgdl(self) -> float:
        return self.total_len / self.n_docs if self.doc_len else 0.0


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

    # Derived from doc_times on first use, once per index object; none is
    # serialized or compared.

    @cached_property
    def time_order(self) -> Stabbing:
        """Every document window's hull, carrying its document id."""
        return Stabbing((w.b_lo, w.e_hi, d) for d, ws in self.doc_times.items() for w in ws)

    @cached_property
    def doc_days(self) -> dict[str, tuple[int, ...]]:
        """Each dated document's representative days, one midpoint per window."""
        return {d: tuple(w.midpoint for w in ws) for d, ws in self.doc_times.items()}

    @cached_property
    def doc_hulls(self) -> dict[str, tuple[tuple[int, int], ...]]:
        """Each dated document's window hulls (b_lo, e_hi), one per window."""
        return {d: tuple((w.b_lo, w.e_hi) for w in ws) for d, ws in self.doc_times.items()}

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
        d = doc.doc_id
        if d in doc_len:
            raise IndexConsistencyError(f"duplicate doc id {d!r}")
        doc_len[d] = len(doc.tokens)
        if doc.time_part:
            doc_times[d] = doc.time_part
        for tok in doc.tokens:
            counts = lists.get(tok)
            if counts is None:
                lists[tok] = {d: 1}
            else:
                counts[d] = counts.get(d, 0) + 1
    plists = {}
    for term, counts in sorted(lists.items()):
        doc_ids = sorted(counts)
        plists[term] = PostingList(doc_ids, [counts[d] for d in doc_ids])
    stats = CollectionStats(
        doc_len=doc_len,
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
    if not stats.doc_len:
        raise IndexConsistencyError("index has no documents")
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
#
# A varint ends at its first byte below 0x80, and each of its bytes carries
# 7 bits, low first.  A list varint may take 9 bytes (63 bits); one of the
# document section has no length limit.  A window bound is zigzagged first:
# 0, -1, 1, -2, ... are written as 0, 1, 2, 3, ...

_HEADER = struct.Struct("<4sHBQ")
_VARINT_MAX = 9
_LONG_VARINT = re.compile(rb"[\x80-\xff]{%d}" % _VARINT_MAX)  # only in a varint of more bytes
_MULTI_BYTE_VARINT = re.compile(rb"([\x80-\xff]+[\x00-\x7f])")
_WINDOW = re.compile(rb"(?:[\x80-\xff]*[\x00-\x7f]){4}")  # a window's four bounds
_HIGH_BYTES = bytes(range(0x80, 0x100))


def _write_uv(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        b = value & 0x7F
        value >>= 7
        buf.append(b | (0x80 if value else 0))
        if not value:
            return


def _write_uvs(buf: bytearray, values: list[int]) -> None:
    """`_write_uv` of each value in turn, in one loop."""
    if values and min(values) < 0:
        raise ValueError("varint must be non-negative")
    for value in values:
        while value >= 0x80:
            buf.append(value & 0x7F | 0x80)
            value >>= 7
        buf.append(value)


def _write_column(buf: bytearray, values: list[int]) -> None:
    """`_write_uvs` of a posting list column.  Values all below 0x80, as
    the tfs and the gaps of a dense list are, are their own bytes."""
    try:
        run = bytes(values)
    except ValueError:  # a value outside 0..255
        pass
    else:
        if run.isascii():
            buf += run
            return
    _write_uvs(buf, values)


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


def _read_columns(r: _Reader, n: int, docs: list[str], term: str) -> tuple[list[str], list[int]]:
    """The doc ids and tfs of one list of `n` postings at `r.pos`: n doc
    number gaps, then n tfs.  A list of no postings is rejected, as no index
    writes one.  A doc number gap of `len(docs)` or more is rejected before
    the gaps are summed, and so is a zero gap after the first: with the
    document ids ascending, so are a list's.  Gaps of one byte each are
    checked on their bytes: none reaches `len(docs)` above 0x7F documents."""
    if n == 0:
        raise IndexFormatError(f"term {term!r}: empty posting list")
    gaps = _varints(r, n, term)
    tfs = _varints(r, n, term)
    if (type(gaps) is list or len(docs) <= 0x7F) and max(gaps) >= len(docs):
        raise IndexFormatError(f"term {term!r}: doc id gap of at least {len(docs)} documents")
    if 0 in gaps[1:]:
        raise IndexFormatError(f"term {term!r}: doc ids not strictly ascending")
    try:
        return list(map(docs.__getitem__, accumulate(gaps))), list(tfs)
    except IndexError:  # a doc number summed past the last document
        raise IndexFormatError(f"term {term!r}: posting references unknown document") from None


def _varints(r: _Reader, count: int, term: str) -> bytes | list[int]:
    """`count` list varints from `r.pos`.  When each is one byte, as the tfs
    and the gaps of a dense list are, they are returned as their bytes.
    Otherwise the bytes up to the count-th byte below 0x80 are found first,
    then only the varints of more than one byte among them are decoded."""
    data, pos = r.data, r.pos
    head = data[pos : pos + count]
    if len(head) == count and head.isascii():
        r.pos = pos + count
        return head
    end, missing = pos, count
    while missing:
        chunk = data[end : end + missing]  # each missing varint takes a byte at least
        if not chunk:
            if _LONG_VARINT.search(data, pos):
                raise IndexFormatError(f"term {term!r}: varint longer than {_VARINT_MAX} bytes")
            raise IndexFormatError("truncated index payload")
        end += len(chunk)
        missing -= len(chunk.translate(None, _HIGH_BYTES))
    r.pos = end
    # runs of one-byte varints, and between each two the varint of more bytes
    parts = _MULTI_BYTE_VARINT.split(data[pos:end])
    values = list(parts[0])
    for i in range(1, len(parts), 2):
        if len(parts[i]) > _VARINT_MAX:
            raise IndexFormatError(f"term {term!r}: varint longer than {_VARINT_MAX} bytes")
        value = 0
        for b in reversed(parts[i]):
            value = value << 7 | b & 0x7F
        values.append(value)
        values += parts[i + 1]
    return values


def _unzigzagged(raw: bytes) -> list[int]:
    """The zigzag varints, of any length, that make up `raw`, in one loop."""
    values = []
    value = shift = 0
    for b in raw:
        if b < 0x80:
            value |= b << shift
            values.append((value >> 1) ^ -(value & 1))
            value = shift = 0
        else:
            value |= (b & 0x7F) << shift
            shift += 7
    return values


def _time_parts(dated: list[tuple[str, int, bytes]]) -> dict[str, frozenset[TimeWindow]]:
    """Each dated document's windows, from the (doc id, window count,
    window bytes) of each in file order.  Each distinct run of window bytes
    is decoded once, at its first document, and documents with the same
    bytes share one frozenset.  The first window whose bounds disagree
    names its document."""
    firsts: dict[bytes, tuple[str, int]] = {}
    for doc_id, n_win, raw in dated:
        firsts.setdefault(raw, (doc_id, n_win))
    bounds = _unzigzagged(b"".join(firsts))
    windows = map(TimeWindow, bounds[0::4], bounds[1::4], bounds[2::4], bounds[3::4])
    parts = {}
    for raw, (doc_id, n_win) in firsts.items():
        try:
            parts[raw] = frozenset(islice(windows, n_win))
        except ValueError as exc:
            raise IndexFormatError(f"document {doc_id!r}: {exc}") from exc
    return {doc_id: parts[raw] for doc_id, _, raw in dated}


def _read_documents(r: _Reader) -> tuple[list[str], dict[str, int], dict[str, frozenset[TimeWindow]]]:
    """The document section at `r.pos`: each document's id, length and
    windows, in file order.  One-byte varints, as an id's byte count, a
    length and a window count mostly are, are read in place, and others
    through `r.uv`.  A document's window bytes are found with one match per
    window, and the bounds are decoded after the section (`_time_parts`); a
    fault found on the way is raised after the windows before it are
    checked, so the first fault in the file is the one raised."""
    data = r.data
    docs: list[str] = []
    doc_len: dict[str, int] = {}
    dated: list[tuple[str, int, bytes]] = []
    try:
        for _ in range(r.uv()):
            pos = r.pos
            size = data[pos]
            if size < 0x80:
                pos += 1
            else:
                size = r.uv()
                pos = r.pos
            raw = data[pos : pos + size]
            if len(raw) < size:
                raise IndexFormatError("truncated index payload")
            try:
                doc_id = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IndexFormatError(f"string is not UTF-8: {exc}") from exc
            pos += size
            length, n_win = data[pos], data[pos + 1]  # fewer than two bytes left is a truncation
            if length < 0x80 and n_win < 0x80:
                pos += 2
            else:
                r.pos = pos
                length, n_win = r.uv(), r.uv()
                pos = r.pos
            docs.append(doc_id)
            doc_len[doc_id] = length
            if n_win:
                start = pos
                for _ in range(n_win):
                    m = _WINDOW.match(data, pos)
                    if m is None:
                        raise IndexFormatError("truncated index payload")
                    pos = m.end()
                dated.append((doc_id, n_win, data[start:pos]))
            r.pos = pos
    except IndexError:  # data[pos] past the end
        _time_parts(dated)
        raise IndexFormatError("truncated index payload") from None
    except IndexFormatError:
        _time_parts(dated)
        raise
    return docs, doc_len, _time_parts(dated)


def write_index(index: InvertedIndex, path) -> None:
    """Serialize deterministically: same index -> identical bytes.  A
    document's window count and zigzagged bounds are encoded in one varint
    loop, once per distinct frozenset of windows."""
    payload = bytearray()
    docs = sorted(index.stats.doc_len)
    doc_len, doc_times = index.stats.doc_len, index.doc_times
    doc_ord = {d: i for i, d in enumerate(docs)}
    _write_uv(payload, len(docs))
    tails: dict[frozenset[TimeWindow], bytes] = {}  # each distinct time part, encoded once
    for doc_id in docs:
        _write_str(payload, doc_id)
        _write_uv(payload, doc_len[doc_id])
        part = doc_times.get(doc_id, frozenset())
        tail = tails.get(part)
        if tail is None:
            values = [len(part)]
            for w in sorted(part):
                for v in (w.b_lo, w.b_hi, w.e_lo, w.e_hi):
                    values.append(v << 1 ^ -(v < 0))  # zigzagged
            buf = bytearray()
            _write_uvs(buf, values)
            tail = tails[part] = bytes(buf)
        payload += tail
    terms = sorted(index.lists)
    _write_uv(payload, len(terms))
    for term in terms:
        pl = index.lists[term]
        _write_str(payload, term)
        _write_uvs(payload, [index.stats.df[term], index.stats.ctf[term], len(pl.doc_ids)])
        # the first doc number goes out whole, each later one as a gap
        nums = list(map(doc_ord.__getitem__, pl.doc_ids))
        _write_column(payload, list(map(sub, nums, chain((0,), nums))))
        _write_column(payload, pl.tfs)
    flags = 1 if index.pruned else 0
    with open(path, "wb") as fh:  # no joined copy of the payload
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, flags, len(payload)))
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest())


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
    docs, doc_len, doc_times = _read_documents(r)
    if any(a >= b for a, b in zip(docs, docs[1:])):
        raise IndexFormatError(f"{path}: document ids not strictly ascending")
    lists: dict[str, PostingList] = {}
    df: dict[str, int] = {}
    ctf: dict[str, int] = {}
    for _ in range(r.uv()):
        term = r.s()
        df[term] = r.uv()
        ctf[term] = r.uv()
        lists[term] = PostingList(*_read_columns(r, r.uv(), docs, term))
    if r.pos != len(payload):
        raise IndexFormatError(f"{path}: {len(payload) - r.pos} trailing payload bytes")
    stats = CollectionStats(doc_len=doc_len, df=df, ctf=ctf)
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
            lists[term] = PostingList(list(compress(pl.doc_ids, keep)), list(compress(pl.tfs, keep)))
    return InvertedIndex(lists=lists, stats=index.stats, doc_times=index.doc_times, pruned=True)
