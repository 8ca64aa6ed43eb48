"""Inverted index: construction, verification, pruning ratio, binary I/O."""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus
from .errors import CorpusFormatError, IndexConsistencyError, IndexFormatError
from .timewindows import TimeWindow

MAGIC = b"TPIX"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Posting:
    doc_id: str
    tf: int


@dataclass
class PostingList:
    term: str
    postings: list[Posting]  # ascending doc_id, unique


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
        return sum(len(pl.postings) for pl in self.lists.values())

    def terms(self) -> list[str]:
        return sorted(self.lists)


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
    plists = {
        term: PostingList(term, [Posting(d, tf) for d, tf in sorted(counts.items())])
        for term, counts in sorted(lists.items())
    }
    total = sum(doc_len.values())
    stats = CollectionStats(
        n_docs=len(doc_len),
        doc_len=doc_len,
        total_len=total,
        avgdl=total / len(doc_len),
        df={t: len(pl.postings) for t, pl in plists.items()},
        ctf={t: sum(p.tf for p in pl.postings) for t, pl in plists.items()},
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
        prev = None
        tf_sum = 0
        for p in pl.postings:
            if p.tf < 1:
                raise IndexConsistencyError(f"non-positive tf for ({term!r}, {p.doc_id!r})")
            if p.doc_id not in stats.doc_len:
                raise IndexConsistencyError(f"posting for unknown doc {p.doc_id!r}")
            if p.tf > stats.doc_len[p.doc_id]:
                raise IndexConsistencyError(f"tf exceeds doc length for ({term!r}, {p.doc_id!r})")
            if prev is not None and p.doc_id <= prev:
                raise IndexConsistencyError(f"posting list for {term!r} not strictly sorted")
            prev = p.doc_id
            tf_sum += p.tf
        if index.pruned:
            if stats.df[term] < len(pl.postings) or stats.ctf[term] < tf_sum:
                raise IndexConsistencyError(f"frozen stats smaller than pruned list for {term!r}")
        else:
            if stats.df[term] != len(pl.postings) or stats.ctf[term] != tf_sum:
                raise IndexConsistencyError(f"df/ctf out of sync for {term!r}")


def pruning_ratio(original: InvertedIndex, pruned: InvertedIndex) -> float:
    """1 - retained/original posting mass; requires pruned to be a sub-index."""
    total = original.posting_count()
    if total == 0:
        raise IndexConsistencyError("original index has no postings")
    kept = 0
    for term, pl in pruned.lists.items():
        if term not in original.lists:
            raise IndexConsistencyError(f"pruned index has unknown term {term!r}")
        orig = {p.doc_id: p.tf for p in original.lists[term].postings}
        for p in pl.postings:
            if orig.get(p.doc_id) != p.tf:
                raise IndexConsistencyError(
                    f"posting ({term!r}, {p.doc_id!r}) is not in the original index"
                )
        kept += len(pl.postings)
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
        _write_uv(payload, len(pl.postings))
        prev = 0
        first = True
        for p in pl.postings:
            num = doc_ord[p.doc_id]
            _write_uv(payload, num if first else num - prev)
            prev = num
            first = False
        for p in pl.postings:
            _write_uv(payload, p.tf)
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
    lists: dict[str, PostingList] = {}
    df: dict[str, int] = {}
    ctf: dict[str, int] = {}
    for _ in range(r.uv()):
        term = r.s()
        df[term] = r.uv()
        ctf[term] = r.uv()
        n_post = r.uv()
        nums = []
        cur = 0
        for i in range(n_post):
            cur = r.uv() if i == 0 else cur + r.uv()
            nums.append(cur)
        if any(num >= len(docs) for num in nums):
            raise IndexFormatError("posting references unknown document")
        postings = [Posting(docs[num], r.uv()) for num in nums]
        lists[term] = PostingList(term, postings)
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


def subset_index(index: InvertedIndex, keep: dict[str, set[str] | None]) -> InvertedIndex:
    """Sub-index with per-term retained doc sets (None keeps the whole list).

    Stats and doc times are carried over untouched: retrieval on a pruned
    index deliberately runs with build-time df/ctf/lengths.
    """
    lists: dict[str, PostingList] = {}
    for term in sorted(index.lists):
        if term not in keep:
            continue
        keep_set = keep[term]
        pl = index.lists[term]
        if keep_set is None:
            retained = list(pl.postings)
        else:
            retained = [p for p in pl.postings if p.doc_id in keep_set]
        if retained:
            lists[term] = PostingList(term, retained)
    return InvertedIndex(lists=lists, stats=index.stats, doc_times=index.doc_times, pruned=True)
