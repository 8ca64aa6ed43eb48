"""Time-stamped document collections: tokenization and corpus I/O."""
from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache
from html import unescape
from pathlib import Path

from .errors import CorpusFormatError, TempopruneError
from .timewindows import TimeWindow, day_iso, day_number, parse_day

log = logging.getLogger(__name__)

# Classic 33-word English stop set (the Lucene default).
STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every byte outside [a-z0-9] to a space: on lowercased ASCII text the
# tokens `_TOKEN_RE` finds are then the words `split` finds.
_ASCII_SEPARATORS = bytes(b if 0x30 <= b <= 0x39 or 0x61 <= b <= 0x7A else 0x20 for b in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase Unicode-alphanumeric tokens, stop words dropped; digits kept, no stemming."""
    text = text.lower()
    if text.isascii():
        tokens = text.encode().translate(_ASCII_SEPARATORS).decode().split()
    else:
        tokens = _TOKEN_RE.findall(text)
    if not STOPWORDS.isdisjoint(tokens):
        tokens = [t for t in tokens if t not in STOPWORDS]
    return tokens


@dataclass
class Document:
    doc_id: str
    tokens: list[str]
    time_part: frozenset[TimeWindow] = field(default_factory=frozenset)


@dataclass
class Corpus:
    documents: list[Document]
    n_malformed: int = 0


def read_text(path, error: type[TempopruneError], lines=str.splitlines) -> str:
    """The text of a UTF-8 file, for every reader of text input.  Bytes that
    are not UTF-8 raise `error` naming path:line, the line found by
    `lines`, which splits text as the calling reader does."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(lines(data[: exc.start].decode("utf-8") + "."))
        bad = f"byte 0x{data[exc.start]:02x} at offset {exc.start} ({exc.reason})"
        raise error(f"{path}:{line}: not UTF-8: {bad}") from None


def parse_corpus(path, fmt: str = "jsonl") -> Corpus:
    """Parse a corpus file.  Malformed records are counted, not dropped silently."""
    path = Path(path)
    text = read_text(path, CorpusFormatError)
    if fmt == "jsonl":
        docs, skipped = _parse_jsonl(text)
    elif fmt == "trec":
        docs, skipped = _parse_trec_sgml(text)
    else:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}")
    if not docs:
        detail = f"; {len(skipped)} malformed record(s) skipped, first: {skipped[0]}" if skipped else ""
        raise CorpusFormatError(f"no parseable documents in {path}{detail}")
    if skipped:
        log.warning("%s: %d malformed record(s) skipped, first: %s", path, len(skipped), skipped[0])
    return Corpus(documents=docs, n_malformed=len(skipped))


# The encoder of every JSONL record written: compact, keys sorted.
json_record = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def json_line(line: str):
    """`json.loads` of one JSONL line.  A line nested too deeply for the
    decoder is a ValueError, as malformed JSON is, not a RecursionError."""
    try:
        return json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _record_id(rec: dict):
    """A JSONL record's `doc_id`, or its `id` as `write_corpus` emits it;
    a record carrying both must give the same value in each."""
    ids = [rec[key] for key in ("doc_id", "id") if key in rec]
    if not ids:
        raise KeyError("doc_id")
    if len(ids) == 2 and ids[0] != ids[1]:
        raise ValueError(f"doc_id {ids[0]!r} and id {ids[1]!r} disagree")
    return ids[0]


def _parse_jsonl(text: str) -> tuple[list[Document], list[str]]:
    """Documents, and one reason per skipped record, in file order."""
    docs: list[Document] = []
    seen: set[str] = set()
    skipped: list[str] = []
    day = lru_cache(maxsize=None)(parse_day)  # each distinct date string parsed once
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json_line(line)
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
            doc_id = _record_id(rec)
            body = rec["text"]
            if not isinstance(doc_id, str) or not isinstance(body, str):
                raise ValueError("doc_id and text must be strings")
            if doc_id in seen:
                raise ValueError(f"duplicate doc id {doc_id!r}")
            windows = frozenset(TimeWindow.from_iso(w, day) for w in rec.get("time", []))
        except KeyError as exc:
            skipped.append(f"line {lineno}: missing key {exc}")
            continue
        except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
            skipped.append(f"line {lineno}: {exc}")
            continue
        seen.add(doc_id)
        docs.append(Document(doc_id, tokenize(body), windows))
    return docs, skipped


_DOC_RE = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL)
_TAG_RES = {name: re.compile(rf"<{name}>(.*?)</{name}>", re.DOTALL) for name in ("DOCNO", "DATE", "TEXT")}
_INNER_TAG_RE = re.compile(r"<[^>]+>")
_LONG_DATE_RE = re.compile(r"([A-Z][a-z]+ +\d{1,2}, +\d{4})")
_ISO_DATE_RE = re.compile(r"(\d{4}-\d{2}-\d{2})")

_MONTHS = {m: i + 1 for i, m in enumerate(
    ["January", "February", "March", "April", "May", "June", "July",
     "August", "September", "October", "November", "December"])}


def _parse_trec_date(raw: str) -> int | None:
    """Publication day number from a DATE tag, or None if unrecognizable."""
    m = _ISO_DATE_RE.search(raw)
    if m:
        try:
            return day_number(date.fromisoformat(m.group(1)))
        except ValueError:
            return None
    m = _LONG_DATE_RE.search(raw)
    if m:
        month_name, rest = m.group(1).split(" ", 1)
        day_s, year_s = rest.replace(",", "").split()
        month = _MONTHS.get(month_name)
        if month is None:
            return None
        try:
            return day_number(date(int(year_s), month, int(day_s)))
        except ValueError:
            return None
    return None


def _parse_trec_sgml(text: str) -> tuple[list[Document], list[str]]:
    """Documents, and one reason per skipped <DOC> block, in file order."""
    docs: list[Document] = []
    seen: set[str] = set()
    skipped: list[str] = []
    for n, block in enumerate(_DOC_RE.findall(text), start=1):
        docno = _TAG_RES["DOCNO"].search(block)
        body = _TAG_RES["TEXT"].search(block)
        if docno is None or body is None:
            skipped.append(f"DOC {n}: missing DOCNO or TEXT")
            continue
        doc_id = docno.group(1).strip()
        if not doc_id or doc_id in seen:
            skipped.append(f"DOC {n}: empty or duplicate DOCNO {doc_id!r}")
            continue
        raw = unescape(_INNER_TAG_RE.sub(" ", body.group(1)))
        tokens = tokenize(raw)
        windows: frozenset[TimeWindow] = frozenset()
        date_tag = _TAG_RES["DATE"].search(block)
        if date_tag is not None:
            day = _parse_trec_date(_INNER_TAG_RE.sub(" ", date_tag.group(1)))
            if day is not None:
                # publication date: a degenerate certain window
                windows = frozenset({TimeWindow.instant(day)})
        seen.add(doc_id)
        docs.append(Document(doc_id, tokens, windows))
    return docs, skipped


def write_corpus(corpus: Corpus, path) -> None:
    """Canonical JSONL dump; windows re-emitted as ISO dates, tokens as text."""
    iso = lru_cache(maxsize=None)(day_iso)  # each distinct day formatted once
    lines = []
    for doc in corpus.documents:
        rec: dict = {"id": doc.doc_id, "text": " ".join(doc.tokens)}
        if doc.time_part:
            rec["time"] = [w.to_iso(iso) for w in sorted(doc.time_part)]
        lines.append(json_record(rec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
