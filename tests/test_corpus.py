"""Tokenization and corpus parsing (JSONL and TREC SGML)."""
import json
import re
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import oracle_tokenize, oracle_write_corpus

from tempoprune.corpus import STOPWORDS, Corpus, Document, parse_corpus, tokenize, write_corpus
from tempoprune.errors import CorpusFormatError
from tempoprune.timewindows import TimeWindow, day_number, parse_day


def test_tokenize_drops_stopwords_and_lowercases():
    assert tokenize("Iraq War in 1991") == ["iraq", "war", "1991"]


def test_tokenize_keeps_digit_tokens():
    assert tokenize("earthquake 17 august 1999") == ["earthquake", "17", "august", "1999"]


def test_tokenize_punctuation_and_unicode():
    assert tokenize("U.S.-led; coalition!") == ["u", "s", "led", "coalition"]
    assert tokenize("Ελλάδα 2004") == ["ελλάδα", "2004"]


@given(st.text(max_size=200))
def test_tokenize_idempotent(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text(max_size=200))
def test_tokenize_never_emits_stopwords(text):
    assert not set(tokenize(text)) & STOPWORDS


def test_parse_jsonl_record(tmp_path):
    rec = {
        "id": "d1",
        "text": "iraq war",
        "time": [["1991-01-17", "1991-01-17", "1991-02-28", "1991-02-28"]],
    }
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert len(corpus.documents) == 1
    doc = corpus.documents[0]
    assert doc.doc_id == "d1"
    assert doc.tokens == ["iraq", "war"]
    assert doc.time_part == frozenset(
        {TimeWindow.certain(parse_day("1991-01-17"), parse_day("1991-02-28"))}
    )


def test_parse_jsonl_counts_malformed(tmp_path):
    lines = [
        json.dumps({"id": "d1", "text": "alpha beta"}),
        "{this is not json",
        json.dumps({"id": "d2", "text": "gamma"}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert [d.doc_id for d in corpus.documents] == ["d1", "d2"]
    assert corpus.n_malformed == 1


def test_parse_jsonl_duplicate_id_is_malformed(tmp_path):
    lines = [
        json.dumps({"id": "d1", "text": "alpha"}),
        json.dumps({"id": "d1", "text": "beta"}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert len(corpus.documents) == 1
    assert corpus.documents[0].tokens == ["alpha"]
    assert corpus.n_malformed == 1


def test_parse_jsonl_bad_window_is_malformed(tmp_path):
    lines = [
        json.dumps({"id": "d1", "text": "alpha", "time": [["x", "y"]]}),
        json.dumps({"id": "d2", "text": "beta"}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert [d.doc_id for d in corpus.documents] == ["d2"]
    assert corpus.n_malformed == 1


def test_parse_jsonl_deeply_nested_line_is_malformed(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "c.jsonl"
    path.write_text(deep + "\n" + json.dumps({"id": "d2", "text": "beta"}) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert [d.doc_id for d in corpus.documents] == ["d2"]
    assert corpus.n_malformed == 1
    path.write_text(deep + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="first: line 1: JSON nested too deeply to decode"):
        parse_corpus(path)


def test_parse_jsonl_readme_example(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonl\n(.*?)```", readme, re.DOTALL).group(1)
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(line.strip() for line in block.splitlines()) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert corpus.n_malformed == 0
    assert [d.doc_id for d in corpus.documents] == ["d1", "d2"]
    assert corpus.documents[0].time_part == frozenset(
        {TimeWindow.certain(parse_day("1991-01-17"), parse_day("1991-02-28"))}
    )


def test_parse_jsonl_doc_id_and_id_keys(tmp_path):
    lines = [
        json.dumps({"doc_id": "d1", "text": "alpha"}),
        json.dumps({"id": "d2", "text": "beta"}),
        json.dumps({"doc_id": "d3", "id": "d3", "text": "gamma"}),
        json.dumps({"doc_id": "d4", "id": "dx", "text": "delta"}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert [d.doc_id for d in corpus.documents] == ["d1", "d2", "d3"]
    assert corpus.n_malformed == 1


def test_parse_corpus_error_names_skips_and_first_reason(tmp_path):
    lines = [
        json.dumps({"name": "d1", "text": "alpha"}),
        "{broken",
        json.dumps({"doc_id": "d3", "id": "d9", "text": "gamma"}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"3 malformed record\(s\) skipped, first: line 1: missing key 'doc_id'"):
        parse_corpus(path)


def test_parse_corpus_rejects_empty(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        parse_corpus(path)


def test_parse_corpus_rejects_unknown_format(tmp_path):
    path = tmp_path / "c.bin"
    path.write_text("x", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        parse_corpus(path, fmt="parquet")


TREC_SAMPLE = """\
<DOC>
<DOCNO> LA010190-0001 </DOCNO>
<DATE><P>January 17, 1991, Thursday</P></DATE>
<TEXT><P>Allied aircraft strike Baghdad.</P></TEXT>
</DOC>
<DOC>
<DOCNO> LA010190-0002 </DOCNO>
<TEXT>No date on this one.</TEXT>
</DOC>
<DOC>
<DOCNO> LA010190-0003 </DOCNO>
</DOC>
"""


def test_parse_trec_sgml(tmp_path):
    path = tmp_path / "c.trec"
    path.write_text(TREC_SAMPLE, encoding="utf-8")
    corpus = parse_corpus(path, fmt="trec")
    # third block has no TEXT tag and is counted malformed
    assert [d.doc_id for d in corpus.documents] == ["LA010190-0001", "LA010190-0002"]
    assert corpus.n_malformed == 1
    dated, undated = corpus.documents
    assert dated.tokens == ["allied", "aircraft", "strike", "baghdad"]
    assert dated.time_part == frozenset({TimeWindow.instant(parse_day("1991-01-17"))})
    assert undated.time_part == frozenset()


def test_trec_iso_date_variant(tmp_path):
    doc = "<DOC>\n<DOCNO>X1</DOCNO>\n<DATE>1999-08-17</DATE>\n<TEXT>izmit earthquake</TEXT>\n</DOC>\n"
    path = tmp_path / "c.trec"
    path.write_text(doc, encoding="utf-8")
    corpus = parse_corpus(path, fmt="trec")
    assert corpus.documents[0].time_part == frozenset(
        {TimeWindow.instant(parse_day("1999-08-17"))}
    )


def test_write_then_parse_roundtrip(tmp_path, toy5_corpus):
    path = tmp_path / "out.jsonl"
    write_corpus(toy5_corpus, path)
    back = parse_corpus(path)
    assert [d.doc_id for d in back.documents] == [d.doc_id for d in toy5_corpus.documents]
    for a, b in zip(back.documents, toy5_corpus.documents):
        assert a.tokens == b.tokens
        assert a.time_part == b.time_part


# --- bytes that are not UTF-8 -------------------------------------------------


@pytest.mark.parametrize(
    "fmt, data, where",
    [
        # JSONL records are str.splitlines lines: a form feed ends one
        ("jsonl", b'{"doc_id": "a", "text": "x"}\r\n\x0c{"doc_id": "b", "text": "\xff"}\n', "3"),
        ("jsonl", b"\xc3(", "1"),
        ("trec", b"<DOC>\n<DOCNO>a</DOCNO>\n<TEXT>caf\xe9</TEXT>\n</DOC>\n", "3"),
        ("trec", b"<DOC><DOCNO>a</DOCNO><TEXT>x\xe2\x82", "1"),
    ],
    ids=["jsonl-line-3", "jsonl-line-1", "trec-line-3", "trec-truncated"],
)
def test_parse_corpus_names_the_line_of_bytes_that_are_not_utf8(tmp_path, fmt, data, where):
    path = tmp_path / f"corpus.{fmt}"
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:{where}: not UTF-8: byte 0x"):
        parse_corpus(path, fmt)


# --- fast paths against their definitions -------------------------------------

_SEPARATORS = [" ", "  ", "\t", "\n", ",", ".", "_", "-", "'", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0"]
_WORDS = st.one_of(
    st.sampled_from(sorted(STOPWORDS) + ["The", "AND", "It", "Not"]),
    st.text(alphabet="abcXYZ019_!?;", min_size=1, max_size=8),
    st.text(alphabet="éßΣİKǅ٣中k", min_size=1, max_size=4),  # Kelvin sign lowercases to "k"
)


@given(st.lists(st.tuples(_WORDS, st.sampled_from(_SEPARATORS)), max_size=30))
def test_tokenize_matches_regex_definition(parts):
    text = "".join(w + sep for w, sep in parts)
    assert tokenize(text) == oracle_tokenize(text)


@given(st.text(max_size=200))
def test_tokenize_matches_regex_definition_on_any_text(text):
    assert tokenize(text) == oracle_tokenize(text)


@pytest.mark.parametrize("text, tokens", [
    ("Kelvin", ["kelvin"]),  # ASCII only once lowercased
    ("İstanbul", ["i", "stanbul"]),  # lowercases to "i" and a combining dot
    ("snake_case\tTAB\x1fUNIT\xa0nbsp", ["snake", "case", "tab", "unit", "nbsp"]),
    ("The cat AND the hat", ["cat", "hat"]),
])
def test_tokenize_edges(text, tokens):
    assert tokenize(text) == tokens == oracle_tokenize(text)


_DAYS = st.integers(min_value=day_number(date(1, 1, 1)), max_value=day_number(date(9999, 12, 31)))


@st.composite
def _windows(draw):
    a, b, c, d = sorted(draw(st.lists(_DAYS, min_size=4, max_size=4)))
    # uncertain ends may overlap the start range: b_lo <= e_lo <= b_hi <= e_hi
    return TimeWindow(a, c, b, d) if draw(st.booleans()) else TimeWindow(a, b, c, d)


_DOCUMENTS = st.lists(
    st.tuples(
        st.text(min_size=1, max_size=6),
        st.lists(st.text(alphabet="ab1é中\"\\", min_size=1, max_size=4), max_size=6),
        st.frozensets(_windows(), max_size=3),
    ),
    max_size=8,
    unique_by=lambda doc: doc[0],
)


@given(_DOCUMENTS)
def test_write_corpus_matches_per_record_dumps(tmp_path_factory, docs):
    corpus = Corpus([Document(i, tokens, windows) for i, tokens, windows in docs])
    tmp = tmp_path_factory.mktemp("write")
    write_corpus(corpus, tmp / "got.jsonl")
    oracle_write_corpus(corpus, tmp / "want.jsonl")
    assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()


def test_write_corpus_matches_per_record_dumps_on_dated_edges(tmp_path):
    corpus = Corpus([
        Document("ünï-1", ["alpha", "beta"], frozenset({TimeWindow(-800, -790, -10, 5),
                                                          TimeWindow.instant(-1)})),
        Document("中文", ["γ"], frozenset({TimeWindow.instant(0), TimeWindow(3, 4, 3, 9),
                                           TimeWindow.instant(-719162)})),
        Document("plain", ["x"]),
    ])
    write_corpus(corpus, tmp_path / "got.jsonl")
    oracle_write_corpus(corpus, tmp_path / "want.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert '"0001-01-01"' in (tmp_path / "got.jsonl").read_text(encoding="utf-8")
    assert parse_corpus(tmp_path / "got.jsonl").documents == corpus.documents


# --- dates: exactly YYYY-MM-DD ------------------------------------------------


@pytest.mark.parametrize("bad", ["20130101", 20130101, "2013-W01-1", "2013W011", "2013-001", " 2013-1-01"])
def test_parse_jsonl_date_not_yyyy_mm_dd_is_malformed(tmp_path, bad):
    lines = [
        json.dumps({"id": "d1", "text": "alpha", "time": [[bad] * 4]}),
        json.dumps({"id": "d2", "text": "beta", "time": [[" 2013-01-01\t"] * 4]}),
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert [d.doc_id for d in corpus.documents] == ["d2"]
    assert corpus.documents[0].time_part == frozenset({TimeWindow.instant(parse_day("2013-01-01"))})
    assert corpus.n_malformed == 1


def test_mixed_fixture_takes_both_tokenizer_paths():
    path = Path(__file__).parent / "data" / "mixed_corpus.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    corpus = parse_corpus(path)
    assert corpus.n_malformed == 0
    assert [d.doc_id for d in corpus.documents] == [r["id"] for r in records]
    for doc, rec in zip(corpus.documents, records):
        assert doc.tokens == oracle_tokenize(rec["text"])
    ascii_path = {rec["text"].lower().isascii() for rec in records}
    assert ascii_path == {True, False}
    assert any(not rec["text"].isascii() and rec["text"].lower().isascii() for rec in records)
