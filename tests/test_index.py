"""Index construction, structural verification, binary round-trip."""
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempoprune.corpus import Corpus, Document
from tempoprune.errors import CorpusFormatError, IndexConsistencyError, IndexFormatError
from tempoprune.index import (
    _HEADER,
    InvertedIndex,
    Posting,
    build_index,
    pruning_ratio,
    read_index,
    subset_index,
    verify_index,
    write_index,
)
from tempoprune.timewindows import TimeWindow


def _mini_corpus():
    return Corpus(
        documents=[
            Document("d1", ["a", "b", "a"]),
            Document("d2", ["b"]),
        ]
    )


def test_build_index_hand_counts():
    idx = build_index(_mini_corpus())
    assert [(p.doc_id, p.tf) for p in idx.lists["a"].postings] == [("d1", 2)]
    assert [(p.doc_id, p.tf) for p in idx.lists["b"].postings] == [("d1", 1), ("d2", 1)]
    assert idx.stats.n_docs == 2
    assert idx.stats.avgdl == 2.0
    assert idx.stats.df == {"a": 1, "b": 2}
    assert idx.stats.ctf == {"a": 2, "b": 2}
    assert idx.posting_count() == 3


def test_build_index_rejects_empty_corpus():
    with pytest.raises(CorpusFormatError):
        build_index(Corpus(documents=[]))


def test_build_index_rejects_duplicate_doc_ids():
    corpus = Corpus(documents=[Document("d1", ["a"]), Document("d1", ["b"])])
    with pytest.raises(IndexConsistencyError):
        build_index(corpus)


def test_verify_accepts_fresh_index(rand_index):
    verify_index(rand_index)


def test_verify_detects_corruption(toy5_index):
    import copy

    broken = copy.deepcopy(toy5_index)
    broken.lists["apple"].postings[0] = Posting("d1", 99)  # tf > doc length
    with pytest.raises(IndexConsistencyError):
        verify_index(broken)

    broken = copy.deepcopy(toy5_index)
    broken.stats.df["apple"] = 1
    with pytest.raises(IndexConsistencyError):
        verify_index(broken)

    broken = copy.deepcopy(toy5_index)
    broken.lists["apple"].postings.reverse()
    with pytest.raises(IndexConsistencyError):
        verify_index(broken)


def test_write_is_deterministic(tmp_path, rand_index):
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    write_index(rand_index, p1)
    write_index(rand_index, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_write_roundtrip(tmp_path, rand_index):
    path = tmp_path / "r.idx"
    write_index(rand_index, path)
    back = read_index(path)
    verify_index(back)
    assert back.lists.keys() == rand_index.lists.keys()
    for term, pl in rand_index.lists.items():
        assert back.lists[term].postings == pl.postings
    assert back.stats.doc_len == rand_index.stats.doc_len
    assert back.stats.df == rand_index.stats.df
    assert back.stats.ctf == rand_index.stats.ctf
    assert back.stats.avgdl == pytest.approx(rand_index.stats.avgdl)
    assert back.doc_times == rand_index.doc_times
    assert back.pruned == rand_index.pruned


def test_time_order_is_neither_written_nor_compared(tmp_path, toy5_corpus):
    index = build_index(toy5_corpus)
    before, after = tmp_path / "before.idx", tmp_path / "after.idx"
    write_index(index, before)
    assert index.docs_meeting([TimeWindow.certain(150, 300)]) == {"d2", "d3"}
    assert index.doc_days == {"d1": (100,), "d2": (200,), "d3": (300,), "d4": (400,), "d5": (500,)}
    write_index(index, after)
    assert before.read_bytes() == after.read_bytes()
    assert index == build_index(toy5_corpus)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(IndexFormatError):
        read_index(path)


def test_read_rejects_truncation(tmp_path, toy5_index):
    path = tmp_path / "t.idx"
    write_index(toy5_index, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(IndexFormatError):
        read_index(path)


def test_read_rejects_flipped_payload_byte(tmp_path, toy5_index):
    path = tmp_path / "t.idx"
    write_index(toy5_index, path)
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFormatError):
        read_index(path)


def _payload(blob: bytes) -> bytes:
    return blob[_HEADER.size : -32]


def _rehashed(blob: bytes, payload: bytes) -> bytes:
    """`blob` with its payload replaced and the length and checksum redone,
    so that only the reader's payload checks stand between it and the data."""
    magic, version, flags, _ = _HEADER.unpack_from(blob)
    header = _HEADER.pack(magic, version, flags, len(payload))
    return header + payload + hashlib.sha256(payload).digest()


@pytest.fixture(scope="module")
def toy5_blob(tmp_path_factory, toy5_index) -> bytes:
    path = tmp_path_factory.mktemp("blob") / "toy5.idx"
    write_index(toy5_index, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "old, new",
    [
        (b"\x02d1", b"\x02\xffd"),  # doc id d1 becomes invalid UTF-8
        (bytes([0xC8, 1] * 4), bytes([0xCA, 1] + [0xC8, 1] * 3)),  # d1: b_lo 101 > b_hi 100
        (b"", b"\x00"),  # one trailing payload byte
    ],
    ids=["bad-utf8-doc-id", "inconsistent-window", "trailing-bytes"],
)
def test_read_rejects_rehashed_bad_payload(tmp_path, toy5_blob, old, new):
    payload = _payload(toy5_blob)
    if old:
        assert payload.count(old) == 1
        payload = payload.replace(old, new)
    else:
        payload += new
    path = tmp_path / "bad.idx"
    path.write_bytes(_rehashed(toy5_blob, payload))
    with pytest.raises(IndexFormatError):
        read_index(path)


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["set", "insert", "delete"]),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_read_rehashed_mutations_give_index_or_format_error(tmp_path_factory, toy5_blob, edits):
    payload = bytearray(_payload(toy5_blob))
    for op, pos, value in edits:
        pos %= len(payload) + 1
        if op == "insert":
            payload.insert(pos, value)
        elif pos < len(payload):
            if op == "set":
                payload[pos] = value
            else:
                del payload[pos]
    path = tmp_path_factory.mktemp("fuzz") / "m.idx"
    path.write_bytes(_rehashed(toy5_blob, bytes(payload)))
    try:
        index = read_index(path)
    except IndexFormatError:
        return
    assert isinstance(index, InvertedIndex)
    try:
        verify_index(index)
    except IndexConsistencyError:
        pass


def _whole(index, term):
    return {p.doc_id for p in index.lists[term].postings}


def test_subset_keeps_stats_frozen(toy5_index):
    keep = {"apple": {"d1", "d3"}, "banana": _whole(toy5_index, "banana")}
    sub = subset_index(toy5_index, keep)
    assert sorted(sub.lists) == ["apple", "banana"]
    assert [p.doc_id for p in sub.lists["apple"].postings] == ["d1", "d3"]
    assert len(sub.lists["banana"].postings) == toy5_index.stats.df["banana"]
    assert sub.pruned
    # frozen stats: df/ctf/lengths are the build-time values
    assert sub.stats is toy5_index.stats
    verify_index(sub)


def test_subset_drops_emptied_lists(toy5_index):
    sub = subset_index(toy5_index, {"apple": set()})
    assert "apple" not in sub.lists
    assert sub.posting_count() == 0


def test_pruning_ratio_arithmetic(toy5_index):
    # 16 postings total; keep 12 -> ratio 0.25, then the 1000 -> 600 hand case
    sub = subset_index(
        toy5_index, {t: _whole(toy5_index, t) for t in toy5_index.lists if t != "apple"}
    )
    assert pruning_ratio(toy5_index, sub) == pytest.approx(4 / 16)
    assert 1.0 - 600 / 1000 == pytest.approx(0.4)


def test_pruning_ratio_monotone(toy5_index):
    banana = _whole(toy5_index, "banana")
    smaller = subset_index(toy5_index, {"apple": {"d1", "d2"}, "banana": banana})
    larger = subset_index(toy5_index, {"apple": {"d1", "d2", "d3"}, "banana": banana})
    assert pruning_ratio(toy5_index, smaller) > pruning_ratio(toy5_index, larger)


def test_pruning_ratio_rejects_foreign_postings(toy5_index):
    import copy

    fake = copy.deepcopy(toy5_index)
    fake.lists["apple"].postings[0] = Posting("d1", 7)
    with pytest.raises(IndexConsistencyError):
        pruning_ratio(toy5_index, fake)


def test_verify_pruned_index_allows_frozen_overcount(toy5_index):
    sub = subset_index(toy5_index, {"apple": {"d1"}})
    verify_index(sub)  # df=4 > 1 retained posting is fine on a pruned index
    # but an unpruned index with the same mismatch fails
    sub.pruned = False
    with pytest.raises(IndexConsistencyError):
        verify_index(sub)


def test_pruned_flag_survives_roundtrip(tmp_path, toy5_index):
    sub = subset_index(toy5_index, {"apple": {"d1"}})
    path = tmp_path / "p.idx"
    write_index(sub, path)
    assert read_index(path).pruned
