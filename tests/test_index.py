"""Index construction, structural verification, binary round-trip."""
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_pruning_ratio, oracle_read_index, oracle_write_index

from tempoprune.corpus import Corpus, Document
from tempoprune.errors import CorpusFormatError, IndexConsistencyError, IndexFormatError
from tempoprune.index import (
    _HEADER,
    CollectionStats,
    InvertedIndex,
    Posting,
    PostingList,
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


def test_postings_view_reads_the_columns():
    plist = PostingList("b", ["d1", "d2"], [1, 3])
    assert plist.postings == [Posting("d1", 1), Posting("d2", 3)]
    assert plist.postings[1].doc_id == "d2" and plist.postings[1].tf == 3
    plist.postings.clear()  # a fresh list per read: the columns stay
    assert plist.doc_ids == ["d1", "d2"] and plist.tfs == [1, 3]


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
    broken.lists["apple"].tfs[0] = 99  # tf > doc length
    with pytest.raises(IndexConsistencyError):
        verify_index(broken)

    broken = copy.deepcopy(toy5_index)
    broken.stats.df["apple"] = 1
    with pytest.raises(IndexConsistencyError):
        verify_index(broken)

    broken = copy.deepcopy(toy5_index)
    broken.lists["apple"].doc_ids.reverse()
    with pytest.raises(IndexConsistencyError):
        verify_index(broken)

    broken = copy.deepcopy(toy5_index)
    broken.lists["apple"].tfs.pop()
    with pytest.raises(IndexConsistencyError, match="'apple' has 4 doc ids, 3 tfs"):
        verify_index(broken)


def test_empty_posting_list_is_rejected(tmp_path):
    """No index writes a list of no postings (`subset_index` drops emptied
    lists), so `verify_index` and both readers reject one, naming the term."""
    index = build_index(_mini_corpus())
    assert all(pl.doc_ids for pl in index.lists.values())
    index.lists["c"] = PostingList("c", [], [])
    index.stats.df["c"] = index.stats.ctf["c"] = 0
    with pytest.raises(IndexConsistencyError, match="posting list for 'c' is empty"):
        verify_index(index)
    path = tmp_path / "e.idx"
    write_index(index, path)
    for read in (read_index, oracle_read_index):
        with pytest.raises(IndexFormatError, match="term 'c': empty posting list"):
            read(path)


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


# The apple list of toy5: term, df 4, ctf 6, 4 postings, doc number gaps.
_APPLE_GAPS = b"apple\x04\x06\x04\x00\x01\x01\x02"
_BIGGEST_9_BYTE_VARINT = b"\xff" * 8 + b"\x7f"  # 2**63 - 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        (b"\x02d1", b"\x02\xffd", "not UTF-8"),  # doc id d1 becomes invalid UTF-8
        # d1: b_lo 101 > b_hi 100
        (bytes([0xC8, 1] * 4), bytes([0xCA, 1] + [0xC8, 1] * 3), "document 'd1'"),
        (b"", b"\x00", "1 trailing payload bytes"),
        # apple's first doc number, 0, spread over ten bytes
        (_APPLE_GAPS, _APPLE_GAPS[:-4] + b"\x80" * 9 + b"\x00\x01\x01\x02",
         "term 'apple': varint longer than 9 bytes"),
        # gaps 0, 2**63-1, 2**63-1, 2: summed in 64 bits they would end on doc number 0
        (_APPLE_GAPS, _APPLE_GAPS[:-4] + b"\x00" + _BIGGEST_9_BYTE_VARINT * 2 + b"\x02",
         "term 'apple': doc id gap of at least 5 documents"),
        # apple's postings d1 d2 d3 d5 become d1 d1 d2 d4
        (_APPLE_GAPS, _APPLE_GAPS[:-4] + b"\x00\x00\x01\x02",
         "term 'apple': doc ids not strictly ascending"),
        (b"\x02d2", b"\x02d0", "document ids not strictly ascending"),  # d1 before d0
    ],
    ids=["bad-utf8-doc-id", "inconsistent-window", "trailing-bytes", "overlong-varint",
         "wrapping-gaps", "repeated-doc-number", "unsorted-doc-ids"],
)
def test_read_rejects_rehashed_bad_payload(tmp_path, toy5_blob, old, new, message):
    payload = _payload(toy5_blob)
    if old:
        assert payload.count(old) == 1
        payload = payload.replace(old, new)
    else:
        payload += new
    path = tmp_path / "bad.idx"
    path.write_bytes(_rehashed(toy5_blob, payload))
    with pytest.raises(IndexFormatError, match=message):
        read_index(path)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=4,
)


def _mutated(blob: bytes, edits) -> bytes:
    """`blob` with `edits` applied to its payload, rehashed."""
    payload = bytearray(_payload(blob))
    for op, pos, value in edits:
        pos %= len(payload) + 1
        if op == "insert":
            payload.insert(pos, value)
        elif pos < len(payload):
            if op == "set":
                payload[pos] = value
            else:
                del payload[pos]
    return _rehashed(blob, bytes(payload))


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS)
def test_read_rehashed_mutations_give_index_or_format_error(tmp_path_factory, toy5_blob, edits):
    path = tmp_path_factory.mktemp("fuzz") / "m.idx"
    path.write_bytes(_mutated(toy5_blob, edits))
    try:
        index = read_index(path)
    except IndexFormatError:
        return
    assert isinstance(index, InvertedIndex)
    try:
        verify_index(index)
    except IndexConsistencyError:
        pass


def _read_both(path):
    """What `read_index` and `oracle_read_index` make of `path`: an index,
    or the IndexFormatError raised."""
    outcomes = []
    for read in (read_index, oracle_read_index):
        try:
            outcomes.append(read(path))
        except IndexFormatError as exc:
            outcomes.append(exc)
    return outcomes


_TFS = (1, 2, 127, 128, 16_383, 16_384, 2**62, 2**63 - 1)  # one to nine varint bytes


@st.composite
def _random_index(draw) -> InvertedIndex:
    """Up to 8 posting lists over up to 300 documents, so that doc number
    gaps take one or two varint bytes.  Doc ids are arbitrary text (beyond
    ASCII too) and padding ids "é000"...; tfs come from a few values, so
    they tie; any list may hold one posting.  Some documents are dated."""
    names = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
                          min_size=1, max_size=6))
    doc_ids = sorted(set(names) | {f"é{i:03d}" for i in range(draw(st.integers(0, 300)))})
    lists = {}
    for term in draw(st.lists(st.text(min_size=1, max_size=3), unique=True, min_size=1, max_size=8)):
        nums = sorted(draw(st.sets(st.integers(0, len(doc_ids) - 1), min_size=1, max_size=40)))
        tfs = draw(st.lists(st.sampled_from(_TFS), min_size=len(nums), max_size=len(nums)))
        lists[term] = PostingList(term, [doc_ids[i] for i in nums], tfs)
    days = draw(st.lists(st.integers(-400, 400), max_size=len(doc_ids)))
    doc_len = {d: 2**63 for d in doc_ids}
    stats = CollectionStats(
        n_docs=len(doc_ids), doc_len=doc_len, total_len=sum(doc_len.values()), avgdl=2.0**63,
        df={t: len(pl.doc_ids) for t, pl in lists.items()},
        ctf={t: sum(pl.tfs) for t, pl in lists.items()},
    )
    doc_times = {d: frozenset({TimeWindow.instant(day)}) for d, day in zip(doc_ids, days)}
    return InvertedIndex(lists, stats, doc_times, pruned=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(index=_random_index())
def test_read_index_matches_oracle_on_random_indexes(tmp_path_factory, index):
    path = tmp_path_factory.mktemp("diff") / "r.idx"
    write_index(index, path)
    got, want = _read_both(path)
    assert got == want
    assert got.lists == index.lists


@settings(max_examples=300, deadline=None)
@given(edits=_EDITS)
def test_read_index_matches_oracle_on_rehashed_mutations(tmp_path_factory, toy5_blob, edits):
    path = tmp_path_factory.mktemp("diff") / "m.idx"
    path.write_bytes(_mutated(toy5_blob, edits))
    got, want = _read_both(path)
    if isinstance(got, IndexFormatError) and "varint longer than 9 bytes" in str(got):
        return  # the one input the oracle's unbounded varints may accept
    if isinstance(want, IndexFormatError):
        assert isinstance(got, IndexFormatError), want
    else:
        assert got == want


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
    fake.lists["apple"].tfs[0] = 7
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


# --- pruning_ratio against its per-posting definition ---------------------------


def _ratio_outcome(check, original, pruned):
    try:
        return check(original, pruned)
    except IndexConsistencyError as exc:
        return str(exc)


def _with_lists(index, lists: dict) -> InvertedIndex:
    return InvertedIndex(
        {t: PostingList(t, list(ids), list(tfs)) for t, (ids, tfs) in lists.items()},
        index.stats, index.doc_times, pruned=True,
    )


@pytest.mark.parametrize(
    "lists, message",
    [
        ({"kiwi": (["d1"], [1])}, "pruned index has unknown term 'kiwi'"),
        ({"apple": (["d1"], [7])}, "posting ('apple', 'd1') is not in the original index"),
        ({"apple": (["d1", "d4"], [2, 1])}, "posting ('apple', 'd4') is not in the original index"),
        ({"apple": (["d3", "d1", "d9"], [2, 2, 1])}, "posting ('apple', 'd9') is not in the original index"),
        ({"apple": (["d1"], [2]), "banana": (["zz"], [1])}, "posting ('banana', 'zz') is not in the original index"),
    ],
    ids=["unknown-term", "tf-differs", "doc-not-in-list", "unsorted-then-foreign", "second-list"],
)
def test_pruning_ratio_rejections_match_oracle(toy5_index, lists, message):
    pruned = _with_lists(toy5_index, lists)
    with pytest.raises(IndexConsistencyError) as exc:
        pruning_ratio(toy5_index, pruned)
    assert str(exc.value) == message
    assert _ratio_outcome(oracle_pruning_ratio, toy5_index, pruned) == message


def test_pruning_ratio_rejects_an_index_without_postings(toy5_index):
    empty = subset_index(toy5_index, {})
    with pytest.raises(IndexConsistencyError, match="original index has no postings"):
        pruning_ratio(empty, empty)


def test_pruning_ratio_accepts_unsorted_and_repeated_subset_postings(toy5_index):
    # neither is a subsequence of the base list; the doc_id -> tf table
    # accepts both, as it did before
    apple = toy5_index.lists["apple"]
    for ids, tfs in ((apple.doc_ids[::-1], apple.tfs[::-1]), (apple.doc_ids[:1] * 2, apple.tfs[:1] * 2)):
        pruned = _with_lists(toy5_index, {"apple": (ids, tfs)})
        assert pruning_ratio(toy5_index, pruned) == oracle_pruning_ratio(toy5_index, pruned)


@settings(max_examples=150, deadline=None)
@given(index=_random_index(), data=st.data())
def test_pruning_ratio_matches_oracle_on_random_sub_lists(index, data):
    lists = {}
    for term, pl in index.lists.items():
        pairs = [p for p in zip(pl.doc_ids, pl.tfs) if data.draw(st.booleans())]
        if data.draw(st.integers(0, 3)) == 0:
            pairs = data.draw(st.permutations(pairs))
        if data.draw(st.integers(0, 3)) == 0:
            doc = data.draw(st.sampled_from(sorted(index.stats.doc_len)))
            pairs.insert(data.draw(st.integers(0, len(pairs))), (doc, data.draw(st.sampled_from(_TFS))))
        lists[term] = ([d for d, _ in pairs], [tf for _, tf in pairs])
    if data.draw(st.booleans()):
        lists["\x00unknown"] = (["x"], [1])
    pruned = _with_lists(index, lists)
    assert _ratio_outcome(pruning_ratio, index, pruned) == _ratio_outcome(oracle_pruning_ratio, index, pruned)


# --- the writer against its per-varint definition ---------------------------------


@settings(max_examples=150, deadline=None)
@given(index=_random_index())
def test_write_index_matches_oracle_on_random_indexes(tmp_path_factory, index):
    path = tmp_path_factory.mktemp("write")
    write_index(index, path / "fast.idx")
    oracle_write_index(index, path / "slow.idx")
    assert (path / "fast.idx").read_bytes() == (path / "slow.idx").read_bytes()


@pytest.mark.parametrize(
    "nums, tfs",
    [
        ([0, 127, 254], [127, 127, 127]),  # gaps of 127: one byte each
        ([0, 128, 255], [128, 1, 127]),  # gaps and a tf of 128: two bytes
        ([128, 129, 130], [1, 1, 1]),  # a first doc number of 128, one-byte gaps
        ([200], [2**63 - 1]),  # one posting, both values wide
        ([5, 6, 300], [1, 2**63 - 1, 3]),  # one wide gap, one wide tf
    ],
)
def test_write_index_matches_oracle_at_varint_boundaries(tmp_path, nums, tfs):
    docs = [f"d{i:03d}" for i in range(301)]
    index = InvertedIndex(
        {"t": PostingList("t", [docs[n] for n in nums], tfs)},
        CollectionStats(n_docs=301, doc_len={d: 2**63 for d in docs}, total_len=301 * 2**63,
                        avgdl=2.0**63, df={"t": len(nums)}, ctf={"t": sum(tfs)}),
        {},
    )
    write_index(index, tmp_path / "fast.idx")
    oracle_write_index(index, tmp_path / "slow.idx")
    assert (tmp_path / "fast.idx").read_bytes() == (tmp_path / "slow.idx").read_bytes()
    assert read_index(tmp_path / "fast.idx").lists == index.lists


def test_write_index_rejects_negative_values_as_before(tmp_path, toy5_index):
    import copy

    for column in ("tfs", "doc_ids"):
        bad = copy.deepcopy(toy5_index)
        pl = bad.lists["apple"]
        if column == "tfs":
            pl.tfs[1] = -1
        else:
            pl.doc_ids.reverse()  # a negative doc number gap
        with pytest.raises(ValueError, match="varint must be non-negative"):
            write_index(bad, tmp_path / "bad.idx")
        with pytest.raises(ValueError, match="varint must be non-negative"):
            oracle_write_index(bad, tmp_path / "bad.idx")
