"""Synthetic corpora with controlled temporal structure.

`random_corpus` gives a seeded general-purpose corpus with one bursty
term.  `two_burst_corpus` is a precision instrument: a single probe term
occurring in two temporally distant bursts whose relevance is skewed
toward the first, surrounded by filler lists engineered so that global
threshold tuning can land exactly on a 50% pruning ratio.  Tf-idf style
pruning then drops the whole second burst while diversity-aware pruning
keeps part of it, which is the behavior the end-to-end tests pin down.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import accumulate, repeat, starmap

import numpy as np

from .corpus import Corpus, Document
from .evaluation import Qrels
from .search import Query
from .timewindows import TimeWindow, day_number


def random_corpus(
    n_docs: int = 300,
    seed: int = 0,
    start_day: int | None = None,
    span_days: int = 1461,
    vocab_size: int = 120,
    burst_term: str = "disaster",
) -> Corpus:
    """Seeded corpus: Zipf-ish vocabulary, per-doc random dates, a tenth of
    the docs undated, a slice with uncertain windows, and `burst_term`
    concentrated in two 40-day bursts."""
    if start_day is None:
        start_day = day_number(date(2000, 1, 1))
    rng = random.Random(seed)
    vocab = [f"w{i:03d}" for i in range(vocab_size)]
    cum_weights = np.fromiter(accumulate(1.0 / (i + 3) for i in range(vocab_size)), float, vocab_size)
    burst_centers = (start_day + 200, start_day + 900)
    # Each document's vocabulary draws are the uniforms `rng.choices` would
    # take, in the same order; they are mapped to words after the loop.
    draws = array("d")
    planned = []  # (draw count, burst count, time part) per document
    for i in range(n_docs):
        day = rng.randint(start_day, start_day + span_days - 1)
        length = rng.randint(30, 80)
        in_burst = any(abs(day - c) <= 20 for c in burst_centers)
        if in_burst:
            n_burst = rng.randint(1, 4)
        else:
            n_burst = 1 if rng.random() < 0.02 else 0
        k = max(1, length - n_burst)
        draws.extend(starmap(rng.random, repeat((), k)))
        u = rng.random()
        if u < 0.10:
            time_part: frozenset[TimeWindow] = frozenset()
        elif u < 0.25:
            before = rng.randint(0, 5)
            after = rng.randint(0, 5)
            time_part = frozenset({TimeWindow(day - before, day, day, day + after)})
        else:
            time_part = frozenset({TimeWindow.instant(day)})
        planned.append((k, n_burst, time_part))
    # `choices` bisects `random() * total` in all cumulative weights but the
    # last, so that no pick lies beyond the last word
    scaled = np.frombuffer(draws)
    scaled *= cum_weights[-1]
    picks = np.searchsorted(cum_weights[:-1], scaled, side="right")
    del scaled, draws  # freed before the token lists are built
    documents = []
    end = 0
    for i, (k, n_burst, time_part) in enumerate(planned):
        tokens = list(map(vocab.__getitem__, picks[end:end + k].tolist()))
        end += k
        tokens += [burst_term] * n_burst
        documents.append(Document(doc_id=f"d{i:04d}", tokens=tokens, time_part=time_part))
    return Corpus(documents=documents)


# --- two-burst construction ------------------------------------------------

PROBE_TERM = "storm"
N_FILLER_TERMS = 50
FILLER_DOC_LEN = 20
A_DAYS = tuple(range(100, 110))
B_DAYS = tuple(range(300, 310))
# Filler tf multiset: 60 postings per term, ten of them at tf 10 so the
# 10-deep tf-idf cutoff anchors exactly at tf 10.
_FILLER_TF_COUNTS = {1: 7, 2: 7, 3: 6, 4: 5, 5: 5, 6: 6, 7: 6, 8: 4, 9: 4, 10: 10}


@dataclass
class TwoBurstSpec:
    term: str
    a_doc_ids: tuple[str, ...]
    b_doc_ids: tuple[str, ...]
    b_days: tuple[int, ...]


def _filler_term(i: int) -> str:
    return f"topic{i:02d}"


def _pack_filler_docs(postings: list[tuple[int, int]]) -> list[dict[int, int]]:
    """Largest-first placement of (tf, term) postings into docs of capacity
    FILLER_DOC_LEN, one posting per term per doc; a posting that fits
    nowhere opens a fresh doc."""
    open_docs: list[tuple[int, set[int], dict[int, int]]] = []
    for tf, term in sorted(postings, key=lambda p: (-p[0], p[1])):
        best = -1
        best_free = -1
        for i, (free, terms, _) in enumerate(open_docs):
            if free >= tf and term not in terms and free > best_free:
                best, best_free = i, free
        if best < 0:
            open_docs.append((FILLER_DOC_LEN - tf, {term}, {term: tf}))
        else:
            free, terms, bag = open_docs[best]
            terms.add(term)
            bag[term] = tf
            open_docs[best] = (free - tf, terms, bag)
    return [bag for _, _, bag in open_docs]


def two_burst_corpus() -> tuple[Corpus, TwoBurstSpec]:
    """Corpus where the probe term bursts on days 100-109 (tf 3, length-20
    docs) and again on days 300-309 (tf 1, length-17 docs), so first-burst
    relevance strictly dominates.  Filler terms occur 60 times each with a
    fixed tf multiset; their tf-1 postings pad the probe docs, the rest
    pack into length-20 filler docs."""
    documents = []
    a_ids = tuple(f"a{d}" for d in A_DAYS)
    b_ids = tuple(f"b{d}" for d in B_DAYS)

    # tf-1 slots inside the probe docs, round-robin over filler terms
    slot_term = 0
    probe_plan = [(i, d, 3, 20) for i, d in zip(a_ids, A_DAYS)] + [
        (i, d, 1, 17) for i, d in zip(b_ids, B_DAYS)
    ]
    for doc_id, day, probe_tf, doc_len in probe_plan:
        tokens = [PROBE_TERM] * probe_tf
        for _ in range(doc_len - probe_tf):
            tokens.append(_filler_term(slot_term % N_FILLER_TERMS))
            slot_term += 1
        documents.append(
            Document(
                doc_id=doc_id,
                tokens=tokens,
                time_part=frozenset({TimeWindow.instant(day)}),
            )
        )

    used_in_probe = {i: 0 for i in range(N_FILLER_TERMS)}
    for doc in documents:
        for tok in doc.tokens:
            if tok != PROBE_TERM:
                used_in_probe[int(tok.removeprefix("topic"))] += 1

    remaining: list[tuple[int, int]] = []
    for term_idx in range(N_FILLER_TERMS):
        counts = dict(_FILLER_TF_COUNTS)
        counts[1] -= used_in_probe[term_idx]
        if counts[1] < 0:
            raise AssertionError("probe docs consumed more tf-1 postings than exist")
        for tf, n in counts.items():
            remaining.extend((tf, term_idx) for _ in range(n))
    for i, bag in enumerate(_pack_filler_docs(remaining)):
        tokens = []
        for term_idx in sorted(bag):
            tokens.extend([_filler_term(term_idx)] * bag[term_idx])
        day = 100 + (i % 210)
        documents.append(
            Document(
                doc_id=f"f{i:04d}",
                tokens=tokens,
                time_part=frozenset({TimeWindow.instant(day)}),
            )
        )

    corpus = Corpus(documents=documents)
    spec = TwoBurstSpec(term=PROBE_TERM, a_doc_ids=a_ids, b_doc_ids=b_ids, b_days=B_DAYS)
    return corpus, spec


def two_burst_queries(spec: TwoBurstSpec) -> tuple[list[Query], Qrels]:
    """One single-day exclusive probe query per second-burst day; the lone
    doc published that day is its only relevant."""
    queries = []
    grades = {}
    for day, doc_id in zip(spec.b_days, spec.b_doc_ids):
        qid = f"q{day}"
        queries.append(Query(qid, [spec.term], frozenset({TimeWindow.instant(day)})))
        grades[(qid, doc_id)] = 1
    return queries, Qrels(grades)
