"""`random_corpus` against its per-document `rng.choices` definition."""
import random
from types import SimpleNamespace

import pytest
from oracles import oracle_random_corpus

from tempoprune import synth
from tempoprune.synth import random_corpus

SHAPES = [dict(n_docs=300, vocab_size=500), dict(n_docs=300, vocab_size=50),
          dict(n_docs=2500, vocab_size=500), dict()]


@pytest.mark.parametrize("shape", SHAPES, ids=["300x500", "300x50", "2500x500", "defaults"])
@pytest.mark.parametrize("seed", range(11))
def test_random_corpus_matches_per_document_choices(seed, shape):
    assert random_corpus(seed=seed, **shape) == oracle_random_corpus(seed=seed, **shape)


class _TopRandom(random.Random):
    """Every uniform draw is `top`; integers are drawn as usual."""

    top = 1 - 2**-53  # the largest value `random()` returns

    def random(self):
        return self.top

    def getrandbits(self, k):
        # defined here, so that `randint` keeps drawing bits, not `random()`
        return super().getrandbits(k)


class _OneRandom(_TopRandom):
    top = 1.0  # beyond `random()`'s range: `random() * total` is the total itself


@pytest.mark.parametrize("rng_class", [_TopRandom, _OneRandom])
def test_random_corpus_top_draws_pick_the_last_word(monkeypatch, rng_class):
    monkeypatch.setattr(synth, "random", SimpleNamespace(Random=rng_class))
    got = random_corpus(n_docs=40, seed=3, vocab_size=7)
    assert got == oracle_random_corpus(n_docs=40, seed=3, vocab_size=7, rng_class=rng_class)
    assert {t for d in got.documents for t in d.tokens} == {"w006", "disaster"}
