"""The BM25 index's flat postings against a per-passage `Counter` build, and
concurrent queries over one index against serial ones."""

import random
import sys
import threading
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ragmark.store import Passage, build_index

from oracles import reference_postings
from test_surface_reference import PIECES

# Content words in two cases, stopwords, words with inner punctuation, and the
# tokenizer's edge-case pieces, joined by assorted whitespace.
WORDS = st.one_of(
    PIECES,
    st.sampled_from(["desert", "Desert", "water", "the", "of", "And", "sand-dune", "7.4", " ", "\t", "\u3000", "\x85"]),
)
TEXT = st.lists(WORDS, max_size=25).map("".join)
STOPWORD_TEXT = st.lists(st.sampled_from(["the", "of", "And", "a", " ", ".", "--"]), max_size=10).map("".join)
PASSAGE = st.tuples(st.one_of(TEXT, STOPWORD_TEXT), st.one_of(TEXT, STOPWORD_TEXT))
# Some passages repeated verbatim at the end, under their own ids.
CORPUS = st.tuples(st.lists(PASSAGE, max_size=10), st.integers(0, 3)).map(lambda c: c[0] + c[0][: c[1]])


def make_passages(pairs):
    return [Passage(f"d{i}", title, text or ".") for i, (title, text) in enumerate(pairs)]


def flat_postings(index) -> dict[str, dict[int, int]]:
    """term -> {passage index: tf}, read from the index's flat arrays."""
    out = {}
    for term, t in index._term_ids.items():
        lo, hi = index._offsets[t], index._offsets[t + 1]
        docs = index._docs[lo:hi].tolist()
        assert docs == sorted(set(docs)), f"{term!r}: passages not strictly ascending"
        out[term] = dict(zip(docs, index._tfs[lo:hi].tolist()))
    return out


def check_against_reference(passages):
    index = build_index(passages)
    postings, lengths = reference_postings(passages)
    assert index._docs.obj.dtype == index._tfs.obj.dtype == np.int32
    assert len(index._offsets) == len(index._term_ids) + 1
    assert index._offsets[len(index._term_ids)] == len(index._docs) == len(index._tfs)
    assert flat_postings(index) == postings
    assert index.doc_freq == Counter({term: len(docs) for term, docs in postings.items()})
    assert index.doc_lengths == lengths
    assert index.avg_doc_length == (sum(lengths) / len(lengths) if lengths else 0.0)
    for term, docs in postings.items():
        assert index._term(term) == (index.idf(term), docs)
    assert index._term("absent-term") == (index.idf("absent-term"), {})


@given(CORPUS)
def test_flat_postings_match_a_counter_per_passage(pairs):
    check_against_reference(make_passages(pairs))


def test_named_corpora():
    check_against_reference([])
    check_against_reference(make_passages([("The", "of the and."), ("", "--- ... !")]))  # stopwords only
    twins = [("Desert", "Desert sand, desert water."), ("Desert", "Desert sand, desert water.")]
    check_against_reference(make_passages(twins + [("River", "water\x85water\u3000river")]))
    everywhere = make_passages([("Water", "water in rivers"), ("Rivers", "Water."), ("", "salt WATER water")])
    check_against_reference(everywhere)
    assert build_index(everywhere)._term("water")[1] == {0: 2, 1: 1, 2: 2}
    index = build_index(make_passages(twins))
    assert flat_postings(index) == {"desert": {0: 3, 1: 3}, "sand": {0: 1, 1: 1}, "water": {0: 1, 1: 1}}


def test_concurrent_queries_give_the_serial_rankings():
    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(80)]
    passages = [Passage(f"p{i:03d}", rng.choice(vocab), " ".join(rng.choices(vocab, k=15))) for i in range(400)]
    queries = [" ".join(rng.sample(vocab, rng.randint(1, 5)) + ["unseen"]) for _ in range(150)]
    serial = build_index(passages)
    expected = [[p.id for p in serial.top_k(q, 12)] for q in queries]

    index = build_index(passages)  # fresh: no query has read a term's postings yet
    barrier = threading.Barrier(4, timeout=30)
    results: dict[int, list] = {}

    def run(n):
        barrier.wait()
        order = list(range(len(queries)))
        order = order[n * 37 :] + order[: n * 37]  # each thread starts elsewhere
        ranks = {i: [p.id for p in index.top_k(queries[i], 12)] for i in order}
        results[n] = [ranks[i] for i in range(len(queries))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for n in range(4):
        assert results[n] == expected
    assert index._queried == serial._queried
