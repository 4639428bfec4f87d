"""The BM25 index byte for byte against a term-by-term build, and the build's
memory peak against the index it leaves.

`test_flat_postings.py` compares postings as dicts, which any order of term
ids passes; here the ids' order, the bytes of every flat array and the order
of `doc_freq` must all be the reference's.
"""

import gc
import random
import sys
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from ragmark.store import Passage, build_index

from oracles import reference_index_arrays
from test_surface_reference import PIECES

# Periods before an ASCII space, a newline and a non-breaking space, dotted
# abbreviations, stopwords with and without a period, and one word in two
# cases and with two trailing marks; with the tokenizer's edge-case pieces.
INDEX_PIECES = st.sampled_from(
    ["İ", "ΟΔΟΣ.", "U.S.", "e.g.", ". ", "..", ".\n", ".\xa0", "The.", "the", "of",
     "(the", "Desert,", "desert.", "Desert", "water", "7.4", "a.", " ", "\t", "\n", "\xa0", "　"]
)
TEXT = st.lists(st.one_of(INDEX_PIECES, PIECES), max_size=30).map("".join)
CORPUS = st.lists(st.tuples(TEXT, TEXT), max_size=8)


def index_arrays(index) -> dict:
    assert index._docs.format == index._tfs.format == "i" and index._offsets.format in ("l", "q")
    return {
        "terms": list(index._term_ids),
        "docs": index._docs.tobytes(),
        "tfs": index._tfs.tobytes(),
        "offsets": index._offsets.tobytes(),
        "doc_lengths": index.doc_lengths,
        "doc_freq": list(index.doc_freq.items()),
    }


def check(pairs):
    passages = [Passage(f"d{i}", title, text or ".") for i, (title, text) in enumerate(pairs)]
    assert index_arrays(build_index(passages)) == reference_index_arrays(passages)


@given(CORPUS)
def test_the_index_is_the_term_by_term_build_byte_for_byte(pairs):
    check(pairs)


def test_named_corpora():
    check([])
    check([("The.", "the. The.\nThe.\xa0of")])  # stopwords only, each with its period
    check([("Desert,", "Water desert. U.S. e.g. ΟΔΟΣ. İ"), ("desert.", "Desert.. water.\nU.S.\xa0(the")])
    index = build_index([Passage("d0", "Desert,", "water. Desert"), Passage("d1", "Sand", "desert.")])
    assert list(index._term_ids) == ["desert", "water", "sand"]


def test_lowering_twice_is_lowering_once():
    # The build lowercases a passage, then `word_surfaces` lowercases each of its words again.
    assert [cp for cp in range(sys.maxunicode + 1) if chr(cp).lower().lower() != chr(cp).lower()] == []


def synthetic_kb(n_passages: int, seed: int) -> list[Passage]:
    """Passages shaped like the bm25-20k benchmark's: a capitalized title and
    eight capitalized five-word sentences, each with a stopword and a period,
    over a vocabulary of 20,000 made-up words; one last word in ten has a digit."""
    rng = random.Random(seed)
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    vocab = sorted({"".join(rng.choices(syllables, k=3)) for _ in range(21000)})[:20000]
    stopwords = ["the", "of", "and"]
    passages = []
    for i in range(n_passages):
        sentences = []
        for j in range(8):
            words = rng.sample(vocab, 4)
            if rng.random() < 0.1:
                words[-1] += str(rng.randrange(10))
            text = " ".join([words[0], stopwords[j % 3], *words[1:]])
            sentences.append(text.capitalize() + ".")
        passages.append(Passage(f"p{i:05d}", rng.choice(vocab).capitalize(), " ".join(sentences)))
    return passages


def test_the_build_peaks_at_most_twice_the_index_it_keeps():
    passages = synthetic_kb(20_000, seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        index = build_index(passages)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.n_docs == 20_000
    assert peak <= 2 * retained, f"peak {peak / 2**20:.1f} MiB, retained {retained / 2**20:.1f} MiB"
