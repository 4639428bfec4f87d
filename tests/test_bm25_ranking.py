import random

import pytest

from ragmark.errors import DuplicateId
from ragmark.store import Bm25Params, Passage, build_index
from ragmark.text import extract_terms

from oracles import bm25_reference

# Few content words, so passages share terms and tie; stopwords, so some
# passages have no content term at all.
CONTENT = ["dune", "oasis", "camel", "salt", "wadi", "mesa"]
STOP = ["the", "of", "and"]
QUERIES = ["", "of the and", "zebra", "zebra dune", "dune dune oasis", "Camel, salt!", "mesa wadi oasis salt"]
PARAMS = [Bm25Params(), Bm25Params(k1=0.0), Bm25Params(b=0.0), Bm25Params(b=1.0)]


def random_corpus(rng: random.Random) -> list[Passage]:
    n = rng.randint(1, 12)
    ids = rng.sample([f"p{i:02d}" for i in range(40)], n)  # not in insertion order
    passages = []
    for pid in ids:
        if passages and rng.random() < 0.2:  # an exact copy under another id
            twin = rng.choice(passages)
            passages.append(Passage(pid, twin.title, twin.text))
            continue
        words = rng.choices(CONTENT + STOP, k=rng.randint(1, 8))
        title = " ".join(rng.choices(CONTENT + STOP, k=rng.randint(0, 2)))
        passages.append(Passage(pid, title.title(), " ".join(words) + "."))
    return passages


def full_sort_top_k(index, query: str, k: int) -> list[str]:
    """Score every passage and sort them all."""
    surfaces = [t.surface for t in extract_terms(query, drop_stopwords=True)]
    ranked = sorted(range(index.n_docs), key=lambda i: (-index.score(surfaces, i), index.passages[i].id))
    return [index.passages[i].id for i in ranked[:k]]


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"k1={p.k1},b={p.b}")
def test_top_k_equals_scoring_every_passage(params):
    rng = random.Random(f"bm25-{params}")
    for _ in range(150):
        passages = random_corpus(rng)
        index = build_index(passages, params)
        docs = [[t.surface for t in extract_terms(f"{p.title} {p.text}")] for p in passages]
        for query in QUERIES + [" ".join(rng.choices(CONTENT + STOP + ["zebra"], k=3))]:
            surfaces = [t.surface for t in extract_terms(query)]
            reference = bm25_reference(surfaces, docs, params.k1, params.b)
            assert [index.score(surfaces, i) for i in range(len(docs))] == pytest.approx(reference, abs=1e-9)
            for k in range(1, len(passages) + 3):
                assert [p.id for p in index.top_k(query, k)] == full_sort_top_k(index, query, k)


def test_duplicate_ids_are_reported_sorted_and_once():
    ids = ["b", "a", "c", "b", "a", "b"]
    with pytest.raises(DuplicateId) as exc_info:
        build_index([Passage(i, "", "x") for i in ids])
    assert str(exc_info.value) == "duplicate passage ids: ['a', 'b']"
