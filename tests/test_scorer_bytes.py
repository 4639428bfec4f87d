"""The scorer built from one vocabulary pass gives the MaxSim matrix of the build before it, byte for byte.

`MaxSimScorer` takes its rows, its columns' ids and its verbatim pin from
one pass over the request's sorted surfaces. `oracles.reference_scorer_best`
is the build that looked every column up in a second row index and pinned
through a third lookup. Both must give the same bytes for the rows of every
caller: `for_queries`, the provider's view that `select_evidence` passes,
and the rows of `align_score` and `coverage`, which do not cover the pool.
The pools mix widths, hold stopword-only sentences and repeat terms across
sentences, and the queries hold terms that are in no sentence.

The pools reach about 100 rows by 200 columns of 64-d vectors: on small
shapes OpenBLAS gives a transposed product the same bits, so only larger
ones tell the operand order. A difference depends on the shape, which
shrinking would only lose, so a failing example is reported as drawn.
"""

from functools import lru_cache

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ragmark.alignment import MaxSimScorer, request_surfaces
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.text import Term, split_sentences

from oracles import reference_scorer_best

VOCAB = [f"w{i}z" for i in range(120)]
OUTSIDE = [f"x{i}z" for i in range(4)]  # in no sentence
WIDTHS = [0, 1, 2, 3, 5, 8]


@lru_cache(maxsize=None)
def provider(seed: int) -> OfflineEmbeddingProvider:
    provider = OfflineEmbeddingProvider(dimension=64, seed=seed)
    provider.embed_terms(VOCAB + OUTSIDE)
    return provider


@st.composite
def requests(draw):
    """(pool, queries): one sentence per passage, of widths drawn from `WIDTHS` (0 is
    stopwords only) over one vocabulary, and 1-3 queries that may repeat terms."""
    pool = []
    for i in range(draw(st.integers(1, 40))):
        width = draw(st.sampled_from(WIDTHS))
        words = draw(st.lists(st.sampled_from(VOCAB), min_size=width, max_size=width, unique=True))
        pool.append(split_sentences(f"p{i}", " ".join(words or ["the", "of"]) + " and.")[0])
    terms = st.lists(st.sampled_from(VOCAB + OUTSIDE), min_size=1, max_size=10)
    queries = [[Term(s, False) for s in q] for q in draw(st.lists(terms, min_size=1, max_size=3))]
    return tuple(pool), queries


@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(requests(), st.integers(0, 3))
def test_best_is_the_reference_build_byte_for_byte(request, seed):
    pool, queries = request
    view = provider(seed).embed_terms(request_surfaces(queries, pool))
    query = [t.surface for t in queries[0]]
    evidence = pool[: len(pool) // 2 + 1]
    uncovered = set(query).difference(*(span.content for span in evidence))
    builds = [
        (pool, MaxSimScorer.for_queries(pool, view, queries), request_surfaces(queries, pool)),
        (pool, MaxSimScorer(pool, view, view), list(view)),  # as `select_evidence` builds it
        (pool, MaxSimScorer(pool, view, query), query),  # `align_score` rows, over a whole pool
        (pool[:1], MaxSimScorer(pool[:1], view, query), query),  # `align_score`'s own pool
        (evidence, MaxSimScorer(evidence, view, uncovered), uncovered),  # `coverage`
    ]
    for scorer_pool, scorer, rows in builds:
        want = reference_scorer_best(scorer_pool, view, rows)
        assert scorer._best.shape == want.shape
        assert scorer._best.tobytes() == want.tobytes()
