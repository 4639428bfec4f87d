"""A term a sentence holds verbatim scores exactly 1.0 against it, so ties go to the tie rule.

Scalar `cosine` gives a vector against itself exactly 1.0; the scorer's
matrix product rounds about a third of self-cosines one ulp below it. Two
sentences that hold the same number of query terms verbatim tie under the
definition, and must be ordered by pool position, not by that rounding. The
order of the product's operands must not decide a chain either. The
scorer's per-position reads give the matrix's values bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark import alignment
from ragmark.alignment import MaxSimScorer, align_score
from ragmark.embeddings import OfflineEmbeddingProvider, TermVector, VectorView, lookup
from ragmark.retriever import RetrieverParams, retrieve_chain, retrieve_parallel_chains
from ragmark.text import Term, extract_terms, split_sentences

from oracles import brute_force_argmax


def test_two_sentences_holding_one_query_term_each_seed_on_the_first():
    provider = OfflineEmbeddingProvider()
    pool = split_sentences("p", "w17z kept. w19z kept.")
    query = extract_terms("w17z w19z")
    vectors = provider.embed_terms({t.surface for t in query}.union(*(s.content for s in pool)))
    arrays = {s: vectors[s].as_array() for s in vectors}

    scores = [align_score(query, span, vectors).score for span in pool]
    assert scores[0] == scores[1] == 1.0
    chain = retrieve_chain(query, pool, vectors)
    assert chain.hops[0].sentence == pool[0]
    oracle_idx, _ = brute_force_argmax(
        [arrays[t.surface] for t in query], [[arrays[s] for s in sorted(span.content)] for span in pool]
    )
    assert oracle_idx == 0


@st.composite
def verbatim_pools(draw):
    """(query surfaces, pool, vectors): every sentence holds the same number of query
    terms verbatim, and every two distinct terms have cosine exactly 0."""
    n_query = draw(st.integers(1, 5))
    held = draw(st.integers(1, n_query))
    query = [f"q{i}z" for i in range(n_query)]
    fillers = [f"f{i}z" for i in range(3)]
    texts = []
    for _ in range(draw(st.integers(2, 6))):
        words = draw(st.permutations(query))[:held] + draw(st.lists(st.sampled_from(fillers), max_size=2))
        texts.append(" ".join(words) + ".")
    pool = tuple(span for i, text in enumerate(texts) for span in split_sentences(f"p{i}", text))
    # Each term has its own block of coordinates, so only a term against itself has a
    # non-zero cosine; its values are arbitrary, so the product rounds that one often.
    surfaces = query + fillers
    width = 3
    magnitudes = st.floats(0.01, 100.0, allow_nan=False)
    vectors = {}
    for k, s in enumerate(surfaces):
        values = [0.0] * (width * len(surfaces))
        for j in range(width):
            values[k * width + j] = draw(magnitudes) * draw(st.sampled_from([-1.0, 1.0]))
        vectors[s] = TermVector(s, tuple(values))
    return query, pool, vectors


@settings(max_examples=150, deadline=None)
@given(verbatim_pools())
def test_sentences_holding_equally_many_query_terms_rank_by_position(fixture):
    query, pool, vectors = fixture
    terms = [Term(s, False) for s in query]
    assert len({align_score(terms, span, vectors).score for span in pool}) == 1
    scorer = MaxSimScorer.for_queries(pool, vectors, [terms])
    order, _ = scorer.ranking(query)
    assert order.tolist() == list(range(len(pool)))
    chain = retrieve_chain(terms, pool, vectors, scorer=scorer)
    assert chain.hops[0].sentence == pool[0]


def transposed_cosine_matrix(surfaces, rows, cols, vectors):
    """`alignment._cosine_matrix` with the product taken as `(C @ R.T).T`, whose last bits
    differ from `R @ C.T` on some entries."""
    if not len(rows) or not len(cols):
        lookup(vectors, [surfaces[i] for i in rows])
        return np.zeros((len(rows), len(cols)))
    data, norms, idx = VectorView.of(vectors, surfaces).gather(surfaces)
    r, c = idx[rows], idx[cols]
    return np.clip((data[c] @ data[r].T).T / np.outer(norms[r], norms[c]), -1.0, 1.0)


def chain_picks(chains, pool):
    position = {span: i for i, span in enumerate(pool)}
    return [([position[h.sentence] for h in c.hops], c.terminated_by) for c in chains]


def test_random_fixtures_give_the_same_chains_under_the_transposed_product(monkeypatch):
    # 64-d vectors and pools of 60-120 sentences: on smaller products BLAS can give the
    # transposed product the same bits, and then the chains are equal by construction.
    provider = OfflineEmbeddingProvider(dimension=64, seed=11)
    vocab = [f"w{i}z" for i in range(200)]
    vectors = provider.embed_terms(vocab)
    rng = np.random.default_rng(17)
    fixtures = []
    for _ in range(150):
        sentences = [
            " ".join(rng.choice(vocab, size=int(rng.integers(1, 4)), replace=False)) + "."
            for _ in range(int(rng.integers(60, 121)))
        ]
        pool = tuple(split_sentences(f"p{i}", s)[0] for i, s in enumerate(sentences))
        query = [Term(str(q), False) for q in rng.choice(vocab, size=int(rng.integers(1, 10)), replace=False)]
        fixtures.append((query, pool))
    params = RetrieverParams()

    def all_chains():
        return [chain_picks(retrieve_parallel_chains(q, pool, vectors, params), pool) for q, pool in fixtures]

    today = all_chains()
    real = alignment._cosine_matrix
    products = differing = 0

    def transposed(*args):
        nonlocal products, differing
        got = transposed_cosine_matrix(*args)
        products += 1
        differing += got.tobytes() != real(*args).tobytes()
        return got

    monkeypatch.setattr(alignment, "_cosine_matrix", transposed)
    assert all_chains() == today
    assert products  # the scorers took their products through the patched function
    assert differing > 0  # and the transposed product changed the bits of some of them


@pytest.mark.parametrize("seed", range(5))
def test_alignment_and_cover_read_the_matrix_bit_for_bit(seed):
    provider = OfflineEmbeddingProvider(dimension=16, seed=seed)
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}z" for i in range(30)]
    pool = tuple(
        split_sentences(f"p{i}", " ".join(rng.choice(vocab, size=3, replace=False)) + ".")[0] for i in range(12)
    )
    query = [Term(str(q), False) for q in rng.choice(vocab, size=8)]  # with repeats
    vectors = provider.embed_terms(vocab)
    scorer = MaxSimScorer.for_queries(pool, vectors, [query])
    surfaces = [t.surface for t in query]
    rows = scorer.rows(surfaces)
    unique = frozenset(surfaces)
    for pos in [*range(len(pool)), 3, 0]:  # a position read again comes from the kept column
        values = scorer._best[np.array(rows), pos].tolist()
        got = scorer.alignment(surfaces, rows, pos)
        assert list(got.per_term.values()) == list(dict(zip(surfaces, values)).values())
        assert got.score == sum(values)
        for threshold in (0.3, 0.98):
            above = {s for s in unique if scorer._best[scorer._row[s], pos] > threshold}
            assert scorer.cover(unique, threshold, pos) == unique.intersection(pool[pos].content) | above
