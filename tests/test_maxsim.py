"""The MaxSim matrix path picks what the per-sentence definition picks.

Chains from `retrieve_parallel_chains` are checked hop by hop against a
reference chain scored with `oracles.brute_force_align` and the
(score desc, pool position asc) tie-break. The term vectors have entries in
{-1, 0, 1} with exactly four non-zeros, so every norm is 2, every cosine is a
multiple of 0.25 and every score is an exact float in any summation order:
ties are exact in both implementations, and a wrong tie-break shows.
"""

import numpy as np
import pytest

from ragmark.alignment import MaxSimScorer, align_score, coverage
from ragmark.embeddings import TermVector
from ragmark.errors import DimensionMismatch, MissingVector, ZeroVector
from ragmark.retriever import RetrieverParams, retrieve_chain, retrieve_parallel_chains
from ragmark.text import Term, content_surfaces, split_sentences

from oracles import brute_force_align

VOCAB = [f"w{i}" for i in range(16)]
STOPWORDS = ["the", "of", "and"]


def exact_vectors(rng, surfaces, dim=8):
    out = {}
    for s in surfaces:
        values = np.zeros(dim)
        values[rng.choice(dim, size=4, replace=False)] = rng.choice([-1.0, 1.0], size=4)
        out[s] = TermVector(s, tuple(float(v) for v in values))
    # Two synonyms: distinct surfaces with cosine exactly 1, covered by soft match.
    for a, b in (("w14", "w1"), ("w15", "w2")):
        out[a] = TermVector(a, out[b].values)
    return out


def random_pool(rng):
    """Passages of short sentences, with a repeated passage and stopword-only sentences."""
    texts = []
    for _ in range(int(rng.integers(1, 5))):
        sentences = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.15:
                words = list(rng.choice(STOPWORDS, size=int(rng.integers(1, 3))))
            else:
                words = list(rng.choice(VOCAB, size=int(rng.integers(1, 4))))
                if rng.random() < 0.5:
                    words.append(str(rng.choice(STOPWORDS)))
            sentences.append(" ".join(words) + ".")
        texts.append(" ".join(sentences))
    if rng.random() < 0.6:
        texts.append(texts[int(rng.integers(len(texts)))])  # the same sentences in two passages
    pool = []
    for i, text in enumerate(texts):
        pool.extend(split_sentences(f"p{i}", text))
    return tuple(pool)


def random_query(rng):
    # Drawn with replacement: repeated query terms count once per occurrence.
    return [Term(str(s), False) for s in rng.choice(VOCAB, size=int(rng.integers(1, 8)))]


def random_params(rng):
    return RetrieverParams(
        n_parallel=int(rng.choice([1, 3, 5])),
        k_max_hops=int(rng.integers(1, 7)),
        m_threshold=float(rng.choice([0.5, 0.75, 0.98])),
        t_ambiguity=int(rng.choice([0, 2, 4])),
    )


def reference_chain(query, pool, arrays, params, first_rank):
    """(hops as (position, score, remainder), terminated_by), by brute force."""

    def vecs(surfaces):
        return [arrays[s] for s in surfaces]

    def score(terms, pos):
        return brute_force_align(vecs(terms), vecs(sorted(content_surfaces(pool[pos]))))

    def cos(a, b):
        return float(np.dot(arrays[a], arrays[b])) / float(
            np.linalg.norm(arrays[a]) * np.linalg.norm(arrays[b])
        )

    def remainder(selected):
        evidence = set().union(*(content_surfaces(pool[p]) for p in selected))
        return frozenset(
            q
            for q in query
            if q not in evidence and not any(cos(q, e) > params.m_threshold for e in evidence)
        )

    remaining = list(range(len(pool)))
    ranked = sorted(remaining, key=lambda p: (-score(query, p), p))
    pick = ranked[min(first_rank, len(ranked)) - 1]
    terms = list(query)
    selected, hops = [], []
    while True:
        selected.append(pick)
        remaining.remove(pick)
        left = remainder(selected)
        hops.append((pick, score(terms, pick), left))
        if not left:
            return hops, "full-coverage"
        if len(hops) >= params.k_max_hops:
            return hops, "hop-cap"
        if not remaining:
            return hops, "no-candidates"
        working = set(left)
        if len(left) < params.t_ambiguity:
            for p in selected:
                working |= content_surfaces(pool[p])
        terms = sorted(working)
        pick = min(remaining, key=lambda p: (-score(terms, p), p))


def assert_matches_reference(chains, query, pool, arrays, params):
    position = {(s.passage_id, s.start): i for i, s in enumerate(pool)}
    surfaces = [t.surface for t in query]
    assert len(chains) == min(params.n_parallel, len(pool))
    later_hops_scored = 0
    for rank, chain in enumerate(chains, 1):
        hops, terminated_by = reference_chain(surfaces, pool, arrays, params, rank)
        got = [
            (position[(h.sentence.passage_id, h.sentence.start)], h.score.score, h.remainder_after)
            for h in chain.hops
        ]
        assert got == hops, f"chain {rank}"
        assert chain.terminated_by == terminated_by
        later_hops_scored += sum(len(pool) - i for i in range(1, len(hops)))
    # The hop-1 ranking is shared: its sentences are counted once per query.
    assert sum(c.scoring_calls for c in chains) == len(pool) + later_hops_scored


def test_chains_match_brute_force_reference_with_exact_ties():
    rng = np.random.default_rng(20250)
    vectors = exact_vectors(rng, VOCAB)
    arrays = {s: np.asarray(v.values) for s, v in vectors.items()}
    small_pools = 0
    for _ in range(300):
        pool = random_pool(rng)
        params = random_params(rng)
        small_pools += len(pool) < params.n_parallel
        query = random_query(rng)
        chains = retrieve_parallel_chains(query, pool, vectors, params)
        assert_matches_reference(chains, query, pool, arrays, params)
    assert small_pools > 0


def test_one_scorer_shared_by_several_queries():
    rng = np.random.default_rng(7)
    vectors = exact_vectors(rng, VOCAB)
    arrays = {s: np.asarray(v.values) for s, v in vectors.items()}
    for _ in range(100):
        pool = random_pool(rng)
        params = random_params(rng)
        queries = [random_query(rng) for _ in range(4)]
        scorer = MaxSimScorer.for_queries(pool, vectors, queries)
        for query in queries:
            shared = retrieve_parallel_chains(query, pool, vectors, params, scorer=scorer)
            assert shared == retrieve_parallel_chains(query, pool, vectors, params)
            assert_matches_reference(shared, query, pool, arrays, params)


def test_align_score_and_coverage_match_brute_force():
    rng = np.random.default_rng(99)
    vectors = exact_vectors(rng, VOCAB)
    arrays = {s: np.asarray(v.values) for s, v in vectors.items()}
    for _ in range(200):
        pool = random_pool(rng)
        query = random_query(rng)
        for span in pool:
            sentence = sorted(content_surfaces(span))
            expected = brute_force_align(
                [arrays[t.surface] for t in query], [arrays[s] for s in sentence]
            )
            assert align_score(query, span, vectors).score == expected
        evidence = list(pool[: int(rng.integers(0, len(pool) + 1))])
        for threshold in (0.5, 0.75, 1.0):
            state = coverage({t.surface for t in query}, evidence, vectors, threshold)
            ev = set().union(*(content_surfaces(s) for s in evidence))
            expected_covered = {
                t.surface
                for t in query
                if t.surface in ev
                or any(float(np.dot(arrays[t.surface], arrays[e])) / 4.0 > threshold for e in ev)
            }
            assert state.covered == expected_covered


def test_scorer_rejects_another_pool():
    rng = np.random.default_rng(1)
    vectors = exact_vectors(rng, VOCAB)
    pool = split_sentences("p", "w1 w2. w3 w4.")
    query = [Term("w1", False)]
    scorer = MaxSimScorer.for_queries(pool, vectors, [query])
    with pytest.raises(ValueError):
        retrieve_chain(query, pool[:1], vectors, scorer=scorer)


# --- errors: the same inputs raise the same errors as pairwise cosine() ------


def unit(*values):
    return tuple(float(v) for v in values)


BASE_VECTORS = {
    "alpha": unit(1, 0, 0, 0),
    "beta": unit(0, 1, 0, 0),
    "gamma": unit(0, 0, 1, 0),
    "delta": unit(1, 1, 0, 1),
}


def fault_vectors(**changes):
    values = {**BASE_VECTORS, **changes}
    return {s: TermVector(s, v) for s, v in values.items() if v is not None}


POOL = split_sentences("p", "alpha beta. gamma the.")
QUERY = [Term("alpha", False), Term("delta", False)]

FAULTS = [
    ("missing query vector", fault_vectors(delta=None), MissingVector),
    ("missing pool vector", fault_vectors(gamma=None), MissingVector),
    ("query dimension", fault_vectors(delta=unit(1, 1, 0)), DimensionMismatch),
    ("pool dimension", fault_vectors(beta=unit(0, 1, 0)), DimensionMismatch),
    ("zero query vector", fault_vectors(delta=unit(0, 0, 0, 0)), ZeroVector),
    ("zero pool vector", fault_vectors(gamma=unit(0, 0, 0, 0)), ZeroVector),
]


@pytest.mark.parametrize("vectors, error", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_faulty_vectors_raise(vectors, error):
    with pytest.raises(error):
        retrieve_parallel_chains(QUERY, POOL, vectors)
    with pytest.raises(error):
        retrieve_chain(QUERY, POOL, vectors, first_pick_rank=2)


QUERY_FAULTS = [f for f in FAULTS if "query" in f[0]]


@pytest.mark.parametrize("vectors, error", [f[1:] for f in QUERY_FAULTS], ids=[f[0] for f in QUERY_FAULTS])
def test_faulty_query_vectors_raise_in_align_score_and_coverage(vectors, error):
    with pytest.raises(error):
        align_score(QUERY, POOL[0], vectors)
    with pytest.raises(error):
        coverage({"delta"}, [POOL[0]], vectors)


def test_faults_never_reached_raise_nothing():
    # An empty query looks up no vector at all.
    chain = retrieve_chain([], POOL, {})
    assert chain.terminated_by == "full-coverage"
    # A pool of stopword-only sentences pairs the query with no term.
    stopwords_only = split_sentences("p", "the of. and the.")
    zero = fault_vectors(delta=unit(0, 0, 0, 0))
    chains = retrieve_parallel_chains([Term("delta", False)], stopwords_only, zero)
    assert [c.terminated_by for c in chains] == ["no-candidates", "no-candidates"]
    assert align_score([Term("delta", False)], stopwords_only[0], zero).score == 0.0
    # Query terms found verbatim in the evidence need no cosine.
    state = coverage({"gamma"}, [POOL[1]], fault_vectors(gamma=unit(0, 0, 0, 0)))
    assert state.covered == frozenset({"gamma"})


# --- coverage and rows: the scorer's own checks ------------------------------


def test_scorer_coverage_matches_a_brute_force_running_max():
    rng = np.random.default_rng(31)
    vectors = exact_vectors(rng, VOCAB)
    arrays = {s: np.asarray(v.values) for s, v in vectors.items()}
    unrowed_cases = 0
    for _ in range(200):
        pool = random_pool(rng)
        positions = [int(p) for p in rng.integers(0, len(pool), size=int(rng.integers(0, len(pool) + 2)))]
        evidence = set().union(*(pool[p].content for p in positions))
        query = {t.surface for t in random_query(rng)}
        # A surface without a row can be covered only verbatim: leave out one that the evidence holds.
        unrowed = set(sorted(query & evidence)[:1])
        unrowed_cases += bool(unrowed)
        scorer = MaxSimScorer(pool, vectors, query - unrowed)
        for threshold in (0.25, 0.5, 0.75, 1.0):
            running = dict.fromkeys(query - unrowed, 0.0)
            for p in positions:
                for q in running:
                    cosines = [float(np.dot(arrays[q], arrays[e])) / 4.0 for e in pool[p].content]
                    running[q] = max([running[q], *cosines])
            covered = {q for q in query if q in evidence or running.get(q, 0.0) > threshold}
            state = scorer.coverage(query, positions, threshold)
            assert (state.covered, state.remainder, state.threshold) == (covered, query - covered, threshold)
    assert unrowed_cases > 0


def test_scorer_coverage_needs_a_row_for_a_surface_the_evidence_lacks():
    rng = np.random.default_rng(3)
    pool = split_sentences("p", "w1 w2. w3 w4.")
    scorer = MaxSimScorer(pool, exact_vectors(rng, VOCAB), [])
    assert scorer.coverage({"w1", "w3"}, [], 0.5).remainder == {"w1", "w3"}
    with pytest.raises(ValueError, match="'w3' is not a row"):
        scorer.coverage({"w1", "w3"}, [0], 0.5)


@pytest.mark.parametrize("threshold", [0.0, -0.25, 1.25, float("nan")])
def test_coverage_rejects_a_threshold_outside_zero_one(threshold):
    rng = np.random.default_rng(5)
    vectors = exact_vectors(rng, VOCAB)
    pool = split_sentences("p", "w1 w2. w3 w4.")
    with pytest.raises(ValueError, match="threshold must be in"):
        coverage({"w1"}, pool, vectors, threshold)
    with pytest.raises(ValueError, match="threshold must be in"):
        MaxSimScorer(pool, vectors, ["w1"]).coverage({"w1"}, [0], threshold)


def test_chain_with_a_scorer_that_lacks_a_query_row_raises_value_error():
    rng = np.random.default_rng(1)
    vectors = exact_vectors(rng, VOCAB)
    pool = split_sentences("p", "w1 w2. w3 w4.")
    scorer = MaxSimScorer.for_queries(pool, vectors, [[Term("w1", False)]])
    with pytest.raises(ValueError, match="'w5' is not a row"):
        retrieve_chain([Term("w5", False)], pool, vectors, scorer=scorer)
