import numpy as np
import pytest

from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.errors import EmptyCandidatePool
from ragmark.retriever import (
    RetrieverParams,
    collect_evidence,
    retrieve_chain,
    retrieve_parallel_chains,
)
from ragmark.text import Term, split_sentences


def make_pool(*texts, passage_id="p"):
    spans = []
    for i, text in enumerate(texts):
        spans.extend(split_sentences(f"{passage_id}{i}", text))
    return tuple(spans)


def vectors_for(provider, query_terms, pool):
    surfaces = {t.surface for t in query_terms}
    for span in pool:
        surfaces |= span.content
    return provider.embed_terms(surfaces)


def terms(*surfaces):
    return [Term(s, False) for s in surfaces]


class TestRetrieveChain:
    def test_single_sentence_full_coverage(self, provider):
        pool = make_pool("bats hunt insects at night")
        query = terms("bats", "hunt", "night")
        vectors = vectors_for(provider, query, pool)
        chain = retrieve_chain(query, pool, vectors)
        assert len(chain.hops) == 1
        assert chain.terminated_by == "full-coverage"
        assert chain.hops[0].remainder_after == frozenset()

    def test_orthogonal_terms_hit_hop_cap(self, provider):
        # 10 distinct query terms, each candidate sentence covers exactly one.
        surfaces = [f"topic{i}" for i in range(10)]
        pool = make_pool(*[f"{s} filler" for s in surfaces])
        query = terms(*surfaces)
        vectors = vectors_for(provider, query + terms("filler"), pool)
        chain = retrieve_chain(query, pool, vectors, RetrieverParams())
        assert chain.terminated_by == "hop-cap"
        assert len(chain.hops) == 6
        # One new term covered per hop: remainder shrinks 9, 8, ..., 4.
        assert [len(h.remainder_after) for h in chain.hops] == [9, 8, 7, 6, 5, 4]

    def test_no_candidates_termination(self, provider):
        pool = make_pool("alpha one", "beta two")
        query = terms("alpha", "beta", "gamma", "delta", "epsilon")
        vectors = vectors_for(provider, query, pool)
        chain = retrieve_chain(query, pool, vectors)
        assert chain.terminated_by == "no-candidates"
        assert len(chain.hops) == 2

    def test_no_duplicate_sentences_in_chain(self, provider):
        pool = make_pool("alpha", "beta", "gamma")
        query = terms("alpha", "beta", "gamma", "missing1", "missing2")
        vectors = vectors_for(provider, query, pool)
        chain = retrieve_chain(query, pool, vectors)
        keys = [(h.sentence.passage_id, h.sentence.start) for h in chain.hops]
        assert len(keys) == len(set(keys))

    def test_first_pick_rank_changes_seed(self, provider):
        pool = make_pool("alpha beta gamma", "alpha beta", "alpha")
        query = terms("alpha", "beta", "gamma")
        vectors = vectors_for(provider, query, pool)
        chain1 = retrieve_chain(query, pool, vectors, first_pick_rank=1)
        chain2 = retrieve_chain(query, pool, vectors, first_pick_rank=2)
        assert chain1.hops[0].sentence != chain2.hops[0].sentence

    def test_ambiguity_expansion_uses_prior_evidence_terms(self, provider):
        # Hop 1 decisively picks "alpha gamma shared" (covers 2 query terms);
        # the remainder {"beta"} is below T=4, so the working query expands
        # with evidence terms and the candidate sharing "shared" outranks the
        # one with an unrelated decoy term.
        pool = make_pool("alpha gamma shared", "beta decoy", "beta shared")
        query = terms("alpha", "gamma", "beta")
        vectors = vectors_for(provider, query + terms("decoy", "shared"), pool)
        chain = retrieve_chain(query, pool, vectors, RetrieverParams(t_ambiguity=4))
        assert chain.hops[0].sentence.passage_id == "p0"
        assert chain.hops[1].sentence.passage_id == "p2"

        # Without expansion (T=0) the tie breaks by pool order instead.
        chain_no_exp = retrieve_chain(query, pool, vectors, RetrieverParams(t_ambiguity=0))
        assert chain_no_exp.hops[1].sentence.passage_id == "p1"

    def test_empty_pool_raises(self, provider):
        with pytest.raises(EmptyCandidatePool):
            retrieve_chain(terms("a"), (), {})

    def test_determinism(self, provider):
        pool = make_pool("alpha beta", "gamma delta", "alpha gamma")
        query = terms("alpha", "beta", "gamma")
        vectors = vectors_for(provider, query, pool)
        assert retrieve_chain(query, pool, vectors) == retrieve_chain(query, pool, vectors)

    def test_scoring_calls_bounded_by_hops_times_pool(self, provider):
        surfaces = [f"topic{i}" for i in range(10)]
        pool = make_pool(*[f"{s} filler" for s in surfaces])
        query = terms(*surfaces)
        vectors = vectors_for(provider, query + terms("filler"), pool)
        params = RetrieverParams()
        chain = retrieve_chain(query, pool, vectors, params)
        assert chain.scoring_calls <= params.k_max_hops * len(pool)


class TestParallelChains:
    def test_pool_of_one_gives_one_chain(self, provider):
        pool = make_pool("alpha beta")
        query = terms("alpha")
        vectors = vectors_for(provider, query, pool)
        chains = retrieve_parallel_chains(query, pool, vectors)
        assert len(chains) == 1

    def test_three_chains_distinct_first_hops(self, provider):
        pool = make_pool("alpha beta gamma", "alpha beta", "alpha", "unrelated")
        query = terms("alpha", "beta", "gamma")
        vectors = vectors_for(provider, query + terms("unrelated"), pool)
        chains = retrieve_parallel_chains(query, pool, vectors)
        assert len(chains) == 3
        first_hops = [c.hops[0].sentence for c in chains]
        assert len(set((s.passage_id, s.start) for s in first_hops)) == 3

    def test_mcq_choice_parallelism_pools_and_dedups(self, provider):
        # 4 choice queries x N=3 chains, union deduplicated.
        pool = make_pool("alpha beta gamma", "alpha delta", "beta epsilon", "gamma zeta")
        vectors = vectors_for(
            provider,
            terms("alpha", "beta", "gamma", "delta", "epsilon", "zeta"),
            pool,
        )
        all_chains = []
        for choice_term in ("alpha", "beta", "gamma", "delta"):
            all_chains.extend(
                retrieve_parallel_chains(terms(choice_term), pool, vectors)
            )
        assert len(all_chains) == 12
        evidence = collect_evidence(all_chains, pool)
        keys = [(s.passage_id, s.start) for s in evidence]
        assert len(keys) == len(set(keys))
        assert len(evidence) <= len(pool)


class TestCollectEvidence:
    def test_shared_sentence_appears_once(self, provider):
        pool = make_pool("alpha beta", "gamma")
        query = terms("alpha", "beta")
        vectors = vectors_for(provider, query + terms("gamma"), pool)
        c1 = retrieve_chain(query, pool, vectors)
        c2 = retrieve_chain(query, pool, vectors)
        evidence = collect_evidence([c1, c2], pool)
        assert len(evidence) == len({(s.passage_id, s.start) for s in evidence})

    def test_empty_chains(self):
        assert collect_evidence([]) == ()

    def test_document_order(self, provider):
        # A passage with several sentences; chains pick a later one first.
        text = "zero alpha. one beta. two gamma. three delta. four epsilon. five zeta."
        pool = split_sentences("p", text)
        vectors = vectors_for(provider, terms("zeta", "gamma"), pool)
        chain = retrieve_chain(terms("zeta", "gamma"), pool, vectors)
        evidence = collect_evidence([chain], pool)
        starts = [s.start for s in evidence]
        assert starts == sorted(starts)
