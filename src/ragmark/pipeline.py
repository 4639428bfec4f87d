"""End-to-end evidence selection: queries in, highlighted passages out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .alignment import MaxSimScorer, request_surfaces
from .embeddings import EmbeddingProvider, TermVector
from .highlight import HighlightedDocument, highlight
from .retriever import EvidenceChain, RetrieverParams, collect_evidence, retrieve_parallel_chains
from .stepback import ChatClient, ConjoinedQuery, conjoin, expand_query, stepback_choice_concepts
from .store import Passage, sentence_pool
from .text import SentenceSpan


@dataclass(frozen=True)
class EvidenceResult:
    queries: tuple[ConjoinedQuery, ...]
    chains: tuple[EvidenceChain, ...]
    evidence: tuple[SentenceSpan, ...]
    document: HighlightedDocument
    scoring_calls: int


def build_queries(
    question: str,
    choices: dict[str, str] | None,
    stepback_client: ChatClient | None,
) -> tuple[ConjoinedQuery, ...]:
    """One conjoined query per MCQ choice when step-back is on, else a single query.

    The step-back question is asked once; each choice adds its own concepts.
    """
    query = expand_query(question, stepback_client)
    if stepback_client is None or not choices:
        return (query,)
    return tuple(
        conjoin(question, query.stepback, stepback_choice_concepts(c, stepback_client) if c else None)
        for _, c in sorted(choices.items())
    )


def gather_vectors(
    queries: Sequence[ConjoinedQuery],
    pool: Sequence[SentenceSpan],
    provider: EmbeddingProvider,
) -> Mapping[str, TermVector]:
    """The provider's view of the request's `request_surfaces`, which holds them in sorted order."""
    return provider.embed_terms(request_surfaces([q.terms for q in queries], pool))


def select_evidence(
    question: str,
    passages: list[Passage],
    provider: EmbeddingProvider,
    params: RetrieverParams = RetrieverParams(),
    stepback_client: ChatClient | None = None,
    choices: dict[str, str] | None = None,
) -> EvidenceResult:
    """Run the full selection pipeline over already-retrieved passages.

    All queries share one MaxSim scorer over the pool; a request that embeds nothing (every
    query or the pool is empty) runs no chain and gives the untagged passages.
    """
    queries = build_queries(question, choices, stepback_client)
    pool = sentence_pool(passages)
    vectors = gather_vectors(queries, pool, provider)
    chains: list[EvidenceChain] = []
    if vectors:
        scorer = MaxSimScorer(pool, vectors, vectors)  # the rows `for_queries` gives, sorted already
        for terms in (q.terms for q in queries if q.terms):
            chains.extend(retrieve_parallel_chains(terms, pool, vectors, params, scorer=scorer))
    evidence = collect_evidence(chains, pool)
    document = highlight(passages, list(evidence))
    return EvidenceResult(
        queries=tuple(queries),
        chains=tuple(chains),
        evidence=evidence,
        document=document,
        scoring_calls=sum(c.scoring_calls for c in chains),
    )
