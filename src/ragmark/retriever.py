"""Iterative multi-hop evidence retrieval with query reformulation.

One chain: pick a seed sentence by alignment score against the full query,
then repeatedly re-score the remaining sentences against the query terms not
yet covered (expanding with already-selected evidence terms when few remain)
until the query is fully covered, the hop cap is hit, or the pool is empty.
N parallel chains vary only the rank of the seed sentence. A chain works on
the row ids of one `MaxSimScorer`: a hop's ranking is a sum of its rows, and
the selected sentence's cover set leaves the remainder. A hop's
`AlignmentScore` is built from that scorer when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# `align_score` and `coverage` stay importable from here: they are the
# per-sentence definitions of what `MaxSimScorer` computes for a whole pool.
from .alignment import AlignmentScore, MaxSimScorer, align_score, coverage  # noqa: F401
from .embeddings import TermVector
from .errors import EmptyCandidatePool
from .jsonl import check_field_types
from .text import SentenceSpan, Term


@dataclass(frozen=True)
class RetrieverParams:
    n_parallel: int = 3
    k_max_hops: int = 6
    m_threshold: float = 0.98
    t_ambiguity: int = 4

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_parallel < 1 or self.k_max_hops < 1:
            raise ValueError("n_parallel and k_max_hops must be positive")
        if self.t_ambiguity < 0:
            raise ValueError("t_ambiguity must be non-negative")
        if not 0.0 < self.m_threshold <= 1.0:  # also rejects NaN
            raise ValueError("m_threshold must be in (0, 1]")


class Hop:
    """One selected sentence, its `AlignmentScore` and the query remainder after it.

    The score is built on first read, by `MaxSimScorer.alignment` over the
    scorer, working surfaces, row ids and pool position the chain held at
    this hop, so a chain builds no score that nothing reads. Hops compare by
    their three public values and, like the scores they hold, are not
    hashable.
    """

    __slots__ = ("sentence", "remainder_after", "_score")

    def __init__(self, sentence: SentenceSpan, score_of: tuple, remainder_after: frozenset[str]) -> None:
        self.sentence = sentence
        self._score: AlignmentScore | tuple = score_of  # (scorer, surfaces, rows, pos) until read
        self.remainder_after = remainder_after

    @property
    def score(self) -> AlignmentScore:
        score = self._score
        if type(score) is tuple:
            scorer, surfaces, rows, pos = score
            score = self._score = scorer.alignment(surfaces, rows, pos)
        return score

    def _values(self) -> tuple[SentenceSpan, AlignmentScore, frozenset[str]]:
        return self.sentence, self.score, self.remainder_after

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Hop:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "Hop(sentence={!r}, score={!r}, remainder_after={!r})".format(*self._values())


@dataclass(frozen=True)
class EvidenceChain:
    hops: tuple[Hop, ...]
    terminated_by: str  # "full-coverage" | "hop-cap" | "no-candidates"
    # Sentences scored while building this chain; a hop-1 ranking shared
    # with an earlier chain of the same scorer counts only there.
    scoring_calls: int


def retrieve_chain(
    query_terms: Sequence[Term],
    candidates: Sequence[SentenceSpan],
    vectors: Mapping[str, TermVector],
    params: RetrieverParams = RetrieverParams(),
    first_pick_rank: int = 1,
    *,
    scorer: MaxSimScorer | None = None,
) -> EvidenceChain:
    """Build one evidence chain.

    Hop 1 takes the sentence at `first_pick_rank` (1-based) in the alignment
    ranking against the full query. Later hops re-score unselected sentences
    against the remainder terms, expanded with terms from already-selected
    evidence when fewer than `t_ambiguity` remain uncovered. Ties go to the
    lowest pool position. `scorer` lets chains over the same pool share one
    MaxSim matrix and their hop-1 ranking; by default the chain builds its own.
    """
    if not candidates:
        raise EmptyCandidatePool("no candidate sentences")
    if not 1 <= first_pick_rank <= params.n_parallel:
        raise ValueError("first_pick_rank must be in 1..n_parallel")
    if scorer is None:
        scorer = MaxSimScorer.for_queries(candidates, vectors, [query_terms])
    elif scorer.pool != tuple(candidates):
        raise ValueError("scorer was built for a different candidate pool")

    query_surfaces = [t.surface for t in query_terms]
    ranked, scoring_calls = scorer.ranking(query_surfaces)
    query = frozenset(query_surfaces)
    pick = int(ranked[min(first_pick_rank, len(ranked)) - 1])
    working = query_surfaces
    rows = scorer.rows(query_surfaces)
    remainder = query
    evidence: set[str] = set()  # the content surfaces of every selected sentence
    selected: list[int] = []
    hops: list[Hop] = []
    while True:
        selected.append(pick)
        remainder -= scorer.cover(query, params.m_threshold, pick)
        hops.append(Hop(candidates[pick], (scorer, working, rows, pick), remainder))
        if not remainder:
            return EvidenceChain(tuple(hops), "full-coverage", scoring_calls)
        if len(hops) >= params.k_max_hops:
            return EvidenceChain(tuple(hops), "hop-cap", scoring_calls)
        if len(selected) == len(candidates):
            return EvidenceChain(tuple(hops), "no-candidates", scoring_calls)

        evidence |= candidates[pick].content
        working = sorted(remainder | evidence if len(remainder) < params.t_ambiguity else remainder)
        rows = scorer.rows(working)
        scores = scorer.scores(rows)
        for taken in selected:
            scores[taken] = -np.inf
        scoring_calls += len(candidates) - len(selected)
        pick = int(scores.argmax())  # first maximum: the lowest pool position


def retrieve_parallel_chains(
    query_terms: Sequence[Term],
    candidates: Sequence[SentenceSpan],
    vectors: Mapping[str, TermVector],
    params: RetrieverParams = RetrieverParams(),
    *,
    scorer: MaxSimScorer | None = None,
) -> tuple[EvidenceChain, ...]:
    """One chain per seed rank 1..n_parallel (fewer when the pool is small).

    The chains share one scorer, so the hop-1 ranking is computed once.
    """
    if not candidates:
        raise EmptyCandidatePool("no candidate sentences")
    if scorer is None:
        scorer = MaxSimScorer.for_queries(candidates, vectors, [query_terms])
    n = min(params.n_parallel, len(candidates))
    return tuple(
        retrieve_chain(query_terms, candidates, vectors, params, first_pick_rank=rank, scorer=scorer)
        for rank in range(1, n + 1)
    )


def collect_evidence(
    chains: Sequence[EvidenceChain],
    pool: Sequence[SentenceSpan] = (),
) -> tuple[SentenceSpan, ...]:
    """Union of all hop sentences, deduplicated, in original document order.

    Document order is the pool order when given (passage rank, then position
    in passage), else (passage_id, start).
    """
    seen: set[tuple[str, int]] = set()
    spans: list[SentenceSpan] = []
    for chain in chains:
        for hop in chain.hops:
            key = (hop.sentence.passage_id, hop.sentence.start)
            if key not in seen:
                seen.add(key)
                spans.append(hop.sentence)
    if pool:
        order = {(s.passage_id, s.start): i for i, s in enumerate(pool)}
        spans.sort(key=lambda s: order.get((s.passage_id, s.start), len(order)))
    else:
        spans.sort(key=lambda s: (s.passage_id, s.start))
    return tuple(spans)
