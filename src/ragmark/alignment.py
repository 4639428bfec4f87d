"""Query-to-sentence alignment scoring and soft-match term coverage.

A sentence's relevance to a query is the sum, over query terms, of each
term's best cosine similarity against the sentence's content terms
(late-interaction / MaxSim style). Coverage declares a query term matched
once any selected evidence term exceeds a similarity threshold M.

All scoring goes through `MaxSimScorer`, which takes the cosines of one set
of terms against a sentence pool as a single matrix product and reduces it
to a term x sentence MaxSim matrix. A chain's rankings are then row sums of
that matrix, and its coverage a running max over the columns it selected.
The vectors are gathered by row index from the provider's `VectorTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# `cosine` stays importable from here as the scalar definition the matrix reproduces.
from .embeddings import TermVector, VectorView, cosine  # noqa: F401
from .errors import ZeroVector
from .text import SentenceSpan, Term, content_surfaces


@dataclass(frozen=True)
class AlignmentScore:
    sentence: SentenceSpan
    score: float
    per_term: dict[str, float]  # unique query surface -> best cosine


@dataclass(frozen=True)
class CoverageState:
    covered: frozenset[str]
    remainder: frozenset[str]
    threshold: float


def _cosine_matrix(
    rows: Sequence[str], cols: Sequence[str], vectors: Mapping[str, TermVector]
) -> np.ndarray:
    """Cosines of every row surface against every column surface, clipped to [-1, 1].

    Raises what the pairwise `cosine` calls would: MissingVector for any row
    surface, and, when there is at least one pair, MissingVector for a column
    surface, DimensionMismatch for unequal dimensions and ZeroVector for a
    zero vector. Rows and norms are gathered by index from the table behind
    `vectors`; a plain mapping has the vectors of these surfaces copied into
    one first.
    """
    view = VectorView.of(vectors, [*rows, *cols])
    if not rows or not cols:
        view.locate(rows)
        return np.zeros((len(rows), len(cols)))
    data, norms, idx = view.gather([*rows, *cols])
    if not norms[idx].all():
        raise ZeroVector("cosine undefined for the zero vector")
    r, c = idx[: len(rows)], idx[len(rows) :]
    return np.clip((data[r] @ data[c].T) / np.outer(norms[r], norms[c]), -1.0, 1.0)


class MaxSimScorer:
    """MaxSim scores of a set of row terms against every sentence of one pool.

    `best[r, s]` is max(0, the best cosine of row term r against sentence s's
    content terms), and 0 for a sentence without content terms. The cosines
    come from one matrix over the rows and the pool's content terms, so each
    (term, term) pair is computed once however many rankings use it. A
    ranking is a row sum, added in query-term order, so every score is the
    same float sum the per-sentence definition gives. Built for one request
    and dropped with it.
    """

    def __init__(
        self,
        pool: Sequence[SentenceSpan],
        vectors: Mapping[str, TermVector],
        row_surfaces: Iterable[str],
    ):
        self.pool = tuple(pool)
        self._surfaces = [content_surfaces(span) for span in self.pool]
        cols = sorted(set().union(*self._surfaces))
        rows = sorted(set(row_surfaces))
        self._row = {s: i for i, s in enumerate(rows)}
        sim = _cosine_matrix(rows, cols, vectors)

        # Sentences with the same number of content terms take one gather and
        # one max; a sentence without content terms keeps 0.
        col_index = {s: i for i, s in enumerate(cols)}
        by_width: dict[int, list[int]] = {}
        for pos, surfaces in enumerate(self._surfaces):
            if surfaces:
                by_width.setdefault(len(surfaces), []).append(pos)
        best = np.zeros((len(rows), len(self.pool)))
        if rows:
            for positions in by_width.values():
                idx = [[col_index[s] for s in self._surfaces[p]] for p in positions]
                best[:, positions] = sim[:, idx].max(axis=2)
        # max(0.0, cosine): a term never contributes a negative similarity.
        self._best = np.where(best > 0.0, best, 0.0)
        self._rankings: dict[tuple[str, ...], np.ndarray] = {}

    @classmethod
    def for_queries(
        cls,
        pool: Sequence[SentenceSpan],
        vectors: Mapping[str, TermVector],
        queries: Iterable[Sequence[Term]],
    ) -> MaxSimScorer:
        """Scorer for evidence chains: rows are the query terms plus, because
        later hops re-query with selected evidence terms, the pool's content
        terms. No rows (and no vector lookups) when every query is empty."""
        rows = {t.surface for terms in queries for t in terms}
        if rows:
            rows.update(*(content_surfaces(span) for span in pool))
        return cls(pool, vectors, rows)

    def _rows(self, surfaces: Iterable[str]) -> list[int]:
        try:
            return [self._row[s] for s in surfaces]
        except KeyError as exc:
            raise ValueError(f"term {exc.args[0]!r} is not a row of this scorer") from None

    def scores(self, surfaces: Sequence[str]) -> np.ndarray:
        """Alignment score of every pool sentence against a term sequence.

        Repeated surfaces count once per occurrence, as in `align_score`.
        """
        rows = self._rows(surfaces)
        if not rows:
            return np.zeros(len(self.pool))
        total = self._best[rows[0]].copy()
        for r in rows[1:]:  # sequential, in term order: the same float sum as align_score
            total += self._best[r]
        return total

    def ranking(self, surfaces: Sequence[str]) -> tuple[np.ndarray, int]:
        """Pool positions by (score desc, position asc), and the sentences scored to get them.

        A ranking is computed once per distinct term sequence and reused for
        the life of the scorer; a reuse scores 0 sentences.
        """
        key = tuple(surfaces)
        order = self._rankings.get(key)
        if order is not None:
            return order, 0
        order = np.argsort(-self.scores(key), kind="stable")
        self._rankings[key] = order
        return order, len(self.pool)

    def alignment(self, surfaces: Sequence[str], pos: int) -> AlignmentScore:
        """The `AlignmentScore` of the sentence at pool position `pos`."""
        per_term = {s: float(self._best[r, pos]) for s, r in zip(surfaces, self._rows(surfaces))}
        score = sum(per_term[s] for s in surfaces)
        return AlignmentScore(sentence=self.pool[pos], score=score, per_term=per_term)

    def coverage(
        self, query_surfaces: Iterable[str], positions: Sequence[int], threshold: float
    ) -> CoverageState:
        """Partition query surfaces by the evidence at the given pool positions.

        A surface is covered when the evidence contains it verbatim (cosine 1
        > M for any M <= 1) or when its best cosine against an evidence
        content term is strictly greater than `threshold`.
        """
        return RunningCoverage(self, query_surfaces, threshold).add(positions)


class RunningCoverage:
    """`MaxSimScorer.coverage` of one query by evidence that only grows, as a chain's does.

    Each added pool position folds its column of the MaxSim matrix into a
    running max per query surface, so a hop costs one column instead of a
    gather over every selected sentence. `evidence` is the union of the added
    sentences' content surfaces.
    """

    def __init__(self, scorer: MaxSimScorer, query_surfaces: Iterable[str], threshold: float):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self._query = frozenset(query_surfaces)
        self._threshold = threshold
        self.evidence: set[str] = set()
        self._scorer = scorer
        # Only surfaces with a row can be covered by a cosine; the rest must be found verbatim.
        self._rowed = sorted(s for s in self._query if s in scorer._row)
        self._unrowed = self._query.difference(self._rowed)
        self._rows = np.array([scorer._row[s] for s in self._rowed], dtype=np.intp)
        self._best = np.zeros(len(self._rowed))

    def add(self, positions: Iterable[int]) -> CoverageState:
        """Add the sentences at `positions` to the evidence; the coverage of all added so far."""
        scorer = self._scorer
        positions = list(positions)
        for p in positions:
            self.evidence |= scorer._surfaces[p]
            np.maximum(self._best, scorer._best[self._rows, p], out=self._best)
        covered = self._query & self.evidence
        if positions and self._unrowed - covered:
            raise ValueError(f"term {min(self._unrowed - covered)!r} is not a row of this scorer")
        covered = covered.union(s for s, b in zip(self._rowed, self._best) if b > self._threshold)
        return CoverageState(covered=covered, remainder=self._query - covered, threshold=self._threshold)


def align_score(
    query_terms: Sequence[Term],
    sentence: SentenceSpan,
    vectors: Mapping[str, TermVector],
) -> AlignmentScore:
    """Score a sentence against a query term sequence.

    Each occurrence in `query_terms` contributes its best cosine against the
    sentence's content terms, so duplicated query terms count twice. A query
    term contributes 0 when the sentence has no content terms.
    """
    surfaces = [t.surface for t in query_terms]
    return MaxSimScorer((sentence,), vectors, surfaces).alignment(surfaces, 0)


def coverage(
    query_surfaces: set[str] | frozenset[str],
    evidence: Sequence[SentenceSpan],
    vectors: Mapping[str, TermVector],
    threshold: float = 0.98,
) -> CoverageState:
    """Partition unique query surfaces into covered / remainder.

    A query term is covered iff its best cosine against the union of all
    evidence content terms is strictly greater than `threshold`.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    evidence_surfaces = set().union(*(content_surfaces(span) for span in evidence))
    scorer = MaxSimScorer(evidence, vectors, set(query_surfaces) - evidence_surfaces)
    return scorer.coverage(query_surfaces, range(len(evidence)), threshold)
