"""Query-to-sentence alignment scoring and soft-match term coverage.

A sentence's relevance to a query is the sum, over query terms, of each
term's best cosine similarity against the sentence's content terms
(late-interaction / MaxSim style). Coverage declares a query term matched
once any selected evidence term exceeds a similarity threshold M.

All scoring goes through `MaxSimScorer`, which takes the cosines of one set
of terms against a sentence pool as a single matrix product and reduces it
to a term x sentence MaxSim matrix, addressed by row id. A ranking is a sum
of rows of that matrix, and the coverage of evidence is the union of its
sentences' cover sets, each read from one column of it. The vectors are
gathered by row index from the provider's `VectorTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice
from operator import lt
from typing import Iterable, Mapping, Sequence

import numpy as np

# `cosine` stays importable from here as the scalar definition the matrix reproduces.
from .embeddings import TermVector, VectorView, cosine, lookup  # noqa: F401
from .errors import ZeroVector
from .text import SentenceSpan, Term


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
    surfaces: Sequence[str], rows: Sequence[int], cols: Sequence[int], vectors: Mapping[str, TermVector]
) -> np.ndarray:
    """Cosines of the surfaces at ids `rows` against those at ids `cols`, clipped to [-1, 1], with the
    errors pairwise `cosine` calls would raise: MissingVector for a row surface and, given a pair,
    MissingVector for a column surface, DimensionMismatch or ZeroVector. Each surface is a row or a
    column; their vectors are gathered by one index array from the table behind `vectors`."""
    if not len(rows) or not len(cols):
        lookup(vectors, [surfaces[i] for i in rows])
        return np.zeros((len(rows), len(cols)))
    data, norms, idx = VectorView.of(vectors, surfaces).gather(surfaces)
    vecs, lengths = data[idx], norms[idx]
    if not lengths.all():
        raise ZeroVector("cosine undefined for the zero vector")
    sim = vecs[rows] @ vecs[cols].T
    sim /= np.outer(lengths[rows], lengths[cols])
    return np.clip(sim, -1.0, 1.0, out=sim)


class MaxSimScorer:
    """MaxSim scores of a set of row terms against every sentence of one pool.

    `best[r, s]` is max(0, the best cosine of row term r against sentence s's
    content terms), and 0 for a sentence without content terms. The cosines
    come from one matrix product of the rows against one column per sentence
    and content term, which every ranking reuses; a term against itself is
    exactly 1.0 there, as in scalar `cosine`. A ranking is a row sum, added
    in query-term order, so every score is the same float sum the
    per-sentence definition gives. Built for one request and dropped with it.
    """

    def __init__(
        self,
        pool: Sequence[SentenceSpan],
        vectors: Mapping[str, TermVector],
        row_surfaces: Iterable[str],
    ):
        self.pool = tuple(pool)
        rows = list(row_surfaces)  # sorted and unique already when they are a provider's view
        rows = rows if all(map(lt, rows, islice(rows, 1, None))) else sorted(set(rows))
        self._row = ids = dict(zip(rows, count()))
        # An id is a place in the sorted vocabulary, so a sentence's sorted ids are its sorted terms.
        contents, vocabulary = [span.content for span in self.pool], rows
        try:  # under `for_queries` every content term is a row, so the rows are the vocabulary
            columns = [sorted(map(ids.__getitem__, content)) for content in contents]
        except KeyError:  # `align_score` and `coverage`: the vocabulary adds content terms that are not rows
            vocabulary = sorted(set(rows).union(*contents))
            ids = dict(zip(vocabulary, count()))
            columns = [sorted(map(ids.__getitem__, content)) for content in contents]
        # The n sentences of w content terms form one group, laid out width-major: w runs of n columns,
        # run k holding each sentence's k-th term in sorted order (not in set order, which follows the hash
        # seed: a column's place sets its cosines' last bits). A group's MaxSim is the max of its runs.
        by_width: dict[int, list[int]] = {}
        for pos, col in enumerate(columns):
            if col:
                by_width.setdefault(len(col), []).append(pos)
        runs = chain.from_iterable(zip(*map(columns.__getitem__, positions)) for positions in by_width.values())
        c = np.array([i for run in runs for i in run], dtype=np.intp)
        row_ids = np.arange(len(rows)) if vocabulary is rows else np.array([ids[s] for s in rows], dtype=np.intp)
        sim = _cosine_matrix(vocabulary, row_ids, c, vectors)
        # A term against itself has cosine exactly 1.0, as scalar `cosine` gives it, so a term a sentence holds
        # verbatim has MaxSim 1.0 there and ties go to the lower pool position, not to the product's rounding of
        # some self-cosines one ulp below. Column j holds term c[j], which is row c[j] when the rows are the vocabulary.
        if vocabulary is rows:
            sim[c, np.arange(len(c))] = 1.0
        else:  # the row of each column's term, -1 for one that is not a row
            r = np.array([self._row.get(s, -1) for s in vocabulary], dtype=np.intp)[c]
            verbatim = np.flatnonzero(r >= 0)
            sim[r[verbatim], verbatim] = 1.0
        best = np.zeros((len(rows), len(self.pool)))
        start = 0
        for width, positions in by_width.items():
            n = len(positions)
            group = sim[:, start : start + n]
            for k in range(1, width):
                np.maximum(group, sim[:, start + k * n : start + (k + 1) * n], out=group)
            if n == len(self.pool):
                best = group
            else:
                best[:, positions] = group
            start += width * n
        # max(0.0, cosine), as `np.where(best > 0.0, best, 0.0)` bit for bit: NaN and -0.0 give 0.0.
        self._best = np.fmax(best, 0.0) + 0.0
        self._columns: dict[int, list[float]] = {}
        self._rankings: dict[tuple[str, ...], np.ndarray] = {}
        self._covers: dict[tuple[frozenset[str], float, int], frozenset[str]] = {}

    @classmethod
    def for_queries(
        cls,
        pool: Sequence[SentenceSpan],
        vectors: Mapping[str, TermVector],
        queries: Iterable[Sequence[Term]],
    ) -> MaxSimScorer:
        """Scorer for evidence chains: its rows are `request_surfaces(queries, pool)`."""
        return cls(pool, vectors, request_surfaces(queries, pool))

    def rows(self, surfaces: Iterable[str]) -> list[int]:
        """The row id of each surface; ValueError for a surface that is not a row."""
        try:
            return list(map(self._row.__getitem__, surfaces))
        except KeyError as exc:
            raise ValueError(f"term {exc.args[0]!r} is not a row of this scorer") from None

    def scores(self, rows: Sequence[int]) -> np.ndarray:
        """Alignment score of every pool sentence against the terms of a row id sequence.

        A repeated row counts once per occurrence, as in `align_score`.
        """
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
        order = np.argsort(-self.scores(self.rows(key)), kind="stable")
        self._rankings[key] = order
        return order, len(self.pool)

    def _column(self, pos: int) -> list[float]:
        """The MaxSim of every row at pool position `pos`, read once as a list and kept."""
        column = self._columns.get(pos)
        if column is None:
            column = self._columns[pos] = self._best[:, pos].tolist()
        return column

    def alignment(self, surfaces: Sequence[str], rows: Sequence[int], pos: int) -> AlignmentScore:
        """The `AlignmentScore` of the sentence at pool position `pos`; `rows` are the surfaces' row ids."""
        column = self._column(pos)
        values = [column[r] for r in rows]
        per_term = dict(zip(surfaces, values))
        return AlignmentScore(sentence=self.pool[pos], score=sum(values), per_term=per_term)

    def cover(self, query: frozenset[str], threshold: float, pos: int) -> frozenset[str]:
        """The surfaces of `query` that the sentence at pool position `pos` covers at `threshold`.

        Those it contains verbatim, and those with a row whose MaxSim against
        it is strictly greater than `threshold`; evidence covers the union of
        its sentences' sets. Each set is kept for the life of the scorer.
        """
        key = (query, threshold, pos)
        cover = self._covers.get(key)
        if cover is None:
            column, row = self._column(pos), self._row
            above = [s for s in query if s in row and column[row[s]] > threshold]
            cover = query.intersection(self.pool[pos].content).union(above)
            self._covers[key] = cover
        return cover

    def coverage(
        self, query_surfaces: Iterable[str], positions: Sequence[int], threshold: float
    ) -> CoverageState:
        """Partition query surfaces by the evidence at the given pool positions.

        A surface is covered when the evidence contains it verbatim (cosine 1
        > M for any M <= 1) or when its best cosine against an evidence
        content term is strictly greater than `threshold`.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        query = frozenset(query_surfaces)
        covered = frozenset().union(*[self.cover(query, threshold, p) for p in positions])
        unrowed = query.difference(self._row, covered)
        if positions and unrowed:
            raise ValueError(f"term {min(unrowed)!r} is not a row of this scorer")
        return CoverageState(covered=covered, remainder=query - covered, threshold=threshold)


def request_surfaces(queries: Iterable[Sequence[Term]], pool: Sequence[SentenceSpan]) -> set[str]:
    """The terms a request embeds and scores: the query terms plus, because later hops re-query
    with selected evidence terms, the pool's content terms; none when every query or the pool is empty."""
    surfaces = {t.surface for terms in queries for t in terms} if pool else set()
    if surfaces:
        surfaces.update(*(span.content for span in pool))
    return surfaces


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
    scorer = MaxSimScorer((sentence,), vectors, surfaces)
    return scorer.alignment(surfaces, scorer.rows(surfaces), 0)


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
    evidence_surfaces = set().union(*(span.content for span in evidence))
    scorer = MaxSimScorer(evidence, vectors, set(query_surfaces) - evidence_surfaces)
    return scorer.coverage(query_surfaces, range(len(evidence)), threshold)
