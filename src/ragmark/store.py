"""Passage ingestion, an Okapi BM25 inverted index, and precomputed dense results.

Dense (DPR-style) retrieval is never computed here: rank lists come from a
JSONL dump produced elsewhere. BM25 is built from scratch for the sparse
setting. Both yield the same Passage objects, so the downstream evidence
pipeline is retrieval-agnostic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .errors import DuplicateId, EmptyIndex, MalformedRecord
from .jsonl import TEXT, as_text, read_records, require
from .text import STOPWORDS, SentenceSpan, extract_terms, split_sentences, word_surfaces


@dataclass(frozen=True)
class Passage:
    id: str
    title: str
    text: str
    source: str = "kb"  # "kb" | "web"
    rank: int | None = None

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("passage text must be non-empty")


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0 or not 0.0 <= self.b <= 1.0:
            raise ValueError("require k1 >= 0 and 0 <= b <= 1")


class Bm25Index:
    """Immutable Okapi BM25 index over title + text content terms.

    idf uses the +1 smoothing: ln((N - df + 0.5) / (df + 0.5) + 1), which
    stays non-negative on tiny corpora.
    """

    def __init__(self, passages: list[Passage], params: Bm25Params = Bm25Params()):
        ids = [p.id for p in passages]
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
        if dupes:
            raise DuplicateId(f"duplicate passage ids: {dupes}")
        self.params = params
        self.passages = tuple(passages)
        self._postings: dict[str, dict[int, int]] = {}  # term -> {doc index: tf}
        self.doc_lengths: list[int] = []
        for i, p in enumerate(passages):
            terms = [s for s in word_surfaces(f"{p.title} {p.text}") if s not in STOPWORDS]
            self.doc_lengths.append(len(terms))
            for term, tf in Counter(terms).items():
                self._postings.setdefault(term, {})[i] = tf
        self.doc_freq: Counter[str] = Counter({t: len(docs) for t, docs in self._postings.items()})
        self._id_order = sorted(range(len(ids)), key=ids.__getitem__)
        self.n_docs = len(passages)
        self.avg_doc_length = sum(self.doc_lengths) / self.n_docs if self.n_docs else 0.0

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term, 0)
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def score(self, query_surfaces: list[str], doc_index: int) -> float:
        dl = self.doc_lengths[doc_index]
        k1, b = self.params.k1, self.params.b
        norm = k1 * (1.0 - b + b * dl / self.avg_doc_length) if self.avg_doc_length else k1
        total = 0.0
        for term in query_surfaces:
            tf = self._postings.get(term, {}).get(doc_index, 0)
            if tf == 0:
                continue
            total += self.idf(term) * tf * (k1 + 1.0) / (tf + norm)
        return total

    def top_k(self, query: str, k: int) -> list[Passage]:
        """Top-k passages by BM25 score, ties broken by ascending id.

        Only passages holding a query term are scored. Each of them scores
        above 0 (idf > 0 for df <= N, tf >= 1) and every other passage scores
        exactly 0, so the others follow them in ascending id order.
        """
        if self.n_docs == 0:
            raise EmptyIndex("index has no documents")
        if k < 1:
            raise ValueError("k must be positive")
        surfaces = [t.surface for t in extract_terms(query, drop_stopwords=True)]
        matched = {i for term in surfaces for i in self._postings.get(term, ())}
        ranked = sorted(matched, key=lambda i: (-self.score(surfaces, i), self.passages[i].id))[:k]
        if len(ranked) < k:
            unmatched = (i for i in self._id_order if i not in matched)
            ranked.extend(islice(unmatched, k - len(ranked)))
        return [self.passages[i] for i in ranked]


def build_index(passages: list[Passage], params: Bm25Params = Bm25Params()) -> Bm25Index:
    return Bm25Index(passages, params)


def _passage(entry: dict, line_no: int, rank: int | None = None) -> Passage:
    """A Passage from a KB line or, given its `rank`, from a precomputed result entry."""
    pid = str(require(entry, "id", line_no, TEXT))
    title = str(require(entry, "title", line_no, TEXT))
    text = str(require(entry, "text", line_no, TEXT))
    source = "kb" if rank is None else as_text(entry.get("source", "kb"), "source", line_no)
    try:
        return Passage(pid, title, text, source, rank)
    except ValueError as exc:
        raise MalformedRecord(f"line {line_no}: {exc}", line_no) from exc


def load_passages(path: str | Path) -> list[Passage]:
    """Load a KB file: JSONL of {"id", "title", "text"}."""
    passages = []
    seen: set[str] = set()
    for line_no, obj in read_records(path):
        passage = _passage(obj, line_no)
        if passage.id in seen:
            raise DuplicateId(f"line {line_no}: duplicate passage id {passage.id!r}")
        seen.add(passage.id)
        passages.append(passage)
    return passages


def load_precomputed_results(path: str | Path) -> dict[str, list[Passage]]:
    """Load a precomputed retrieval dump.

    JSONL of {"query_id", "passages": [{"id","title","text","source"}...]}
    in rank order; file order is preserved as the rank order.
    """
    results: dict[str, list[Passage]] = {}
    for line_no, obj in read_records(path):
        qid = str(require(obj, "query_id", line_no, TEXT))
        if qid in results:
            raise DuplicateId(f"line {line_no}: duplicate query_id {qid!r}")
        entries = require(obj, "passages", line_no, list)
        results[qid] = [_passage(entry, line_no, rank) for rank, entry in enumerate(entries, 1)]
    return results


def sentence_pool(passages: list[Passage]) -> tuple[SentenceSpan, ...]:
    """All sentences of `passages`, ordered by (passage rank, position in passage)."""
    pool: list[SentenceSpan] = []
    for p in passages:
        pool.extend(split_sentences(p.id, p.text))
    return tuple(pool)


def default_top_k(context_window_tokens: int) -> int | None:
    """Passage budget per QA-model context window; None means all passages."""
    if context_window_tokens >= 8192:
        return None
    if context_window_tokens >= 4096:
        return 11
    return 9
