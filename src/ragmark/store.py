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
from itertools import chain, islice
from pathlib import Path

import numpy as np

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
        for name, value in (("k1", self.k1), ("b", self.b)):
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number, not {value!r}")
        if self.k1 < 0 or not 0.0 <= self.b <= 1.0:
            raise ValueError("require k1 >= 0 and 0 <= b <= 1")


class Bm25Index:
    """Immutable Okapi BM25 index over title + text content terms.

    idf uses the +1 smoothing: ln((N - df + 0.5) / (df + 0.5) + 1), which
    stays non-negative on tiny corpora. Term t's postings are flat int32
    arrays: its passages, ascending, are `_docs[_offsets[t]:_offsets[t + 1]]`
    and their tfs the same slice of `_tfs`. A queried term's {passage: tf} is
    read from its slice once and kept.
    """

    def __init__(self, passages: list[Passage], params: Bm25Params = Bm25Params()):
        ids = [p.id for p in passages]
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
        if dupes:
            raise DuplicateId(f"duplicate passage ids: {dupes}")
        self.params = params
        self.passages = tuple(passages)
        self._term_ids: dict[str, int] = {}  # in order of first occurrence
        self.doc_lengths: list[int] = []
        # One int64 key per content term, (term id << 32) | passage index, sorted in
        # place: each term's passages then run ascending, and each run of one key is
        # a posting whose length is its tf. Each array is dropped once read, to keep
        # the build's peak low.
        keys = np.fromiter(chain.from_iterable(map(self._term_id_run, passages)), np.int64)
        keys <<= 32
        keys |= np.repeat(np.arange(len(passages), dtype=np.int32), self.doc_lengths)
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        tfs = np.diff(starts, append=len(keys)).astype(np.int32)
        postings = keys[starts]
        del keys, starts
        offsets = np.searchsorted(postings, np.arange(len(self._term_ids) + 1, dtype=np.int64) << 32)
        # Read through memoryviews: a query's slices and items then take no numpy call.
        self._docs = memoryview(postings.astype(np.int32))  # the low 32 bits: the passage
        self._tfs = memoryview(tfs)
        self._offsets = memoryview(offsets)
        doc_freq = np.diff(offsets)
        self.doc_freq: Counter[str] = Counter(dict(zip(self._term_ids, doc_freq.tolist())))
        self._queried: dict[str, tuple[float, dict[int, int]]] = {}  # term -> (idf, {passage: tf})
        self._id_order = sorted(range(len(ids)), key=ids.__getitem__)
        self.n_docs = len(passages)
        self.avg_doc_length = sum(self.doc_lengths) / self.n_docs if self.n_docs else 0.0

    def _term_id_run(self, p: Passage) -> list[int]:
        """The term ids of `p`'s content terms, in order; appends its length to `doc_lengths`."""
        ids = self._term_ids
        run = [ids.setdefault(s, len(ids)) for s in word_surfaces(f"{p.title} {p.text}") if s not in STOPWORDS]
        self.doc_lengths.append(len(run))
        return run

    def _term(self, term: str) -> tuple[float, dict[int, int]]:
        """(idf, {passage index: tf}) of `term`, read from its postings slice on first use and kept."""
        entry = self._queried.get(term)
        if entry is None:
            t = self._term_ids.get(term)
            lo, hi = (self._offsets[t], self._offsets[t + 1]) if t is not None else (0, 0)
            tfs = dict(zip(self._docs[lo:hi].tolist(), self._tfs[lo:hi].tolist()))
            entry = self._queried.setdefault(term, (self.idf(term), tfs))  # a concurrent query may be first
        return entry

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term, 0)
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def score(self, query_surfaces: list[str], doc_index: int) -> float:
        dl = self.doc_lengths[doc_index]
        k1, b = self.params.k1, self.params.b
        norm = k1 * (1.0 - b + b * dl / self.avg_doc_length) if self.avg_doc_length else k1
        total = 0.0
        for term in query_surfaces:
            idf, tfs = self._queried.get(term) or self._term(term)  # no call once the term is kept
            tf = tfs.get(doc_index, 0)
            if tf == 0:
                continue
            total += idf * tf * (k1 + 1.0) / (tf + norm)
        return total

    def top_k(self, query: str, k: int | None) -> list[Passage]:
        """Top-k passages by BM25 score, ties broken by ascending id; k None ranks every passage.

        Only passages holding a query term are scored. Each of them scores
        above 0 (idf > 0 for df <= N, tf >= 1) and every other passage scores
        exactly 0, so the others follow them in ascending id order.
        """
        if self.n_docs == 0:
            raise EmptyIndex("index has no documents")
        k = self.n_docs if k is None else k
        if k < 1:
            raise ValueError("k must be positive")
        surfaces = [t.surface for t in extract_terms(query, drop_stopwords=True)]
        matched = set().union(*(self._term(term)[1] for term in surfaces))
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

    JSONL of {"query_id", "passages": [{"id","title","text","source"}...]} in rank
    order, each query_id once and each passage id once per line, else DuplicateId.
    """
    results: dict[str, list[Passage]] = {}
    for line_no, obj in read_records(path):
        qid = str(require(obj, "query_id", line_no, TEXT))
        if qid in results:
            raise DuplicateId(f"line {line_no}: duplicate query_id {qid!r}")
        entries = require(obj, "passages", line_no, list)
        results[qid] = passages = [_passage(entry, line_no, rank) for rank, entry in enumerate(entries, 1)]
        if len({p.id for p in passages}) < len(passages):
            repeated = next(pid for pid, n in Counter(p.id for p in passages).items() if n > 1)
            raise DuplicateId(f"line {line_no}: passage id {repeated!r} listed twice for query_id {qid!r}")
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
