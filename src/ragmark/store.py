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
from .jsonl import TEXT, as_text, check_field_types, read_records, require
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
        check_field_types(self)
        if self.k1 < 0 or not 0.0 <= self.b <= 1.0:
            raise ValueError("require k1 >= 0 and 0 <= b <= 1")


class _WordIds(dict):
    """A lowercased word -> its content term's id in `term_ids`, or -1 for a
    stopword or a word with no surface. Each distinct word is normalized once,
    on its first lookup, and a new surface takes the next id."""

    def __init__(self, term_ids: dict[str, int]):
        self.term_ids = term_ids

    def __missing__(self, word: str) -> int:
        surfaces = word_surfaces(word)  # one surface at most: `word` holds no space
        if not surfaces or surfaces[0] in STOPWORDS:
            t = -1
        else:
            surface = word if surfaces[0] == word else surfaces[0]  # one string, not two
            t = self.term_ids.setdefault(surface, len(self.term_ids))
        self[word] = t
        return t


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
        # Each word's term id, -1 if it has none. A period that ends a word never
        # changes the word's surface, so each ". " is dropped first; a passage's
        # last word is followed by a space too. Most words are then one lookup.
        word_ids = _WordIds(self._term_ids)
        lengths = []  # words per passage, stopwords included

        def word_id_run(p: Passage):
            words = f"{p.title} {p.text} ".lower().replace(". ", " ").split()
            lengths.append(len(words))
            return map(word_ids.__getitem__, words)

        terms = np.fromiter(chain.from_iterable(map(word_id_run, passages)), np.int64)
        del word_ids
        content = terms >= 0
        docs = np.repeat(np.arange(len(passages), dtype=np.int32), lengths)[content]
        self.doc_lengths: list[int] = np.bincount(docs, minlength=len(passages)).tolist()
        # One int64 key per content term, (term id << 32) | passage index, sorted in
        # place: each term's passages then run ascending, and each run of one key is
        # a posting whose length is its tf. Each array is dropped once read, to keep
        # the build's peak low.
        keys = terms[content]
        del terms, content
        keys <<= 32
        keys |= docs
        del docs
        keys.sort()
        first = np.ones(len(keys) + 1, dtype=bool)  # and one past the last key
        np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
        bounds = np.flatnonzero(first)
        del first
        postings = keys[bounds[:-1]]
        del keys
        tfs = np.empty(len(postings), dtype=np.int32)
        np.subtract(bounds[1:], bounds[:-1], out=tfs)
        del bounds
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
