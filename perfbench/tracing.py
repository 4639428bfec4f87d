"""Tracing from outside the program: wrap ragmark's public functions where they are imported.

`Tracer.install()` replaces each traced function at the module (or class)
attribute its callers look it up through, and puts the originals back on
exit. Nothing inside `ragmark` changes. Each wrapped call pushes a frame on
a thread-local stack, so self time (duration minus the time of traced calls
nested inside it) is exact per thread under the worker pool. Self time is
the thread's CPU time, so a layer is not charged for waiting on the
interpreter lock while another worker runs; span start and end are wall time. Coarse layers
also keep a span (name, start, end, parent, record id) in memory; the spans
are written out once, at the end. Counters are kept per thread and summed,
so they repeat exactly across reruns of the same inputs.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # [cpu start, cpu seconds of traced children]
        self.span: str | None = None  # innermost open span id
        self.record: str | None = None
        self.next_id = 0
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[dict] = []
        self.queries: set = set()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.t0 = time.perf_counter()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    # --- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, span: bool = False, on_enter=None, on_exit=None):
        """Wrap `fn`: count calls, accumulate self time, optionally keep a span."""
        state = self._state
        clock = time.perf_counter
        cpu = time.thread_time

        def wrapper(*args, **kwargs):
            st = state()
            parent = st.span
            span_id = None
            if span:
                span_id = f"t{st.index}-{st.next_id}"
                st.next_id += 1
                st.span = span_id
            if on_enter is not None:
                on_enter(st, args)
            start = clock()
            frame = [cpu(), 0.0]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = cpu() - frame[0]
                end = clock()
                st.stack.pop()
                st.calls[name] += 1
                st.self_s[name] += duration - frame[1]
                if st.stack:
                    st.stack[-1][1] += duration
                if span:
                    st.span = parent
                    st.spans.append(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "record": st.record,
                        }
                    )
            if on_exit is not None:
                on_exit(st, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap `fn` to count calls only; for calls too many and too short to time."""
        state = self._state

        def wrapper(*args, **kwargs):
            state().calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- hooks that read work counters off arguments and results ------------

    @staticmethod
    def _enter_record(st: _ThreadState, args) -> None:
        st.record = args[0].query_id

    @staticmethod
    def _enter_chain(st: _ThreadState, args) -> None:
        st.queries.add((st.record, tuple(t.surface for t in args[0])))

    @staticmethod
    def _exit_chain(st: _ThreadState, args, chain) -> None:
        st.counts["retriever.hops"] += len(chain.hops)
        st.counts["retriever.scoring_calls"] += chain.scoring_calls
        st.counts[f"retriever.terminated.{chain.terminated_by}"] += 1

    @staticmethod
    def _exit_select(st: _ThreadState, args, result) -> None:
        st.counts["retriever.evidence_sentences"] += len(result.evidence)

    @staticmethod
    def _exit_embed(st: _ThreadState, args, result) -> None:
        st.counts["embeddings.terms_requested"] += len(result)

    @contextmanager
    def install(self):
        """Wrap every traced function for the duration of the block."""
        t = self.timed
        # `ragmark.highlight` the attribute is the function; import the modules by name.
        ev, pl, rt, al, st, hl, sb, tx, em = (
            importlib.import_module(f"ragmark.{name}")
            for name in (
                "evaluation", "pipeline", "retriever", "alignment", "store", "highlight", "stepback", "text", "embeddings"
            )
        )
        highlight = t("highlight.highlight", hl.highlight, span=True)
        extract_terms = self.counted("text.extract_terms", tx.extract_terms)
        patches = [
            (ev, "_evaluate_record", t("evaluation.record", ev._evaluate_record, True, self._enter_record)),
            (ev, "build_prompt", t("evaluation.build_prompt", ev.build_prompt, span=True)),
            (pl, "select_evidence", t("pipeline.select_evidence", pl.select_evidence, True, on_exit=self._exit_select)),
            (pl, "expand_query", t("stepback.expand_query", pl.expand_query, span=True)),
            (pl, "sentence_pool", t("store.sentence_pool", pl.sentence_pool, span=True)),
            (pl, "gather_vectors", t("pipeline.gather_vectors", pl.gather_vectors, span=True)),
            (pl, "highlight", highlight),
            (hl, "highlight", highlight),
            (rt, "retrieve_chain", t("retriever.retrieve_chain", rt.retrieve_chain, True, self._enter_chain, self._exit_chain)),
            (rt, "align_score", t("alignment.align_score", rt.align_score)),
            (rt, "coverage", t("alignment.coverage", rt.coverage)),
            (al, "cosine", self.counted("alignment.cosine", al.cosine)),
            (st, "split_sentences", t("text.split_sentences", st.split_sentences)),
            (st, "build_index", t("store.bm25.build", st.build_index, span=True)),
            (st.Bm25Index, "top_k", t("store.bm25.top_k", st.Bm25Index.top_k, span=True)),
            (st.Bm25Index, "score", self.counted("store.bm25.score", st.Bm25Index.score)),
            (em.EmbeddingProvider, "embed_terms", t("embeddings.embed_terms", em.EmbeddingProvider.embed_terms, True, on_exit=self._exit_embed)),
            (sb.CachingChatClient, "complete", self.counted("stepback.chat", sb.CachingChatClient.complete)),
            (tx, "extract_terms", extract_terms),
            (st, "extract_terms", extract_terms),
            (sb, "extract_terms", extract_terms),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # --- results ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter, set]:
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        counts: Counter[str] = Counter()
        queries: set = set()
        with self._lock:
            for st in self._threads:
                calls.update(st.calls)
                self_s.update(st.self_s)
                counts.update(st.counts)
                queries |= st.queries
        return calls, self_s, counts, queries

    def write_spans(self, path: Path) -> int:
        with self._lock:
            spans = [span for st in self._threads for span in st.spans]
        spans.sort(key=lambda s: s["start"])
        with path.open("w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)
