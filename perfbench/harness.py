"""Run one workload through ragmark's evaluate path and measure it.

A round is one fresh set-up (load KB, precomputed results and dataset through
the public loaders; build the provider, caches and, for BM25, the index)
followed by one `evaluation.run_setting` over every record of the workload.
There are at least MIN_ROUNDS rounds, and more while the next one still fits
in the time budget. Every round runs the same records, so a faster program
gets more rounds, never other inputs. Outputs are checked after each round,
outside the timed region.

On a shared virtual machine the CPU runs at varying speed (twice as slow in
a busy period as in a quiet one), and thread CPU time slows down with it. So
every timed step (a set-up, a record) is bracketed by runs of `speed_probe`,
a fixed piece of interpreter work, and is reported as its measured time
scaled by PROBE_NOMINAL_S / the mean time of the probes just before and just
after it: seconds on a machine that runs the probe in exactly
PROBE_NOMINAL_S. A record's latency is then the median over the
rounds of its scaled times.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import ragmark.evaluation as evaluation
import ragmark.store as store
from ragmark.embeddings import OfflineEmbeddingProvider, ProviderConfig
from ragmark.highlight import highlight, strip_tags
from ragmark.pipeline import build_queries
from ragmark.retriever import RetrieverParams
from ragmark.stepback import CachingChatClient, ReplyCache, StubChatClient
from ragmark.text import content_surfaces

import oracle
from tracing import Tracer
from workloads import Workload

TAIL_BEYOND = 10  # samples beyond the tail percentile
MIN_ROUNDS = 3  # each record's latency is its median over at least this many rounds
MIN_SETUPS = 3  # and at least SETUP_SECONDS of them, up to MAX_SETUPS
SETUP_SECONDS = 1.0
MAX_SETUPS = 15
ORACLE_RECORDS = 3  # records per round re-derived by the oracle
TRACED_PAIRS = 2  # untraced and traced rounds of a traced run, each
TERMINATIONS = ("full-coverage", "hop-cap", "no-candidates")  # EvidenceChain.terminated_by
MODEL_FAMILY = "mistral"
# One worker: records are CPU-bound under the interpreter lock, so a second
# worker adds no throughput, only makes a record's latency depend on what runs
# beside it; and two workers can both miss the same cold term and fetch it
# twice, so embeddings.terms_fetched would not repeat exactly.
MAX_WORKERS = 1

_EVIDENCE = re.compile(r"<evidence>(.*?)</evidence>", re.S)
_DOCUMENTS = re.compile(r"Documents: (.*?)\n\n(?:Question: |Statement: |### Instruction: )", re.S)
_QUESTION = re.compile(r"(?:Question: |Statement: |Answer the question: )([^\n]*)")
_CHOICE = re.compile(r"^([A-Z])\. (.+)$", re.M)
_SENTENCE = re.compile(r"[^.!?\n]+[.!?]")
_WORD = re.compile(r"[a-z0-9]+")


# --- deterministic stand-ins for the chat models -----------------------------


def _words(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def stub_answer(prompt: str) -> str:
    """QA stand-in: the answer found in the context unit sharing most words with the question.

    Units are the tagged evidence sentences when there are tags, else every
    sentence of the documents. Only units holding an answer of the task's
    kind compete (a choice text, "true"/"false", or a token with a digit);
    ties go to the earliest unit.
    """
    docs = _DOCUMENTS.search(prompt).group(1)
    question = set(_words(_QUESTION.search(prompt).group(1)))
    if "\nChoices:\n" in prompt:
        choices = _CHOICE.findall(prompt.split("\nChoices:\n", 1)[1])
        answers, default = (lambda words: [label for label, text in choices if text.lower() in words]), "A"
    elif "\nStatement: " in prompt:
        answers, default = (lambda words: [w for w in words if w in ("true", "false")]), "false"
    else:
        answers, default = (lambda words: [w for w in words if any(c.isdigit() for c in w)]), "unknown"
    best, best_overlap = default, -1
    for unit in _EVIDENCE.findall(docs) or _SENTENCE.findall(docs):
        words = _words(unit)
        found = answers(words)
        overlap = len(question.intersection(words))
        if found and overlap > best_overlap:
            best, best_overlap = found[0], overlap
    return best


def stub_stepback(prompt: str) -> str:
    """Step-back stand-in: echo the question's words reversed, or the choice text."""
    if "Original Statement: " in prompt:
        return "Answer: " + prompt.split("Original Statement: ", 1)[1].split("\n", 1)[0]
    question = prompt.split("What is the Stepback Question for this?: ", 1)[1].split("\n", 1)[0]
    return "Stepback Question: What about " + " ".join(reversed(_words(question)))


# --- machine speed -----------------------------------------------------------

PROBE_STEPS = 3000
PROBE_NOMINAL_S = 0.010  # about the probe's time on an idle 2-vCPU x86-64 VM
_PROBE_ROWS = {f"row{i}": [((i * 37 + j * 11) % 101) / 101.0 for j in range(64)] for i in range(50)}
_PROBE_COLUMN = [((j * 53) % 97) / 97.0 for j in range(64)]


def speed_probe() -> float:
    """Seconds this thread takes for a fixed piece of interpreter work.

    Dot products of float lists, dict lookups and string formatting: the
    kind of work ragmark's hot paths do, written here so that no change to
    ragmark changes it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_STEPS):
        row = _PROBE_ROWS[f"row{i % 50}"]
        acc += sum(x * y for x, y in zip(row, _PROBE_COLUMN)) / (1.0 + acc)
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` at the machine speed where the probe takes PROBE_NOMINAL_S."""
    return seconds * PROBE_NOMINAL_S / probe_s


# --- one round ---------------------------------------------------------------


@dataclass
class Setup:
    handles: evaluation.PipelineHandles
    records: list
    passages: list
    precomputed: dict | None
    setting: evaluation.RunSetting
    seconds: float  # scaled
    cached_terms: int


def setup(w: Workload, data_dir: Path, round_dir: Path) -> Setup:
    """Fresh caches in `round_dir`, then the timed set-up."""
    if round_dir.exists():
        shutil.rmtree(round_dir)
    round_dir.mkdir(parents=True)
    if w.warm_vector_cache:
        shutil.copyfile(data_dir / "vectors.jsonl", round_dir / "vectors.jsonl")
    gc.collect()  # the previous round's garbage is not this set-up's cost
    before = speed_probe()
    t0 = time.perf_counter()
    passages = store.load_passages(data_dir / "kb.jsonl")
    precomputed = store.load_precomputed_results(data_dir / "results.jsonl") if w.retrieval != "bm25" else None
    records = evaluation.load_dataset(data_dir / "dataset.jsonl")
    provider = ProviderConfig(cache_path=str(round_dir / "vectors.jsonl")).build() if w.highlighting else None
    stepback = None
    if w.stepback:
        stepback = CachingChatClient(
            StubChatClient(stub_stepback, model_name="stepback-stub"), ReplyCache(round_dir / "replies.jsonl")
        )
    index = store.build_index(passages) if w.retrieval == "bm25" else None
    handles = evaluation.PipelineHandles(
        qa_client=StubChatClient(stub_answer, model_name="qa-stub"),
        embedding_provider=provider,
        stepback_client=stepback,
        retriever_params=RetrieverParams(),
        bm25_index=index,
        precomputed=precomputed,
        max_workers=MAX_WORKERS,
    )
    seconds = time.perf_counter() - t0
    seconds = scaled(seconds, (before + speed_probe()) / 2)
    setting = evaluation.RunSetting(
        retrieval=w.retrieval, highlighting=w.highlighting, stepback=w.stepback, top_k=w.top_k, model_family=MODEL_FAMILY
    )
    cached = len(provider.cache) if provider is not None else 0
    return Setup(handles, records, passages, precomputed, setting, seconds, cached)


@contextmanager
def record_timer(latencies: dict[str, float], probes: dict[str, float]):
    """Time each record from outside: wrap the per-record step `run_setting` maps over.

    The speed probe runs just before each record, outside its timed span.
    """
    inner = evaluation._evaluate_record

    def timed(record, setting, handles):
        probes[record.query_id] = speed_probe()
        t0 = time.perf_counter()
        try:
            return inner(record, setting, handles)
        finally:
            latencies[record.query_id] = time.perf_counter() - t0

    evaluation._evaluate_record = timed
    try:
        yield
    finally:
        evaluation._evaluate_record = inner


@dataclass
class Round:
    seconds: float  # wall time of run_setting, probes included
    raw: dict[str, float]  # query_id -> measured seconds
    probes: dict[str, float]  # query_id -> mean of the probes just before and just after the record
    outside: float  # scaled time of run_setting's own work around the per-record steps
    report: evaluation.RunReport
    prompts: list[str]

    def latency(self, query_id: str) -> float:
        return scaled(self.raw[query_id], self.probes[query_id])


def run_round(s: Setup) -> Round:
    raw: dict[str, float] = {}
    before: dict[str, float] = {}
    gc.collect()
    with record_timer(raw, before):
        t0 = time.perf_counter()
        report = evaluation.run_setting(s.records, s.setting, s.handles)
        seconds = time.perf_counter() - t0
    # One worker, so the records ran one after another in the order of
    # `before`, and each one's "after" probe is the next one's "before" probe.
    after = [*list(before.values())[1:], speed_probe()]
    probes = {q: (b + a) / 2 for (q, b), a in zip(before.items(), after)}
    # Pool start-up and any pre-pass over all records.
    outside = seconds - sum(raw.values()) - sum(before.values())
    outside = scaled(outside, statistics.median(probes.values()))
    return Round(seconds, raw, probes, outside, report, list(s.handles.qa_client.calls))


def record_latencies(rounds: list[Round]) -> list[float]:
    """Each record's latency: the median over the rounds of its scaled time."""
    return [statistics.median(r.latency(q) for r in rounds) for q in rounds[0].raw]


# --- correctness gate --------------------------------------------------------


@dataclass
class Gate:
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems


def digest(r: Round) -> str:
    """Hash of every record's outcome and of every prompt (the highlighted text) the QA model saw."""
    h = hashlib.sha256()
    for o in r.report.outcomes:
        h.update(json.dumps([o.query_id, o.generation, o.correct, o.error]).encode())
    for prompt in sorted(r.prompts):
        h.update(hashlib.sha256(prompt.encode()).digest())
    return h.hexdigest()


def check_round(w: Workload, s: Setup, r: Round, manifest: dict, gate: Gate) -> None:
    """Structural checks that hold on every seed."""
    n = len(s.records)
    gate.check(len(r.report.outcomes) == n, f"{len(r.report.outcomes)} outcomes for {n} records")
    gate.check(len(r.prompts) == n, f"{len(r.prompts)} QA calls for {n} records")
    gate.check(r.report.accuracy > 0.0, "accuracy is 0")
    for o in r.report.outcomes:
        gate.check(o.error is None, f"{o.query_id}: {o.error}")
    if not w.highlighting:
        gate.check(all("<evidence>" not in p for p in r.prompts), "tags in a no-highlight prompt")
        by_id = {p.id: p for p in s.passages}
        gold = {rec.question: by_id[manifest["bm25_gold"][rec.query_id]] for rec in s.records}
        for prompt in r.prompts:
            g = gold.get(_QUESTION.search(prompt).group(1))
            first = _DOCUMENTS.search(prompt).group(1).split("\n\n", 1)[0]
            gate.check(g is not None and first == f"{g.title}\n{g.text}", "a record's gold passage is not ranked first")
        return
    # Removing the tags must give back exactly the untagged prompt of one record.
    untagged = {}
    for record in s.records:
        passages = s.precomputed[record.query_id][: w.top_k]
        untagged[evaluation.build_prompt(record, highlight(passages, []), MODEL_FAMILY)] = (record, passages)
    tagged = {}
    for prompt in r.prompts:
        key = strip_tags(prompt)
        gate.check(key in untagged, "strip_tags(highlighted) differs from the original passages")
        gate.check("<evidence>" in prompt, "highlighted prompt without evidence")
        if key in untagged:
            tagged[untagged[key][0].query_id] = prompt
    gate.check(len(tagged) == n, "prompts do not cover every record")
    for record, passages in list(untagged.values())[:ORACLE_RECORDS]:
        if record.query_id in tagged:
            got = _EVIDENCE.findall(_DOCUMENTS.search(tagged[record.query_id]).group(1))
            want = _oracle_evidence(record, passages, w)
            gate.check(got == want, f"{record.query_id}: evidence differs from the reference ({len(got)} vs {len(want)} sentences)")


def _oracle_evidence(record, passages, w: Workload) -> list[str]:
    client = StubChatClient(stub_stepback) if w.stepback else None
    queries = build_queries(record.question, record.choices, client)
    pool = store.sentence_pool(passages)
    surfaces = {t.surface for q in queries for t in q.terms}
    for span in pool:
        surfaces |= content_surfaces(span)
    vectors = OfflineEmbeddingProvider().embed_terms(surfaces)
    return oracle.evidence_texts(queries, passages, pool, vectors, RetrieverParams())


# --- statistics --------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile with ten samples beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- a whole run -------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    info: dict
    problems: list[str]
    samples: dict = field(default_factory=dict)  # raw timings, written to the result file only


def measure(w: Workload, data_dir: Path, work_dir: Path, seconds: float, manifest: dict, expected: dict | None) -> Result:
    """End-to-end metrics, tracing off."""
    gate = Gate()
    setups: list[float] = []
    rounds: list[Round] = []
    digests: set[str] = set()
    start = time.perf_counter()
    while True:
        s = setup(w, data_dir, work_dir / "round")
        setups.append(s.seconds)
        r = run_round(s)
        rounds.append(r)
        if len(rounds) == 1:  # later rounds must reproduce it exactly (digest)
            check_round(w, s, r, manifest, gate)
        digests.add(digest(r))
        del s
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            break
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        setups.append(setup(w, data_dir, work_dir / "round").seconds)

    gate.check(len(digests) == 1, "rounds of the same inputs gave different outputs")
    accuracy = rounds[0].report.accuracy
    _check_expected(gate, expected, accuracy, rounds[0])
    latencies = record_latencies(rounds)
    outside = statistics.median(r.outside for r in rounds)
    pct, tail_s = tail(latencies)
    n = len(rounds[0].report.outcomes)
    failed = sum(o.error is not None for r in rounds for o in r.report.outcomes)
    metrics = {
        "records_per_s": n / (sum(latencies) + outside),
        "record_p50_s": statistics.median(latencies),
        "record_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
        "accuracy_pct": accuracy,
        "setup_s": statistics.median(setups),
    }
    probes = [p for r in rounds for p in r.probes.values()]
    info = {
        "rounds": len(rounds),
        "records_per_round": n,
        "round_s": [round(r.seconds, 3) for r in rounds],
        "outside_records_s": round(outside, 4),
        "setups": len(setups),
        "tail_percentile": round(pct, 1),
        "tail_samples": len(latencies),
        "samples_beyond_tail": len(latencies) - round(pct * len(latencies) / 100.0),
        "failed_share": failed / (n * len(rounds)),
        "probe_s": f"median {statistics.median(probes):.5f}, min {min(probes):.5f}, max {max(probes):.5f} (nominal {PROBE_NOMINAL_S})",
        "unscaled_record_p50_s": statistics.median(statistics.median(r.raw[q] for r in rounds) for q in rounds[0].raw),
        "digest": digest(rounds[0]),
    }
    samples = {
        "record_s": [[r.raw[q] for r in rounds] for q in rounds[0].raw],
        "probe_s": [[r.probes[q] for r in rounds] for q in rounds[0].raw],
        "setup_scaled_s": setups,
    }
    return Result(gate.ok, n * len(rounds), failed, metrics, info, gate.problems, samples)


def _check_expected(gate: Gate, expected: dict | None, accuracy: float, r: Round) -> None:
    if expected is None:
        return
    gate.check(accuracy == expected["accuracy_pct"], f"accuracy_pct {accuracy} != stored {expected['accuracy_pct']}")
    gate.check(digest(r) == expected["digest"], "output digest differs from the stored one")


def measure_traced(w: Workload, data_dir: Path, work_dir: Path, manifest: dict, expected: dict | None, trace_path: Path) -> Result:
    """Per-layer metrics: untraced and traced rounds in turn, TRACED_PAIRS of each.

    Counters and self times come from the last traced round; the tracing
    overhead compares the records' traced and untraced latencies.
    """
    gate = Gate()
    plain: list[Round] = []
    traced: list[Round] = []
    for _ in range(TRACED_PAIRS):
        s = setup(w, data_dir, work_dir / "round")
        plain.append(run_round(s))
        if len(plain) == 1:
            check_round(w, s, plain[0], manifest, gate)
        tracer = Tracer()
        with tracer.install():
            s = setup(w, data_dir, work_dir / "round")
            traced.append(run_round(s))
    gate.check(all(digest(r) == digest(plain[0]) for r in plain + traced), "tracing changed the outputs")
    _check_expected(gate, expected, plain[0].report.accuracy, plain[0])
    spans = tracer.write_spans(trace_path)
    plain_s = sum(record_latencies(plain))
    traced_s = sum(record_latencies(traced))

    calls, self_s, counts, queries = tracer.totals()
    provider = s.handles.embedding_provider
    requested = counts["embeddings.terms_requested"]
    fetched = provider.fetch_count if provider is not None else 0
    chat_calls = calls["stepback.chat"]
    chat_misses = len(s.handles.stepback_client.inner.calls) if s.handles.stepback_client else 0
    hops = counts["retriever.hops"]
    metrics = {
        "alignment.align_score.calls": calls["alignment.align_score"],
        "alignment.align_score.self_s": self_s["alignment.align_score"],
        "alignment.coverage.calls": calls["alignment.coverage"],
        "alignment.coverage.self_s": self_s["alignment.coverage"],
        "alignment.cosine.calls": calls["alignment.cosine"],
        "retriever.retrieve_chain.calls": calls["retriever.retrieve_chain"],
        "retriever.retrieve_chain.self_s": self_s["retriever.retrieve_chain"],
        "retriever.scoring_calls": counts["retriever.scoring_calls"],
        "retriever.hops": hops,
        **{f"retriever.terminated.{t}": counts[f"retriever.terminated.{t}"] for t in TERMINATIONS},
        "retriever.evidence_per_hop": counts["retriever.evidence_sentences"] / hops if hops else 0.0,
        "retriever.distinct_queries": len(queries),
        "embeddings.embed_terms.calls": calls["embeddings.embed_terms"],
        "embeddings.embed_terms.self_s": self_s["embeddings.embed_terms"],
        "embeddings.terms_requested": requested,
        "embeddings.terms_fetched": fetched,
        "embeddings.cache_hit_ratio": (requested - fetched) / requested if requested else 0.0,
        "embeddings.vector_cache.appends": len(provider.cache) - s.cached_terms if provider is not None else 0,
        "store.bm25.build_s": self_s["store.bm25.build"],
        "store.bm25.top_k.calls": calls["store.bm25.top_k"],
        "store.bm25.top_k.self_s": self_s["store.bm25.top_k"],
        "store.bm25.docs_scored": calls["store.bm25.score"],
        "store.sentence_pool.self_s": self_s["store.sentence_pool"],
        "stepback.expand_query.calls": calls["stepback.expand_query"],
        "stepback.expand_query.self_s": self_s["stepback.expand_query"],
        "stepback.chat_calls": chat_calls,
        "stepback.reply_cache_hit_ratio": (chat_calls - chat_misses) / chat_calls if chat_calls else 0.0,
        "text.split_sentences.calls": calls["text.split_sentences"],
        "text.split_sentences.self_s": self_s["text.split_sentences"],
        "text.extract_terms.calls": calls["text.extract_terms"],
        "pipeline.select_evidence.calls": calls["pipeline.select_evidence"],
        "pipeline.select_evidence.self_s": self_s["pipeline.select_evidence"],
        "pipeline.gather_vectors.self_s": self_s["pipeline.gather_vectors"],
        "highlight.highlight.calls": calls["highlight.highlight"],
        "highlight.highlight.self_s": self_s["highlight.highlight"],
        "evaluation.build_prompt.calls": calls["evaluation.build_prompt"],
        "evaluation.build_prompt.self_s": self_s["evaluation.build_prompt"],
        "evaluation.qa_complete.calls": len(traced[-1].prompts),
        "trace.overhead_s": traced_s - plain_s,
    }
    n = len(plain[0].report.outcomes)
    failed = sum(o.error is not None for r in plain + traced for o in r.report.outcomes)
    info = {
        "records_per_round": n,
        "rounds": f"{TRACED_PAIRS} untraced, {TRACED_PAIRS} traced",
        "untraced_records_s": plain_s,
        "traced_records_s": traced_s,
        "overhead_share": (traced_s - plain_s) / plain_s,
        "spans": spans,
        "trace_file": str(trace_path),
        "digest": digest(plain[0]),
    }
    return Result(gate.ok, 2 * TRACED_PAIRS * n, failed, {k: float(v) for k, v in metrics.items()}, info, gate.problems)
