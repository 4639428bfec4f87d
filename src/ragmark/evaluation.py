"""QA evaluation harness: dataset loading, prompt construction, inclusion scoring.

Three task shapes are supported: multiple-choice (mcq), claim verification
(true/false), and short-form factoid QA. Prompt templates differ per QA-model
family because instruction-tuned models expect different formats. Scoring is
inclusion-based: a generation is correct when a normalized gold answer occurs
inside the normalized generation.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    DuplicateId,
    MalformedRecord,
    MissingBm25Index,
    MissingChoices,
    MissingEmbeddingProvider,
    MissingPrecomputedResults,
    MissingResults,
    RagmarkError,
    UnknownTemplate,
)
from .highlight import HighlightedDocument
from .jsonl import TEXT, as_text, read_records, require
from .stepback import ChatClient

if TYPE_CHECKING:
    from .embeddings import EmbeddingProvider
    from .retriever import RetrieverParams
    from .store import Bm25Index

TASKS = ("mcq", "claim-verification", "factoid")


@dataclass(frozen=True)
class EvalRecord:
    query_id: str
    task: str
    question: str
    gold: frozenset[str]
    choices: dict[str, str] | None = None


@dataclass(frozen=True)
class RunSetting:
    retrieval: str = "precomputed-dense"  # "none" | "precomputed-dense" | "bm25"
    highlighting: bool = True
    stepback: bool = True
    top_k: int | None = 11  # None: every passage
    context_mode: str = "full"  # "full" | "evidence-only"
    model_family: str = "mistral"

    def __post_init__(self) -> None:
        if self.retrieval not in ("none", "precomputed-dense", "bm25"):
            raise ValueError(f"unknown retrieval mode {self.retrieval!r}")
        if self.context_mode not in ("full", "evidence-only"):
            raise ValueError(f"unknown context mode {self.context_mode!r}")
        if not self.highlighting and self.context_mode == "evidence-only":
            raise ValueError("evidence-only context requires highlighting")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be at least 1, or null for every passage; got {self.top_k}")


@dataclass(frozen=True)
class RecordOutcome:
    query_id: str
    generation: str
    correct: bool
    error: str | None = None


@dataclass(frozen=True)
class RunReport:
    setting: RunSetting
    outcomes: tuple[RecordOutcome, ...]
    accuracy: float
    baseline_accuracy: float | None = None
    relative_change: float | None = None

    def to_summary(self) -> dict:
        return {
            "setting": self.setting.__dict__,
            "n_records": len(self.outcomes),
            "accuracy": self.accuracy,
            "baseline_accuracy": self.baseline_accuracy,
            "relative_change": self.relative_change,
        }


def relative_change(baseline: float, accuracy: float) -> float:
    """Percent change of `accuracy` against `baseline`, rounded to 2 decimals."""
    return round((accuracy - baseline) / baseline * 100.0, 2)


def load_dataset(path: str | Path, task: str | None = None) -> list[EvalRecord]:
    """Load a benchmark: JSONL of {"query_id","task","question","choices"?,"gold"}."""
    records: list[EvalRecord] = []
    seen: set[str] = set()
    for line_no, obj in read_records(path):
        qid = str(require(obj, "query_id", line_no, TEXT))
        rec_task = require(obj, "task", line_no)
        question = str(require(obj, "question", line_no, TEXT))
        gold = [as_text(g, "gold", line_no) for g in require(obj, "gold", line_no, list)]
        if task is not None and rec_task != task:
            raise MalformedRecord(
                f"line {line_no}: task {rec_task!r} does not match expected {task!r}", line_no
            )
        if rec_task not in TASKS:
            raise MalformedRecord(f"line {line_no}: unknown task {rec_task!r}", line_no)
        if not question.strip():
            raise MalformedRecord(f"line {line_no}: empty question", line_no)
        if qid in seen:
            raise DuplicateId(f"line {line_no}: duplicate query_id {qid!r}")
        seen.add(qid)
        if not gold:
            raise MalformedRecord(f"line {line_no}: empty gold set", line_no)
        choices = obj.get("choices")
        if rec_task == "mcq":
            if not choices:
                raise MissingChoices(f"line {line_no}: mcq record without choices", line_no)
            if not isinstance(choices, dict):
                raise MalformedRecord(f"line {line_no}: choices must be an object", line_no)
            choices = {k: as_text(v, "choices", line_no) for k, v in choices.items()}
        elif choices:
            raise MalformedRecord(f"line {line_no}: choices on non-mcq record", line_no)
        if rec_task == "claim-verification":
            gold = [g.lower() for g in gold]
            if not set(gold) <= {"true", "false"}:
                raise MalformedRecord(
                    f"line {line_no}: claim gold must be true/false", line_no
                )
        records.append(
            EvalRecord(
                query_id=qid,
                task=rec_task,
                question=question,
                gold=frozenset(gold),
                choices=choices,
            )
        )
    return records


# --- prompt templates, one per (task, model family) ------------------------

_MCQ_INSTRUCTION = (
    "Given four answer candidates, A, B, C and D, choose the best answer choice.\n"
    "Please answer with the capitalized alphabet only, without adding any extra phrase or period."
)

_CLAIM_INSTRUCTION = (
    "Read the documents and answer the question: Is the following statement correct or not? "
    "Only say true if the statement is true; otherwise say false. Don't capitalize or add "
    "periods, just say \"true\" or \"false\"."
)

_ALPACA_PREAMBLE = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request."
)

_LLAMA_SYS = """<s>[INST] <<SYS>>
You are a helpful, respectful and honest assistant. Always answer as helpfully as possible, while being safe. Your answers should not include any harmful, unethical, racist, sexist, toxic, dangerous, or illegal content. Please ensure that your responses are socially unbiased and positive in nature.

If a question does not make any sense, or is not factually coherent, explain why instead of answering something not correct. If you don't know the answer to a question, please don't share false information.
<</SYS>>"""

MODEL_FAMILIES = ("mistral", "alpaca", "llama2")


def format_choices(choices: dict[str, str]) -> str:
    return "\n".join(f"{label}. {choices[label]}" for label in sorted(choices))


def _mistral_prompt(record: EvalRecord, documents: str | None) -> str:
    docs_block = f"Documents: {documents}\n\n" if documents is not None else ""
    if record.task == "mcq":
        lead = "Refer to the following documents, follow the instruction and answer the question.\n\n" if documents is not None else ""
        return (
            f"{lead}{docs_block}"
            f"Question: {record.question}\n\n"
            f"Choices:\n{format_choices(record.choices)}\n\n"
            f"Instruction: {_MCQ_INSTRUCTION}"
        )
    if record.task == "claim-verification":
        return (
            f"{_CLAIM_INSTRUCTION}\n\n"
            f"{docs_block}"
            f"Statement: {record.question}\n"
            f"### Response:"
        )
    lead = "Refer to the following documents, follow the instruction and answer the question.\n\n### Input:\n" if documents is not None else ""
    return (
        f"{lead}{docs_block}"
        f"### Instruction: Answer the question: {record.question}\n"
        f"### Response:"
    )


def _alpaca_body(record: EvalRecord, documents: str | None) -> str:
    docs_block = f"Documents: {documents}\n\n" if documents is not None else ""
    if record.task == "mcq":
        return (
            f"### Instruction: {_MCQ_INSTRUCTION}\n\n"
            f"### Input:\n{docs_block}"
            f"Question: {record.question}\n"
            f"Choices:\n{format_choices(record.choices)}\n\n"
            f"### Response:"
        )
    if record.task == "claim-verification":
        return (
            f"### Instruction: {_CLAIM_INSTRUCTION}\n\n"
            f"### Input:\n{docs_block}"
            f"Statement: {record.question}\n"
            f"### Response:"
        )
    return (
        f"### Instruction: Refer to the following documents and answer the question.\n"
        f"### Input:\n{docs_block}"
        f"Question: {record.question}\n"
        f"### Response:"
    )


def _alpaca_prompt(record: EvalRecord, documents: str | None) -> str:
    return f"{_ALPACA_PREAMBLE}\n\n{_alpaca_body(record, documents)}"


def _llama2_prompt(record: EvalRecord, documents: str | None) -> str:
    if record.task == "mcq":
        return _alpaca_prompt(record, documents)
    return f"{_LLAMA_SYS}\n\n{_ALPACA_PREAMBLE}\n\n{_alpaca_body(record, documents)} [/INST]"


_BUILDERS: dict[str, Callable[[EvalRecord, str | None], str]] = {
    "mistral": _mistral_prompt,
    "alpaca": _alpaca_prompt,
    "llama2": _llama2_prompt,
}


def build_prompt(
    record: EvalRecord,
    context: HighlightedDocument | str | None,
    model_family: str,
) -> str:
    """Render the task prompt for a model family.

    `context` is a HighlightedDocument (full passages, tagged or not), a bare
    evidence-only string, or None for the no-retrieval setting, in which case
    the Documents block is omitted entirely.
    """
    if model_family not in _BUILDERS:
        raise UnknownTemplate(f"no template for model family {model_family!r}")
    if record.task not in TASKS:
        raise UnknownTemplate(f"no template for task {record.task!r}")
    if isinstance(context, HighlightedDocument):
        documents = context.rendered()
    else:
        documents = context
    return _BUILDERS[model_family](record, documents)


# --- scoring ----------------------------------------------------------------


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation to spaces, collapse whitespace."""
    text = re.sub(r"[^0-9a-z]+", " ", text.lower())
    return " ".join(text.split())


def inclusion_match(generation: str, gold: Sequence[str] | frozenset[str]) -> bool:
    """True iff any normalized gold string occurs in the normalized generation.

    Single-character golds (MCQ labels) must match a standalone token so that
    "B" does not match inside "Because".
    """
    gen = normalize_answer(generation)
    tokens = set(gen.split())
    for g in gold:
        g_norm = normalize_answer(g)
        if not g_norm:
            continue
        if len(g_norm) == 1:
            if g_norm in tokens:
                return True
        elif g_norm in gen:
            return True
    return False


# --- run orchestration -------------------------------------------------------


@dataclass
class PipelineHandles:
    """Everything a run needs: clients, provider, retrieval sources, params."""

    qa_client: ChatClient
    embedding_provider: EmbeddingProvider | None = None
    stepback_client: ChatClient | None = None
    retriever_params: RetrieverParams | None = None
    bm25_index: Bm25Index | None = None
    precomputed: dict[str, list] | None = None
    max_workers: int = 4


def _evaluate_record(
    record: EvalRecord, setting: RunSetting, handles: PipelineHandles
) -> RecordOutcome:
    from .highlight import evidence_only as render_evidence_only
    from .highlight import highlight as tag_passages
    from .pipeline import select_evidence
    from .retriever import RetrieverParams

    try:
        if setting.retrieval == "none":
            context = None
        else:
            if setting.retrieval == "bm25":
                k = setting.top_k or handles.bm25_index.n_docs
                passages = handles.bm25_index.top_k(record.question, k)
            else:
                passages = handles.precomputed.get(record.query_id)
                if passages is None:
                    raise MissingResults(f"no precomputed results for query id {record.query_id!r}")
                if setting.top_k is not None:
                    passages = passages[: setting.top_k]
            if setting.highlighting:
                result = select_evidence(
                    record.question,
                    list(passages),
                    handles.embedding_provider,
                    handles.retriever_params or RetrieverParams(),
                    stepback_client=handles.stepback_client if setting.stepback else None,
                    choices=record.choices,
                )
                if setting.context_mode == "evidence-only":
                    context = render_evidence_only(list(passages), list(result.evidence))
                else:
                    context = result.document
            else:
                context = tag_passages(list(passages), [])
        prompt = build_prompt(record, context, setting.model_family)
        generation = handles.qa_client.complete(prompt)
        return RecordOutcome(
            query_id=record.query_id,
            generation=generation,
            correct=inclusion_match(generation, record.gold),
        )
    except RagmarkError as exc:  # this record's failure, scored wrong; any other exception is a bug
        return RecordOutcome(
            query_id=record.query_id, generation="", correct=False, error=f"{type(exc).__name__}: {exc}"
        )


def run_setting(
    records: Sequence[EvalRecord],
    setting: RunSetting,
    handles: PipelineHandles,
    baseline: RunReport | None = None,
) -> RunReport:
    """Evaluate every record under one setting; a record's `RagmarkError` scores it incorrect.

    Any other exception propagates. A retrieval source or an embedding
    provider the setting needs and `handles` lacks raises a `MissingSource`
    before any record runs.
    """
    if setting.retrieval == "bm25" and handles.bm25_index is None:
        raise MissingBm25Index("bm25 retrieval needs a BM25 index (kb_path)")
    if setting.retrieval == "precomputed-dense" and handles.precomputed is None:
        raise MissingPrecomputedResults("precomputed-dense retrieval needs precomputed results (results_path)")
    if setting.highlighting and setting.retrieval != "none" and handles.embedding_provider is None:
        raise MissingEmbeddingProvider("highlighting needs an embedding provider")
    with ThreadPoolExecutor(max_workers=handles.max_workers) as pool:
        outcomes = list(pool.map(lambda r: _evaluate_record(r, setting, handles), records))
    outcomes.sort(key=lambda o: o.query_id)
    accuracy = 100.0 * sum(o.correct for o in outcomes) / len(outcomes) if outcomes else 0.0
    base_acc = baseline.accuracy if baseline else None
    return RunReport(
        setting=setting,
        outcomes=tuple(outcomes),
        accuracy=accuracy,
        baseline_accuracy=base_acc,
        relative_change=relative_change(base_acc, accuracy) if base_acc else None,
    )


def topk_sweep(
    records: Sequence[EvalRecord],
    setting: RunSetting,
    k_values: Sequence[int],
    handles: PipelineHandles,
) -> list[RunReport]:
    """One report per k, ascending; rows feed a plot-ready CSV."""
    return [run_setting(records, s, handles) for s in sweep_settings(setting, k_values)]


def sweep_settings(setting: RunSetting, k_values: Sequence[int]) -> list[RunSetting]:
    """`setting` at each k; ValueError unless the k are non-empty, strictly ascending and at least 1."""
    if not k_values or any(a >= b for a, b in zip(k_values, k_values[1:])):
        raise ValueError(f"k values must be non-empty and strictly ascending; got {list(k_values)}")
    return [replace(setting, top_k=k) for k in k_values]


def sweep_csv(reports: Sequence[RunReport]) -> str:
    lines = ["k,retrieval,highlighting,stepback,accuracy"]
    for rep in reports:
        s = rep.setting
        lines.append(f"{s.top_k},{s.retrieval},{s.highlighting},{s.stepback},{rep.accuracy:.2f}")
    return "\n".join(lines) + "\n"
