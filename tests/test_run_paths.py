"""Run paths no other test renders: the evidence-only context and three prompt templates."""

import pytest

from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, build_prompt, run_setting
from ragmark.highlight import CLOSE_TAG, OPEN_TAG, evidence_only
from ragmark.pipeline import select_evidence
from ragmark.retriever import RetrieverParams
from ragmark.stepback import StubChatClient
from ragmark.store import Passage


def test_evidence_only_run_sends_the_evidence_sentences_alone():
    record = EvalRecord("q0", "factoid", "What is the desert fox known for?", frozenset({"hearing"}))
    passages = [
        Passage("p0", "Foxes", "Oceans cover most of the planet. The desert fox is known for its hearing.", rank=1),
        Passage("p1", "Sand", "Sand dunes move with the wind. Rain is rare there.", rank=2),
    ]
    qa = StubChatClient("hearing")
    handles = PipelineHandles(
        qa_client=qa, embedding_provider=OfflineEmbeddingProvider(dimension=32, seed=0),
        precomputed={"q0": passages},
    )
    setting = RunSetting(highlighting=True, stepback=False, context_mode="evidence-only")
    report = run_setting([record], setting, handles)

    result = select_evidence(
        record.question, passages, OfflineEmbeddingProvider(dimension=32, seed=0), RetrieverParams()
    )
    documents = evidence_only(passages, list(result.evidence))
    assert result.evidence and documents != result.document.rendered()
    [prompt] = qa.calls
    assert prompt == build_prompt(record, documents, "mistral")
    assert f"Documents: {documents}\n\n" in prompt
    assert OPEN_TAG not in prompt and CLOSE_TAG not in prompt
    assert report.accuracy == 100.0


CLAIM = EvalRecord("q", "claim-verification", "The sky is green.", frozenset({"false"}))
MCQ = EvalRecord("q", "mcq", "Which is dry?", frozenset({"B"}), {"A": "Ocean", "B": "Desert"})
DOCUMENTS = "Deserts\nDeserts are dry."

MISTRAL_CLAIM = (
    "Read the documents and answer the question: Is the following statement correct or not? "
    "Only say true if the statement is true; otherwise say false. Don't capitalize or add periods, "
    'just say "true" or "false".\n'
    "\n"
    "Documents: Deserts\n"
    "Deserts are dry.\n"
    "\n"
    "Statement: The sky is green.\n"
    "### Response:"
)

ALPACA_MCQ = (
    "Below is an instruction that describes a task. Write a response that appropriately completes the request.\n"
    "\n"
    "### Instruction: Given four answer candidates, A, B, C and D, choose the best answer choice.\n"
    "Please answer with the capitalized alphabet only, without adding any extra phrase or period.\n"
    "\n"
    "### Input:\n"
    "Documents: Deserts\n"
    "Deserts are dry.\n"
    "\n"
    "Question: Which is dry?\n"
    "Choices:\n"
    "A. Ocean\n"
    "B. Desert\n"
    "\n"
    "### Response:"
)


@pytest.mark.parametrize(
    "record, family, expected",
    [
        (CLAIM, "mistral", MISTRAL_CLAIM),
        (MCQ, "alpaca", ALPACA_MCQ),
        (MCQ, "llama2", ALPACA_MCQ),  # llama2 asks an MCQ in the alpaca format, with no system block
    ],
)
def test_prompt_template_text_is_pinned(record, family, expected):
    assert build_prompt(record, DOCUMENTS, family) == expected


@pytest.mark.parametrize(
    "record, family, expected",
    [
        (CLAIM, "mistral", MISTRAL_CLAIM.replace("Documents: Deserts\nDeserts are dry.\n\n", "")),
        (MCQ, "alpaca", ALPACA_MCQ.replace("Documents: Deserts\nDeserts are dry.\n\n", "")),
        (MCQ, "llama2", ALPACA_MCQ.replace("Documents: Deserts\nDeserts are dry.\n\n", "")),
    ],
)
def test_prompt_template_without_retrieval_drops_only_the_documents_block(record, family, expected):
    assert build_prompt(record, None, family) == expected
