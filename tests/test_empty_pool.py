"""A highlighting setting whose pool has no sentence asks the QA model as plain RAG does.

Two inputs give an empty pool: a precomputed result with `"passages": []`, and
retrieved passages whose text is only whitespace. With nothing to highlight,
`select_evidence` runs no chain and embeds nothing, so the record is scored on
its answer: in full context its prompt is the no-highlight prompt, and
step-back is still asked.
"""

import json

import pytest

from ragmark.embeddings import ProviderConfig
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, run_setting
from ragmark.stepback import StubChatClient
from ragmark.store import load_precomputed_results

RECORD = EvalRecord("q0", "factoid", "When do lions hunt?", frozenset({"night"}))
POOLS = pytest.mark.parametrize(
    "passages",
    [[], [{"id": "p1", "title": "Blank", "text": " \n\t "}, {"id": "p2", "title": "", "text": "\n"}]],
    ids=["no-passages", "whitespace-passages"],
)


def precomputed(tmp_path, passages):
    """The passages as `load_precomputed_results` reads them from a results file."""
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps({"query_id": RECORD.query_id, "passages": passages}) + "\n", encoding="utf-8")
    return load_precomputed_results(path)


def run(tmp_path, passages, **setting):
    """One record under `setting`: its outcome, the QA prompts, the step-back prompts and the provider."""
    qa = StubChatClient("at night")
    stepback = StubChatClient(lambda prompt: "What do predators do?")
    provider = ProviderConfig(dimension=16, cache_path=str(tmp_path / "vectors.jsonl")).build()
    handles = PipelineHandles(
        qa_client=qa, embedding_provider=provider, stepback_client=stepback, precomputed=precomputed(tmp_path, passages)
    )
    report = run_setting([RECORD], RunSetting(**setting), handles)
    return report.outcomes[0], qa.calls, stepback.calls, provider


@POOLS
@pytest.mark.parametrize("context_mode", ["full", "evidence-only"])
def test_a_highlighting_setting_with_an_empty_pool_asks_the_qa_model(tmp_path, passages, context_mode):
    ProviderConfig(dimension=16, cache_path=str(tmp_path / "vectors.jsonl")).build().embed_terms({"lions", "night"})
    cached = (tmp_path / "vectors.jsonl").read_bytes()
    outcome, prompts, stepback_prompts, provider = run(tmp_path, passages, context_mode=context_mode)
    assert outcome.error is None and outcome.correct
    assert len(prompts) == 1
    assert stepback_prompts  # step-back is still asked
    assert provider.fetch_count == 0
    assert (tmp_path / "vectors.jsonl").read_bytes() == cached
    if context_mode == "full":
        _, plain, _, _ = run(tmp_path, passages, highlighting=False)
        assert prompts == plain
