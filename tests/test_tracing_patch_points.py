"""The benchmark's tracer (`perfbench/tracing.py`) wraps ragmark functions by
the names its callers look them up through. Every name it patches must still
exist, and a traced call must give what an untraced one gives."""

import importlib.util
from pathlib import Path

import pytest

import ragmark.pipeline as pipeline
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, run_setting
from ragmark.stepback import StubChatClient

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
QUESTION = "Why do lions hunt at night in arid deserts?"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_select_evidence_equals_untraced(arid_passage):
    untraced = pipeline.select_evidence(QUESTION, [arid_passage], OfflineEmbeddingProvider())
    original = pipeline.select_evidence
    tracer = load_tracing().Tracer()
    with tracer.install():
        assert pipeline.select_evidence is not original
        traced = pipeline.select_evidence(QUESTION, [arid_passage], OfflineEmbeddingProvider())
    assert pipeline.select_evidence is original
    assert traced == untraced
    calls, _, counts, _ = tracer.totals()
    assert calls["pipeline.select_evidence"] == 1
    assert calls["retriever.retrieve_chain"] == len(untraced.chains)
    assert counts["retriever.hops"] == sum(len(c.hops) for c in untraced.chains)


def test_traced_mcq_with_stepback_equals_untraced(arid_passage):
    def reply(prompt):
        return "Why are desert animals nocturnal?" if "step back and paraphrase" in prompt else "water, heat"

    choices = {"A": "They avoid the heat.", "B": "They see better.", "C": "They sleep less."}

    def run():
        return pipeline.select_evidence(
            QUESTION, [arid_passage], OfflineEmbeddingProvider(), stepback_client=StubChatClient(reply), choices=choices
        )

    untraced = run()
    tracer = load_tracing().Tracer()
    with tracer.install():
        traced = run()
    assert traced == untraced
    assert len(traced.queries) == len(choices)
    calls, _, _, _ = tracer.totals()
    assert calls["stepback.expand_query"] == 1


@pytest.mark.parametrize("highlighting", [True, False])
def test_traced_run_setting_equals_untraced(arid_passage, highlighting):
    """`_evaluate_record` calls the stages through their modules, so the tracer's patches see them."""
    record = EvalRecord("q0", "factoid", QUESTION, frozenset({"night"}))

    def run():
        handles = PipelineHandles(
            qa_client=StubChatClient("at night"), embedding_provider=OfflineEmbeddingProvider(),
            precomputed={"q0": [arid_passage]},
        )
        return run_setting([record], RunSetting(highlighting=highlighting, stepback=False), handles)

    untraced = run()
    tracer = load_tracing().Tracer()
    with tracer.install():
        traced = run()
    assert traced == untraced
    calls, _, _, _ = tracer.totals()
    assert calls["pipeline.select_evidence"] == int(highlighting)
    assert calls["highlight.highlight"] == calls["evaluation.build_prompt"] == 1
