"""Settings that cannot run are refused before any record is evaluated.

A retrieval mode whose source is missing, or a highlighting setting with no
embedding provider, raises a `MissingSource` from `run_setting`, and `eval`/`sweep` report it as a config error (exit 2) with no
report written. A `top_k` below 1 and k values that are not strictly ascending
are refused the same way.
"""

import json

import pytest
from click.testing import CliRunner

from ragmark.cli import main
from ragmark.config import RunConfig
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.errors import MissingBm25Index, MissingEmbeddingProvider, MissingPrecomputedResults, MissingSource
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, run_setting, topk_sweep
from ragmark.stepback import ReplyCache, StubChatClient
from ragmark.store import Passage

RECORD = EvalRecord("q0", "factoid", "What is zorblex known for?", frozenset({"flying"}))
PRECOMPUTED = {"q0": [Passage(id="p1", title="facts", text="zorblex is known for flying.", rank=1)]}


def counting_handles(**sources):
    """Handles whose QA client and provider count what a run asks of them."""
    prompts = []

    def qa(prompt):
        prompts.append(prompt)
        return "flying"

    provider = OfflineEmbeddingProvider(dimension=16, seed=0)
    return PipelineHandles(qa_client=StubChatClient(qa), embedding_provider=provider, **sources), prompts


@pytest.mark.parametrize(
    "retrieval, error", [("bm25", MissingBm25Index), ("precomputed-dense", MissingPrecomputedResults)]
)
def test_a_missing_retrieval_source_raises_before_any_record(retrieval, error):
    handles, prompts = counting_handles()
    with pytest.raises(error) as caught:
        run_setting([RECORD], RunSetting(retrieval=retrieval, stepback=False), handles)
    assert isinstance(caught.value, MissingSource)
    assert prompts == [] and handles.embedding_provider.fetch_count == 0


def test_highlighting_without_an_embedding_provider_raises_before_any_record():
    handles, prompts = counting_handles(precomputed=PRECOMPUTED)
    handles.embedding_provider = None
    with pytest.raises(MissingEmbeddingProvider) as caught:
        run_setting([RECORD], RunSetting(stepback=False), handles)
    assert isinstance(caught.value, MissingSource)
    assert prompts == []
    report = run_setting([RECORD], RunSetting(highlighting=False, stepback=False), handles)
    assert report.accuracy == 100.0 and len(prompts) == 1  # only highlighting needs the provider


def test_no_retrieval_needs_no_source():
    handles, prompts = counting_handles()
    report = run_setting([RECORD], RunSetting(retrieval="none", highlighting=False, stepback=False), handles)
    assert report.accuracy == 100.0 and len(prompts) == 1


@pytest.mark.parametrize("top_k", [0, -1])
def test_top_k_below_one_is_rejected(top_k):
    with pytest.raises(ValueError, match="top_k"):
        RunSetting(top_k=top_k)


@pytest.mark.parametrize("k_values", [[5, 5], [1, 3, 3], [0, 5], []])
def test_sweep_k_must_be_strictly_ascending_and_positive_before_any_run(k_values):
    handles, prompts = counting_handles(precomputed=PRECOMPUTED)
    with pytest.raises(ValueError):
        topk_sweep([RECORD], RunSetting(highlighting=False, stepback=False), k_values, handles)
    assert prompts == []


# --- the CLI ---------------------------------------------------------------


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "kb.jsonl"
    rows = [{"id": f"p{i}", "title": "t", "text": f"Passage {i} is about zorblex."} for i in range(3)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def write_config(tmp_path, **fields):
    """A config whose dataset and reply cache exist, so only `fields` can make it fail."""
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({"query_id": "q0", "task": "factoid", "question": "What?", "gold": ["x"]}) + "\n")
    cache = tmp_path / "replies.jsonl"
    ReplyCache(cache)
    path = tmp_path / "c.json"
    RunConfig(
        highlighting=False, stepback=False, dataset_path=str(dataset), reply_cache_path=str(cache),
        output_dir=str(tmp_path / "run"), **fields,
    ).save(path)
    return path


COMMANDS = [["eval"], ["sweep", "--k-values", "1,2"]]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("retrieval, field", [("bm25", "kb_path"), ("precomputed-dense", "results_path")])
def test_cli_missing_retrieval_source_is_a_config_error(runner, tmp_path, command, retrieval, field):
    cfg_path = write_config(tmp_path, retrieval=retrieval)
    result = runner.invoke(main, [command[0], "--config", str(cfg_path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output and field in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("k_values", ["0,5", "5,5", "5,3"])
def test_cli_sweep_rejects_k_values_that_are_not_strictly_ascending_from_one(runner, tmp_path, kb_file, k_values):
    cfg_path = write_config(tmp_path, retrieval="bm25", kb_path=str(kb_file))
    result = runner.invoke(main, ["sweep", "--config", str(cfg_path), "--k-values", k_values])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_top_k_zero_in_the_config_is_a_config_error(runner, tmp_path, command):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"dataset_path": str(tmp_path / "dataset.jsonl"), "top_k": 0}))
    result = runner.invoke(main, [command[0], "--config", str(cfg_path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output and "top_k" in result.output
