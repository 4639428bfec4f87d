"""`eval` and `sweep` open only the sources their setting reads.

The BM25 index is built only for `bm25`, the precomputed results are loaded
only for `precomputed-dense`, and the embedding provider (with its vector
cache) is built only for highlighting with retrieval.
"""

import json

import pytest
from click.testing import CliRunner

import ragmark.cli as cli
from ragmark.config import RunConfig
from ragmark.embeddings import ProviderConfig
from ragmark.stepback import ReplyCache

COMMANDS = [["eval"], ["sweep", "--k-values", "1,2"]]


def write_sources(tmp_path):
    kb = tmp_path / "kb.jsonl"
    kb.write_text("".join(
        json.dumps({"id": f"p{i}", "title": "t", "text": f"Passage {i} is about zorblex."}) + "\n" for i in range(3)
    ))
    results = tmp_path / "results.jsonl"
    passages = [{"id": "p0", "title": "t", "text": "Passage 0 is about zorblex."}]
    results.write_text(json.dumps({"query_id": "q0", "passages": passages}) + "\n")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({"query_id": "q0", "task": "factoid", "question": "What is zorblex?", "gold": ["x"]}) + "\n")
    replies = tmp_path / "replies.jsonl"
    ReplyCache(replies)  # empty: each record is scored wrong and the run completes
    return dict(kb_path=str(kb), results_path=str(results), dataset_path=str(dataset), reply_cache_path=str(replies))


def run(tmp_path, command, **fields):
    cfg_path = tmp_path / "c.json"
    RunConfig(stepback=False, output_dir=str(tmp_path / "run"), **write_sources(tmp_path), **fields).save(cfg_path)
    return CliRunner().invoke(cli.main, [command[0], "--config", str(cfg_path), *command[1:]])


@pytest.mark.parametrize("command", COMMANDS)
def test_a_no_highlight_setting_leaves_a_torn_vector_cache_as_it_is(tmp_path, command):
    cache = tmp_path / "vectors.jsonl"
    torn = b'{"term": "zorblex", "dim": 16, "f64": "AAAA\n{"term": "pass'
    cache.write_bytes(torn)
    provider = ProviderConfig(cache_path=str(cache), dimension=16)
    result = run(tmp_path, command, retrieval="bm25", highlighting=False, provider=provider)
    assert result.exit_code == 0, result.output
    assert cache.read_bytes() == torn


@pytest.mark.parametrize("command", COMMANDS)
def test_a_dense_setting_builds_no_bm25_index(tmp_path, command, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_index", lambda *args: built.append(args))
    result = run(tmp_path, command, retrieval="precomputed-dense", highlighting=True)
    assert result.exit_code == 0, result.output
    assert built == []


@pytest.mark.parametrize("retrieval", ["none", "bm25"])
def test_results_are_loaded_only_for_dense_retrieval(tmp_path, retrieval, monkeypatch):
    loaded = []
    monkeypatch.setattr(cli, "load_precomputed_results", lambda path: loaded.append(path))
    result = run(tmp_path, COMMANDS[0], retrieval=retrieval, highlighting=False)
    assert result.exit_code == 0, result.output
    assert loaded == []


@pytest.mark.parametrize(
    "retrieval, highlighting, builds", [("none", False, False), ("bm25", False, False), ("bm25", True, True)]
)
def test_the_provider_is_built_only_for_highlighting_with_retrieval(tmp_path, retrieval, highlighting, builds, monkeypatch):
    built = []
    original = ProviderConfig.build
    monkeypatch.setattr(ProviderConfig, "build", lambda self: built.append(self) or original(self))
    result = run(tmp_path, COMMANDS[0], retrieval=retrieval, highlighting=highlighting)
    assert result.exit_code == 0, result.output
    assert len(built) == int(builds)
