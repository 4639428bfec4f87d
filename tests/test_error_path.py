"""One error path from record to exit code.

A `RagmarkError` raised for one record scores that record wrong and the run
goes on; any other exception is a bug, ends the run and writes no report.
The CLI maps the package's errors to exit codes, names the command that ran,
and opens one reply cache for all of a run's chat clients.
"""

import json

import pytest
import requests
from click.testing import CliRunner

import ragmark.cli
import ragmark.evaluation
from ragmark.cli import main
from ragmark.config import RunConfig
from ragmark.errors import MalformedRecord
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, load_dataset, run_setting
from ragmark.stepback import CachingChatClient, RecordedChatClient, ReplyCache, StubChatClient
from ragmark.store import Passage


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "kb.jsonl"
    rows = [
        {"id": "p1", "title": "Deserts", "text": "Deserts are dry. Lions hunt at night to conserve water."},
        {"id": "p2", "title": "Oceans", "text": "Oceans cover most of the planet."},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def write_dataset(tmp_path, questions):
    path = tmp_path / "dataset.jsonl"
    rows = [
        {"query_id": f"q{i}", "task": "factoid", "question": q, "gold": ["water"]}
        for i, q in enumerate(questions)
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def write_config(tmp_path, kb_file, questions=("What do lions conserve?",), **fields):
    """A bm25 run over `kb_file` whose reply cache starts empty, so each record fails with a `RagmarkError`."""
    values = dict(
        retrieval="bm25", highlighting=False, stepback=False, kb_path=str(kb_file),
        dataset_path=str(write_dataset(tmp_path, questions)),
        reply_cache_path=str(tmp_path / "replies.jsonl"), output_dir=str(tmp_path / "run"),
    )
    values.update(fields)
    path = tmp_path / "c.json"
    RunConfig(**values).save(path)
    return path


def precomputed_handles(n, qa_client):
    records = [
        EvalRecord(query_id=f"q{i:02d}", task="factoid", question=f"What is creature{i} known for?",
                   gold=frozenset({f"skill{i}"}))
        for i in range(n)
    ]
    precomputed = {
        r.query_id: [Passage(id=f"{r.query_id}-p0", title="facts", text=f"creature{i} is known for skill{i}.")]
        for i, r in enumerate(records)
    }
    return records, PipelineHandles(qa_client=qa_client, precomputed=precomputed, max_workers=1)


class TestRecordErrors:
    def test_a_bug_inside_a_record_propagates_out_of_run_setting(self):
        def qa(prompt):
            if "creature1 " in prompt:
                raise AttributeError("a bug, not a wrong answer")
            return "skill"

        records, handles = precomputed_handles(20, StubChatClient(qa))
        setting = RunSetting(highlighting=False, stepback=False)
        with pytest.raises(AttributeError, match="a bug, not a wrong answer"):
            run_setting(records, setting, handles)

    def test_a_package_error_inside_a_record_is_scored_wrong_and_kept(self, tmp_path):
        records, handles = precomputed_handles(3, RecordedChatClient(ReplyCache(tmp_path / "replies.jsonl")))
        report = run_setting(records, RunSetting(highlighting=False, stepback=False), handles)
        assert report.accuracy == 0.0
        assert all(o.error.startswith("LlmUnavailable: no recorded reply") for o in report.outcomes)

    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--k-values", "1,2"]])
    def test_a_bug_exits_1_with_its_traceback_and_writes_no_report(self, runner, tmp_path, kb_file, command,
                                                                    monkeypatch):
        def buggy(*args):
            raise AttributeError("a bug, not a wrong answer")

        monkeypatch.setattr(ragmark.evaluation, "build_prompt", buggy)
        cfg_path = write_config(tmp_path, kb_file)
        result = runner.invoke(main, [command[0], "--config", str(cfg_path), *command[1:]])
        assert result.exit_code == 1
        assert isinstance(result.exception, AttributeError)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--k-values", "1,2"]])
    def test_a_record_error_is_still_exit_0_with_the_record_kept(self, runner, tmp_path, kb_file, command):
        cfg_path = write_config(tmp_path, kb_file)
        result = runner.invoke(main, [command[0], "--config", str(cfg_path), *command[1:]])
        assert result.exit_code == 0, result.output
        records_file = sorted((tmp_path / "run").glob("*.records.jsonl"))[0]
        [record] = [json.loads(line) for line in records_file.read_text().splitlines()]
        assert record["correct"] is False
        assert record["error"].startswith("LlmUnavailable: ")


class TestEmptyQuestion:
    @pytest.mark.parametrize("question", ["", "   "])
    def test_an_empty_question_is_a_load_error(self, tmp_path, question):
        path = write_dataset(tmp_path, ["What do lions conserve?", question])
        with pytest.raises(MalformedRecord, match=r"^line 2: empty question$") as exc_info:
            load_dataset(path)
        assert exc_info.value.line_number == 2

    def test_eval_of_a_dataset_with_an_empty_question_exits_1_before_any_report(self, runner, tmp_path, kb_file):
        cfg_path = write_config(tmp_path, kb_file, questions=[""])
        result = runner.invoke(main, ["eval", "--config", str(cfg_path)])
        assert result.exit_code == 1, result.output
        assert "error: line 1: empty question" in result.output
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [["eval"], ["sweep", "--k-values", "1,2"]])
def test_no_llm_names_the_command_that_ran(runner, tmp_path, kb_file, command):
    cfg_path = write_config(tmp_path, kb_file, reply_cache_path=None)
    result = runner.invoke(main, [command[0], "--config", str(cfg_path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert f"config error: {command[0]} needs an LLM endpoint or a reply cache" in result.output


class FakeResponse:
    def __init__(self, content):
        self.content = content

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


def test_eval_over_an_endpoint_opens_one_reply_cache(runner, tmp_path, kb_file, monkeypatch):
    prompts = []

    def post(url, **kwargs):
        body = kwargs["json"]
        prompt = body["messages"][0]["content"]
        prompts.append((body["model"], prompt))
        return FakeResponse("What do desert animals need?" if "Stepback Question" in prompt else "water")

    monkeypatch.setattr(requests, "post", post)
    seen = []

    def spying_run_setting(records, setting, handles, baseline=None):
        seen.append(handles)
        return run_setting(records, setting, handles, baseline=baseline)

    monkeypatch.setattr(ragmark.cli, "run_setting", spying_run_setting)
    cache_path = tmp_path / "replies.jsonl"
    cfg_path = write_config(
        tmp_path, kb_file, questions=["What do lions conserve?", "Why do lions hunt at night?"],
        highlighting=True, stepback=True, llm_endpoint="http://localhost:9/v1/chat", reply_cache_path=str(cache_path),
    )
    result = runner.invoke(main, ["eval", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    assert "accuracy: 100.00 over 2 records" in result.output

    [handles] = seen
    assert isinstance(handles.qa_client, CachingChatClient)
    assert isinstance(handles.stepback_client, CachingChatClient)
    assert handles.qa_client.cache is handles.stepback_client.cache
    assert len(prompts) == 4  # a step-back and a QA prompt per record
    lines = [json.loads(line) for line in cache_path.read_text().splitlines()]
    assert sorted((r["model"], r["prompt"]) for r in lines) == sorted(set(prompts))

    rerun = runner.invoke(main, ["eval", "--config", str(cfg_path)])
    assert rerun.exit_code == 0, rerun.output
    assert len(prompts) == 4  # every reply now comes from the cache
    assert len(cache_path.read_text().splitlines()) == 4
