import pytest

from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.errors import EmptyReply
from ragmark.evaluation import EvalRecord, PipelineHandles, RunSetting, run_setting
from ragmark.pipeline import build_queries
from ragmark.stepback import (
    CachingChatClient,
    ConjoinedQuery,
    HttpChatClient,
    ReplyCache,
    expand_query,
)


class NullContentPost:
    """A chat endpoint that answers every request with `"content": null`."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"role": "assistant", "content": None}}]}


def null_client(post):
    return HttpChatClient("http://llm.local", "m", retries=2, post=post)


def test_null_content_raises_empty_reply_without_retrying():
    post = NullContentPost()
    with pytest.raises(EmptyReply):
        null_client(post).complete("p")
    assert post.calls == 1


def test_null_content_is_not_cached(tmp_path):
    post = NullContentPost()
    client = CachingChatClient(null_client(post), ReplyCache(tmp_path / "replies.jsonl"))
    for _ in range(2):
        with pytest.raises(EmptyReply):
            client.complete("p")
    assert post.calls == 2
    assert not (tmp_path / "replies.jsonl").exists()


def test_stepback_falls_back_to_the_original_question(tmp_path):
    post = NullContentPost()
    client = CachingChatClient(null_client(post), ReplyCache(tmp_path / "replies.jsonl"))
    assert expand_query("What is X?", client) == ConjoinedQuery("What is X?")
    [q] = build_queries("What is X?", {"A": "Water is wet."}, client)
    assert q == ConjoinedQuery("What is X?", choice_concepts="Water is wet.")


def test_qa_path_records_empty_reply():
    record = EvalRecord(query_id="q0", task="factoid", question="What is X?", gold=frozenset({"x"}))
    handles = PipelineHandles(
        qa_client=null_client(NullContentPost()),
        embedding_provider=OfflineEmbeddingProvider(dimension=8, seed=0),
    )
    report = run_setting([record], RunSetting(retrieval="none", highlighting=False, stepback=False), handles)
    assert report.outcomes[0].error.startswith("EmptyReply:")
