"""A 200 reply whose JSON has the wrong shape is retried like any other failed POST."""

import pytest

from ragmark.embeddings import RemoteEmbeddingProvider
from ragmark.errors import LlmUnavailable, RemoteUnavailable
from ragmark.stepback import HttpChatClient


class FixedReplyPost:
    """An endpoint that answers every POST with status 200 and the same JSON."""

    def __init__(self, payload):
        self.payload = payload
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return self.payload


@pytest.mark.parametrize("payload", [[], {"data": [{"embedding": [1.0, None]}]}, {"data": [None]}])
def test_embedding_reply_of_the_wrong_shape_is_retried(payload):
    post = FixedReplyPost(payload)
    provider = RemoteEmbeddingProvider("http://embed.local", retries=1, post=post)
    with pytest.raises(RemoteUnavailable, match="embedding endpoint failed after 2 attempts"):
        provider.embed_terms({"term"})
    assert post.calls == 2


@pytest.mark.parametrize("payload", [[], {"choices": [None]}, {"choices": [{"message": None}]}])
def test_chat_reply_of_the_wrong_shape_is_retried(payload):
    post = FixedReplyPost(payload)
    client = HttpChatClient("http://llm.local", "m", retries=1, post=post)
    with pytest.raises(LlmUnavailable, match="chat endpoint failed after 2 attempts"):
        client.complete("p")
    assert post.calls == 2
