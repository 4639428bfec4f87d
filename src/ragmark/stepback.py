"""Step-back query expansion through a chat-LLM client abstraction.

A step-back prompt asks the LLM for a more abstract paraphrase of the query;
for MCQs a second prompt extracts the concepts underlying each answer choice.
The expanded pieces are conjoined with the original question into one term
multiset that drives evidence retrieval.

Clients: an HTTP chat client, and a write-through JSONL reply cache around it
or, for offline runs, around nothing, so that it only replays.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol

from .errors import EmptyReply, LlmUnavailable
from .jsonl import KeyedJsonl
from .remote import post_with_retries
from .text import Term, extract_terms

if TYPE_CHECKING:
    import requests

STEPBACK_QUESTION_TEMPLATE = """You are an expert at world knowledge. Your task is to step back and paraphrase a question to a more generic step-back question, which is easier to answer. Here are a few examples:

Original Question: Which position did Knox Cunningham hold from May 1955 to Apr 1956?
Stepback Question: Which positions have Knox Cunningham held in his career?

Original Question: who has scored most runs in t20 matches as of 2017
Stepback Question: What are the runs of players in t20 matches as of 2017

Original Question: When was the abolishment of the studio that distributed The Game?
Stepback Question: which studio distributed The Game?

Original Question: What city is the person who broadened the doctrine of philosophy of language from?
Stepback Question: who broadened the doctrine of philosophy of language

Original Question: Would a Monoamine Oxidase candy bar cheer up a depressed friend?
Stepback Question: What are the effects of Monoamine Oxidase?

What is the Stepback Question for this?: {original_question_text}
Answer with only the Stepback Question and no extra text."""

STEPBACK_CHOICE_TEMPLATE = """You are an expert at world knowledge. You are given a statement. Your task is to extract the concepts and principles underlying the statement. Answer only with the concepts and principles without any extra text.
If there are multiple concepts and principles, list them separated by commas.
Original Statement: {answer_text}
Answer:"""


class ChatClient(Protocol):
    model_name: str

    def complete(self, prompt: str) -> str: ...


class HttpChatClient:
    """POSTs a single-user-message chat request; returns the first choice's content.

    Content that is not text (`null` when the model produced none) raises
    `EmptyReply`, so it is neither cached nor retried.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        retries: int = 3,
        api_key: str | None = None,
        post: Callable[..., requests.Response] | None = None,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.retries = retries
        self.api_key = api_key if api_key is not None else os.environ.get("LLM_API_KEY")
        self._post = post  # None: `requests.post`, looked up when posting

    def request_body(self, prompt: str) -> dict:
        return {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": 256,
        }

    def complete(self, prompt: str) -> str:
        return post_with_retries(
            self._post, self.endpoint, self.request_body(prompt), _first_choice_text, api_key=self.api_key,
            timeout=60.0, retries=self.retries, unavailable=LlmUnavailable, what="chat endpoint",
        )


def _first_choice_text(reply) -> str:
    content = reply["choices"][0]["message"]["content"]
    if not isinstance(content, str):  # e.g. `null`: an answer, so no retry
        raise EmptyReply(f"chat endpoint returned {type(content).__name__} content, not text")
    return content


def _prompt_hash(model: str, prompt: str) -> str:
    return hashlib.sha256(f"{model}\x00{prompt}".encode("utf-8")).hexdigest()


def _decode_reply(rec: dict) -> tuple[str, str]:
    if not isinstance(rec["prompt_hash"], str) or not isinstance(rec["reply"], str):
        raise TypeError("prompt_hash or reply is not text")
    return rec["prompt_hash"], rec["reply"]


class ReplyCache:
    """Append-only JSONL of {model, prompt_hash, prompt, reply}, held in memory as prompt hash -> reply.

    A later line for a prompt wins on load; `put` keeps the reply it already holds.
    """

    def __init__(self, path: str | Path):
        self._file = KeyedJsonl(path)
        self._replies = dict(self._file.load(_decode_reply))
        self._lock = threading.Lock()

    def get(self, model: str, prompt: str, key: str | None = None) -> str | None:
        """The cached reply; `key`, when the caller has it, is `_prompt_hash(model, prompt)`."""
        return self._replies.get(key or _prompt_hash(model, prompt))

    def put(self, model: str, prompt: str, reply: str, key: str | None = None) -> str:
        """Hold `reply` and append its record, unless a reply to the prompt is held already. Returns
        the reply held, so callers that race on one prompt all return the one on file."""
        key = key or _prompt_hash(model, prompt)
        with self._lock:
            if key not in self._replies:
                self._replies[key] = reply
                record = {"model": model, "prompt_hash": key, "prompt": prompt, "reply": reply}
                self._file.append(json.dumps(record) + "\n")
            return self._replies[key]


class CachingChatClient:
    """Read-through reply cache around a chat client, filed under the client's `model_name`.

    With no client (`inner=None`) it only replays the replies filed under `model_name`:
    a prompt that was never recorded raises `LlmUnavailable` and writes nothing.
    """

    def __init__(self, inner: ChatClient | None, cache: ReplyCache, model_name: str = "recorded"):
        self.inner = inner
        self.cache = cache
        self.model_name = inner.model_name if inner is not None else model_name

    def complete(self, prompt: str) -> str:
        key = _prompt_hash(self.model_name, prompt)
        cached = self.cache.get(self.model_name, prompt, key)
        if cached is not None:
            return cached
        if self.inner is None:
            raise LlmUnavailable(f"no recorded reply for prompt hash {key}")
        return self.cache.put(self.model_name, prompt, self.inner.complete(prompt), key)


class StubChatClient:
    """Deterministic test double: answers via a callable or a fixed string."""

    def __init__(self, reply: str | Callable[[str], str], model_name: str = "stub"):
        self._reply = reply
        self.model_name = model_name
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        return self._reply(prompt) if callable(self._reply) else self._reply


@dataclass(frozen=True)
class ConjoinedQuery:
    """Original question plus optional step-back expansions, with derived terms."""

    original: str
    stepback: str | None = None
    choice_concepts: str | None = None

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        parts = [self.original]
        if self.stepback:
            parts.append(self.stepback)
        if self.choice_concepts:
            parts.append(self.choice_concepts)
        return extract_terms(" ".join(parts), drop_stopwords=True)


def stepback_question(original: str, client: ChatClient) -> str:
    """Ask the client for the abstract step-back version of `original`."""
    if not original:
        raise ValueError("original question must be non-empty")
    prompt = STEPBACK_QUESTION_TEMPLATE.format(original_question_text=original)
    reply = client.complete(prompt).strip()
    if reply.lower().startswith("stepback question:"):
        reply = reply[len("stepback question:") :].strip()
    if not reply:
        raise EmptyReply("step-back model returned a blank reply")
    return reply


def stepback_choice_concepts(choice_text: str, client: ChatClient) -> str:
    """Extract the concepts underlying an MCQ answer choice; falls back to the choice."""
    if not choice_text:
        raise ValueError("choice text must be non-empty")
    prompt = STEPBACK_CHOICE_TEMPLATE.format(answer_text=choice_text)
    try:
        reply = client.complete(prompt).strip()
    except EmptyReply:
        return choice_text
    if reply.lower().startswith("answer:"):
        reply = reply[len("answer:") :].strip()
    return reply if reply else choice_text


def conjoin(
    original: str,
    stepback: str | None = None,
    choice_concepts: str | None = None,
) -> ConjoinedQuery:
    if not original:
        raise ValueError("original question must be non-empty")
    return ConjoinedQuery(original=original, stepback=stepback, choice_concepts=choice_concepts)


def expand_query(question: str, client: ChatClient | None) -> ConjoinedQuery:
    """Conjoin `question` with its step-back question when a client is given.

    A blank or textless step-back reply falls back to the original-only query.
    """
    if client is None:
        return conjoin(question)
    try:
        sb = stepback_question(question, client)
    except EmptyReply:
        sb = None
    return conjoin(question, sb)
