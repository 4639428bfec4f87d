import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import ragmark.stepback as stepback
from ragmark.errors import EmptyReply, LlmUnavailable
from ragmark.pipeline import build_queries
from ragmark.stepback import (
    STEPBACK_CHOICE_TEMPLATE,
    STEPBACK_QUESTION_TEMPLATE,
    CachingChatClient,
    ConjoinedQuery,
    HttpChatClient,
    ReplyCache,
    StubChatClient,
    conjoin,
    expand_query,
    stepback_choice_concepts,
    stepback_question,
)
from ragmark.text import extract_terms

stepback_hash = stepback._prompt_hash


class TestTemplates:
    def test_question_template_contains_exemplars(self):
        prompt = STEPBACK_QUESTION_TEMPLATE.format(original_question_text="What is X?")
        assert "Which position did Knox Cunningham hold from May 1955 to Apr 1956?" in prompt
        assert "Which positions have Knox Cunningham held in his career?" in prompt
        assert "What are the effects of Monoamine Oxidase?" in prompt
        assert "What is X?" in prompt

    def test_rendering_is_byte_stable(self):
        q = "Which river is longest?"
        a = STEPBACK_QUESTION_TEMPLATE.format(original_question_text=q)
        b = STEPBACK_QUESTION_TEMPLATE.format(original_question_text=q)
        assert a == b

    def test_choice_template(self):
        prompt = STEPBACK_CHOICE_TEMPLATE.format(answer_text="Water is wet.")
        assert "extract the concepts and principles underlying the statement" in prompt
        assert "Original Statement: Water is wet." in prompt


class TestStepbackQuestion:
    def test_stub_reply_returned_verbatim(self):
        client = StubChatClient("Which positions have Knox Cunningham held in his career?")
        out = stepback_question("Which position did Knox Cunningham hold from May 1955 to Apr 1956?", client)
        assert out == "Which positions have Knox Cunningham held in his career?"

    def test_echoed_prefix_stripped(self):
        client = StubChatClient("Stepback Question: What are X's occupations?")
        assert stepback_question("What is X's occupation?", client) == "What are X's occupations?"

    def test_blank_reply_raises(self):
        with pytest.raises(EmptyReply):
            stepback_question("What is X?", StubChatClient("   "))

    def test_prompt_carries_question(self):
        client = StubChatClient("reply")
        stepback_question("What is Henry Feilden's occupation?", client)
        assert "What is Henry Feilden's occupation?" in client.calls[0]


class TestChoiceConcepts:
    def test_stub_concepts(self):
        client = StubChatClient("osmoregulation, water conservation")
        out = stepback_choice_concepts("Their bodies lose less water in the cool night air.", client)
        assert out == "osmoregulation, water conservation"

    def test_echoed_prefix_stripped(self):
        client = StubChatClient("Answer: osmoregulation")
        assert stepback_choice_concepts("Their bodies lose less water.", client) == "osmoregulation"

    def test_blank_reply_falls_back_to_choice(self):
        out = stepback_choice_concepts("Their bodies lose less water.", StubChatClient(""))
        assert out == "Their bodies lose less water."


class TestConjoin:
    def test_original_only(self):
        q = conjoin("Bats hunt at night")
        assert q.stepback is None
        assert q.terms == extract_terms("Bats hunt at night")

    def test_with_stepback_is_supersequence(self):
        base = conjoin("Bats hunt at night")
        expanded = conjoin("Bats hunt at night", "Why are animals nocturnal?")
        base_surfaces = [t.surface for t in base.terms]
        expanded_surfaces = [t.surface for t in expanded.terms]
        assert expanded_surfaces[: len(base_surfaces)] == base_surfaces
        assert len(expanded_surfaces) > len(base_surfaces)

    def test_terms_include_original_and_stepback_words(self):
        q = conjoin(
            "An astronomer observes that a planet rotates faster after a meteorite impact.",
            "What effects do meteorite impacts on planets have?",
        )
        surfaces = {t.surface for t in q.terms}
        assert "meteorite" in surfaces
        assert "impacts" in surfaces

    def test_empty_original_rejected(self):
        with pytest.raises(ValueError):
            conjoin("")


class TestExpandQuery:
    def test_no_client_gives_original_only(self):
        q = expand_query("What is X?", None)
        assert q == ConjoinedQuery("What is X?")

    def test_blank_stepback_falls_back(self):
        q = expand_query("What is X?", StubChatClient(""))
        assert q.stepback is None

    def test_choice_concepts_attached(self):
        def reply(prompt):
            if "step back and paraphrase" in prompt:
                return "What are X's properties?"
            return "wetness, liquidity"

        [q] = build_queries("What is X?", {"A": "Water is wet."}, StubChatClient(reply))
        assert q.stepback == "What are X's properties?"
        assert q.choice_concepts == "wetness, liquidity"


class FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            import requests

            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


class TestHttpChatClient:
    def test_request_body_shape(self):
        client = HttpChatClient("http://llm.local", "m", retries=1, api_key="k")
        body = client.request_body("hello")
        assert body == {
            "model": "m",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.0,
            "max_tokens": 256,
        }

    def test_complete_returns_first_choice(self):
        resp = FakeResponse({"choices": [{"message": {"content": "the reply"}}]})
        client = HttpChatClient("http://llm.local", "m", retries=1, api_key="k", post=lambda *a, **kw: resp)
        assert client.complete("p") == "the reply"

    def test_unavailable_after_retries(self):
        calls = []

        def post(*a, **kw):
            calls.append(1)
            return FakeResponse({}, status=500)

        client = HttpChatClient("http://llm.local", "m", retries=1, api_key="k", post=post)
        with pytest.raises(LlmUnavailable):
            client.complete("p")
        assert len(calls) == 2


class TestReplyCache:
    def test_round_trip(self, tmp_path):
        cache = ReplyCache(tmp_path / "replies.jsonl")
        cache.put("m", "prompt", "reply")
        reloaded = ReplyCache(tmp_path / "replies.jsonl")
        assert reloaded.get("m", "prompt") == "reply"
        assert reloaded.get("m", "other") is None

    def test_a_second_put_for_a_held_prompt_keeps_the_first_reply(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        cache = ReplyCache(path)
        cache.put("m", "prompt", "first")
        cache.put("m", "prompt", "second")
        assert cache.get("m", "prompt") == "first"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["reply"] for line in lines] == ["first"]
        assert ReplyCache(path).get("m", "prompt") == "first"
        with path.open("a", encoding="utf-8") as fh:  # a later line for the prompt wins on load
            fh.write(lines[0].replace('"first"', '"edited"') + "\n")
        assert ReplyCache(path).get("m", "prompt") == "edited"

    def test_caching_client_calls_inner_once(self, tmp_path):
        inner = StubChatClient("reply", model_name="m")
        client = CachingChatClient(inner, ReplyCache(tmp_path / "r.jsonl"))
        assert client.complete("p") == "reply"
        assert client.complete("p") == "reply"
        assert len(inner.calls) == 1

    def test_caching_client_hashes_each_prompt_once_per_call(self, tmp_path, monkeypatch):
        hashed = []

        def counting_hash(model, prompt):
            hashed.append(prompt)
            return stepback_hash(model, prompt)

        monkeypatch.setattr(stepback, "_prompt_hash", counting_hash)
        path = tmp_path / "new" / "dir" / "r.jsonl"  # made at the first append
        client = CachingChatClient(StubChatClient("reply", model_name="m"), ReplyCache(path))
        assert [client.complete(p) for p in ("p", "q", "p")] == ["reply"] * 3
        assert hashed == ["p", "q", "p"]
        assert [json.loads(line)["prompt"] for line in path.read_text(encoding="utf-8").splitlines()] == ["p", "q"]
        assert ReplyCache(path).get("m", "q") == "reply"

    def test_callers_racing_on_one_missed_prompt_all_return_the_reply_on_file(self, tmp_path):
        both_missed = threading.Barrier(2)
        replies = iter(["reply 0", "reply 1"])
        lock = threading.Lock()

        def answer(prompt):
            both_missed.wait(timeout=10)  # each caller has missed the cache before either stores
            with lock:
                return next(replies)

        path = tmp_path / "r.jsonl"
        client = CachingChatClient(StubChatClient(answer, model_name="m"), ReplyCache(path))
        with ThreadPoolExecutor(max_workers=2) as pool:
            returned = list(pool.map(client.complete, ["p", "p"]))
        [line] = path.read_text(encoding="utf-8").splitlines()
        assert returned == [json.loads(line)["reply"]] * 2

    def test_recorded_client_replays_only(self, tmp_path):
        cache = ReplyCache(tmp_path / "r.jsonl")
        cache.put("recorded", "known prompt", "known reply")
        client = CachingChatClient(None, cache)
        assert client.complete("known prompt") == "known reply"
        with pytest.raises(LlmUnavailable):
            client.complete("unknown prompt")

    def test_a_client_with_no_inner_client_replays_its_model_and_writes_nothing(self, tmp_path, monkeypatch):
        hashed = []

        def counting_hash(model, prompt):
            hashed.append(prompt)
            return stepback_hash(model, prompt)

        path = tmp_path / "r.jsonl"
        cache = ReplyCache(path)
        cache.put("qa", "known prompt", "known reply")
        filed = path.read_bytes()
        monkeypatch.setattr(stepback, "_prompt_hash", counting_hash)
        client = CachingChatClient(None, cache, "qa")
        assert client.model_name == "qa"
        assert client.complete("known prompt") == "known reply"
        with pytest.raises(LlmUnavailable, match=f"^no recorded reply for prompt hash {stepback_hash('qa', 'p')}$"):
            client.complete("p")
        assert hashed == ["known prompt", "p"]  # one hash per call, a miss included
        with pytest.raises(LlmUnavailable):  # filed under "qa", not the default "recorded"
            CachingChatClient(None, cache).complete("known prompt")
        assert path.read_bytes() == filed
        assert ReplyCache(path).get("qa", "p") is None
