import pytest

from ragmark.embeddings import OfflineEmbeddingProvider, ProviderConfig, VectorCache
from ragmark.errors import EmptyReply
from ragmark.highlight import OPEN_TAG, highlight, strip_tags
from ragmark.pipeline import build_queries, select_evidence
from ragmark.retriever import RetrieverParams
from ragmark.stepback import StubChatClient, conjoin, stepback_choice_concepts, stepback_question
from ragmark.store import Passage


def stepback_stub():
    def reply(prompt):
        if "step back and paraphrase" in prompt:
            return "Why are desert animals nocturnal?"
        return "water conservation, nocturnality"

    return StubChatClient(reply)


class TestBuildQueries:
    def test_single_query_without_stepback(self):
        queries = build_queries("Why is the sky blue?", None, None)
        assert len(queries) == 1
        assert queries[0].stepback is None

    def test_one_query_per_choice_with_stepback(self):
        choices = {"A": "light scattering", "B": "ocean reflection"}
        queries = build_queries("Why is the sky blue?", choices, stepback_stub())
        assert len(queries) == 2
        assert all(q.stepback for q in queries)
        assert all(q.choice_concepts for q in queries)

    def test_stepback_question_asked_once_per_record(self):
        choices = {"A": "light scattering", "B": "ocean reflection", "C": "dust", "D": "ozone"}
        client = stepback_stub()
        build_queries("Why is the sky blue?", choices, client)
        assert len(client.calls) == 1 + len(choices)
        assert sum("step back and paraphrase" in p for p in client.calls) == 1

    def test_queries_equal_one_expansion_per_choice(self):
        question = "Why is the sky blue?"
        choices = {"B": "ocean reflection", "A": "light scattering", "C": ""}

        def expansion(choice):  # the step-back question and the choice's concepts, asked per choice
            client = stepback_stub()
            concepts = stepback_choice_concepts(choice, client) if choice else None
            return conjoin(question, stepback_question(question, client), concepts)

        want = tuple(expansion(choices[k]) for k in sorted(choices))
        got = build_queries(question, choices, stepback_stub())
        assert got == want
        assert got[2].choice_concepts is None  # an empty choice asks for no concepts

    @pytest.mark.parametrize("stepback_reply", ["   ", None], ids=["blank", "empty-reply"])
    def test_empty_stepback_reply_falls_back_to_original(self, stepback_reply):
        def reply(prompt):
            if "step back and paraphrase" not in prompt:
                return "refraction"
            if stepback_reply is None:
                raise EmptyReply("no text")
            return stepback_reply

        queries = build_queries("Why is the sky blue?", {"A": "light", "B": "sea"}, StubChatClient(reply))
        assert [(q.stepback, q.choice_concepts) for q in queries] == [(None, "refraction")] * 2

    def test_non_mcq_with_stepback(self):
        queries = build_queries("Why is the sky blue?", None, stepback_stub())
        assert len(queries) == 1
        assert queries[0].stepback == "Why are desert animals nocturnal?"


class TestSelectEvidence:
    def passages(self):
        return [
            Passage(
                id="p1",
                title="Nocturnality",
                text=(
                    "Bats hunt insects using echolocation. Nocturnal behavior prevents "
                    "creatures from losing precious water during the hot daytime."
                ),
                rank=1,
            ),
            Passage(
                id="p2",
                title="Deserts",
                text="Deserts are dry. Lions prefer to hunt at night to conserve water.",
                rank=2,
            ),
        ]

    def test_end_to_end_highlighting(self, provider):
        result = select_evidence(
            "How do desert animals avoid losing water at night?",
            self.passages(),
            provider,
            RetrieverParams(),
        )
        assert result.document.evidence_count >= 1
        for passage, tagged in result.document.passages:
            assert strip_tags(tagged) == passage.text
        assert any(OPEN_TAG in tagged for _, tagged in result.document.passages)

    def test_scoring_calls_within_parallel_budget(self, provider):
        params = RetrieverParams()
        result = select_evidence(
            "How do desert animals avoid losing water at night?",
            self.passages(),
            provider,
            params,
        )
        from ragmark.store import sentence_pool

        pool_size = len(sentence_pool(self.passages()))
        per_query_budget = params.n_parallel * params.k_max_hops * pool_size
        assert result.scoring_calls <= len(result.queries) * per_query_budget

    def test_stepback_terms_influence_queries(self, provider):
        result = select_evidence(
            "Why do lions hunt at night?",
            self.passages(),
            provider,
            stepback_client=stepback_stub(),
        )
        (query,) = result.queries
        surfaces = {t.surface for t in query.terms}
        assert "nocturnal" in surfaces  # from the stubbed step-back question

    def test_mcq_choices_fan_out(self, provider):
        result = select_evidence(
            "How does night activity help desert animals?",
            self.passages(),
            provider,
            stepback_client=stepback_stub(),
            choices={"A": "They see insects at night.", "B": "They lose less water."},
        )
        assert len(result.queries) == 2
        assert result.chains  # pooled across choices

    def test_provider_without_cache_fetches_each_term_once(self):
        provider = ProviderConfig().build()
        counts = []
        for _ in range(3):
            select_evidence("How do desert animals avoid losing water?", self.passages(), provider)
            counts.append(provider.fetch_count)
        assert counts[0] > 0 and counts == [counts[0]] * 3

    def test_deterministic(self, provider):
        args = (
            "How do desert animals avoid losing water?",
            self.passages(),
        )
        r1 = select_evidence(*args, OfflineEmbeddingProvider(dimension=64, seed=0))
        r2 = select_evidence(*args, OfflineEmbeddingProvider(dimension=64, seed=0))
        assert r1.evidence == r2.evidence
        assert r1.document == r2.document

    def test_a_request_with_no_query_terms_embeds_nothing(self, tmp_path, arid_passage):
        # Every word of the question is a stopword: no chain runs, so no vector is needed.
        path = tmp_path / "vectors.jsonl"
        provider = OfflineEmbeddingProvider(cache=VectorCache(path))
        provider.embed_terms({"bats", "water"})
        before = path.read_bytes()
        result = select_evidence("Is it the that they are?", [arid_passage], provider)
        assert provider.fetch_count == 2
        assert path.read_bytes() == before
        assert (result.chains, result.evidence, result.scoring_calls) == ((), (), 0)
        assert result.document == highlight([arid_passage], [])
        assert result == select_evidence("Is it the that they are?", [arid_passage], OfflineEmbeddingProvider())
