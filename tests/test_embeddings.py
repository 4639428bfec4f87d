import json
import sys
import threading

import numpy as np
import pytest

from ragmark.alignment import _cosine_matrix
from ragmark.embeddings import (
    OfflineEmbeddingProvider,
    ProviderConfig,
    RemoteEmbeddingProvider,
    TermVector,
    VectorCache,
    cosine,
)
from ragmark.errors import DimensionMismatch, RemoteUnavailable, ZeroVector

from oracles import reference_cosine_matrix


class TestCosine:
    def test_self_similarity(self):
        v = TermVector("x", (1.0, 2.0, 3.0))
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        a = TermVector("a", (1.0, 0.0))
        b = TermVector("b", (0.0, 1.0))
        assert cosine(a, b) == 0.0

    def test_hand_computed(self):
        a = TermVector("a", (1.0, 2.0, 3.0))
        b = TermVector("b", (4.0, 5.0, 6.0))
        # dot=32, |a|=sqrt(14), |b|=sqrt(77)
        assert cosine(a, b) == pytest.approx(0.974631846, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(TermVector("a", (1.0,)), TermVector("b", (1.0, 2.0)))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine(TermVector("a", (0.0, 0.0)), TermVector("b", (1.0, 0.0)))

    def test_symmetry_and_self_similarity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = TermVector("a", tuple(rng.standard_normal(8)))
            b = TermVector("b", tuple(rng.standard_normal(8)))
            assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
            assert cosine(a, a) == pytest.approx(1.0, abs=1e-9)
            assert -1.0 <= cosine(a, b) <= 1.0


class TestOfflineProvider:
    def test_deterministic_across_instances(self):
        a = OfflineEmbeddingProvider(dimension=32, seed=5).embed_terms({"desert"})
        b = OfflineEmbeddingProvider(dimension=32, seed=5).embed_terms({"desert"})
        assert a == b

    def test_seed_changes_vectors(self):
        a = OfflineEmbeddingProvider(dimension=32, seed=1).embed_terms({"desert"})["desert"]
        b = OfflineEmbeddingProvider(dimension=32, seed=2).embed_terms({"desert"})["desert"]
        assert a != b

    def test_unit_norm(self):
        vec = OfflineEmbeddingProvider(dimension=16).embed_terms({"x"})["x"]
        assert np.linalg.norm(vec.as_array()) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_terms_stay_below_soft_match_threshold(self):
        provider = OfflineEmbeddingProvider(dimension=64, seed=0)
        words = [f"word{i}" for i in range(40)]
        vecs = provider.embed_terms(words)
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                assert cosine(vecs[a], vecs[b]) < 0.98

    def test_rejects_empty_term(self):
        with pytest.raises(ValueError):
            OfflineEmbeddingProvider().embed_terms({""})


class TestVectorCache:
    def test_round_trip_and_no_refetch(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
        first = provider.embed_terms({"desert", "water"})
        assert provider.fetch_count == 2

        # Fresh provider over the reloaded cache: zero fetches, identical vectors.
        reloaded = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
        second = reloaded.embed_terms({"desert", "water"})
        assert second == first
        assert reloaded.fetch_count == 0

    def test_second_call_served_from_cache(self, tmp_path):
        provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(tmp_path / "c.jsonl"))
        a = provider.embed_terms({"desert"})
        b = provider.embed_terms({"desert"})
        assert a == b
        assert provider.fetch_count == 1

    def test_corrupt_trailing_record_tolerated(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path))
        provider.embed_terms({"desert"})
        with path.open("a") as fh:
            fh.write('{"term": "wat')  # simulated crash mid-append
        cache = VectorCache(path)
        assert len(cache) == 1
        assert cache.get("desert") is not None

    def test_concurrent_embed_terms_store_each_term_once(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        provider = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(path), batch_size=3)
        words = [f"w{i}" for i in range(24)]
        term_sets = [words[i * 4 : i * 4 + 12] for i in range(4)]  # each shares 8 terms with a neighbour
        start = threading.Barrier(len(term_sets))
        results: dict[int, dict] = {}

        def embed(i: int) -> None:
            start.wait(timeout=30)
            for _ in range(3):
                results[i] = provider.embed_terms(term_sets[i])

        threads = [threading.Thread(target=embed, args=(i,)) for i in range(len(term_sets))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between the cache check and the append
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

        stored = [json.loads(line)["term"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert sorted(stored) == sorted(set().union(*term_sets))
        uncached = OfflineEmbeddingProvider(dimension=16)
        for i, terms in enumerate(term_sets):
            assert results[i] == uncached.embed_terms(terms)
        assert len(VectorCache(path)) == len(stored)

    def test_concurrent_embed_terms_fetch_each_term_once(self, tmp_path):
        # The scenario above, with a cache and without one; threads that miss one term must
        # not each fetch it. Each thread also gathers a cosine matrix while others append to
        # the table.
        cached = OfflineEmbeddingProvider(dimension=16, cache=VectorCache(tmp_path / "c.jsonl"), batch_size=3)
        for provider in (cached, OfflineEmbeddingProvider(dimension=16, batch_size=3)):
            words = [f"w{i}" for i in range(24)]
            term_sets = [words[i * 4 : i * 4 + 12] for i in range(4)]
            start = threading.Barrier(len(term_sets))
            matrices: dict[int, list] = {i: [] for i in range(len(term_sets))}

            def embed(i: int) -> None:
                start.wait(timeout=30)
                for _ in range(3):
                    vectors = provider.embed_terms(term_sets[i])
                    matrices[i].append(_cosine_matrix(term_sets[i], term_sets[i], vectors))

            threads = [threading.Thread(target=embed, args=(i,)) for i in range(len(term_sets))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert provider.fetch_count == 24
            reference = OfflineEmbeddingProvider(dimension=16)
            for i, terms in enumerate(term_sets):
                want = reference_cosine_matrix(terms, terms, reference.embed_terms(terms))
                assert len(matrices[i]) == 3 and all(np.array_equal(m, want) for m in matrices[i])


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


class TestRemoteProvider:
    def test_protocol_and_order(self):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen["url"] = url
            seen["body"] = json
            seen["timeout"] = timeout
            data = [{"embedding": [float(i + 1), 0.0]} for i in range(len(json["input"]))]
            return FakeResponse({"data": data})

        provider = RemoteEmbeddingProvider(
            "http://embed.local/v1", model_name="test-model", post=fake_post, api_key="k"
        )
        out = provider.embed_terms(["beta", "alpha"])
        assert seen["url"] == "http://embed.local/v1"
        assert seen["body"]["model"] == "test-model"
        assert seen["timeout"] == 30.0
        assert seen["body"]["input"] == ["alpha", "beta"]  # sorted unique terms
        assert out["alpha"].values == (1.0, 0.0)
        assert out["beta"].values == (2.0, 0.0)

    def test_retries_then_unavailable(self):
        calls = []

        def failing_post(url, **kwargs):
            calls.append(url)
            return FakeResponse({}, status=503)

        provider = RemoteEmbeddingProvider("http://x", retries=2, post=failing_post)
        with pytest.raises(RemoteUnavailable):
            provider.embed_terms({"term"})
        assert len(calls) == 3  # initial try + 2 retries

    def test_dimension_mismatch_is_fatal(self):
        replies = iter([
            FakeResponse({"data": [{"embedding": [1.0, 0.0]}, {"embedding": [1.0]}]}),
        ])

        provider = RemoteEmbeddingProvider(
            "http://x", post=lambda *a, **k: next(replies), retries=0
        )
        with pytest.raises(DimensionMismatch):
            provider.embed_terms({"a", "b"})

    def test_zero_vector_is_fatal(self):
        provider = RemoteEmbeddingProvider(
            "http://x",
            post=lambda *a, **k: FakeResponse({"data": [{"embedding": [0.0, 0.0]}]}),
            retries=0,
        )
        with pytest.raises(ZeroVector):
            provider.embed_terms({"a"})

    @staticmethod
    def replying(data):
        """A provider with `retries=2` whose endpoint answers `data`, and its list of POSTs."""
        posts = []

        def post(url, json=None, **kwargs):
            posts.append(json["input"])
            return FakeResponse({"data": data})

        return RemoteEmbeddingProvider("http://x", retries=2, post=post), posts

    def test_embeddings_of_unequal_length_raise_after_one_post(self):
        provider, posts = self.replying([{"embedding": [1.0, 0.0]}, {"embedding": [1.0, 0.0, 2.0]}])
        with pytest.raises(DimensionMismatch):
            provider.embed_terms({"a", "b"})
        assert len(posts) == 1

    def test_a_null_in_an_embedding_is_retried_and_never_loads_as_nan(self):
        provider, posts = self.replying([{"embedding": [1.0, None]}])
        with pytest.raises(RemoteUnavailable):
            provider.embed_terms({"a"})
        assert len(posts) == 3  # initial try + 2 retries
        assert "a" not in provider.table and provider.fetch_count == 0

    @pytest.mark.parametrize("items", [1, 3])
    def test_a_reply_with_the_wrong_number_of_items_is_unavailable(self, items):
        provider, posts = self.replying([{"embedding": [1.0, 0.0]}] * items)
        with pytest.raises(RemoteUnavailable):
            provider.embed_terms({"a", "b"})
        assert len(posts) == 3
        assert len(provider.table) == 0

    def test_dimension_is_learned_from_the_first_block(self):
        replies = iter([[{"embedding": [1.0, 0.0, 2.0]}], [{"embedding": [1.0, 0.0]}]])
        provider = RemoteEmbeddingProvider(
            "http://x", retries=0, post=lambda *a, **k: FakeResponse({"data": next(replies)})
        )
        assert provider.dimension is None
        provider.embed_terms({"a"})
        assert provider.dimension == 3
        # A later block must match it: the table refuses one of another width.
        with pytest.raises(DimensionMismatch, match="a block of dimension 2 for a table of dimension 3"):
            provider.embed_terms({"b"})

    def test_zero_vector_names_its_term(self):
        provider, posts = self.replying([{"embedding": [1.0, 0.0]}, {"embedding": [0.0, -0.0]}])
        with pytest.raises(ZeroVector, match="'desert'"):
            provider.embed_terms({"bats", "desert"})
        assert len(posts) == 1


class TestProviderConfig:
    def test_endpoint_iff_remote(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="remote", endpoint=None)
        with pytest.raises(ValueError):
            ProviderConfig(kind="deterministic-offline", endpoint="http://x")

    def test_build_offline(self, tmp_path):
        cfg = ProviderConfig(cache_path=str(tmp_path / "c.jsonl"), dimension=16, seed=3)
        provider = cfg.build()
        assert isinstance(provider, OfflineEmbeddingProvider)
        assert provider.dimension == 16
        assert provider.seed == 3

    def test_build_remote(self, tmp_path):
        cfg = ProviderConfig(kind="remote", endpoint="http://embed.local", cache_path=str(tmp_path / "c.jsonl"), batch_size=8)
        provider = cfg.build()
        assert isinstance(provider, RemoteEmbeddingProvider)
        assert (provider.endpoint, provider.model_name, provider.batch_size) == ("http://embed.local", cfg.model_name, 8)
        assert isinstance(provider.cache, VectorCache) and provider.table is provider.cache

    def test_default_model_name(self):
        assert ProviderConfig().model_name == "jina-embeddings-v2-base-en"
