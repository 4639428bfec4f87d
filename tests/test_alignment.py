import numpy as np
import pytest

from ragmark.alignment import align_score, coverage
from ragmark.embeddings import OfflineEmbeddingProvider
from ragmark.errors import MissingVector
from ragmark.text import Term, extract_terms, split_sentences

from oracles import brute_force_align, brute_force_argmax


def make_span(passage_id, text):
    (span,) = split_sentences(passage_id, text)
    return span


def vectors_for(provider, *texts):
    surfaces = set()
    for text in texts:
        span = split_sentences("x", text)[0]
        surfaces |= {t.surface for t in extract_terms(span.slice(text), drop_stopwords=False)}
    return provider.embed_terms(surfaces)


class TestAlignScore:
    def test_identity_alignment(self, provider):
        span = make_span("p", "bats hunt insects at night")
        query = [Term("bats", False), Term("hunt", False), Term("night", False)]
        vectors = provider.embed_terms({"bats", "hunt", "insects", "night"})
        result = align_score(query, span, vectors)
        assert result.score == pytest.approx(3.0, abs=1e-6)
        assert set(result.per_term) == {"bats", "hunt", "night"}

    def test_single_unrelated_term(self, provider):
        span = make_span("p", "porcupine")
        query = [Term("zebra", False)]
        vectors = provider.embed_terms({"zebra", "porcupine"})
        result = align_score(query, span, vectors)
        assert len(result.per_term) == 1
        assert result.score == result.per_term["zebra"]

    def test_score_is_sum_of_per_term(self, provider):
        span = make_span("p", "deserts are dry and hot")
        query = [Term(s, False) for s in ("water", "deserts", "rain")]
        vectors = provider.embed_terms({"water", "deserts", "rain", "dry", "hot"})
        result = align_score(query, span, vectors)
        assert result.score == pytest.approx(sum(result.per_term.values()), abs=1e-9)

    def test_duplicate_query_terms_count_twice(self, provider):
        span = make_span("p", "deserts")
        vectors = provider.embed_terms({"deserts", "water"})
        once = align_score([Term("water", False)], span, vectors)
        twice = align_score([Term("water", False), Term("water", False)], span, vectors)
        assert twice.score == pytest.approx(2 * once.score, abs=1e-9)

    def test_stopword_only_sentence_contributes_zero(self, provider):
        span = make_span("p", "it is the of")
        vectors = provider.embed_terms({"water"})
        result = align_score([Term("water", False)], span, vectors)
        assert result.score == 0.0

    def test_missing_vector_raises(self, provider):
        span = make_span("p", "deserts")
        with pytest.raises(MissingVector):
            align_score([Term("water", False)], span, {})

    def test_additivity_over_term_partition(self, provider):
        span = make_span("p", "nocturnal animals conserve water in deserts")
        surfaces = ["bats", "hunt", "water", "heat", "night"]
        vectors = provider.embed_terms(
            set(surfaces) | {"nocturnal", "animals", "conserve", "water", "deserts"}
        )
        full = align_score([Term(s, False) for s in surfaces], span, vectors)
        part1 = align_score([Term(s, False) for s in surfaces[:2]], span, vectors)
        part2 = align_score([Term(s, False) for s in surfaces[2:]], span, vectors)
        assert full.score == pytest.approx(part1.score + part2.score, abs=1e-9)

    def test_argmax_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        provider = OfflineEmbeddingProvider(dimension=32, seed=99)
        vocab = [f"w{i}" for i in range(60)]
        vectors = provider.embed_terms(vocab)
        for trial in range(20):
            n_sentences = int(rng.integers(1, 5))
            sentences = [
                [vocab[j] for j in rng.choice(60, size=rng.integers(1, 8), replace=False)]
                for _ in range(n_sentences)
            ]
            query = [vocab[j] for j in rng.choice(60, size=3, replace=False)]
            spans = [make_span(f"p{i}", " ".join(s)) for i, s in enumerate(sentences)]

            scores = [align_score([Term(q, False) for q in query], sp, vectors) for sp in spans]
            ours = max(range(n_sentences), key=lambda i: (scores[i].score, -i))

            q_vecs = [vectors[q].as_array() for q in query]
            s_vecs = [[vectors[t].as_array() for t in s] for s in sentences]
            oracle_idx, oracle_score = brute_force_argmax(q_vecs, s_vecs)
            assert ours == oracle_idx
            assert scores[ours].score == pytest.approx(oracle_score, abs=1e-9)


class TestCoverage:
    def test_verbatim_evidence_covers_everything(self, provider):
        span = make_span("p", "bats hunt at night")
        vectors = provider.embed_terms({"bats", "hunt", "night"})
        state = coverage({"bats", "hunt", "night"}, [span], vectors, 0.98)
        assert state.remainder == frozenset()
        assert state.covered == {"bats", "hunt", "night"}

    def test_no_evidence_means_full_remainder(self, provider):
        state = coverage({"bats", "night"}, [], provider.embed_terms({"bats", "night"}), 0.98)
        assert state.remainder == {"bats", "night"}

    def test_good_evidence_pair_covers_query(self, provider):
        # Two evidence sentences that jointly mention every query term verbatim.
        e1 = make_span(
            "p1",
            "Mass number is the total number of protons and neutrons in a nucleus.",
        )
        e2 = make_span(
            "p2",
            "Atomic mass is approximately the mass number times an atomic mass unit.",
        )
        query = {"atomic", "mass", "protons", "neutrons"}
        surfaces = query | e1.content | e2.content
        vectors = provider.embed_terms(surfaces)
        state = coverage(query, [e1, e2], vectors, 0.98)
        assert state.remainder == frozenset()

    def test_partition_invariant(self, provider):
        span = make_span("p", "deserts are dry")
        query = {"deserts", "water"}
        vectors = provider.embed_terms({"deserts", "water", "dry"})
        state = coverage(query, [span], vectors, 0.98)
        assert state.covered | state.remainder == frozenset(query)
        assert not state.covered & state.remainder

    def test_monotonicity(self, provider):
        spans = [
            make_span("p1", "bats hunt insects"),
            make_span("p2", "deserts lack water"),
            make_span("p3", "night air is cool"),
        ]
        query = {"bats", "water", "night", "heat"}
        surfaces = set(query)
        for s in spans:
            surfaces |= s.content
        vectors = provider.embed_terms(surfaces)
        prev_covered = frozenset()
        for i in range(len(spans) + 1):
            state = coverage(query, spans[:i], vectors, 0.98)
            assert prev_covered <= state.covered
            prev_covered = state.covered

    def test_invalid_threshold(self, provider):
        with pytest.raises(ValueError):
            coverage({"a"}, [], {}, 0.0)
