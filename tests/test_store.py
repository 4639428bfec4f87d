import json
import math

import pytest

from ragmark.errors import DuplicateId, EmptyIndex, MalformedRecord, MissingField
from ragmark.store import (
    Bm25Params,
    Passage,
    build_index,
    default_top_k,
    load_passages,
    load_precomputed_results,
    sentence_pool,
)
from ragmark.text import extract_terms


def passages(*texts):
    return [Passage(id=f"d{i}", title=f"t{i}", text=t) for i, t in enumerate(texts)]


class TestBuildIndex:
    def test_document_frequency(self):
        index = build_index(passages("desert sand", "desert water", "river water"))
        assert index.doc_freq["desert"] == 2
        assert index.doc_freq["water"] == 2
        assert index.doc_freq["sand"] == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            build_index([Passage("a", "", "x"), Passage("a", "", "y")])

    def test_empty_build_succeeds_query_fails(self):
        index = build_index([])
        with pytest.raises(EmptyIndex):
            index.top_k("anything", 1)

    def test_idf_matches_hand_computation(self):
        docs = [
            "deserts are dry places",
            "water is scarce in deserts",
            "rivers carry water",
            "mountains have snow",
            "deserts have sand dunes",
        ]
        index = build_index(passages(*docs))
        n = 5
        for term, df in (("deserts", 3), ("water", 2), ("snow", 1)):
            expected = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            assert index.idf(term) == pytest.approx(expected, abs=1e-12)

    def test_idf_nonnegative_everywhere(self):
        index = build_index(passages("common term", "common term", "common term"))
        assert index.idf("common") >= 0.0


class TestTopK:
    def test_unique_term_ranks_its_passage_first(self):
        index = build_index(passages("desert sand", "ocean water", "forest trees"))
        top = index.top_k("ocean", 3)
        assert top[0].id == "d1"

    def test_k_larger_than_corpus(self):
        index = build_index(passages("a b", "c d"))
        assert len(index.top_k("a", 10)) == 2

    def test_k_none_ranks_every_passage(self):
        index = build_index(passages("desert sand", "ocean water", "forest trees"))
        assert index.top_k("ocean", None) == index.top_k("ocean", 3)

    def test_matches_reference_implementation(self):
        from oracles import bm25_reference

        docs = [
            "deserts are dry and hot with little water",
            "water flows through the river valley",
            "the desert at night is cold and dry",
        ]
        index = build_index(passages(*docs))
        query = "desert water"
        q_surfaces = [t.surface for t in extract_terms(query)]
        ref_docs = [
            [t.surface for t in extract_terms(f"t{i} {d}")] for i, d in enumerate(docs)
        ]
        ref_scores = bm25_reference(q_surfaces, ref_docs)
        ours = [index.score(q_surfaces, i) for i in range(3)]
        for a, b in zip(ours, ref_scores):
            assert a == pytest.approx(b, abs=1e-9)
        ref_rank = sorted(range(3), key=lambda i: (-ref_scores[i], f"d{i}"))
        our_rank = [p.id for p in index.top_k(query, 3)]
        assert our_rank == [f"d{i}" for i in ref_rank]

    def test_tie_break_by_ascending_id(self):
        index = build_index(
            [Passage("b", "x", "same words here"), Passage("a", "x", "same words here")]
        )
        top = index.top_k("same words", 2)
        assert [p.id for p in top] == ["a", "b"]


class TestLoaders:
    def test_load_passages(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(
            '{"id": "1", "title": "A", "text": "alpha."}\n'
            '{"id": "2", "title": "B", "text": "beta."}\n'
        )
        out = load_passages(path)
        assert [p.id for p in out] == ["1", "2"]

    def test_load_passages_duplicate_id(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text('{"id": "1", "title": "A", "text": "a"}\n{"id": "1", "title": "B", "text": "b"}\n')
        with pytest.raises(DuplicateId):
            load_passages(path)

    def test_precomputed_results_preserve_order(self, tmp_path):
        path = tmp_path / "results.jsonl"
        rows = []
        for qid in ("q1", "q2"):
            rows.append(
                {
                    "query_id": qid,
                    "passages": [
                        {"id": f"{qid}-p{i}", "title": "t", "text": "x.", "source": "kb"}
                        for i in range(3)
                    ],
                }
            )
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = load_precomputed_results(path)
        assert set(out) == {"q1", "q2"}
        assert [p.rank for p in out["q1"]] == [1, 2, 3]

    def test_kb_web_mixture_preserved(self, tmp_path):
        # 10 KB passages plus one web result, order as in the file.
        entries = [
            {"id": f"kb{i}", "title": "t", "text": "x.", "source": "kb"} for i in range(10)
        ]
        entries.append({"id": "web0", "title": "w", "text": "y.", "source": "web"})
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({"query_id": "q", "passages": entries}) + "\n")
        out = load_precomputed_results(path)["q"]
        assert len(out) == 11
        assert [p.source for p in out] == ["kb"] * 10 + ["web"]
        assert [p.id for p in out] == [e["id"] for e in entries]

    def test_truncated_line_reports_line_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"query_id": "q", "passages": []}\n{"query_id": "q2", "passa\n')
        with pytest.raises(MalformedRecord) as exc_info:
            load_precomputed_results(path)
        assert exc_info.value.line_number == 2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text('{"id": "1", "text": "no title"}\n')
        with pytest.raises(MissingField):
            load_passages(path)


class TestSentencePool:
    def test_pool_ordered_by_rank_then_position(self):
        ps = passages("First one. Second one.", "Third one.")
        pool = sentence_pool(ps)
        assert [(s.passage_id, s.start) for s in pool] == [("d0", 0), ("d0", 11), ("d1", 0)]

    def test_empty_input(self):
        assert sentence_pool([]) == ()


class TestDefaults:
    def test_bm25_params(self):
        params = Bm25Params()
        assert params.k1 == 1.2
        assert params.b == 0.75

    def test_top_k_per_context_window(self):
        assert default_top_k(4096) == 11
        assert default_top_k(2048) == 9
        assert default_top_k(32768) is None
